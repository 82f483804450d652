// Tests for batch/ single-machine results (survey §1):
//   * Rothkopf/Smith: WSEPT attains the exhaustive optimum of the exact
//     expected weighted flowtime — the paper's first theorem, checked on
//     randomized instances (property test);
//   * simulation agrees with the exact formula;
//   * Sevcik preemptive index policy equals the preemptive DP optimum and
//     preemption strictly helps on DFR-like discrete jobs.
#include <gtest/gtest.h>

#include <cmath>

#include "batch/job.hpp"
#include "batch/single_machine.hpp"
#include "experiment/adapters.hpp"
#include "util/rng.hpp"

namespace stosched::batch {
namespace {

TEST(ExactFlowtime, HandComputed) {
  Batch jobs{{2.0, deterministic_dist(1.0)}, {1.0, deterministic_dist(3.0)}};
  // Order (0, 1): C0 = 1, C1 = 4 -> 2*1 + 1*4 = 6.
  EXPECT_DOUBLE_EQ(exact_weighted_flowtime(jobs, {0, 1}), 6.0);
  // Order (1, 0): C1 = 3, C0 = 4 -> 1*3 + 2*4 = 11.
  EXPECT_DOUBLE_EQ(exact_weighted_flowtime(jobs, {1, 0}), 11.0);
}

TEST(ExactFlowtime, DependsOnlyOnMeans) {
  // Same means, different laws -> same exact value.
  Batch a{{1.0, exponential_dist(0.5)}, {2.0, deterministic_dist(3.0)}};
  Batch b{{1.0, deterministic_dist(2.0)}, {2.0, erlang_dist(3, 1.0)}};
  EXPECT_DOUBLE_EQ(exact_weighted_flowtime(a, {0, 1}),
                   exact_weighted_flowtime(b, {0, 1}));
}

class WseptOptimality : public ::testing::TestWithParam<int> {};

TEST_P(WseptOptimality, WseptAttainsExhaustiveMinimum) {
  Rng rng(100 + GetParam());
  const std::size_t n = 3 + rng.below(5);  // 3..7 jobs
  const Batch jobs = random_batch(n, rng);
  double best = 0.0;
  best_order_exhaustive(jobs, &best);
  const double wsept = exact_weighted_flowtime(jobs, wsept_order(jobs));
  EXPECT_NEAR(wsept, best, 1e-9 * (1.0 + best));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, WseptOptimality,
                         ::testing::Range(0, 25));

TEST(Wsept, BeatsSeptWhenWeightsMatter) {
  // A heavy long job should jump ahead of a light short one.
  Batch jobs{{10.0, deterministic_dist(4.0)}, {0.1, deterministic_dist(1.0)}};
  const auto order = wsept_order(jobs);
  EXPECT_EQ(order[0], 0u);
  EXPECT_LT(exact_weighted_flowtime(jobs, order),
            exact_weighted_flowtime(jobs, sept_order(jobs)));
}

TEST(Simulation, UnbiasedForExactValue) {
  Rng rng(7);
  const Batch jobs = random_batch(5, rng);
  const Order order = wsept_order(jobs);
  const double exact = exact_weighted_flowtime(jobs, order);
  // Through the experiment engine: the list policy on one machine.
  const experiment::BatchScenario scenario{"wsept-unbiased", "", jobs, 1};
  experiment::EngineOptions opt;
  opt.seed = 11;
  opt.max_replications = 20000;
  const auto res = experiment::run_policy(scenario, order, opt);
  const auto est = make_estimate(res.metrics[0]);
  EXPECT_TRUE(est.covers(exact))
      << "exact " << exact << " vs " << est.value << " ± " << est.half_width;
}

TEST(Exhaustive, RejectsOversizedInstances) {
  Rng rng(1);
  const Batch jobs = random_batch(11, rng);
  EXPECT_THROW(best_order_exhaustive(jobs), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Preemptive machinery (Sevcik).
// ---------------------------------------------------------------------------

TEST(Sevcik, IndexOfTwoPointJob) {
  // Two-point law: 1 w.p. 0.8, 10 w.p. 0.2; weight 1.
  DiscreteJob job{1.0, {1.0, 10.0}, {0.8, 0.2}};
  // Level 0: best stop at t=1: P=0.8, E[min] = 0.8*1 + 0.2*1 = 1 -> 0.8.
  // Stopping at 10 gives 1 / (0.8 + 0.2*10) = 1/2.8 ≈ 0.357. So 0.8.
  EXPECT_NEAR(sevcik_index(job, 0), 0.8, 1e-12);
  // Level 1 (survived the short branch): completes surely after 9 more.
  EXPECT_NEAR(sevcik_index(job, 1), 1.0 / 9.0, 1e-12);
}

TEST(Sevcik, IndexScalesWithWeight) {
  DiscreteJob a{1.0, {1.0, 4.0}, {0.5, 0.5}};
  DiscreteJob b{3.0, {1.0, 4.0}, {0.5, 0.5}};
  EXPECT_NEAR(3.0 * sevcik_index(a, 0), sevcik_index(b, 0), 1e-12);
}

class SevcikOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SevcikOptimality, IndexPolicyMatchesPreemptiveDp) {
  Rng rng(500 + GetParam());
  const std::size_t n = 2 + rng.below(3);  // 2..4 jobs
  std::vector<DiscreteJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    DiscreteJob j;
    j.weight = rng.uniform(0.5, 3.0);
    const double v1 = rng.uniform(0.3, 2.0);
    const double v2 = v1 + rng.uniform(0.5, 6.0);
    const double p1 = rng.uniform(0.2, 0.9);
    j.values = {v1, v2};
    j.probs = {p1, 1.0 - p1};
    jobs.push_back(std::move(j));
  }
  const double dp = preemptive_optimal_value(jobs);
  const double index = preemptive_index_policy_value(jobs);
  // Sevcik's theorem: the index policy is optimal for this model.
  EXPECT_NEAR(index, dp, 1e-9 * (1.0 + dp));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SevcikOptimality,
                         ::testing::Range(0, 25));

TEST(Sevcik, PreemptionHelpsOnDfrJobs) {
  // Strongly bimodal jobs: trying the short branch first and abandoning is
  // strictly better than committing (nonpreemptive).
  std::vector<DiscreteJob> jobs{
      {1.0, {0.5, 20.0}, {0.7, 0.3}},
      {1.0, {0.5, 20.0}, {0.7, 0.3}},
      {1.0, {0.5, 20.0}, {0.7, 0.3}},
  };
  const double pre = preemptive_optimal_value(jobs);
  const double nonpre = nonpreemptive_optimal_value(jobs);
  EXPECT_LT(pre, nonpre - 1e-6);
}

TEST(Sevcik, PreemptionUselessOnDeterministicJobs) {
  std::vector<DiscreteJob> jobs{
      {2.0, {1.0}, {1.0}},
      {1.0, {2.0}, {1.0}},
      {1.5, {3.0}, {1.0}},
  };
  EXPECT_NEAR(preemptive_optimal_value(jobs),
              nonpreemptive_optimal_value(jobs), 1e-9);
}

TEST(Sevcik, ToDiscreteRejectsContinuousLaws) {
  Batch jobs{{1.0, exponential_dist(1.0)}};
  EXPECT_THROW(to_discrete_jobs(jobs), std::invalid_argument);
}

TEST(Sevcik, ToDiscreteConverts) {
  Batch jobs{{2.0, two_point_dist(1.0, 0.5, 3.0)},
             {1.0, discrete_dist({2.0}, {1.0})}};
  const auto dj = to_discrete_jobs(jobs);
  ASSERT_EQ(dj.size(), 2u);
  EXPECT_DOUBLE_EQ(dj[0].weight, 2.0);
  EXPECT_EQ(dj[0].values.size(), 2u);
  EXPECT_EQ(dj[1].values.size(), 1u);
}

TEST(Orders, GeneratorsSane) {
  Rng rng(9);
  const Batch jobs = random_batch(6, rng);
  const auto sept = sept_order(jobs);
  for (std::size_t i = 1; i < sept.size(); ++i)
    EXPECT_LE(jobs[sept[i - 1]].processing->mean(),
              jobs[sept[i]].processing->mean());
  const auto lept = lept_order(jobs);
  EXPECT_EQ(sept.front(), lept.back());
  const auto rnd = random_order(6, rng);
  std::vector<char> seen(6, 0);
  for (const auto j : rnd) seen[j] = 1;
  for (const char s : seen) EXPECT_TRUE(s);
}

// Golden values of the preemptive level DP, pinned bit-exactly. Jobs with
// one to three support points make any change in the level layout or the
// DP order show up here. A mismatch prints the new value as a hexfloat.
TEST(ExactGolden, SevcikLevelDpValues) {
  const std::vector<DiscreteJob> jobs{
      {1.5, {0.5, 4.0}, {0.6, 0.4}},
      {1.0, {0.3, 1.0, 6.0}, {0.3, 0.5, 0.2}},
      {2.0, {1.2}, {1.0}},
      {0.7, {0.2, 3.0}, {0.8, 0.2}},
  };
  const double opt = preemptive_optimal_value(jobs);
  const double index = preemptive_index_policy_value(jobs);
  EXPECT_EQ(opt, 0x1.a9aee631f8a08p+3) << std::hexfloat << opt;
  EXPECT_EQ(index, 0x1.a9aee631f8a08p+3) << std::hexfloat << index;
}

}  // namespace
}  // namespace stosched::batch
