// Tests for src/online/ — stochastic online scheduling:
//   * model contracts: environment factories, type validation, instance
//     generation determinism and rate;
//   * lower-bound validity: the combined release / mean-busy-time /
//     interval-LP bound never exceeds the brute-forced offline optimum on
//     tiny instances, is exact for single-machine WSPT without releases,
//     and is dominated by every policy's realized cost path by path; the
//     interval LP solves to optimality on F11's LP-audited cell, and a CRN
//     comparison solves it once per replication, not once per arm;
//   * policy behavior: greedy WSEPT beats random assignment on the
//     unrelated-machine scenario;
//   * CRN under online workloads: arms replaying the same substreams face
//     identical instances, enforced as a >= 2x paired-variance cut;
//   * scenario registry + sweep helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "experiment/adapters.hpp"
#include "experiment/engine.hpp"
#include "experiment/scenario.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "online/lower_bound.hpp"
#include "online/model.hpp"
#include "online/policies.hpp"
#include "online/simulate.hpp"
#include "util/rng.hpp"

namespace stosched {
namespace {

using experiment::OnlineScenario;
using online::Environment;
using online::JobType;
using online::OfflineBound;
using online::OfflineBoundOptions;
using online::OnlineInstance;
using online::OnlineJob;

// ---------------------------------------------------------------------------
// Model contracts.
// ---------------------------------------------------------------------------

TEST(OnlineModel, EnvironmentFactoriesAndValidation) {
  const auto ident = online::identical_machines(3, 2);
  EXPECT_EQ(ident.machines(), 3u);
  EXPECT_DOUBLE_EQ(ident.proc_time(1, 0, 2.0), 2.0);

  const auto unrelated = online::unrelated_machines({{2.0, 0.5}, {0.5, 2.0}});
  EXPECT_DOUBLE_EQ(unrelated.proc_time(0, 1, 1.0), 2.0);

  EXPECT_THROW(online::identical_machines(0, 1), std::invalid_argument);
  EXPECT_THROW(online::unrelated_machines({{1.0}, {0.0}}),
               std::invalid_argument);
  EXPECT_THROW(online::unrelated_machines({{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      online::validate_types({{0.5, 1.0, exponential_dist(1.0)}}),
      std::invalid_argument);  // probabilities must sum to 1
}

std::vector<JobType> two_type_mix() {
  return {{0.6, 2.0, exponential_dist(1.0)},
          {0.4, 1.0, erlang_dist(2, 4.0)}};
}

TEST(OnlineModel, GenerateInstanceIsDeterministicSortedAndRateCorrect) {
  const auto types = two_type_mix();
  const auto arrival = poisson_arrivals(2.0);
  const Rng master(17);
  Rng a0 = master.stream(0), a1 = master.stream(1), a2 = master.stream(2),
      a3 = master.stream(3);
  Rng b0 = master.stream(0), b1 = master.stream(1), b2 = master.stream(2),
      b3 = master.stream(3);
  const auto x =
      online::generate_online_instance(*arrival, types, 4000.0, a0, a1, a2, a3);
  const auto y =
      online::generate_online_instance(*arrival, types, 4000.0, b0, b1, b2, b3);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    EXPECT_DOUBLE_EQ(x[j].release, y[j].release);
    EXPECT_EQ(x[j].type, y[j].type);
    EXPECT_DOUBLE_EQ(x[j].size, y[j].size);
    EXPECT_DOUBLE_EQ(x[j].sample, y[j].sample);
    if (j > 0) {
      EXPECT_LE(x[j - 1].release, x[j].release);
    }
    EXPECT_DOUBLE_EQ(x[j].weight, types[x[j].type].weight);
  }
  EXPECT_NEAR(static_cast<double>(x.size()) / 4000.0, 2.0, 0.1);
  // Mix frequencies track the type probabilities.
  const auto type0 = static_cast<double>(
      std::count_if(x.begin(), x.end(),
                    [](const OnlineJob& j) { return j.type == 0; }));
  EXPECT_NEAR(type0 / static_cast<double>(x.size()), 0.6, 0.05);
}

// ---------------------------------------------------------------------------
// Lower-bound validity.
// ---------------------------------------------------------------------------

/// Realized cost of serving `jobs` on one machine in the given order,
/// idling only when forced by releases (the cheapest schedule of an order).
double order_cost(const OnlineInstance& inst, const Environment& env,
                  const std::vector<std::size_t>& jobs, std::size_t machine) {
  double t = 0.0, cost = 0.0;
  for (const std::size_t j : jobs) {
    t = std::max(t, inst[j].release) +
        env.proc_time(machine, inst[j].type, inst[j].size);
    cost += inst[j].weight * t;
  }
  return cost;
}

/// Exact offline optimum by enumerating every assignment and, per machine,
/// every processing order (machines decouple once the assignment is fixed).
double brute_force_opt(const OnlineInstance& inst, const Environment& env) {
  const std::size_t n = inst.size(), m = env.machines();
  std::vector<std::size_t> assign(n, 0);
  double best = std::numeric_limits<double>::infinity();
  for (;;) {
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<std::size_t> mine;
      for (std::size_t j = 0; j < n; ++j)
        if (assign[j] == i) mine.push_back(j);
      if (mine.empty()) continue;
      double machine_best = std::numeric_limits<double>::infinity();
      std::sort(mine.begin(), mine.end());
      do {
        machine_best = std::min(machine_best, order_cost(inst, env, mine, i));
      } while (std::next_permutation(mine.begin(), mine.end()));
      total += machine_best;
    }
    best = std::min(best, total);
    // Next assignment in base-m counting order.
    std::size_t j = 0;
    while (j < n && ++assign[j] == m) assign[j++] = 0;
    if (j == n) break;
  }
  return best;
}

TEST(OnlineLowerBound, NeverExceedsBruteForceOptimum) {
  const auto env = online::unrelated_machines({{2.0, 0.6}, {0.7, 1.8}});
  const std::vector<JobType> types{{0.5, 1.0, exponential_dist(1.0)},
                                   {0.5, 1.0, exponential_dist(1.0)}};
  Rng rng(31);
  OfflineBoundOptions opt;
  opt.use_lp = true;
  for (int trial = 0; trial < 30; ++trial) {
    OnlineInstance inst;
    const std::size_t n = 3 + rng.below(6);  // 3..8 jobs
    double t = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      OnlineJob job;
      t += rng.uniform(0.0, 1.2);
      job.release = t;
      job.type = rng.below(2);
      job.weight = rng.uniform(0.5, 3.0);
      job.size = rng.uniform(0.2, 2.5);
      job.sample = job.size;
      inst.push_back(job);
    }
    const OfflineBound lb = online::offline_lower_bound(inst, env, types, opt);
    const double opt_cost = brute_force_opt(inst, env);
    EXPECT_LE(lb.value, opt_cost * (1.0 + 1e-9))
        << "trial " << trial << ": bound " << lb.value << " exceeds optimum "
        << opt_cost;
    // The LP contains the release-bound constraints, so it can only tighten.
    EXPECT_GE(lb.lp_bound, lb.release_bound - 1e-9);
    EXPECT_DOUBLE_EQ(
        lb.value, std::max({lb.release_bound, lb.busy_bound, lb.lp_bound}));
  }
}

TEST(OnlineLowerBound, LpSolversAgreeOnTheRealBound) {
  // The dense tableau stays in the tree as the auditable reference; both
  // engines must report the same interval-indexed bound on real instances.
  const auto env = online::unrelated_machines({{2.0, 0.6}, {0.7, 1.8}});
  const std::vector<JobType> types{{0.5, 1.0, exponential_dist(1.0)},
                                   {0.5, 1.0, exponential_dist(1.0)}};
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    OnlineInstance inst;
    const std::size_t n = 5 + rng.below(16);  // 5..20 jobs
    double t = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      OnlineJob job;
      t += rng.uniform(0.0, 0.8);
      job.release = t;
      job.type = rng.below(2);
      job.weight = rng.uniform(0.5, 3.0);
      job.size = rng.uniform(0.2, 2.5);
      job.sample = job.size;
      inst.push_back(job);
    }
    OfflineBoundOptions opt;
    opt.use_lp = true;
    opt.lp_solver = lp::Solver::kRevised;
    const OfflineBound revised =
        online::offline_lower_bound(inst, env, types, opt);
    opt.lp_solver = lp::Solver::kDense;
    const OfflineBound dense =
        online::offline_lower_bound(inst, env, types, opt);
    ASSERT_GT(revised.lp_bound, 0.0);
    EXPECT_NEAR(revised.lp_bound, dense.lp_bound,
                1e-6 * (1.0 + dense.lp_bound))
        << "trial " << trial;
  }
}

TEST(OnlineLowerBound, LpBoundScalesPastTheOldJobCap) {
  // 120 jobs was unreachable under the dense-era cap of 96; the revised
  // engine makes it routine, and the default cap is now only a guard.
  const auto env = online::unrelated_machines({{2.0, 0.6}, {0.7, 1.8}});
  const std::vector<JobType> types{{0.5, 1.0, exponential_dist(1.0)},
                                   {0.5, 1.0, exponential_dist(1.0)}};
  Rng rng(99);
  OnlineInstance inst;
  double t = 0.0;
  for (std::size_t j = 0; j < 120; ++j) {
    OnlineJob job;
    t += rng.uniform(0.0, 0.3);
    job.release = t;
    job.type = rng.below(2);
    job.weight = rng.uniform(0.5, 3.0);
    job.size = rng.uniform(0.2, 2.5);
    job.sample = job.size;
    inst.push_back(job);
  }
  OfflineBoundOptions opt;
  opt.use_lp = true;
  ASSERT_LE(inst.size(), opt.lp_job_cap) << "default cap must admit 120 jobs";
  const OfflineBound lb = online::offline_lower_bound(inst, env, types, opt);
  // The LP relaxation contains the release-bound constraints, so the solved
  // bound can only tighten the combinatorial ones.
  EXPECT_GT(lb.lp_bound, 0.0);
  EXPECT_GE(lb.lp_bound, lb.release_bound - 1e-6 * lb.release_bound);
  EXPECT_DOUBLE_EQ(lb.value,
                   std::max({lb.release_bound, lb.busy_bound, lb.lp_bound}));
}

TEST(OnlineLowerBound, ExactForSingleMachineWsptWithoutReleases) {
  // m = 1, all releases 0: the mean-busy-time bound equals the WSPT cost,
  // which is the exact optimum (Smith's rule).
  const auto env = online::identical_machines(1, 1);
  const std::vector<JobType> types{{1.0, 1.0, exponential_dist(1.0)}};
  OnlineInstance inst;
  const std::vector<double> sizes{2.0, 0.5, 1.5, 1.0};
  const std::vector<double> weights{1.0, 3.0, 2.0, 0.5};
  for (std::size_t j = 0; j < sizes.size(); ++j)
    inst.push_back({0.0, 0, weights[j], sizes[j], sizes[j]});

  std::vector<std::size_t> order(inst.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] / sizes[a] > weights[b] / sizes[b];
  });
  const double wspt_cost = order_cost(inst, env, order, 0);
  const OfflineBound lb = online::offline_lower_bound(inst, env, types);
  EXPECT_NEAR(lb.busy_bound, wspt_cost, 1e-9);
  EXPECT_NEAR(lb.value, wspt_cost, 1e-9);
}

TEST(OnlineLowerBound, EveryPolicyRunStaysAboveTheBound) {
  // ratio >= 1 path by path: the policy's schedule is feasible offline.
  const OnlineScenario s = experiment::online_scenario("online-unrelated");
  experiment::EngineOptions opt;
  opt.seed = 5;
  opt.max_replications = 48;
  const auto arms = experiment::online_policy_arms();
  const auto cmp = experiment::compare_online_policies(
      s, arms, opt, experiment::Pairing::kCommonRandomNumbers);
  for (std::size_t k = 0; k < arms.size(); ++k) {
    EXPECT_GE(cmp.arm[k][0].min(), 1.0 - 1e-9) << arms[k]->name();
    EXPECT_GT(cmp.arm[k][2].mean(), 0.0);  // lower bound is positive
  }
}

TEST(OnlineBound, IntervalLpOptimalOnAuditedCell) {
  // F11's LP-audited cell (online-bernoulli, horizon 48, LP engaged): the
  // interval LP is feasible and bounded by construction, so every solve is
  // optimal and the bound reports its objective unchanged.
  OnlineScenario s = experiment::online_scenario("online-bernoulli");
  s.horizon = 48.0;
  s.bound.use_lp = true;
  const Rng master(111);
  for (std::size_t r = 0; r < 16; ++r) {
    const Rng root = master.stream(r);
    Rng arrival_rng = root.stream(0);
    Rng type_rng = root.stream(1);
    Rng size_rng = root.stream(2);
    Rng sample_rng = root.stream(3);
    const OnlineInstance inst = online::generate_online_instance(
        *s.arrival, s.types, s.horizon, arrival_rng, type_rng, size_rng,
        sample_rng);
    ASSERT_FALSE(inst.empty());
    ASSERT_LE(inst.size(), s.bound.lp_job_cap);
    const lp::Solution sol = lp::solve(
        online::interval_indexed_lp(inst, s.env, s.bound), s.bound.lp_solver);
    ASSERT_TRUE(sol.optimal()) << "instance " << r;
    EXPECT_EQ(sol.objective,
              online::offline_lower_bound(inst, s.env, s.types, s.bound)
                  .lp_bound)
        << "instance " << r;
  }
}

TEST(OnlineBound, CrnSolvesTheLpOncePerReplication) {
  // compare_online_policies prepares each CRN replication once, so it does
  // exactly 1/arms of the LP work of a per-arm body that redoes the whole
  // replication, and reports the same statistics.
  OnlineScenario s = experiment::online_scenario("online-bernoulli");
  s.horizon = 8.0;
  s.bound.use_lp = true;
  const auto arms = experiment::online_policy_arms();
  experiment::EngineOptions opt;
  opt.seed = 113;
  opt.max_replications = 16;
  const auto lp_work = [] {
    return std::pair{obs::counter_value("lp_solves"),
                     obs::counter_value("lp_iterations")};
  };

  const auto before_split = lp_work();
  const auto split = experiment::compare_online_policies(
      s, arms, opt, experiment::Pairing::kCommonRandomNumbers);
  const auto after_split = lp_work();
  const auto per_arm = experiment::run_paired(
      opt, arms.size(), online::online_metric_count(),
      experiment::Pairing::kCommonRandomNumbers,
      [&](std::size_t, std::size_t k, Rng& rng, std::span<double> out) {
        online::evaluate_online_replication(
            online::prepare_online_replication(*s.arrival, s.types, s.env,
                                               s.horizon, s.bound, rng),
            s.env, s.types, *arms[k], out);
      });
  const auto after_per_arm = lp_work();

  const std::uint64_t solves = after_split.first - before_split.first;
  const std::uint64_t iterations = after_split.second - before_split.second;
  EXPECT_GT(solves, 0u);
  EXPECT_EQ(arms.size() * solves, after_per_arm.first - after_split.first);
  EXPECT_EQ(arms.size() * iterations,
            after_per_arm.second - after_split.second);
  for (std::size_t k = 0; k < arms.size(); ++k)
    for (std::size_t d = 0; d < online::online_metric_count(); ++d)
      EXPECT_EQ(split.arm[k][d].mean(), per_arm.arm[k][d].mean())
          << "arm " << k << " metric " << d;
}

// ---------------------------------------------------------------------------
// Simulator + policies.
// ---------------------------------------------------------------------------

TEST(OnlineSim, ReplicationIsDeterministic) {
  const OnlineScenario s = experiment::online_scenario("online-bernoulli");
  const auto greedy = online::greedy_wsept_policy();
  const auto run = [&](std::uint64_t seed) {
    std::vector<double> out(online::online_metric_count());
    Rng rng(seed);
    online::evaluate_online_replication(
        online::prepare_online_replication(*s.arrival, s.types, s.env,
                                           s.horizon, s.bound, rng),
        s.env, s.types, *greedy, out);
    return out;
  };
  const std::vector<double> a = run(99), b = run(99);
  for (std::size_t d = 0; d < a.size(); ++d) EXPECT_DOUBLE_EQ(a[d], b[d]);
}

TEST(OnlineSim, SingleMachineServesInWseptOrder) {
  // Two jobs arrive while the machine is busy; the higher-index one (w/E[p])
  // must be served first even though it arrived second.
  const auto env = online::identical_machines(1, 2);
  const std::vector<JobType> types{{0.5, 1.0, deterministic_dist(1.0)},
                                   {0.5, 4.0, deterministic_dist(1.0)}};
  OnlineInstance inst;
  inst.push_back({0.0, 0, 1.0, 4.0, 4.0});  // occupies the machine to t=4
  inst.push_back({1.0, 0, 1.0, 1.0, 1.0});  // low index (1 per unit)
  inst.push_back({2.0, 1, 4.0, 1.0, 1.0});  // high index (4 per unit)
  const auto greedy = online::greedy_wsept_policy();
  Rng rng(1);
  const auto res =
      online::simulate_online(inst, env, types, *greedy, rng);
  // Completions: job 0 at 4, job 2 (overtakes) at 5, job 1 at 6.
  EXPECT_NEAR(res.weighted_completion, 1.0 * 4.0 + 4.0 * 5.0 + 1.0 * 6.0,
              1e-12);
  EXPECT_NEAR(res.makespan, 6.0, 1e-12);
  EXPECT_EQ(res.jobs, 3u);
}

TEST(OnlinePolicies, GreedyBeatsRandomOnUnrelatedMachines) {
  const OnlineScenario s = experiment::online_scenario("online-unrelated");
  experiment::EngineOptions opt;
  opt.seed = 404;
  opt.max_replications = 64;
  const auto cmp = experiment::compare_online_policies(
      s, experiment::online_policy_arms(), opt,
      experiment::Pairing::kCommonRandomNumbers);
  // diff[2] = random − greedy on the ratio metric; the separation should be
  // many standard errors wide on the specialist environment.
  EXPECT_GT(cmp.diff[2][0].mean(), 4.0 * cmp.diff[2][0].sem());
}

TEST(OnlinePolicies, CrnCutsDifferenceVarianceOnOnlinePair) {
  // The CRN acceptance regression for the online subsystem: comparing
  // greedy WSEPT against random assignment, common random numbers must cut
  // the variance of the cost difference by >= 2x versus independent
  // streams — i.e. both arms face the identical realized instance.
  OnlineScenario s = experiment::online_scenario("online-unrelated");
  s.horizon = 25.0;
  const std::vector<online::OnlinePolicyPtr> arms{
      online::greedy_wsept_policy(), online::random_assignment_policy()};
  experiment::EngineOptions opt;
  opt.seed = 2028;
  opt.max_replications = 96;
  const auto crn = experiment::compare_online_policies(
      s, arms, opt, experiment::Pairing::kCommonRandomNumbers);
  const auto ind = experiment::compare_online_policies(
      s, arms, opt, experiment::Pairing::kIndependentStreams);
  const double var_crn = crn.diff[0][1].variance();  // weighted completion
  const double var_ind = ind.diff[0][1].variance();
  ASSERT_GT(var_ind, 0.0);
  EXPECT_LE(2.0 * var_crn, var_ind)
      << "CRN variance " << var_crn << " vs independent " << var_ind;
  EXPECT_NEAR(crn.diff[0][1].mean(), ind.diff[0][1].mean(),
              4.0 * (crn.diff[0][1].sem() + ind.diff[0][1].sem()));
}

// ---------------------------------------------------------------------------
// Scenario registry + sweeps.
// ---------------------------------------------------------------------------

TEST(OnlineScenarios, RegistryResolvesTheCatalogue) {
  for (const char* expected :
       {"online-identical", "online-unrelated", "online-bursty",
        "online-bernoulli"})
    EXPECT_NO_THROW(experiment::online_scenario(expected)) << expected;
  EXPECT_THROW(experiment::online_scenario("no-such"), std::invalid_argument);

  const OnlineScenario& ident = experiment::online_scenario("online-identical");
  EXPECT_NEAR(ident.load(), 0.75, 1e-9);
  const OnlineScenario& bursty = experiment::online_scenario("online-bursty");
  EXPECT_NEAR(bursty.arrival->burstiness(), 6.0, 1e-9);
  EXPECT_NEAR(bursty.load(),
              experiment::online_scenario("online-unrelated").load(), 1e-9);
}

TEST(OnlineScenarios, SweepHelpersPreserveStructure) {
  const OnlineScenario base = experiment::online_scenario("online-identical");

  const OnlineScenario loaded = experiment::scale_to_load(base, 0.9);
  EXPECT_NEAR(loaded.load(), 0.9, 1e-9);
  EXPECT_NEAR(loaded.arrival->burstiness(), base.arrival->burstiness(), 1e-9);

  const OnlineScenario wide = experiment::with_machines(base, 6);
  EXPECT_EQ(wide.env.machines(), 6u);
  EXPECT_NEAR(wide.load(), base.load(), 1e-9);
  // Malformed input throws instead of dividing by an empty environment or
  // dereferencing a missing arrival process.
  OnlineScenario no_machines = base;
  no_machines.env.speed.clear();
  EXPECT_THROW(experiment::with_machines(no_machines, 2),
               std::invalid_argument);
  OnlineScenario no_arrivals = base;
  no_arrivals.arrival = nullptr;
  EXPECT_THROW(experiment::with_machines(no_arrivals, 2),
               std::invalid_argument);

  const OnlineScenario scv = experiment::with_size_scv(base, 4.0);
  for (std::size_t t = 0; t < base.types.size(); ++t) {
    EXPECT_NEAR(scv.types[t].size->mean(), base.types[t].size->mean(), 1e-9);
    EXPECT_NEAR(scv.types[t].size->scv(), 4.0, 1e-9);
  }
  EXPECT_NEAR(scv.load(), base.load(), 1e-9);
}

}  // namespace
}  // namespace stosched
