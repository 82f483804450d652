// Cross-cutting property tests: invariances and monotonicities the theory
// guarantees, swept over parameter grids with TEST_P. These are the
// "failure injection" layer of the suite — a bug in any numeric path tends
// to break a scaling law or an ordering long before it breaks a point test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/stosched.hpp"

namespace stosched {
namespace {

// ---------------------------------------------------------------------------
// M/G/1 analytic sweeps: PK and Cobham as functions of load and variability.
// ---------------------------------------------------------------------------

class Mg1LoadSweep : public ::testing::TestWithParam<int> {
 protected:
  double rho() const { return 0.1 + 0.08 * GetParam(); }  // 0.1 .. 0.9
};

TEST_P(Mg1LoadSweep, PkWaitIncreasesWithLoad) {
  const double r = rho();
  std::vector<queueing::ClassSpec> lo{{r, exponential_dist(1.0), 1.0}};
  std::vector<queueing::ClassSpec> hi{{r + 0.05, exponential_dist(1.0), 1.0}};
  EXPECT_LT(queueing::pk_fcfs_wait(lo), queueing::pk_fcfs_wait(hi));
}

TEST_P(Mg1LoadSweep, PkWaitIncreasesWithScv) {
  const double r = rho();
  std::vector<queueing::ClassSpec> low_var{{r, erlang_dist(4, 4.0), 1.0}};
  std::vector<queueing::ClassSpec> exp_var{{r, exponential_dist(1.0), 1.0}};
  std::vector<queueing::ClassSpec> hi_var{{r, hyperexp2_dist(1.0, 6.0), 1.0}};
  EXPECT_LT(queueing::pk_fcfs_wait(low_var), queueing::pk_fcfs_wait(exp_var));
  EXPECT_LT(queueing::pk_fcfs_wait(exp_var), queueing::pk_fcfs_wait(hi_var));
}

TEST_P(Mg1LoadSweep, CobhamTopClassBeatsFcfsBottomClassPays) {
  // Splitting the load into two classes: priority helps the top class and
  // hurts the bottom one relative to FCFS; the rho-weighted sum is fixed.
  const double r = rho();
  std::vector<queueing::ClassSpec> classes{
      {r / 2.0, exponential_dist(1.0), 1.0},
      {r / 2.0, exponential_dist(1.0), 1.0}};
  const double fcfs = queueing::pk_fcfs_wait(classes);
  const auto waits = queueing::cobham_waits(classes, {0, 1});
  EXPECT_LT(waits[0], fcfs + 1e-12);
  EXPECT_GT(waits[1], fcfs - 1e-12);
  EXPECT_NEAR(0.5 * r * waits[0] + 0.5 * r * waits[1],
              queueing::kleinrock_invariant(classes), 1e-9);
}

TEST_P(Mg1LoadSweep, PreemptiveTopClassSeesIsolatedQueue) {
  const double r = rho();
  std::vector<queueing::ClassSpec> classes{
      {r / 2.0, exponential_dist(1.0), 1.0},
      {r / 2.0, exponential_dist(2.0), 1.0}};
  const auto sojourns = queueing::preemptive_resume_sojourns(classes, {0, 1});
  // Top class: M/M/1 alone with rho/2: T = E[S]/(1 - rho/2).
  EXPECT_NEAR(sojourns[0], 1.0 / (1.0 - r / 2.0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(LoadGrid, Mg1LoadSweep, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Gittins index: exact transformation laws.
// ---------------------------------------------------------------------------

class GittinsTransforms : public ::testing::TestWithParam<int> {
 protected:
  bandit::MarkovProject project() const {
    Rng rng(4000 + GetParam());
    return bandit::random_project(3 + rng.below(4), rng);
  }
};

TEST_P(GittinsTransforms, ShiftCovariance) {
  // gamma(R + c) = gamma(R) + c: adding a constant to every reward adds the
  // same constant to the index (both numerator and denominator are
  // discounted sums over the same stopping time).
  const auto p = project();
  auto shifted = p;
  const double c = 0.37;
  for (auto& r : shifted.reward) r += c;
  const auto g = bandit::gittins_largest_index(p, 0.9);
  const auto gs = bandit::gittins_largest_index(shifted, 0.9);
  for (std::size_t s = 0; s < p.num_states(); ++s)
    EXPECT_NEAR(gs[s], g[s] + c, 1e-9);
}

TEST_P(GittinsTransforms, ScaleEquivariance) {
  const auto p = project();
  auto scaled = p;
  const double a = 2.5;
  for (auto& r : scaled.reward) r *= a;
  const auto g = bandit::gittins_largest_index(p, 0.9);
  const auto gs = bandit::gittins_largest_index(scaled, 0.9);
  for (std::size_t s = 0; s < p.num_states(); ++s)
    EXPECT_NEAR(gs[s], a * g[s], 1e-9);
}

TEST_P(GittinsTransforms, SmallBetaApproachesMyopic) {
  // As beta -> 0 the index converges to the immediate reward.
  const auto p = project();
  const auto g = bandit::gittins_largest_index(p, 0.01);
  for (std::size_t s = 0; s < p.num_states(); ++s)
    EXPECT_NEAR(g[s], p.reward[s], 0.02);
}

TEST_P(GittinsTransforms, IndexDominatesReward) {
  // gamma_i >= R_i always (stopping after one pull is admissible).
  const auto p = project();
  const auto g = bandit::gittins_largest_index(p, 0.9);
  for (std::size_t s = 0; s < p.num_states(); ++s)
    EXPECT_GE(g[s], p.reward[s] - 1e-9);
}

TEST_P(GittinsTransforms, IndexMonotoneInBeta) {
  // For nonnegative rewards the index (as best reward *rate*) cannot drop
  // below max(R_i, ...) and empirically grows with patience toward the
  // best sustainable rate; check the max-state index is nondecreasing.
  const auto p = project();
  const auto g_low = bandit::gittins_largest_index(p, 0.3);
  const auto g_high = bandit::gittins_largest_index(p, 0.95);
  const double max_low = *std::max_element(g_low.begin(), g_low.end());
  const double max_high = *std::max_element(g_high.begin(), g_high.end());
  // The top state's index equals max R at every beta; others may move.
  EXPECT_NEAR(max_low, max_high, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Projects, GittinsTransforms, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Whittle index transformation laws.
// ---------------------------------------------------------------------------

TEST(WhittleTransforms, ActiveRewardShiftShiftsIndex) {
  // Adding c to every *active* reward raises every index by exactly c (the
  // subsidy compensates passivity).
  restless::RestlessProject p;
  p.reward_passive = {0.0, 0.1, 0.2};
  p.reward_active = {0.5, 0.4, 0.9};
  p.trans_passive = {{0.2, 0.5, 0.3}, {0.4, 0.4, 0.2}, {0.1, 0.3, 0.6}};
  p.trans_active = {{0.5, 0.3, 0.2}, {0.2, 0.5, 0.3}, {0.3, 0.3, 0.4}};
  const auto base = restless::whittle_index(p);
  ASSERT_TRUE(base.indexable);
  auto shifted = p;
  const double c = 0.4;
  for (auto& r : shifted.reward_active) r += c;
  const auto res = restless::whittle_index(shifted);
  ASSERT_TRUE(res.indexable);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_NEAR(res.index[s], base.index[s] + c, 1e-4);
}

TEST(WhittleTransforms, PassiveRewardShiftLowersIndex) {
  restless::RestlessProject p;
  p.reward_passive = {0.0, 0.1, 0.2};
  p.reward_active = {0.5, 0.4, 0.9};
  p.trans_passive = {{0.2, 0.5, 0.3}, {0.4, 0.4, 0.2}, {0.1, 0.3, 0.6}};
  p.trans_active = p.trans_passive;
  const auto base = restless::whittle_index(p);
  ASSERT_TRUE(base.indexable);
  auto shifted = p;
  const double c = 0.25;
  for (auto& r : shifted.reward_passive) r += c;
  const auto res = restless::whittle_index(shifted);
  ASSERT_TRUE(res.indexable);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_NEAR(res.index[s], base.index[s] - c, 1e-4);
}

// ---------------------------------------------------------------------------
// Subset DP structure.
// ---------------------------------------------------------------------------

class SubsetDpStructure : public ::testing::TestWithParam<int> {
 protected:
  std::vector<batch::ExpJob> jobs() const {
    Rng rng(5000 + GetParam());
    std::vector<batch::ExpJob> out(4 + rng.below(5));
    for (auto& j : out) {
      j.rate = rng.uniform(0.3, 3.0);
      j.weight = rng.uniform(0.5, 2.0);
    }
    return out;
  }
};

TEST_P(SubsetDpStructure, MoreMachinesNeverHurt) {
  const auto js = jobs();
  for (const auto obj :
       {batch::ExpObjective::kFlowtime, batch::ExpObjective::kMakespan}) {
    const double m1 = batch::exp_dp_optimal(js, 1, obj);
    const double m2 = batch::exp_dp_optimal(js, 2, obj);
    const double m3 = batch::exp_dp_optimal(js, 3, obj);
    EXPECT_GE(m1, m2 - 1e-9);
    EXPECT_GE(m2, m3 - 1e-9);
  }
}

TEST_P(SubsetDpStructure, MakespanAtLeastCriticalBounds) {
  const auto js = jobs();
  const unsigned m = 2;
  const double mk = batch::exp_dp_optimal(js, m, batch::ExpObjective::kMakespan);
  double total = 0.0, longest = 0.0;
  for (const auto& j : js) {
    total += 1.0 / j.rate;
    longest = std::max(longest, 1.0 / j.rate);
  }
  EXPECT_GE(mk, total / m - 1e-9);  // work bound
  EXPECT_GE(mk, longest - 1e-9);    // longest-job bound
}

TEST_P(SubsetDpStructure, FlowtimeDominatesMakespanTimesOne) {
  // sum C_j >= max C_j trivially; the DP values must respect it.
  const auto js = jobs();
  const double fl = batch::exp_dp_optimal(js, 2, batch::ExpObjective::kFlowtime);
  const double mk = batch::exp_dp_optimal(js, 2, batch::ExpObjective::kMakespan);
  EXPECT_GE(fl, mk - 1e-9);
}

TEST_P(SubsetDpStructure, PermutationInvariance) {
  auto js = jobs();
  const double before =
      batch::exp_dp_optimal(js, 2, batch::ExpObjective::kFlowtime);
  std::rotate(js.begin(), js.begin() + 1, js.end());
  const double after =
      batch::exp_dp_optimal(js, 2, batch::ExpObjective::kFlowtime);
  EXPECT_NEAR(before, after, 1e-9);
}

TEST_P(SubsetDpStructure, UnitWeightsReduceWeightedToPlain) {
  auto js = jobs();
  for (auto& j : js) j.weight = 1.0;
  EXPECT_NEAR(batch::exp_dp_optimal(js, 2, batch::ExpObjective::kFlowtime),
              batch::exp_dp_optimal(js, 2,
                                    batch::ExpObjective::kWeightedFlowtime),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Instances, SubsetDpStructure, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Klimov exit work: set monotonicity.
// ---------------------------------------------------------------------------

TEST(ExitWorkStructure, GrowingSetGrowsWork) {
  // tau_j^S is nondecreasing in S (more classes to wander through before
  // exiting).
  const std::vector<double> means{0.5, 1.0, 0.8};
  const std::vector<std::vector<double>> p{
      {0.1, 0.3, 0.2}, {0.2, 0.1, 0.3}, {0.3, 0.2, 0.1}};
  const auto t1 = queueing::exit_work(means, p, {1, 0, 0});
  const auto t2 = queueing::exit_work(means, p, {1, 1, 0});
  const auto t3 = queueing::exit_work(means, p, {1, 1, 1});
  EXPECT_LE(t1[0], t2[0] + 1e-12);
  EXPECT_LE(t2[0], t3[0] + 1e-12);
  EXPECT_LE(t2[1], t3[1] + 1e-12);
}

TEST(ExitWorkStructure, SingletonClosedForm) {
  // tau_j^{j} = beta_j / (1 - p_jj).
  const std::vector<double> means{2.0};
  const std::vector<std::vector<double>> p{{0.3}};
  EXPECT_NEAR(queueing::exit_work(means, p, {1})[0], 2.0 / 0.7, 1e-12);
}

// ---------------------------------------------------------------------------
// Simulator determinism and horizon scaling.
// ---------------------------------------------------------------------------

TEST(Determinism, MmmSimulator) {
  std::vector<queueing::ClassSpec> classes{
      {0.8, exponential_dist(1.0), 1.0}, {0.5, exponential_dist(1.5), 2.0}};
  Rng r1(9), r2(9);
  const auto a = queueing::simulate_mmm(classes, 2, {0, 1}, 1e4, 1e3, r1);
  const auto b = queueing::simulate_mmm(classes, 2, {0, 1}, 1e4, 1e3, r2);
  EXPECT_DOUBLE_EQ(a.cost_rate, b.cost_rate);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(Determinism, PollingSimulator) {
  std::vector<queueing::ClassSpec> classes{
      {0.3, exponential_dist(1.0), 1.0}, {0.3, exponential_dist(1.0), 1.0}};
  queueing::PollingOptions opt;
  opt.switchover = deterministic_dist(0.2);
  opt.horizon = 1e4;
  opt.warmup = 1e3;
  Rng r1(11), r2(11);
  const auto a = queueing::simulate_polling(classes, opt, r1);
  const auto b = queueing::simulate_polling(classes, opt, r2);
  EXPECT_DOUBLE_EQ(a.cost_rate, b.cost_rate);
  EXPECT_DOUBLE_EQ(a.switching_fraction, b.switching_fraction);
}

TEST(Determinism, NetworkSimulator) {
  const auto cfg =
      queueing::lu_kumar_network(1.0, 0.01, 0.5, 0.01, 0.5, false);
  Rng r1(13), r2(13);
  const auto a = queueing::simulate_network(cfg, 5000.0, 20, r1);
  const auto b = queueing::simulate_network(cfg, 5000.0, 20, r2);
  EXPECT_EQ(a.total_jobs, b.total_jobs);
  EXPECT_DOUBLE_EQ(a.mean_total, b.mean_total);
}

TEST(Determinism, RestlessSimulator) {
  Rng prng(15);
  const auto proto = restless::random_restless_project(3, prng);
  const auto inst = restless::symmetric_instance(proto, 4, 1);
  restless::PriorityTable table(4, restless::myopic_index(proto));
  Rng r1(17), r2(17);
  EXPECT_DOUBLE_EQ(
      restless::simulate_priority_policy(inst, table, 5000, 500, r1),
      restless::simulate_priority_policy(inst, table, 5000, 500, r2));
}

// ---------------------------------------------------------------------------
// Fluid model conservation.
// ---------------------------------------------------------------------------

TEST(FluidStructure, WorkConservationAlongTrajectory) {
  // Total fluid mass changes at rate sum(lambda) - (service effort spent);
  // while any class is backlogged the server works at full rate, so total
  // d/dt = sum(lambda) - served rate. Check mass at drain time is 0 and
  // trajectory is nonincreasing once arrivals < capacity for the top class.
  std::vector<queueing::FluidClass> classes{{0.2, 1.5, 1.0}, {0.1, 1.0, 2.0}};
  const auto traj =
      queueing::fluid_drain(classes, {4.0, 2.0}, {1, 0});
  const auto& final_levels = traj.levels.back();
  for (const double q : final_levels) EXPECT_NEAR(q, 0.0, 1e-9);
  EXPECT_GT(traj.drain_time, 0.0);
  EXPECT_GT(traj.cost_integral, 0.0);
}

TEST(FluidStructure, CostScalesQuadraticallyWithInitialMass) {
  // Fluid draining from k-times the backlog costs ~k^2 (triangle area).
  std::vector<queueing::FluidClass> classes{{0.0, 1.0, 1.0}};
  const double c1 =
      queueing::fluid_drain(classes, {5.0}, {0}).cost_integral;
  const double c2 =
      queueing::fluid_drain(classes, {10.0}, {0}).cost_integral;
  EXPECT_NEAR(c2 / c1, 4.0, 1e-9);
}

// ---------------------------------------------------------------------------
// LP solver structure: scaling invariances.
// ---------------------------------------------------------------------------

TEST(SimplexStructure, ObjectiveScalingScalesSolution) {
  auto p1 = lp::Problem::maximize({3.0, 5.0});
  p1.subject_to({1.0, 2.0}, lp::Sense::kLe, 10.0)
      .subject_to({3.0, 1.0}, lp::Sense::kLe, 15.0);
  auto p2 = lp::Problem::maximize({6.0, 10.0});
  p2.constraints = p1.constraints;
  const auto s1 = lp::solve(p1);
  const auto s2 = lp::solve(p2);
  ASSERT_TRUE(s1.optimal() && s2.optimal());
  EXPECT_NEAR(s2.objective, 2.0 * s1.objective, 1e-8);
  for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(s2.x[j], s1.x[j], 1e-8);
}

TEST(SimplexStructure, RhsScalingScalesSolution) {
  auto p1 = lp::Problem::maximize({3.0, 5.0});
  p1.subject_to({1.0, 2.0}, lp::Sense::kLe, 10.0)
      .subject_to({3.0, 1.0}, lp::Sense::kLe, 15.0);
  auto p2 = p1;
  for (auto& c : p2.constraints) c.rhs *= 3.0;
  const auto s1 = lp::solve(p1);
  const auto s2 = lp::solve(p2);
  ASSERT_TRUE(s1.optimal() && s2.optimal());
  EXPECT_NEAR(s2.objective, 3.0 * s1.objective, 1e-8);
  // Duals are invariant to rhs scaling.
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(s2.duals[i], s1.duals[i], 1e-8);
}

// ---------------------------------------------------------------------------
// End-to-end: common random numbers sharpen policy comparisons.
// ---------------------------------------------------------------------------

TEST(CommonRandomNumbers, PairedComparisonHasLowerVariance) {
  Rng rng(19);
  const batch::Batch jobs = batch::random_batch(8, rng);
  const auto a = batch::wsept_order(jobs);
  const auto b = batch::lept_order(jobs);

  // One replication of a sequence: the list policy on one machine.
  const auto weighted_flowtime = [](const batch::Batch& batch_jobs,
                                    const batch::Order& order, Rng& r) {
    return batch::simulate_list_policy(batch_jobs, order, 1, r)
        .weighted_flowtime;
  };
  // Paired: same stream for both policies per replication.
  RunningStat paired, unpaired;
  const Rng master(23);
  for (std::size_t r = 0; r < 2000; ++r) {
    Rng s1 = master.stream(r);
    Rng s2 = master.stream(r);  // identical draws
    paired.push(weighted_flowtime(jobs, a, s1) - weighted_flowtime(jobs, b, s2));
    Rng u1 = master.stream(2 * r + 100000);
    Rng u2 = master.stream(2 * r + 100001);
    unpaired.push(weighted_flowtime(jobs, a, u1) -
                  weighted_flowtime(jobs, b, u2));
  }
  EXPECT_LT(paired.variance(), unpaired.variance());
  // Both estimate the same exact difference.
  const double exact = batch::exact_weighted_flowtime(jobs, a) -
                       batch::exact_weighted_flowtime(jobs, b);
  EXPECT_NEAR(paired.mean(), exact, 6.0 * paired.sem());
}

}  // namespace
}  // namespace stosched
