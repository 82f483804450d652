// Tests for restless/ (survey §2):
//   * the Whittle index degenerates to sensible values on decoupled
//     projects;
//   * indexability detection and index monotonicity;
//   * the LP relaxation really is an upper bound (vs the exact optimum and
//     vs simulated policies) — Whittle's construction [48];
//   * the primal-dual advantage ranks states consistently with the Whittle
//     index on indexable projects [7].
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "restless/relaxation.hpp"
#include "restless/restless_project.hpp"
#include "restless/restless_sim.hpp"
#include "restless/whittle.hpp"
#include "util/rng.hpp"

namespace stosched::restless {
namespace {

/// A project whose active/passive dynamics are *identical* and rewards
/// differ by a constant d(s): the Whittle index is exactly d(s).
RestlessProject constant_advantage_project() {
  RestlessProject p;
  p.reward_passive = {0.0, 0.1, 0.2};
  p.reward_active = {0.5, 0.4, 0.9};  // advantage 0.5, 0.3, 0.7
  p.trans_passive = {{0.2, 0.5, 0.3}, {0.4, 0.4, 0.2}, {0.1, 0.3, 0.6}};
  p.trans_active = p.trans_passive;
  return p;
}

TEST(Whittle, ConstantAdvantageProjectIndexEqualsAdvantage) {
  const auto p = constant_advantage_project();
  const auto res = whittle_index(p);
  ASSERT_TRUE(res.indexable);
  EXPECT_NEAR(res.index[0], 0.5, 1e-5);
  EXPECT_NEAR(res.index[1], 0.3, 1e-5);
  EXPECT_NEAR(res.index[2], 0.7, 1e-5);
}

TEST(Whittle, PassiveSetGrowsWithSubsidy) {
  const auto p = constant_advantage_project();
  const auto lo = passive_set(p, 0.0);
  const auto hi = passive_set(p, 1.0);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_LE(lo[s], hi[s]);
  // At subsidy 1.0 (> all advantages) everything is passive.
  for (std::size_t s = 0; s < 3; ++s) EXPECT_TRUE(hi[s]);
}

class WhittleRandom : public ::testing::TestWithParam<int> {};

TEST_P(WhittleRandom, IndexIsCriticalSubsidy) {
  Rng rng(2000 + GetParam());
  const auto p = random_restless_project(3 + rng.below(3), rng);
  const auto res = whittle_index(p);
  if (!res.indexable) GTEST_SKIP() << "instance not indexable";
  for (std::size_t s = 0; s < p.num_states(); ++s) {
    // Just below the index the state prefers active; just above, passive.
    EXPECT_FALSE(passive_set(p, res.index[s] - 1e-3)[s]);
    EXPECT_TRUE(passive_set(p, res.index[s] + 1e-3)[s]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, WhittleRandom,
                         ::testing::Range(0, 10));

TEST(Relaxation, UpperBoundsExactOptimum) {
  Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const auto proto = random_restless_project(3, rng);
    const auto inst = symmetric_instance(proto, 3, 1);
    const double bound = solve_relaxation(inst).bound;
    const double opt = optimal_average_reward(inst);
    EXPECT_GE(bound, opt - 1e-6) << "trial " << trial;
  }
}

TEST(Relaxation, SymmetricShortcutMatchesFullLp) {
  Rng rng(4);
  const auto proto = random_restless_project(3, rng);
  const auto inst = symmetric_instance(proto, 3, 1);
  const double full = solve_relaxation(inst).bound;
  const double sym = solve_relaxation_symmetric(proto, 3, 1).bound;
  EXPECT_NEAR(full, sym, 1e-6 * (1.0 + std::abs(full)));
}

TEST(Relaxation, ActivityBudgetRespected) {
  Rng rng(5);
  const auto proto = random_restless_project(4, rng);
  const auto r = solve_relaxation_symmetric(proto, 4, 1);
  double total_activity = 0.0;
  for (const double a : r.activity[0]) total_activity += a;
  EXPECT_NEAR(total_activity, 0.25, 1e-7);
}

TEST(Relaxation, AdvantageOrdersLikeWhittleOnIndexable) {
  const auto p = constant_advantage_project();
  const auto w = whittle_index(p);
  ASSERT_TRUE(w.indexable);
  const auto r = solve_relaxation_symmetric(p, 2, 1);
  // Same ranking of states (advantage is a strictly monotone transform of
  // the index for constant-dynamics projects).
  std::vector<std::size_t> byW{0, 1, 2}, byA{0, 1, 2};
  std::sort(byW.begin(), byW.end(),
            [&](auto a, auto b) { return w.index[a] > w.index[b]; });
  std::sort(byA.begin(), byA.end(), [&](auto a, auto b) {
    return r.advantage[0][a] > r.advantage[0][b];
  });
  EXPECT_EQ(byW, byA);
}

TEST(RestlessSim, WhittleBeatsRandomOnSymmetricInstance) {
  Rng rng(6);
  const auto proto = random_restless_project(4, rng);
  const auto w = whittle_index(proto);
  if (!w.indexable) GTEST_SKIP();
  const auto inst = symmetric_instance(proto, 8, 2);
  PriorityTable table(8, w.index);
  Rng r1(7), r2(8);
  const double whittle = simulate_priority_policy(inst, table, 40000, 4000, r1);
  const double random = simulate_random_policy(inst, 40000, 4000, r2);
  EXPECT_GT(whittle, random - 0.02);
}

TEST(RestlessSim, SimulationMatchesExactChainValue) {
  Rng rng(9);
  const auto proto = random_restless_project(3, rng);
  const auto inst = symmetric_instance(proto, 2, 1);
  const auto w = whittle_index(proto);
  if (!w.indexable) GTEST_SKIP();
  PriorityTable table(2, w.index);
  const double exact = priority_policy_average_reward(inst, table);
  Rng sim_rng(10);
  const double sim = simulate_priority_policy(inst, table, 400000, 20000, sim_rng);
  EXPECT_NEAR(sim, exact, 0.02 * (1.0 + std::abs(exact)));
}

TEST(RestlessSim, OptimalDominatesWhittleAndMyopic) {
  Rng rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    const auto proto = random_restless_project(3, rng);
    const auto inst = symmetric_instance(proto, 3, 1);
    const double opt = optimal_average_reward(inst);
    const auto w = whittle_index(proto);
    if (w.indexable) {
      PriorityTable table(3, w.index);
      EXPECT_LE(priority_policy_average_reward(inst, table), opt + 1e-7);
    }
    PriorityTable myo(3, myopic_index(proto));
    EXPECT_LE(priority_policy_average_reward(inst, myo), opt + 1e-7);
  }
}

TEST(RestlessProject, ValidateCatchesShapeErrors) {
  RestlessProject p;
  p.reward_passive = {0.0, 0.0};
  p.reward_active = {1.0};  // wrong length
  p.trans_passive = {{1.0, 0.0}, {0.0, 1.0}};
  p.trans_active = p.trans_passive;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(RestlessInstance, ActivateBoundsChecked) {
  Rng rng(12);
  RestlessInstance inst;
  inst.projects.push_back(random_restless_project(2, rng));
  inst.activate = 2;  // > N
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

// Golden values of the exact product-space solvers, pinned bit-exactly.
// Projects of different sizes with two of three active make any change in
// the joint-state layout, the subset order or the order of the expanded
// joint transitions show up here. A mismatch prints the new value as a
// hexfloat.
TEST(ExactGolden, RestlessOptimalAndPriorityAverageReward) {
  Rng rng(2025);
  RestlessInstance inst;
  for (const std::size_t states : {2, 3, 2})
    inst.projects.push_back(random_restless_project(states, rng));
  inst.activate = 2;
  PriorityTable myopic;
  for (const auto& p : inst.projects) myopic.push_back(myopic_index(p));
  const double opt = optimal_average_reward(inst);
  const double myo = priority_policy_average_reward(inst, myopic);
  EXPECT_EQ(opt, 0x1.0569467ab001dp+0) << std::hexfloat << opt;
  EXPECT_EQ(myo, 0x1.eca5d4282844ep-1) << std::hexfloat << myo;
}

}  // namespace
}  // namespace stosched::restless
