// Tests for bandit/ (survey §2):
//   * the three Gittins algorithms agree (the F2 cross-validation);
//   * closed forms for degenerate projects;
//   * Gittins–Jones optimality: the index policy attains the product-MDP
//     optimum on random instances (property test);
//   * switching costs: optimal <= hysteresis <= naive orderings.
#include <gtest/gtest.h>

#include <cmath>

#include "bandit/bandit_sim.hpp"
#include "bandit/gittins.hpp"
#include "bandit/project.hpp"
#include "bandit/switching.hpp"

#include "util/stats.hpp"
#include "util/rng.hpp"

namespace stosched::bandit {
namespace {

TEST(Gittins, ConstantRewardProjectHasConstantIndex) {
  // Every state pays 0.4: the index is 0.4 everywhere, for any chain.
  Rng rng(1);
  MarkovProject p = random_project(5, rng);
  for (auto& r : p.reward) r = 0.4;
  for (const double g : gittins_largest_index(p, 0.9))
    EXPECT_NEAR(g, 0.4, 1e-10);
}

TEST(Gittins, AbsorbingStatesIndexTheirOwnReward) {
  // Two absorbing states: the index of an absorbing state is its reward.
  MarkovProject p;
  p.reward = {0.2, 0.9};
  p.trans = {{1.0, 0.0}, {0.0, 1.0}};
  const auto g = gittins_largest_index(p, 0.85);
  EXPECT_NEAR(g[0], 0.2, 1e-10);
  EXPECT_NEAR(g[1], 0.9, 1e-10);
}

TEST(Gittins, DeterministicDecayingChain) {
  // 0 -> 1 -> 2 (absorbing), rewards 1.0, 0.5, 0.0, beta = 0.5.
  // Index of 0: best stop after k steps; tau=1: 1.0; tau=2:
  // (1 + 0.5*0.5)/(1 + 0.5) = 1.25/1.5 ≈ 0.833 < 1.0 -> index 1.0.
  MarkovProject p;
  p.reward = {1.0, 0.5, 0.0};
  p.trans = {{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {0.0, 0.0, 1.0}};
  const auto g = gittins_largest_index(p, 0.5);
  EXPECT_NEAR(g[0], 1.0, 1e-10);
  EXPECT_NEAR(g[1], 0.5, 1e-10);
  EXPECT_NEAR(g[2], 0.0, 1e-10);
}

TEST(Gittins, IndexBoundedByRewardRange) {
  Rng rng(2);
  const MarkovProject p = random_project(8, rng, -1.0, 2.0);
  for (const double g : gittins_largest_index(p, 0.9)) {
    EXPECT_GE(g, -1.0 - 1e-9);
    EXPECT_LE(g, 2.0 + 1e-9);
  }
}

class GittinsAlgorithms : public ::testing::TestWithParam<int> {};

TEST_P(GittinsAlgorithms, ThreeAlgorithmsAgree) {
  Rng rng(900 + GetParam());
  const std::size_t states = 2 + rng.below(6);
  const double beta = 0.5 + 0.45 * rng.uniform();
  const MarkovProject p = random_project(states, rng);
  const auto a = gittins_largest_index(p, beta);
  const auto b = gittins_restart(p, beta);
  const auto c = gittins_calibration(p, beta);
  for (std::size_t s = 0; s < states; ++s) {
    EXPECT_NEAR(a[s], b[s], 1e-6) << "state " << s << " beta " << beta;
    EXPECT_NEAR(a[s], c[s], 1e-6) << "state " << s << " beta " << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GittinsAlgorithms,
                         ::testing::Range(0, 15));

class GittinsOptimality : public ::testing::TestWithParam<int> {};

TEST_P(GittinsOptimality, IndexPolicyAttainsOptimum) {
  Rng rng(1200 + GetParam());
  BanditInstance inst;
  inst.beta = 0.7 + 0.25 * rng.uniform();
  const std::size_t projects = 2 + rng.below(2);
  for (std::size_t j = 0; j < projects; ++j)
    inst.projects.push_back(random_project(2 + rng.below(3), rng));
  const std::vector<std::size_t> start(projects, 0);

  const double opt = optimal_value(inst, start);
  const double git = index_policy_value(inst, gittins_table(inst), start);
  EXPECT_NEAR(git, opt, 1e-6 * (1.0 + std::abs(opt)));
}

TEST_P(GittinsOptimality, MyopicNeverBeatsGittins) {
  Rng rng(1400 + GetParam());
  BanditInstance inst;
  inst.beta = 0.9;
  for (int j = 0; j < 2; ++j)
    inst.projects.push_back(random_project(3, rng));
  const std::vector<std::size_t> start(2, 0);
  const double git = index_policy_value(inst, gittins_table(inst), start);
  const double myo = index_policy_value(inst, myopic_table(inst), start);
  EXPECT_LE(myo, git + 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GittinsOptimality,
                         ::testing::Range(0, 15));

TEST(BanditSim, SimulationApproachesExactValue) {
  Rng rng(5);
  BanditInstance inst;
  inst.beta = 0.9;
  inst.projects.push_back(random_project(3, rng));
  inst.projects.push_back(random_project(4, rng));
  const std::vector<std::size_t> start{0, 0};
  const auto table = gittins_table(inst);
  const double exact = index_policy_value(inst, table, start);
  RunningStat s;
  Rng sim_rng(6);
  for (int i = 0; i < 20000; ++i)
    s.push(simulate_index_policy(inst, table, start, sim_rng));
  EXPECT_NEAR(s.mean(), exact, 5.0 * s.sem() + 1e-3);
}

TEST(Bandit, ProductMdpShape) {
  Rng rng(7);
  BanditInstance inst;
  inst.beta = 0.9;
  inst.projects.push_back(random_project(3, rng));
  inst.projects.push_back(random_project(4, rng));
  const auto m = product_mdp(inst);
  EXPECT_EQ(m.num_states(), 12u);
  EXPECT_EQ(m.actions(0).size(), 2u);
  m.validate();
}

TEST(Bandit, ExactValuesCheckTheStartState) {
  Rng rng(8);
  BanditInstance inst;
  inst.projects.push_back(random_project(2, rng));
  inst.projects.push_back(random_project(3, rng));
  const auto table = gittins_table(inst);
  EXPECT_THROW(optimal_value(inst, {0}), std::invalid_argument);
  EXPECT_THROW(optimal_value(inst, {0, 3}), std::invalid_argument);
  EXPECT_THROW(index_policy_value(inst, table, {2, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Switching costs.
// ---------------------------------------------------------------------------

class Switching : public ::testing::TestWithParam<int> {};

TEST_P(Switching, PolicyOrdering) {
  Rng rng(1600 + GetParam());
  SwitchingInstance inst;
  inst.base.beta = 0.85;
  inst.base.projects.push_back(random_project(3, rng));
  inst.base.projects.push_back(random_project(3, rng));
  inst.switch_cost = rng.uniform(0.0, 1.0);
  const std::vector<std::size_t> start{0, 0};

  const double opt = switching_optimal_value(inst, start);
  const double hyst = switching_hysteresis_value(inst, start);
  const double naive = switching_naive_gittins_value(inst, start);
  EXPECT_LE(hyst, opt + 1e-8);
  EXPECT_LE(naive, opt + 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, Switching, ::testing::Range(0, 10));

TEST(Switching, ZeroCostReducesToGittins) {
  Rng rng(9);
  SwitchingInstance inst;
  inst.base.beta = 0.9;
  inst.base.projects.push_back(random_project(3, rng));
  inst.base.projects.push_back(random_project(3, rng));
  inst.switch_cost = 0.0;
  const std::vector<std::size_t> start{0, 0};
  const double opt = switching_optimal_value(inst, start);
  const double naive = switching_naive_gittins_value(inst, start);
  EXPECT_NEAR(naive, opt, 1e-6 * (1.0 + std::abs(opt)));
}

TEST(Switching, LargeCostFavorsStaying) {
  // With a huge switching cost the hysteresis policy should clearly beat
  // naive Gittins on projects designed to make indices flip often.
  MarkovProject flip;
  flip.reward = {1.0, 0.0};
  flip.trans = {{0.0, 1.0}, {1.0, 0.0}};  // alternates every pull
  SwitchingInstance inst;
  inst.base.beta = 0.9;
  inst.base.projects = {flip, flip};
  inst.switch_cost = 5.0;
  const std::vector<std::size_t> start{0, 0};
  const double hyst = switching_hysteresis_value(inst, start);
  const double naive = switching_naive_gittins_value(inst, start);
  EXPECT_GT(hyst, naive + 0.5);
}

TEST(Project, ValidateCatchesBadRows) {
  MarkovProject p;
  p.reward = {1.0, 2.0};
  p.trans = {{0.5, 0.4}, {0.0, 1.0}};  // first row sums to 0.9
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden values of the exact solvers, pinned bit-exactly. Projects of
// different sizes, a nonzero start and a duplicated project (index ties)
// make any change in the joint-state layout, the action order or the
// tie-break show up here. A mismatch prints the new value as a hexfloat.
// ---------------------------------------------------------------------------

std::vector<MarkovProject> golden_projects() {
  Rng rng(2024);
  std::vector<MarkovProject> projects;
  for (const std::size_t states : {2, 3, 4})
    projects.push_back(random_project(states, rng));
  projects.push_back(projects[0]);
  return projects;
}

TEST(ExactGolden, BanditOptimalAndIndexPolicies) {
  BanditInstance inst;
  inst.beta = 0.85;
  inst.projects = golden_projects();
  const std::vector<std::size_t> start{1, 0, 2, 0};
  const double opt = optimal_value(inst, start);
  const double git = index_policy_value(inst, gittins_table(inst), start);
  const double myo = index_policy_value(inst, myopic_table(inst), start);
  EXPECT_EQ(opt, 0x1.f01de802278fdp+1) << std::hexfloat << opt;
  EXPECT_EQ(git, 0x1.f01de80239db3p+1) << std::hexfloat << git;
  EXPECT_EQ(myo, 0x1.d6ca0ccfe7c38p+1) << std::hexfloat << myo;
}

TEST(ExactGolden, SwitchingOptimalHysteresisAndNaive) {
  SwitchingInstance inst;
  inst.base.beta = 0.85;
  MarkovProject flip;  // alternates every pull, so indices flip often
  flip.reward = {1.0, 0.0};
  flip.trans = {{0.0, 1.0}, {1.0, 0.0}};
  inst.base.projects = golden_projects();
  inst.base.projects[2] = flip;  // 2, 3, 2, 2 states
  inst.switch_cost = 0.5;
  const std::vector<std::size_t> start{1, 2, 0, 1};
  const double opt = switching_optimal_value(inst, start);
  const double hyst = switching_hysteresis_value(inst, start);
  const double naive = switching_naive_gittins_value(inst, start);
  EXPECT_EQ(opt, 0x1.8d42e2049cd3p+1) << std::hexfloat << opt;
  EXPECT_EQ(hyst, 0x1.747594dd57d55p+1) << std::hexfloat << hyst;
  EXPECT_EQ(naive, 0x1.63b432ed1ef54p+1) << std::hexfloat << naive;
}

}  // namespace
}  // namespace stosched::bandit
