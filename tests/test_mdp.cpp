// Tests for mdp/: value iteration vs policy iteration agreement, closed-form
// chains, average-reward solvers, and the dense linear solver.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mdp/mdp.hpp"
#include "mdp/solve.hpp"
#include "util/rng.hpp"

namespace stosched::mdp {
namespace {

/// Two-state chain where staying in state 0 earns 1, state 1 earns 0;
/// action "stay" keeps the state, "flip" toggles it.
FiniteMdp two_state_toy() {
  FiniteMdp m(2);
  m.add_action(0, {1.0, {{0, 1.0}}, 0});
  m.add_action(0, {1.0, {{1, 1.0}}, 1});
  m.add_action(1, {0.0, {{1, 1.0}}, 0});
  m.add_action(1, {0.0, {{0, 1.0}}, 1});
  return m;
}

TEST(ValueIteration, GeometricSeriesClosedForm) {
  const auto m = two_state_toy();
  const double beta = 0.9;
  const auto sol = value_iteration(m, beta, 1e-12);
  // Optimal: stay in 0 forever -> 1/(1-beta); from 1: flip then stay ->
  // beta/(1-beta).
  EXPECT_NEAR(sol.value[0], 1.0 / (1.0 - beta), 1e-8);
  EXPECT_NEAR(sol.value[1], beta / (1.0 - beta), 1e-8);
  EXPECT_EQ(m.actions(1)[sol.policy[1]].label, 1);  // flip
}

TEST(PolicyIteration, AgreesWithValueIteration) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng.below(5);
    FiniteMdp m(n);
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t acts = 1 + rng.below(3);
      for (std::size_t a = 0; a < acts; ++a) {
        Action act;
        act.reward = rng.uniform(-1.0, 1.0);
        double total = 0.0;
        std::vector<double> w(n);
        for (auto& x : w) {
          x = rng.uniform_pos();
          total += x;
        }
        for (std::size_t t = 0; t < n; ++t)
          act.transitions.push_back({t, w[t] / total});
        m.add_action(s, std::move(act));
      }
    }
    m.validate();
    const auto vi = value_iteration(m, 0.92, 1e-11);
    const auto pi = policy_iteration(m, 0.92);
    for (std::size_t s = 0; s < n; ++s)
      EXPECT_NEAR(vi.value[s], pi.value[s], 1e-7);
  }
}

TEST(EvaluatePolicy, FixedPointOfItsOwnBackup) {
  const auto m = two_state_toy();
  const double beta = 0.8;
  const std::vector<std::size_t> policy{0, 1};  // stay in 0; flip from 1
  const auto v = evaluate_policy(m, beta, policy);
  // v0 = 1 + beta v0; v1 = 0 + beta v0.
  EXPECT_NEAR(v[0], 1.0 / (1.0 - beta), 1e-10);
  EXPECT_NEAR(v[1], beta / (1.0 - beta), 1e-10);
}

TEST(RelativeValueIteration, TwoStateAverageReward) {
  const auto m = two_state_toy();
  const auto sol = relative_value_iteration(m, 1e-11);
  EXPECT_NEAR(sol.gain, 1.0, 1e-7);  // park in state 0
}

TEST(RelativeValueIteration, ForcedCycleGain) {
  // Deterministic cycle 0 -> 1 -> 0 with rewards 2 and 0: gain = 1.
  FiniteMdp m(2);
  m.add_action(0, {2.0, {{1, 1.0}}, 0});
  m.add_action(1, {0.0, {{0, 1.0}}, 0});
  const auto sol = relative_value_iteration(m, 1e-11);
  EXPECT_NEAR(sol.gain, 1.0, 1e-7);
}

TEST(AverageRewardOfPolicy, MatchesRvi) {
  const auto m = two_state_toy();
  const std::vector<std::size_t> stay_flip{0, 1};
  EXPECT_NEAR(average_reward_of_policy(m, stay_flip), 1.0, 1e-9);
  // Forced flip-flop from both states: reward alternates 1, 0 -> gain 0.5.
  const std::vector<std::size_t> flip_flip{1, 1};
  EXPECT_NEAR(average_reward_of_policy(m, flip_flip), 0.5, 1e-9);
}

TEST(AverageRewardOfPolicy, IterativeAgreesWithDense) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 5 + rng.below(4);
    FiniteMdp m(n);
    std::vector<std::size_t> policy(n, 0);
    for (std::size_t s = 0; s < n; ++s) {
      Action act;
      act.reward = rng.uniform(0.0, 2.0);
      double total = 0.0;
      std::vector<double> w(n);
      for (auto& x : w) {
        x = rng.uniform_pos();
        total += x;
      }
      for (std::size_t t = 0; t < n; ++t)
        act.transitions.push_back({t, w[t] / total});
      m.add_action(s, std::move(act));
    }
    EXPECT_NEAR(average_reward_of_policy(m, policy),
                average_reward_of_policy_iterative(m, policy), 1e-7);
  }
}

TEST(LinearSolver, SolvesRandomSystems) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(8);
    std::vector<double> a(n * n), x_true(n), b(n, 0.0);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 3.0;  // well-posed
    for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) b[r] += a[r * n + c] * x_true[c];
    auto a_copy = a;
    ASSERT_TRUE(solve_linear_system(a_copy, b, n));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-8);
  }
}

TEST(LinearSolver, ReportsSingular) {
  std::vector<double> a{1.0, 2.0, 2.0, 4.0};  // rank 1
  std::vector<double> b{1.0, 2.0};
  EXPECT_FALSE(solve_linear_system(a, b, 2));
}

TEST(FiniteMdp, ValidateCatchesBadRows) {
  FiniteMdp m(2);
  m.add_action(0, {0.0, {{0, 0.7}}, 0});  // sums to 0.7
  m.add_action(1, {0.0, {{1, 1.0}}, 0});
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(FiniteMdp, ValidateCatchesEmptyState) {
  FiniteMdp m(2);
  m.add_action(0, {0.0, {{0, 1.0}}, 0});
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(FiniteMdp, EverySolverEntryValidatesItsInput) {
  // A state with no action, and an action whose probabilities sum to 0.9:
  // each public solver must reject both before it iterates.
  FiniteMdp empty_state(2);
  empty_state.add_action(0, {1.0, {{0, 1.0}}, 0});
  FiniteMdp short_row(2);
  short_row.add_action(0, {1.0, {{0, 0.5}, {1, 0.4}}, 0});
  short_row.add_action(1, {0.0, {{1, 1.0}}, 0});
  const std::vector<std::size_t> policy{0, 0};
  for (const FiniteMdp* m : {&empty_state, &short_row}) {
    EXPECT_THROW(value_iteration(*m, 0.9), std::invalid_argument);
    EXPECT_THROW(policy_iteration(*m, 0.9), std::invalid_argument);
    EXPECT_THROW(evaluate_policy(*m, 0.9, policy), std::invalid_argument);
    EXPECT_THROW(relative_value_iteration(*m), std::invalid_argument);
    EXPECT_THROW(average_reward_of_policy(*m, policy), std::invalid_argument);
    EXPECT_THROW(average_reward_of_policy_iterative(*m, policy),
                 std::invalid_argument);
  }
}

TEST(ValueIteration, RejectsBadDiscount) {
  const auto m = two_state_toy();
  EXPECT_THROW(value_iteration(m, 1.0), std::invalid_argument);
  EXPECT_THROW(value_iteration(m, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace stosched::mdp
