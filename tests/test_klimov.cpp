// Tests for queueing/klimov (survey §3, [24]):
//   * exit_work closed forms (tandem chains, geometric feedback);
//   * Klimov indices reduce to cµ without feedback;
//   * indices do not depend on arrival rates;
//   * the Klimov order attains the exact truncated-MDP optimum among static
//     priorities (and matches the dynamic optimum) on exponential instances;
//   * simulation consistency (effective rates, throughput).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "queueing/klimov.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/rng.hpp"

namespace stosched::queueing {
namespace {

KlimovNetwork tandem_network(double lambda) {
  // Class 0 -> class 1 -> exit. Holding costs differ.
  KlimovNetwork net;
  net.classes = {{lambda, exponential_dist(2.0), 3.0},
                 {0.0, exponential_dist(1.5), 1.0}};
  net.feedback = {{0.0, 1.0}, {0.0, 0.0}};
  return net;
}

TEST(ExitWork, NoFeedbackIsServiceMean) {
  const std::vector<double> means{2.0, 0.5};
  const std::vector<std::vector<double>> p{{0.0, 0.0}, {0.0, 0.0}};
  const auto tau = exit_work(means, p, {1, 1});
  EXPECT_DOUBLE_EQ(tau[0], 2.0);
  EXPECT_DOUBLE_EQ(tau[1], 0.5);
}

TEST(ExitWork, TandemChainAccumulates) {
  const std::vector<double> means{0.5, 2.0 / 3.0};
  const std::vector<std::vector<double>> p{{0.0, 1.0}, {0.0, 0.0}};
  // Full set: class 0 must pass through class 1 too.
  const auto tau_full = exit_work(means, p, {1, 1});
  EXPECT_NEAR(tau_full[0], 0.5 + 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(tau_full[1], 2.0 / 3.0, 1e-12);
  // Singleton {0}: only its own service counts.
  const auto tau_0 = exit_work(means, p, {1, 0});
  EXPECT_NEAR(tau_0[0], 0.5, 1e-12);
}

TEST(ExitWork, GeometricSelfLoop) {
  // Self-loop with prob q: expected visits 1/(1-q).
  const double q = 0.6;
  const std::vector<double> means{1.0};
  const std::vector<std::vector<double>> p{{q}};
  const auto tau = exit_work(means, p, {1});
  EXPECT_NEAR(tau[0], 1.0 / (1.0 - q), 1e-12);
}

TEST(KlimovIndices, ReduceToCmuWithoutFeedback) {
  std::vector<ClassSpec> classes{{0.2, exponential_dist(1.0), 1.0},
                                 {0.2, exponential_dist(4.0), 1.0},
                                 {0.2, exponential_dist(1.0), 3.0}};
  KlimovNetwork net;
  net.classes = classes;
  net.feedback = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  net.feedback = std::vector<std::vector<double>>(
      3, std::vector<double>(3, 0.0));
  const auto res = klimov_indices(net);
  // Indices must equal c_j mu_j and the order must match the cµ order.
  for (std::size_t j = 0; j < 3; ++j) {
    const double cmu =
        classes[j].holding_cost / classes[j].service->mean();
    EXPECT_NEAR(res.index[j], cmu, 1e-9) << "class " << j;
  }
  EXPECT_EQ(res.priority, cmu_order(classes));
}

TEST(KlimovIndices, IndependentOfArrivalRates) {
  KlimovNetwork a = tandem_network(0.3);
  KlimovNetwork b = tandem_network(0.9);
  const auto ra = klimov_indices(a);
  const auto rb = klimov_indices(b);
  for (std::size_t j = 0; j < 2; ++j)
    EXPECT_NEAR(ra.index[j], rb.index[j], 1e-12);
}

TEST(EffectiveRates, TandemDoublesVisits) {
  const auto net = tandem_network(0.4);
  const auto rates = effective_arrival_rates(net);
  EXPECT_NEAR(rates[0], 0.4, 1e-12);
  EXPECT_NEAR(rates[1], 0.4, 1e-12);  // every job visits class 1
  EXPECT_NEAR(klimov_traffic_intensity(net),
              0.4 * 0.5 + 0.4 / 1.5, 1e-12);
}

TEST(EffectiveRates, GeometricFeedbackAmplifies) {
  KlimovNetwork net;
  net.classes = {{0.3, exponential_dist(2.0), 1.0}};
  net.feedback = {{0.5}};
  const auto rates = effective_arrival_rates(net);
  EXPECT_NEAR(rates[0], 0.6, 1e-12);  // 0.3 / (1 - 0.5)
}

class KlimovOptimality : public ::testing::TestWithParam<int> {};

TEST_P(KlimovOptimality, KlimovOrderBestAmongStaticPriorities) {
  Rng rng(3000 + GetParam());
  // Random 3-class exponential feedback network, moderately loaded.
  KlimovNetwork net;
  const std::size_t n = 3;
  for (std::size_t j = 0; j < n; ++j) {
    net.classes.push_back({rng.uniform(0.05, 0.2),
                           exponential_dist(rng.uniform(1.0, 3.0)),
                           rng.uniform(0.5, 3.0)});
  }
  net.feedback.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    double budget = 0.6;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == j) continue;
      const double p = rng.uniform(0.0, budget / 2.0);
      net.feedback[j][k] = p;
      budget -= p;
    }
  }
  if (klimov_traffic_intensity(net) > 0.85)
    GTEST_SKIP() << "instance too loaded for the truncation";

  const auto res = klimov_indices(net);
  const std::size_t cap = 8;
  const double klimov_cost = truncated_priority_cost(net, cap, res.priority);

  std::vector<std::size_t> order{0, 1, 2};
  std::sort(order.begin(), order.end());
  double best_static = 1e18;
  do {
    best_static =
        std::min(best_static, truncated_priority_cost(net, cap, order));
  } while (std::next_permutation(order.begin(), order.end()));
  // Klimov's order must attain the best static priority cost (tolerance
  // covers truncation + iteration error).
  EXPECT_NEAR(klimov_cost, best_static, 1e-5 + 0.002 * best_static);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KlimovOptimality,
                         ::testing::Range(0, 8));

TEST(KlimovOptimality, MatchesDynamicOptimumOnTandem) {
  const auto net = tandem_network(0.5);
  if (klimov_traffic_intensity(net) >= 0.9) FAIL() << "bad test setup";
  const auto res = klimov_indices(net);
  const std::size_t cap = 12;
  const double klimov_cost = truncated_priority_cost(net, cap, res.priority);
  const double optimal = truncated_optimal_cost(net, cap);
  EXPECT_NEAR(klimov_cost, optimal, 1e-5 + 0.002 * optimal);
}

TEST(KlimovSim, ThroughputMatchesEffectiveRates) {
  const auto net = tandem_network(0.4);
  Rng rng(4);
  const auto res =
      simulate_klimov(net, klimov_indices(net).priority, 2e5, 2e4, rng);
  const auto rates = effective_arrival_rates(net);
  for (std::size_t j = 0; j < net.num_classes(); ++j)
    EXPECT_NEAR(res.per_class[j].throughput, rates[j], 0.05 * rates[j])
        << "class " << j;
}

TEST(KlimovSim, KlimovOrderBeatsReverseInSimulation) {
  const auto net = tandem_network(0.55);
  const auto res = klimov_indices(net);
  std::vector<std::size_t> reverse(res.priority.rbegin(),
                                   res.priority.rend());
  Rng r1(5), r2(6);
  const double good = simulate_klimov(net, res.priority, 3e5, 3e4, r1).cost_rate;
  const double bad = simulate_klimov(net, reverse, 3e5, 3e4, r2).cost_rate;
  EXPECT_LE(good, bad * 1.02);
}

TEST(KlimovNetwork, ValidateCatchesBadFeedback) {
  KlimovNetwork net;
  net.classes = {{0.1, exponential_dist(1.0), 1.0}};
  net.feedback = {{1.2}};  // row sum > 1
  EXPECT_THROW(net.validate(), std::invalid_argument);
}

TEST(KlimovNetwork, TruncatedPriorityMustBeAPermutation) {
  const auto net = tandem_network(0.5);
  EXPECT_THROW(truncated_priority_cost(net, 4, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW(truncated_priority_cost(net, 4, {1, 2}),
               std::invalid_argument);
  EXPECT_THROW(truncated_priority_cost(net, 4, {0}), std::invalid_argument);
}

// Golden values of the truncated exact baseline, pinned bit-exactly: any
// change in the queue-length layout, the action order or the summation
// order shows up here. A mismatch prints the new value as a hexfloat.
TEST(ExactGolden, KlimovTruncatedOptimalAndPriorityCosts) {
  KlimovNetwork net;
  net.classes = {{0.15, exponential_dist(1.5), 2.0},
                 {0.1, exponential_dist(2.5), 1.0},
                 {0.05, exponential_dist(1.0), 3.0}};
  net.feedback = {{0.0, 0.3, 0.1}, {0.2, 0.0, 0.2}, {0.0, 0.4, 0.1}};
  const std::size_t cap = 4;
  const double opt = truncated_optimal_cost(net, cap);
  const auto order = klimov_indices(net).priority;
  const double klimov = truncated_priority_cost(net, cap, order);
  const double reverse =
      truncated_priority_cost(net, cap, {order.rbegin(), order.rend()});
  EXPECT_EQ(opt, 0x1.ed3bd578edb2cp-1) << std::hexfloat << opt;
  EXPECT_EQ(klimov, 0x1.ed422e4cbd97p-1) << std::hexfloat << klimov;
  EXPECT_EQ(reverse, 0x1.1540701bfdf2ap+0) << std::hexfloat << reverse;
}

}  // namespace
}  // namespace stosched::queueing
