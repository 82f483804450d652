// Tests for core/: the adaptive-greedy engine against its closed-form
// specializations, the M/G/1 achievable region (polymatroid geometry) and
// the conservation-law audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/achievable_region.hpp"
#include "core/conservation.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/rng.hpp"

namespace stosched::core {
namespace {

using queueing::ClassSpec;

std::vector<ClassSpec> three_classes() {
  return {{0.25, exponential_dist(1.0), 1.0},
          {0.2, erlang_dist(2, 3.0), 2.5},
          {0.15, exponential_dist(0.8), 0.7}};
}

TEST(AdaptiveGreedy, ConstantCoefficientsGiveWeightedRatioRule) {
  // A_j^S = a_j for all S: the index must be c_j / a_j (generalized cµ).
  const std::vector<double> a{2.0, 0.5, 1.0, 4.0};
  const std::vector<double> c{1.0, 1.0, 3.0, 2.0};
  const auto res = adaptive_greedy(
      4, [&](const std::vector<char>&) { return a; }, c);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(res.index[j], c[j] / a[j], 1e-9) << "class " << j;
  // Priority: descending c/a -> class 2 (3.0), 0 (0.5), 3 (0.5), 1 (2.0)...
  // compute expected order explicitly:
  std::vector<std::size_t> expect{0, 1, 2, 3};
  std::stable_sort(expect.begin(), expect.end(), [&](auto x, auto y) {
    return c[x] / a[x] > c[y] / a[y];
  });
  EXPECT_EQ(res.priority, expect);
}

TEST(AdaptiveGreedy, DualIncrementsNonNegative) {
  stosched::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.below(5);
    std::vector<double> a(n), c(n);
    for (std::size_t j = 0; j < n; ++j) {
      a[j] = rng.uniform(0.2, 3.0);
      c[j] = rng.uniform(0.1, 2.0);
    }
    const auto res = adaptive_greedy(
        n, [&](const std::vector<char>&) { return a; }, c);
    for (const double y : res.y) EXPECT_GE(y, -1e-12);
  }
}

TEST(AdaptiveGreedy, RejectsNonPositiveCoefficients) {
  EXPECT_THROW(adaptive_greedy(
                   2,
                   [&](const std::vector<char>&) {
                     return std::vector<double>{1.0, 0.0};
                   },
                   {1.0, 1.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Achievable region.
// ---------------------------------------------------------------------------

TEST(Region, VerticesSatisfyBaseEquality) {
  const auto classes = three_classes();
  std::vector<std::size_t> order{0, 1, 2};
  std::sort(order.begin(), order.end());
  std::vector<char> full(3, 1);
  const double b_full = mg1_region_b(classes, full);
  do {
    const auto x = mg1_region_vertex(classes, order);
    const double sum = x[0] + x[1] + x[2];
    EXPECT_NEAR(sum, b_full, 1e-9);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Region, VerticesInsideRegion) {
  const auto classes = three_classes();
  std::vector<std::size_t> order{0, 1, 2};
  std::sort(order.begin(), order.end());
  do {
    EXPECT_TRUE(mg1_region_contains(classes, mg1_region_vertex(classes, order),
                                    1e-7));
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Region, MixturesOfVerticesInsideRegion) {
  const auto classes = three_classes();
  const auto v1 = mg1_region_vertex(classes, {0, 1, 2});
  const auto v2 = mg1_region_vertex(classes, {2, 1, 0});
  stosched::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const double w = rng.uniform();
    std::vector<double> mix(3);
    for (std::size_t j = 0; j < 3; ++j)
      mix[j] = w * v1[j] + (1.0 - w) * v2[j];
    EXPECT_TRUE(mg1_region_contains(classes, mix, 1e-7));
  }
}

TEST(Region, PointsBelowBoundInfeasible) {
  const auto classes = three_classes();
  auto x = mg1_region_vertex(classes, {0, 1, 2});
  x[0] *= 0.2;  // steal waiting time without giving it to anyone
  EXPECT_FALSE(mg1_region_contains(classes, x, 1e-9));
}

TEST(Region, PriorityVertexMinimizesItsOwnClasses) {
  // Giving S priority attains b(S) with equality — the polymatroid facet.
  const auto classes = three_classes();
  const auto x = mg1_region_vertex(classes, {1, 0, 2});
  std::vector<char> in_set{0, 1, 0};  // S = {1}, the top-priority class
  EXPECT_NEAR(x[1], mg1_region_b(classes, in_set), 1e-9);
  in_set = {1, 1, 0};  // S = {0, 1}: top two classes
  EXPECT_NEAR(x[0] + x[1], mg1_region_b(classes, in_set), 1e-9);
}

TEST(Region, AdaptiveGreedyOnRegionRecoversCmu) {
  // Instantiate the AG engine with the M/G/1 coefficients A_j^S = E[S_j]
  // (performance x_j = rho_j W_j): indices must be c_j / E[S_j] = cµ.
  const auto classes = three_classes();
  std::vector<double> costs;
  std::vector<double> means;
  for (const auto& c : classes) {
    costs.push_back(c.holding_cost);
    means.push_back(c.service->mean());
  }
  const auto res = adaptive_greedy(
      3, [&](const std::vector<char>&) { return means; }, costs);
  EXPECT_EQ(res.priority, queueing::cmu_order(classes));
}

}  // namespace
}  // namespace stosched::core
