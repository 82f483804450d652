// Tests for lp/revised_simplex: known-optimum instances, a randomized
// differential suite against the dense tableau (objective agreement within
// 1e-6, dual/reduced-cost consistency, identical infeasible/unbounded
// verdicts, duplicate column indices within a row), rejection of non-finite
// or malformed input, warm-start behavior (rhs/cost-perturbed resolves reuse
// the previous basis and take strictly fewer iterations than a cold solve; a
// basis that contradicts the row senses falls back to the cold solve bit for
// bit), and a bitwise golden pin of F11's interval LP, and a hash of every output bit along
// the pivot paths of F11 interval LPs solved three ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "experiment/scenario.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "online/lower_bound.hpp"
#include "online/model.hpp"
#include "util/rng.hpp"

namespace stosched::lp {
namespace {

double row_activity(const Constraint& c, const std::vector<double>& x) {
  double lhs = 0.0;
  for (std::size_t k = 0; k < c.idx.size(); ++k) lhs += c.val[k] * x[c.idx[k]];
  return lhs;
}

/// Solver-independent optimality certificates, in the caller's sense:
/// primal feasibility, strong duality (objective == duals·rhs — exact here
/// because every bound other than x >= 0 is an explicit row), and the
/// reduced-cost identity rc_j == c_j − Σ_i duals_i a_ij.
void check_certificates(const Problem& p, const Solution& s) {
  ASSERT_TRUE(s.optimal());
  const double scale = 1.0 + std::abs(s.objective);
  for (const Constraint& c : p.constraints) {
    const double lhs = row_activity(c, s.x);
    switch (c.sense) {
      case Sense::kLe:
        EXPECT_LE(lhs, c.rhs + 1e-6 * scale);
        break;
      case Sense::kGe:
        EXPECT_GE(lhs, c.rhs - 1e-6 * scale);
        break;
      case Sense::kEq:
        EXPECT_NEAR(lhs, c.rhs, 1e-6 * scale);
        break;
    }
  }
  double dual_obj = 0.0;
  for (std::size_t i = 0; i < p.constraints.size(); ++i)
    dual_obj += s.duals[i] * p.constraints[i].rhs;
  EXPECT_NEAR(dual_obj, s.objective, 1e-6 * scale);
  std::vector<double> rc(p.costs);
  for (std::size_t i = 0; i < p.constraints.size(); ++i) {
    const Constraint& c = p.constraints[i];
    for (std::size_t k = 0; k < c.idx.size(); ++k)
      rc[c.idx[k]] -= s.duals[i] * c.val[k];
  }
  for (std::size_t j = 0; j < p.costs.size(); ++j)
    EXPECT_NEAR(s.reduced_costs[j], rc[j], 1e-6 * scale) << "variable " << j;
}

TEST(RevisedSimplex, TextbookMaximize) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), z = 36.
  auto p = Problem::maximize({3.0, 5.0});
  p.subject_to({1.0, 0.0}, Sense::kLe, 4.0)
      .subject_to({0.0, 2.0}, Sense::kLe, 12.0)
      .subject_to({3.0, 2.0}, Sense::kLe, 18.0);
  const auto s = solve_revised(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
  // Same duals the dense solver reports: y* = (0, 3/2, 1).
  EXPECT_NEAR(s.duals[0], 0.0, 1e-9);
  EXPECT_NEAR(s.duals[1], 1.5, 1e-9);
  EXPECT_NEAR(s.duals[2], 1.0, 1e-9);
  check_certificates(p, s);
}

TEST(RevisedSimplex, TextbookMinimizeWithGe) {
  auto p = Problem::minimize({2.0, 3.0});
  p.subject_to({1.0, 1.0}, Sense::kGe, 4.0)
      .subject_to({1.0, 0.0}, Sense::kGe, 1.0);
  const auto s = solve_revised(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
  check_certificates(p, s);
}

TEST(RevisedSimplex, EqualityAndNegativeRhs) {
  // max x + 2y s.t. x + y = 3, x - y = 1 -> (2, 1), z = 4. The revised
  // engine does not normalize rhs signs, so feed it an equivalent system
  // with a negative rhs too.
  auto p = Problem::maximize({1.0, 2.0});
  p.subject_to({1.0, 1.0}, Sense::kEq, 3.0)
      .subject_to({-1.0, 1.0}, Sense::kEq, -1.0);
  const auto s = solve_revised(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
  check_certificates(p, s);
}

TEST(RevisedSimplex, FractionalKnapsackKnownOptimum) {
  // max c·x, Σ a_j x_j <= b, x_j <= 1: the greedy-by-density prefix is the
  // unique optimum for distinct densities — an independent ground truth for
  // both engines.
  Rng rng(42);
  const std::size_t n = 40;
  std::vector<double> c(n), a(n);
  for (std::size_t j = 0; j < n; ++j) {
    c[j] = rng.uniform(0.5, 3.0);
    a[j] = rng.uniform(0.5, 2.0);
  }
  const double b = 0.35 * std::accumulate(a.begin(), a.end(), 0.0);
  auto p = Problem::maximize(c);
  p.subject_to_sparse(
      [&] {
        std::vector<std::size_t> idx(n);
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        return idx;
      }(),
      a, Sense::kLe, b);
  for (std::size_t j = 0; j < n; ++j)
    p.subject_to_sparse({j}, {1.0}, Sense::kLe, 1.0);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t u, std::size_t v) {
    return c[u] / a[u] > c[v] / a[v];
  });
  double cap = b, expect = 0.0;
  for (const std::size_t j : order) {
    const double take = std::min(1.0, cap / a[j]);
    if (take <= 0.0) break;
    expect += take * c[j];
    cap -= take * a[j];
  }

  const auto dense = solve(p);
  const auto revised = solve_revised(p);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(dense.objective, expect, 1e-6 * (1.0 + expect));
  EXPECT_NEAR(revised.objective, expect, 1e-6 * (1.0 + expect));
  check_certificates(p, revised);
  // Distinct densities make the optimal basis (hence the duals) unique.
  for (std::size_t i = 0; i < p.constraints.size(); ++i)
    EXPECT_NEAR(dense.duals[i], revised.duals[i], 1e-6);
}

/// Feasible-by-construction random LPs with every sense mixed: pick an
/// interior point x*, then set each row's rhs so x* satisfies it (kEq rows
/// exactly). Minimizing a nonnegative cost keeps the LP bounded.
Problem random_feasible_lp(Rng& rng, std::size_t n, std::size_t m) {
  std::vector<double> costs(n);
  for (auto& c : costs) c = rng.uniform(0.1, 2.0);
  auto p = Problem::minimize(costs);
  std::vector<double> xstar(n);
  for (auto& v : xstar) v = rng.uniform(0.2, 1.5);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::size_t> idx;
    std::vector<double> val;
    double act = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.6) continue;  // ~40% fill
      const double a = rng.uniform(-0.5, 1.5);
      idx.push_back(j);
      val.push_back(a);
      act += a * xstar[j];
    }
    if (idx.empty()) {
      idx.push_back(rng.below(n));
      val.push_back(1.0);
      act = val[0] * xstar[idx[0]];
    }
    const double u = rng.uniform();
    if (u < 0.4) {
      p.subject_to_sparse(std::move(idx), std::move(val), Sense::kLe,
                          act + rng.uniform(0.1, 1.0));
    } else if (u < 0.8) {
      p.subject_to_sparse(std::move(idx), std::move(val), Sense::kGe,
                          act - rng.uniform(0.1, 1.0));
    } else {
      p.subject_to_sparse(std::move(idx), std::move(val), Sense::kEq, act);
    }
  }
  return p;
}

class RevisedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RevisedDifferential, AgreesWithDenseOnFeasibleLps) {
  Rng rng(7000 + GetParam());
  const std::size_t n = 3 + rng.below(12);
  const std::size_t m = 2 + rng.below(10);
  const Problem p = random_feasible_lp(rng, n, m);
  const auto dense = solve(p);
  const auto revised = solve_revised(p);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  const double scale = 1.0 + std::abs(dense.objective);
  EXPECT_NEAR(revised.objective, dense.objective, 1e-6 * scale);
  check_certificates(p, dense);
  check_certificates(p, revised);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedDifferential, ::testing::Range(0, 30));

class RevisedVerdicts : public ::testing::TestWithParam<int> {};

TEST_P(RevisedVerdicts, InfeasibleAndUnboundedMatchDense) {
  Rng rng(8100 + GetParam());
  const std::size_t n = 2 + rng.below(6);
  // Infeasible: a row and its contradiction (Σ x_j <= lo, same Σ >= hi).
  {
    std::vector<double> costs(n, 1.0);
    auto p = Problem::maximize(costs);
    std::vector<double> row(n);
    for (auto& a : row) a = rng.uniform(0.5, 1.5);
    const double lo = rng.uniform(1.0, 2.0);
    p.subject_to(row, Sense::kLe, lo)
        .subject_to(row, Sense::kGe, lo + rng.uniform(1.0, 3.0));
    EXPECT_EQ(solve(p).status, Solution::Status::kInfeasible);
    EXPECT_EQ(solve_revised(p).status, Solution::Status::kInfeasible);
  }
  // Unbounded: maximize a variable no row constrains from above.
  {
    std::vector<double> costs(n, 0.0);
    costs[0] = 1.0;
    auto p = Problem::maximize(costs);
    for (std::size_t j = 1; j < n; ++j)
      p.subject_to_sparse({j}, {1.0}, Sense::kLe, rng.uniform(1.0, 4.0));
    p.subject_to_sparse({0}, {1.0}, Sense::kGe, rng.uniform(0.5, 1.0));
    EXPECT_EQ(solve(p).status, Solution::Status::kUnbounded);
    EXPECT_EQ(solve_revised(p).status, Solution::Status::kUnbounded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedVerdicts, ::testing::Range(0, 10));

/// Split about half of each row's entries into two parts at the same column
/// index, appended at the row's end so the repeats are not adjacent. The
/// summed matrix is unchanged up to one rounding per split entry.
Problem with_duplicate_indices(Problem p, Rng& rng) {
  for (Constraint& c : p.constraints) {
    const std::size_t len = c.idx.size();
    for (std::size_t k = 0; k < len; ++k) {
      if (rng.uniform() < 0.5) continue;
      const double part = c.val[k] * rng.uniform(0.2, 0.8);
      c.idx.push_back(c.idx[k]);
      c.val.push_back(c.val[k] - part);
      c.val[k] = part;
    }
  }
  return p;
}

class RevisedDuplicateIndices : public ::testing::TestWithParam<int> {};

TEST_P(RevisedDuplicateIndices, AgreesWithDenseOnEveryVerdict) {
  // Constraint allows repeated column indices that add up. The revised
  // engine meets them twice, in its CSC columns (FTRAN, ratio test) and in
  // the rows it prices from, so both must sum them the way the dense
  // tableau does.
  Rng rng(9300 + GetParam());
  {
    const std::size_t n = 3 + rng.below(12);
    const std::size_t m = 2 + rng.below(10);
    const Problem p = with_duplicate_indices(random_feasible_lp(rng, n, m),
                                             rng);
    const auto dense = solve(p);
    const auto revised = solve_revised(p);
    ASSERT_TRUE(dense.optimal());
    ASSERT_TRUE(revised.optimal());
    const double scale = 1.0 + std::abs(dense.objective);
    EXPECT_NEAR(revised.objective, dense.objective, 1e-6 * scale);
    check_certificates(p, revised);
  }
  const std::size_t n = 2 + rng.below(6);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  {
    // Σ a_j x_j <= lo and the same sum >= hi > lo.
    auto p = Problem::maximize(std::vector<double>(n, 1.0));
    std::vector<double> row(n);
    for (auto& a : row) a = rng.uniform(0.5, 1.5);
    const double lo = rng.uniform(1.0, 2.0);
    p.subject_to_sparse(all, row, Sense::kLe, lo)
        .subject_to_sparse(all, row, Sense::kGe, lo + rng.uniform(1.0, 3.0));
    p = with_duplicate_indices(std::move(p), rng);
    EXPECT_EQ(solve(p).status, Solution::Status::kInfeasible);
    EXPECT_EQ(solve_revised(p).status, Solution::Status::kInfeasible);
  }
  {
    // Maximize x_0, which every row bounds only from below; each row
    // repeats an index.
    std::vector<double> costs(n, 0.0);
    costs[0] = 1.0;
    auto p = Problem::maximize(costs);
    for (std::size_t j = 1; j < n; ++j)
      p.subject_to_sparse({j, 0, j}, {0.5, -0.25, 0.5}, Sense::kLe,
                          rng.uniform(1.0, 4.0));
    p.subject_to_sparse({0, 0}, {0.5, 0.5}, Sense::kGe,
                        rng.uniform(0.5, 1.0));
    EXPECT_EQ(solve(p).status, Solution::Status::kUnbounded);
    EXPECT_EQ(solve_revised(p).status, Solution::Status::kUnbounded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedDuplicateIndices,
                         ::testing::Range(0, 10));

TEST(RevisedSimplex, NonFiniteInputThrowsInBothEngines) {
  // The fields are public, so a NaN, an infinity or a malformed row can
  // reach a solve without passing a builder. Without a check a NaN rhs
  // makes every bound test false and the solve can report kOptimal with a
  // NaN objective.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto base = [] {
    auto p = Problem::maximize({3.0, 5.0});
    p.subject_to({1.0, 0.0}, Sense::kLe, 4.0)
        .subject_to({3.0, 2.0}, Sense::kLe, 18.0);
    return p;
  };
  std::vector<std::pair<const char*, Problem>> bad;
  bad.emplace_back("NaN cost", base());
  bad.back().second.costs[1] = nan;
  bad.emplace_back("+inf coefficient", base());
  bad.back().second.constraints[1].val[0] = inf;
  bad.emplace_back("-inf coefficient", base());
  bad.back().second.constraints[0].val[0] = -inf;
  bad.emplace_back("NaN rhs", base());
  bad.back().second.constraints[0].rhs = nan;
  // A row whose lists disagree in length, or that names a column the
  // Problem lacks, would make either engine read past its end.
  bad.emplace_back("short val", base());
  bad.back().second.constraints[1].val.pop_back();
  bad.emplace_back("index out of range", base());
  bad.back().second.constraints[1].idx[1] = 2;
  for (const auto& [what, p] : bad)
    for (const Solver solver : {Solver::kDense, Solver::kRevised})
      EXPECT_THROW(solve(p, solver), std::invalid_argument)
          << what << (solver == Solver::kDense ? " (dense)" : " (revised)");
  ASSERT_TRUE(solve(base(), Solver::kRevised).optimal());
}

TEST(RevisedSimplex, SolverSelectorDispatches) {
  auto p = Problem::maximize({3.0, 5.0});
  p.subject_to({1.0, 0.0}, Sense::kLe, 4.0)
      .subject_to({0.0, 2.0}, Sense::kLe, 12.0)
      .subject_to({3.0, 2.0}, Sense::kLe, 18.0);
  const auto dense = solve(p, Solver::kDense);
  const auto revised = solve(p, Solver::kRevised);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(dense.objective, revised.objective, 1e-9);
}

TEST(RevisedSimplex, IterationLimitReported) {
  Rng rng(11);
  const Problem p = random_feasible_lp(rng, 10, 8);
  EXPECT_EQ(solve_revised(p, 1).status, Solution::Status::kIterLimit);
}

TEST(RevisedSimplex, SparseBuilderValidatesIndices) {
  auto p = Problem::maximize({1.0, 2.0});
  EXPECT_THROW(p.subject_to_sparse({2}, {1.0}, Sense::kLe, 1.0),
               std::invalid_argument);
  EXPECT_THROW(p.subject_to_sparse({0, 1}, {1.0}, Sense::kLe, 1.0),
               std::invalid_argument);
}

TEST(RevisedSimplex, RedundantEqualityRows) {
  // The occupation-measure LPs carry linearly dependent equality rows; the
  // fixed kEq slack must cover the redundancy without artificial columns.
  auto p = Problem::maximize({1.0, 1.0, 0.5});
  p.subject_to({1.0, 1.0, 0.0}, Sense::kEq, 1.0)
      .subject_to({0.0, 0.0, 1.0}, Sense::kEq, 0.5)
      .subject_to({1.0, 1.0, 1.0}, Sense::kEq, 1.5);  // sum of the first two
  const auto dense = solve(p);
  const auto revised = solve_revised(p);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(revised.objective, dense.objective, 1e-9);
}

TEST(RevisedSimplex, WarmStartTakesFewerIterations) {
  // The CRN-sweep pattern: same constraint matrix, perturbed rhs/costs.
  // Re-solving from the previous optimal basis must reach the same optimum
  // in strictly fewer iterations than a cold solve.
  Rng rng(123);
  Problem p = random_feasible_lp(rng, 30, 20);
  Basis basis;
  const auto first = solve_revised(p, basis);
  ASSERT_TRUE(first.optimal());
  ASSERT_FALSE(basis.status.empty());

  for (auto& c : p.constraints) c.rhs *= rng.uniform(1.0, 1.05);
  for (auto& c : p.costs) c *= rng.uniform(1.0, 1.02);

  const auto cold = solve_revised(p);
  Basis warm_basis = basis;
  const auto warm = solve_revised(p, warm_basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  const double scale = 1.0 + std::abs(cold.objective);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6 * scale);
  EXPECT_GT(cold.iterations, 0u);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(RevisedSimplex, WarmStartShapeMismatchFallsBackToCold) {
  Rng rng(321);
  const Problem small = random_feasible_lp(rng, 5, 4);
  const Problem big = random_feasible_lp(rng, 12, 9);
  Basis basis;
  ASSERT_TRUE(solve_revised(small, basis).optimal());
  Basis stale = basis;  // wrong shape for `big`
  const auto warm = solve_revised(big, stale);
  const auto cold = solve_revised(big);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(stale.vars, big.costs.size());  // rewritten to the new shape
}

TEST(RevisedSimplex, WarmStatusAgainstRowSenseFallsBackToCold) {
  // Nonbasic structurals and kLe slacks rest at their lower bound 0, a kGe
  // slack at its upper bound 0, and a kEq slack at 0 under either label. A
  // warm basis that says otherwise is rejected, and the solve must then be
  // the cold solve bit for bit; a kEq slack may carry either label.
  auto p = Problem::maximize({1.0, 2.0, 1.0, 0.5});
  p.subject_to({1.0, 1.0, 1.0, 1.0}, Sense::kLe, 10.0)
      .subject_to({1.0, -1.0, 0.0, 0.0}, Sense::kGe, 2.0)
      .subject_to({0.0, 0.0, 1.0, 1.0}, Sense::kEq, 3.0);
  // Optimum x = (4.5, 2.5, 3, 0): x3 and all three slacks are nonbasic.
  constexpr std::size_t kX3 = 3, kLeSlack = 4, kGeSlack = 5, kEqSlack = 6;
  Basis cold_basis;
  const Solution cold = solve_revised(p, cold_basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_GT(cold.iterations, 0u);
  ASSERT_EQ(cold_basis.status[kX3], VarStatus::kAtLower);
  ASSERT_EQ(cold_basis.status[kLeSlack], VarStatus::kAtLower);
  ASSERT_EQ(cold_basis.status[kGeSlack], VarStatus::kAtUpper);
  ASSERT_NE(cold_basis.status[kEqSlack], VarStatus::kBasic);

  const std::pair<std::size_t, VarStatus> contradictions[] = {
      {kX3, VarStatus::kAtUpper},
      {kLeSlack, VarStatus::kAtUpper},
      {kGeSlack, VarStatus::kAtLower}};
  for (const auto& [column, label] : contradictions) {
    Basis warm = cold_basis;
    warm.status[column] = label;
    const Solution sol = solve_revised(p, warm);
    EXPECT_EQ(sol.status, cold.status) << "column " << column;
    EXPECT_EQ(sol.iterations, cold.iterations) << "column " << column;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.objective),
              std::bit_cast<std::uint64_t>(cold.objective))
        << "column " << column;
    EXPECT_EQ(warm.status, cold_basis.status) << "column " << column;
    EXPECT_EQ(warm.basic, cold_basis.basic) << "column " << column;
  }

  for (const VarStatus label : {VarStatus::kAtLower, VarStatus::kAtUpper}) {
    Basis warm = cold_basis;
    warm.status[kEqSlack] = label;
    const Solution sol = solve_revised(p, warm);
    ASSERT_TRUE(sol.optimal());
    EXPECT_EQ(sol.iterations, 0u);  // accepted: already optimal
    EXPECT_NEAR(sol.objective, cold.objective, 1e-12);
    EXPECT_EQ(warm.status[kEqSlack], label);
  }
}

TEST(RevisedSimplex, CountsProcessLpEffort) {
  const std::uint64_t solves = obs::counter_value("lp_solves");
  const std::uint64_t iterations = obs::counter_value("lp_iterations");
  auto p = Problem::maximize({1.0});
  p.subject_to({1.0}, Sense::kLe, 1.0);
  ASSERT_TRUE(solve_revised(p).optimal());
  ASSERT_TRUE(solve(p).optimal());
  EXPECT_EQ(obs::counter_value("lp_solves"), solves + 2);
  EXPECT_GE(obs::counter_value("lp_iterations"), iterations + 1);
}

double ordered_sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

TEST(RevisedSimplex, IntervalLpF11Golden) {
  // F11's audited cell (online-bernoulli, horizon 48, LP engaged, seed 111):
  // the first four instances, each solved cold and then re-solved warm from
  // the optimal basis after a per-row rhs drift (load_basis → refactorize).
  // Iteration counts and the hexfloat objective, dual sum and reduced-cost
  // sum are pinned bit for bit: a change to the engine's arithmetic must
  // leave the pivot sequence and every output bit alone.
  struct Pin {
    std::size_t iterations;
    double objective, dual_sum, reduced_cost_sum;
  };
  const Pin golden[4][2] = {
      {{566, 0x1.2e3ef81fbe4cbp+12, 0x1.1623d70a3d707p+8,
        0x1.8d3a06d3a06bap+10},
       {8, 0x1.32023d7d5fc7fp+12, 0x1.a4a3d70a3d706p+8,
        0x1.d1e58bf258bebp+11}},
      {{643, 0x1.4bab67083560fp+12, 0x1.1466666666661p+8,
        0x1.7c0da740da746p+10},
       {3, 0x1.5224dfe3541fap+12, 0x1.3d570a3d70a38p+8,
        0x1.f6dd0369d0372p+10}},
      {{493, 0x1.17dc3c1f518f4p+12, 0x1.0da3d70a3d709p+8,
        0x1.cbda740da73dap+10},
       {5, 0x1.1c1a607a3ef9dp+12, 0x1.35cccccccccc8p+8,
        0x1.21f7777777772p+11}},
      {{467, 0x1.42d54cf43a7eap+12, 0x1.29e6666666666p+8,
        0x1.01e740da740afp+11},
       {2, 0x1.4803a19e7af23p+12, 0x1.85f5c28f5c29p+8,
        0x1.e06ccccccccep+11}}};
  const auto expect_pin = [](const Solution& sol, const Pin& pin,
                             std::size_t r, const char* which) {
    ASSERT_TRUE(sol.optimal()) << which << " instance " << r;
    EXPECT_EQ(sol.iterations, pin.iterations) << which << " instance " << r;
    EXPECT_EQ(sol.objective, pin.objective) << which << " instance " << r;
    EXPECT_EQ(ordered_sum(sol.duals), pin.dual_sum)
        << which << " instance " << r;
    EXPECT_EQ(ordered_sum(sol.reduced_costs), pin.reduced_cost_sum)
        << which << " instance " << r;
  };

  experiment::OnlineScenario s =
      experiment::online_scenario("online-bernoulli");
  s.horizon = 48.0;
  s.bound.use_lp = true;
  const Rng master(111);
  for (std::size_t r = 0; r < 4; ++r) {
    const Rng root = master.stream(r);
    Rng arrival_rng = root.stream(0);
    Rng type_rng = root.stream(1);
    Rng size_rng = root.stream(2);
    Rng sample_rng = root.stream(3);
    const online::OnlineInstance inst = online::generate_online_instance(
        *s.arrival, s.types, s.horizon, arrival_rng, type_rng, size_rng,
        sample_rng);
    Problem p = online::interval_indexed_lp(inst, s.env, s.bound);
    Basis basis;
    expect_pin(solve_revised(p, basis), golden[r][0], r, "cold");
    Rng drift = root.stream(4);
    for (auto& c : p.constraints) c.rhs *= drift.uniform(0.97, 1.06);
    expect_pin(solve_revised(p, basis), golden[r][1], r, "warm");
  }
}

/// FNV-1a over 64-bit words: a digest of values that must hold bit for bit.
struct BitHash {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t word) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (word >> b) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<double>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const double x : v) add(x);
  }
};

/// Everything a solve reports and the basis it leaves behind.
void hash_solve(BitHash& hash, const Solution& sol, const Basis& basis) {
  hash.add(static_cast<std::uint64_t>(sol.iterations));
  hash.add(static_cast<std::uint64_t>(sol.status));
  hash.add(sol.objective);
  hash.add(sol.x);
  hash.add(sol.duals);
  hash.add(sol.reduced_costs);
  for (const VarStatus st : basis.status)
    hash.add(static_cast<std::uint64_t>(st));
  for (const std::uint32_t bv : basis.basic) hash.add(std::uint64_t{bv});
}

TEST(RevisedSimplex, PivotPathGolden) {
  // F11 interval LPs from the online-bernoulli cell (horizon 48, LP
  // engaged), three seeds × three instances, each solved three ways:
  //   cold      from the slack basis: a long phase 1, then phase 2;
  //   warm      from the cold optimum after the rhs and costs drift, so the
  //             basis is reloaded and refactorized first;
  //   negated   the costs negated, from the cold optimum: the start is
  //             feasible, so every pivot is phase 2 (it ends unbounded,
  //             hundreds of pivots in).
  // Each hash digests the iteration count, the status, the bits of the
  // objective, x, the duals and the reduced costs, and the final basis, so
  // it pins the whole pivot path. A change to the pricing arithmetic must
  // leave every one of them alone.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t cold, warm, negated;
  };
  const Pin golden[] = {
      {111, 0xf1405e5567dc614bULL, 0x6c3bba8e4e262186ULL,
       0x4839648aa3a05659ULL},
      {7, 0xaca3da50cb42137bULL, 0x2737274522619febULL,
       0x0bc4249b19de7a63ULL},
      {5, 0xee3166060649e83bULL, 0x5f2345bf2c5b423fULL,
       0xdde2dbe36a26bfcaULL},
  };

  experiment::OnlineScenario s =
      experiment::online_scenario("online-bernoulli");
  s.horizon = 48.0;
  s.bound.use_lp = true;
  for (const Pin& pin : golden) {
    BitHash cold, warm, negated;
    const Rng master(pin.seed);
    for (std::size_t r = 0; r < 3; ++r) {
      const Rng root = master.stream(r);
      Rng arrival_rng = root.stream(0);
      Rng type_rng = root.stream(1);
      Rng size_rng = root.stream(2);
      Rng sample_rng = root.stream(3);
      const online::OnlineInstance inst = online::generate_online_instance(
          *s.arrival, s.types, s.horizon, arrival_rng, type_rng, size_rng,
          sample_rng);
      const Problem p = online::interval_indexed_lp(inst, s.env, s.bound);

      Basis optimum;
      const Solution first = solve_revised(p, optimum);
      ASSERT_TRUE(first.optimal()) << "seed " << pin.seed << " instance " << r;
      hash_solve(cold, first, optimum);

      Problem drifted = p;
      Rng drift = root.stream(4);
      for (auto& c : drifted.constraints) c.rhs *= drift.uniform(0.97, 1.06);
      for (auto& c : drifted.costs) c *= drift.uniform(0.98, 1.03);
      Basis basis = optimum;
      hash_solve(warm, solve_revised(drifted, basis), basis);

      Problem flipped = p;
      for (auto& c : flipped.costs) c = -c;
      basis = optimum;
      hash_solve(negated, solve_revised(flipped, basis), basis);
    }
    EXPECT_EQ(cold.h, pin.cold) << "cold, seed " << pin.seed;
    EXPECT_EQ(warm.h, pin.warm) << "warm, seed " << pin.seed;
    EXPECT_EQ(negated.h, pin.negated) << "negated, seed " << pin.seed;
  }
}

}  // namespace
}  // namespace stosched::lp
