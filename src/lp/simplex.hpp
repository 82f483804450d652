// simplex.hpp — the LP front door: Problem/Solution types shared by both
// solvers, plus the dense two-phase tableau reference implementation.
//
// The survey's modern results lean on linear programming three times:
//   * Whittle's restless-bandit relaxation [48] and the primal-dual index
//     heuristic built on its optimal basis [7] (§2);
//   * achievable-region / conservation-law bounds for multiclass queues
//     [4,8,22] (§3);
//   * the Hall–Schulz–Shmoys–Wein interval-indexed lower bound for online
//     scheduling (online/lower_bound.hpp), whose instances are large and
//     very sparse.
// Two solvers share this interface. The dense tableau (this header's
// solve()) is the simple, auditable reference for small dense problems; the
// sparse revised simplex (revised_simplex.hpp) carries the big structured
// instances with a factorized basis and warm starts. Constraints are stored
// sparsely — rows of (column, coefficient) pairs — so a 500-job
// interval-indexed LP costs megabytes, not the gigabytes dense rows would;
// subject_to() still accepts dense coefficient vectors and compacts them.
//
// Numerical policy (lp/tolerances.hpp, shared verbatim by both solvers):
// Dantzig pricing with a switch to Bland's rule after a run of degenerate
// pivots (guarantees termination), explicit feasibility phase (no Big-M
// constants to tune), pivot tolerance tol::kPivot. Solutions report primal
// values, constraint duals and reduced costs — the restless-bandit
// heuristic consumes the latter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/tolerances.hpp"

namespace stosched::lp {

/// Inequality sense of one constraint row.
enum class Sense { kLe, kGe, kEq };

/// A single linear constraint in sparse form: Σ val[k]·x[idx[k]] (sense) rhs.
/// Duplicate indices are allowed and contribute additively.
struct Constraint {
  std::vector<std::size_t> idx;
  std::vector<double> val;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// max/min c·x subject to constraints and x >= 0.
struct Problem {
  enum class Objective { kMaximize, kMinimize };
  Objective objective = Objective::kMaximize;
  std::vector<double> costs;           ///< c, one entry per variable
  std::vector<Constraint> constraints;

  /// Convenience builders.
  static Problem maximize(std::vector<double> costs);
  static Problem minimize(std::vector<double> costs);
  /// Dense row: width must equal the variable count; zeros are compacted.
  // caller-audit: test-only(RevisedSimplex.TextbookMaximize: the hand-written
  // LPs that pin both engines' optima are dense rows)
  Problem& subject_to(const std::vector<double>& coeffs, Sense sense,
                      double rhs);
  /// Sparse row: indices must be in range (duplicates add up).
  Problem& subject_to_sparse(std::vector<std::size_t> idx,
                             std::vector<double> val, Sense sense, double rhs);

  /// Throws std::invalid_argument unless every cost, coefficient and rhs is
  /// finite and every row's idx and val have one length and name only
  /// existing variables. The fields are public, so both engines check once
  /// per solve rather than trusting the builders.
  void validate() const;
};

/// Outcome of a solve.
struct Solution {
  enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };
  Status status = Status::kIterLimit;
  double objective = 0.0;              ///< in the problem's own sense
  std::vector<double> x;               ///< primal values
  std::vector<double> duals;           ///< one per constraint (shadow prices)
  std::vector<double> reduced_costs;   ///< one per structural variable
  std::size_t iterations = 0;

  [[nodiscard]] bool optimal() const { return status == Status::kOptimal; }
};

std::string to_string(Solution::Status s);

/// Solve with the dense two-phase primal simplex. Deterministic.
Solution solve(const Problem& p, std::size_t max_iterations = 100000);

/// Which engine carries a solve. kDense is the auditable reference; kRevised
/// (revised_simplex.hpp) is the production path for sparse instances.
enum class Solver { kDense, kRevised };

/// Dispatch on the selector. Both engines share tolerances and anti-cycling
/// policy, so results agree to within roundoff (the differential suite in
/// tests/test_lp_revised.cpp enforces 1e-6).
Solution solve(const Problem& p, Solver solver,
               std::size_t max_iterations = 100000);

/// Process-wide LP effort, the LP layer's only recording call: every
/// completed solve (either engine, any thread) adds one to the obs counter
/// "lp_solves" and its iteration count to "lp_iterations", through
/// obs::record_lp_solve (so into the thread's telemetry sink, if any). The
/// totals are order-independent sums, so they are bit-identical across
/// OpenMP schedules — bench_compare.py gates on lp_iterations in --exact
/// mode while lp_solves_per_sec is the warn-only perf trajectory.
void add_process_lp_solve(std::uint64_t iterations) noexcept;

}  // namespace stosched::lp
