// revised_simplex.hpp — sparse revised primal simplex with a factorized
// basis and warm starts, the production engine behind lp::Solver::kRevised.
//
// Where the dense tableau (simplex.hpp) updates an (m+1)×(n+1) matrix per
// pivot, the revised method keeps only the basis inverse — as an eta file
// (lp/sparse.hpp) — and touches the constraint matrix only where it is
// nonzero:
//   * pricing: one BTRAN (y = B⁻ᵀ·cost_B), then each column's pricing slope
//     is kept across iterations and recomputed (a CSC column dot) only
//     where a dual in one of its rows changed, which costs a small share
//     of the nonzeros instead of O(m·n);
//   * ratio test / update: one pattern-tracked FTRAN of the entering column
//     (CSC), a ratio test and basic-value update over its nonzero rows, and
//     one new eta.
// Both engines reject a non-finite cost, coefficient or rhs, and a row
// whose idx and val differ in length or name a missing variable, up front
// (Problem::validate).
// Row sense lives in the sign of the row's slack: kLe s ≥ 0, kGe s ≤ 0,
// kEq s = 0. Every slack column is then +e_i, the all-slack basis is the
// identity, no artificial columns exist, and the only finite bound of any
// variable is 0, where every nonbasic rests. Phase 1 is composite: it
// minimizes the total sign violation of the basic variables directly (the
// cost vector is ±1 on infeasible basics). That is what makes warm starts
// cheap: a basis from a neighbouring solve (same shape, perturbed
// rhs/costs) is usually a handful of phase-1 pivots from feasible, instead
// of a full artificial-variable restart.
//
// Pricing is Dantzig with a Bland fallback after a degenerate streak, the
// same anti-cycling policy (and the same tolerances, lp/tolerances.hpp) as
// the dense solver — the two engines are differential-tested against each
// other in tests/test_lp_revised.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/simplex.hpp"
#include "lp/sparse.hpp"

namespace stosched::lp {

/// Where a variable sits relative to its bounds. Nonbasic variables rest
/// exactly on a finite bound; basic values are implied by the basis.
enum class VarStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// A simplex basis in exportable form: one status per variable (structural
/// variables first, then one slack per row) and the basic variable of each
/// row. solve_revised() fills it on success; passing it back into a solve of
/// a same-shaped problem (identical variable/row counts — rhs and costs may
/// differ) re-pivots from there instead of restarting phase 1. Incompatible
/// or singular bases are detected and fall back to a cold start.
struct Basis {
  std::size_t vars = 0;  ///< structural variables
  std::size_t rows = 0;  ///< constraint rows
  std::vector<VarStatus> status;   ///< vars + rows entries
  std::vector<std::uint32_t> basic;  ///< per row: index of its basic variable

  /// Structurally usable for a problem with the given shape?
  [[nodiscard]] bool matches(std::size_t n_vars, std::size_t n_rows) const;
};

/// Cold solve. Deterministic; agrees with the dense engine to within the
/// shared tolerances.
Solution solve_revised(const Problem& p, std::size_t max_iterations = 100000);

/// Warm solve: start from `basis` when it matches the problem's shape and
/// factorizes cleanly (else cold-start). On any completed solve the final
/// basis is written back, so successive calls chain naturally.
Solution solve_revised(const Problem& p, Basis& basis,
                       std::size_t max_iterations = 100000);

}  // namespace stosched::lp
