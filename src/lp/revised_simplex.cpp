#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The working set of one solve. Computational form:
///
///     minimize  ĉ·x̃   s.t.   [A | I] x̃ = b,   l ≤ x̃ ≤ u
///
/// over the structural variables followed by one slack per row. Row sense
/// lives entirely in the slack bounds — kLe: s ∈ [0,∞), kGe: s ∈ (-∞,0],
/// kEq: s ∈ [0,0] — so every slack column is +e_i, the all-slack basis is
/// the identity (empty eta file), and no artificial columns ever exist.
/// Maximization flips the cost sign (ĉ = dir·c with dir = ±1).
struct Engine {
  // Problem data.
  std::size_t n = 0;      ///< structural variables
  std::size_t m = 0;      ///< rows
  std::size_t total = 0;  ///< n + m columns
  double dir = 1.0;       ///< +1 minimize, -1 maximize
  SparseColumns cols;     ///< all columns, slacks included
  /// The same matrix by rows: the Problem's own constraints, read in place
  /// for pricing (the Problem outlives the solve).
  const std::vector<Constraint>* rows = nullptr;
  std::vector<double> lower, upper;
  std::vector<double> chat;  ///< internal min costs (slacks 0)
  std::vector<double> b;

  // Basis state.
  std::vector<VarStatus> status;     ///< per column
  std::vector<std::uint32_t> basic;  ///< per row
  std::vector<double> xb;            ///< value of basic[r], per row
  EtaFile file;
  std::size_t pivots_since_refactor = 0;
  static constexpr std::size_t kRefactorInterval = 64;

  // Scratch.
  IndexedVector w;             ///< FTRAN of the entering column (m)
  std::vector<double> y;       ///< BTRAN duals of the current phase cost (m)
  std::vector<double> z;       ///< Aᵀy per column, slacks included (total)
  std::vector<std::int8_t> d;  ///< -1 below lower / +1 above upper / 0 ok

  // Ghost state for the phase-2 monotonicity contract.
  STOSCHED_CONTRACT_STATE(double ghost_obj = 0.0; bool ghost_phase2 = false;)

  void build(const Problem& p) {
    n = p.costs.size();
    m = p.constraints.size();
    total = n + m;
    STOSCHED_REQUIRE(n > 0, "LP needs at least one variable");
    p.require_finite();
    rows = &p.constraints;
    dir = p.objective == Problem::Objective::kMinimize ? 1.0 : -1.0;

    lower.assign(total, 0.0);
    upper.assign(total, kInf);
    chat.assign(total, 0.0);
    for (std::size_t j = 0; j < n; ++j) chat[j] = dir * p.costs[j];
    b.resize(m);

    // CSC assembly, two passes over the sparse rows; slack column n+i is
    // the single entry (i, 1). Duplicate row indices stay as separate
    // entries — every consumer (scatter, row-wise pricing) adds them up.
    std::vector<std::size_t> count(total, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const Constraint& row = p.constraints[i];
      for (const std::size_t j : row.idx) {
        STOSCHED_REQUIRE(j < n, "constraint column index out of range");
        ++count[j];
      }
      ++count[n + i];
    }
    cols.rows = m;
    cols.start.assign(total + 1, 0);
    for (std::size_t j = 0; j < total; ++j)
      cols.start[j + 1] = cols.start[j] + count[j];
    cols.row.resize(cols.start[total]);
    cols.value.resize(cols.start[total]);
    std::vector<std::size_t> fill(cols.start.begin(), cols.start.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
      const Constraint& row = p.constraints[i];
      for (std::size_t k = 0; k < row.idx.size(); ++k) {
        const std::size_t at = fill[row.idx[k]]++;
        cols.row[at] = static_cast<std::uint32_t>(i);
        cols.value[at] = row.val[k];
      }
      const std::size_t at = fill[n + i]++;
      cols.row[at] = static_cast<std::uint32_t>(i);
      cols.value[at] = 1.0;

      b[i] = row.rhs;
      switch (row.sense) {
        case Sense::kLe:
          break;  // s ∈ [0, ∞)
        case Sense::kGe:
          lower[n + i] = -kInf;
          upper[n + i] = 0.0;
          break;
        case Sense::kEq:
          upper[n + i] = 0.0;  // fixed at zero
          break;
      }
    }
    w = IndexedVector(m);
    y.assign(m, 0.0);
    z.assign(total, 0.0);
    d.assign(m, 0);
  }

  void add_column(std::size_t j, double scale, std::vector<double>& v) const {
    for (std::size_t k = cols.start[j]; k < cols.start[j + 1]; ++k)
      v[cols.row[k]] += scale * cols.value[k];
  }

  /// v ← B⁻¹ a_j, pattern tracked.
  void ftran_column(std::size_t j, IndexedVector& v) const {
    v.clear();
    for (std::size_t k = cols.start[j]; k < cols.start[j + 1]; ++k)
      v.add(cols.row[k], cols.value[k]);
    file.ftran(v);
  }

  /// z = Aᵀy for every column: the structural part row by row over the
  /// nonzero duals, slack n+i is y[i]. Walking the rows in ascending order
  /// adds column j's products in the order its CSC entries list them (a
  /// row's duplicates in the row's own order), and a skipped row would add
  /// only ±0 to a sum that starts at +0, so z[j] is bit-for-bit column j's
  /// dot with y.
  void compute_z() {
    std::fill(z.begin(), z.begin() + static_cast<std::ptrdiff_t>(n), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double yi = y[i];
      if (yi == 0.0) continue;
      const Constraint& row = (*rows)[i];
      for (std::size_t k = 0; k < row.idx.size(); ++k)
        z[row.idx[k]] += yi * row.val[k];
    }
    std::copy(y.begin(), y.end(), z.begin() + static_cast<std::ptrdiff_t>(n));
  }

  /// Value a nonbasic variable rests at (always one of its finite bounds).
  double nonbasic_value(std::size_t j) const {
    return status[j] == VarStatus::kAtLower ? lower[j] : upper[j];
  }

  /// Every variable nonbasic at its finite-lower (or, for kGe slacks, its
  /// finite-upper) bound; all slacks basic; empty eta file (B = I).
  void set_slack_basis() {
    status.assign(total, VarStatus::kAtLower);
    for (std::size_t j = 0; j < total; ++j)
      if (lower[j] == -kInf) status[j] = VarStatus::kAtUpper;
    basic.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      basic[i] = static_cast<std::uint32_t>(n + i);
      status[n + i] = VarStatus::kBasic;
    }
    file.clear();
    pivots_since_refactor = 0;
  }

  /// A warm basis is usable when its statuses are consistent with this
  /// problem's bounds and its basic set has full rank (checked by
  /// refactorize()). Shape compatibility was already checked by the caller.
  bool load_basis(const Basis& warm) {
    for (std::size_t j = 0; j < total; ++j) {
      if (warm.status[j] == VarStatus::kAtLower && lower[j] == -kInf)
        return false;
      if (warm.status[j] == VarStatus::kAtUpper && upper[j] == kInf)
        return false;
    }
    status = warm.status;
    basic = warm.basic;
    return refactorize();
  }

  /// Rebuild the eta file from the basis columns: sparsest column first,
  /// partial pivoting over the not-yet-pivoted rows. Reorders `basic` so
  /// that basic[r] is the variable pivoted in row r (the product form then
  /// inverts that column order exactly). Returns false on a singular basis.
  bool refactorize() {
    std::vector<std::uint32_t> order(basic);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b_) {
                const std::size_t na = cols.start[a + 1] - cols.start[a];
                const std::size_t nb = cols.start[b_ + 1] - cols.start[b_];
                return na != nb ? na < nb : a < b_;
              });
    file.clear();
    std::vector<char> assigned(m, 0);
    std::vector<std::uint32_t> new_basic(m, 0);
    IndexedVector v(m);
    for (const std::uint32_t var : order) {
      ftran_column(var, v);
      std::size_t r = m;
      double best = tol::kPivot;
      for (const std::uint32_t i : v.pattern()) {
        if (assigned[i]) continue;
        const double mag = std::abs(v[i]);
        if (mag > best) {
          best = mag;
          r = i;
        }
      }
      if (r == m) return false;  // singular (or numerically so)
      file.append(v, static_cast<std::uint32_t>(r), tol::kEtaDrop);
      assigned[r] = 1;
      new_basic[r] = var;
    }
    basic = std::move(new_basic);
    pivots_since_refactor = 0;
    STOSCHED_ENSURES(refactor_residual_ok(),
                     "refactorization residual exceeds tolerance");
    return true;
  }

  /// Ghost probe for the contract above: ‖B·(B⁻¹eᵢ) − eᵢ‖∞ on a couple of
  /// unit vectors. O(m·nnz) but only ever runs with contracts armed.
  bool refactor_residual_ok() const {
    for (const std::size_t probe : {std::size_t{0}, m / 2}) {
      if (probe >= m) continue;
      std::vector<double> e(m, 0.0);
      e[probe] = 1.0;
      file.ftran(e);
      std::vector<double> res(m, 0.0);
      for (std::size_t r = 0; r < m; ++r)
        if (e[r] != 0.0) add_column(basic[r], e[r], res);
      res[probe] -= 1.0;
      for (const double v : res)
        if (std::abs(v) > tol::kRefactorResidual) return false;
    }
    return true;
  }

  /// Contract predicate: exactly m basic columns, and the row bookkeeping
  /// agrees with the per-variable statuses.
  bool basis_consistent() const {
    std::size_t basics = 0;
    for (const VarStatus s : status) basics += s == VarStatus::kBasic;
    if (basics != m) return false;
    for (std::size_t r = 0; r < m; ++r)
      if (status[basic[r]] != VarStatus::kBasic) return false;
    return true;
  }

  /// Recompute the basic values from scratch: x_B = B⁻¹(b − N·x_N).
  void compute_xb() {
    xb = b;
    for (std::size_t j = 0; j < total; ++j) {
      if (status[j] == VarStatus::kBasic) continue;
      const double v = nonbasic_value(j);
      if (v != 0.0) add_column(j, -v, xb);
    }
    file.ftran(xb);
  }

  /// Internal (minimization-form) objective of the current iterate.
  double internal_objective() const {
    double obj = 0.0;
    for (std::size_t j = 0; j < total; ++j)
      if (status[j] != VarStatus::kBasic && chat[j] != 0.0)
        obj += chat[j] * nonbasic_value(j);
    for (std::size_t r = 0; r < m; ++r) obj += chat[basic[r]] * xb[r];
    return obj;
  }

  /// The iterate loop. Each pass classifies basic feasibility and runs one
  /// composite phase-1 step (minimize total bound violation) or one phase-2
  /// step — so a warm start that lands feasible skips phase 1 entirely.
  Solution run(std::size_t max_iter) {
    Solution sol;
    compute_xb();
    std::size_t degenerate_run = 0;
    std::size_t stalls = 0;
    bool bland = false;
    STOSCHED_CONTRACT_CODE(ghost_phase2 = false;);

    while (true) {
      if (sol.iterations >= max_iter) {
        sol.status = Solution::Status::kIterLimit;
        return sol;
      }
      if (pivots_since_refactor >= kRefactorInterval) {
        if (!refactorize()) set_slack_basis();  // degraded but sound restart
        compute_xb();
      }

      // Classify the basics; phase 1 while any violates a bound.
      bool phase1 = false;
      for (std::size_t r = 0; r < m; ++r) {
        const std::uint32_t bv = basic[r];
        d[r] = 0;
        if (xb[r] < lower[bv] - tol::kFeas) {
          d[r] = -1;
          phase1 = true;
        } else if (xb[r] > upper[bv] + tol::kFeas) {
          d[r] = 1;
          phase1 = true;
        }
      }

      // Phase-2 objective never worsens between feasible iterates (each
      // step moves along a direction whose internal-objective slope is
      // negative), checked as a ghost invariant.
      STOSCHED_CONTRACT_CODE(if (!phase1) {
        const double obj = internal_objective();
        STOSCHED_INVARIANT(
            !ghost_phase2 ||
                obj <= ghost_obj + tol::kFeas * (1.0 + std::abs(ghost_obj)),
            "phase-2 objective worsened across a pivot");
        ghost_obj = obj;
        ghost_phase2 = true;
      } else {
        ghost_phase2 = false;
      });

      // Duals of the phase cost: y = B⁻ᵀ g_B, where g is the composite
      // phase-1 cost (±1 on infeasible basics) or ĉ.
      for (std::size_t r = 0; r < m; ++r)
        y[r] = phase1 ? static_cast<double>(d[r]) : chat[basic[r]];
      file.btran(y);
      compute_z();

      // Pricing: Dantzig over all nonbasic columns (Bland once a degenerate
      // streak suggests cycling). slope = σ_j·ẑ_j is the objective's rate of
      // change when j moves off its bound (σ = +1 from lower, −1 from
      // upper); improving means slope < −kPivot. Fixed columns (kEq slacks)
      // never enter.
      std::size_t enter = total;
      double esign = 1.0;
      double best = -tol::kPivot;
      for (std::size_t j = 0; j < total; ++j) {
        if (status[j] == VarStatus::kBasic) continue;
        if (lower[j] == upper[j]) continue;
        const double zhat = (phase1 ? 0.0 : chat[j]) - z[j];
        const double sigma = status[j] == VarStatus::kAtLower ? 1.0 : -1.0;
        const double slope = sigma * zhat;
        if (bland) {
          if (slope < -tol::kPivot) {
            enter = j;
            esign = sigma;
            break;
          }
        } else if (slope < best) {
          best = slope;
          enter = j;
          esign = sigma;
        }
      }
      if (enter == total) {
        // No improving column: phase-1 optimum with residual violation
        // means the LP is infeasible; otherwise we are optimal and `y`
        // already holds the phase-2 duals.
        sol.status = phase1 ? Solution::Status::kInfeasible
                            : Solution::Status::kOptimal;
        return sol;
      }

      // FTRAN the entering column, then the bounded-variable ratio test:
      // basics block where they reach a bound (infeasible basics at the
      // bound they violate — the first breakpoint of the piecewise-linear
      // phase-1 objective); the entering variable itself blocks at its
      // opposite bound (a bound flip, no pivot). Rows outside w's pattern
      // hold +0 and never block, so only the pattern is scanned.
      ftran_column(enter, w);

      double alpha = upper[enter] - lower[enter];  // flip step, often ∞
      std::size_t leave = m;                       // m = bound flip
      bool leave_at_upper = false;
      for (const std::uint32_t r : w.pattern()) {
        const double delta = esign * w[r];  // −d(x_B[r])/d(step)
        if (delta < tol::kPivot && delta > -tol::kPivot) continue;
        const std::uint32_t bv = basic[r];
        double a;
        bool at_upper;
        if (d[r] == 0) {
          if (delta > 0.0) {
            if (lower[bv] == -kInf) continue;
            a = (xb[r] - lower[bv]) / delta;
            at_upper = false;
          } else {
            if (upper[bv] == kInf) continue;
            a = (xb[r] - upper[bv]) / delta;
            at_upper = true;
          }
        } else if (d[r] < 0) {
          if (delta > 0.0) continue;  // moves further below, not blocking
          a = (xb[r] - lower[bv]) / delta;
          at_upper = false;
        } else {
          if (delta < 0.0) continue;
          a = (xb[r] - upper[bv]) / delta;
          at_upper = true;
        }
        if (a < 0.0) a = 0.0;  // tolerance-negative step: degenerate
        if (a < alpha - tol::kRatioTie ||
            (a < alpha + tol::kRatioTie && leave < m && bv < basic[leave])) {
          alpha = a;
          leave = r;
          leave_at_upper = at_upper;
        }
      }

      if (alpha == kInf) {
        if (!phase1) {
          sol.status = Solution::Status::kUnbounded;
          return sol;
        }
        // A descent direction for the infeasibility always has a finite
        // breakpoint in exact arithmetic; reaching here means the factor
        // went stale. Rebuild and retry, give up if it persists.
        if (++stalls > 2) {
          sol.status = Solution::Status::kIterLimit;
          return sol;
        }
        if (!refactorize()) set_slack_basis();
        compute_xb();
        continue;
      }
      stalls = 0;

      ++sol.iterations;
      degenerate_run =
          alpha < tol::kDegenerateStep ? degenerate_run + 1 : 0;
      if (degenerate_run > 2 * m + 20) bland = true;

      // Rows outside w's pattern would subtract ±0, which changes no basic
      // value other than a −0 one.
      if (alpha != 0.0)
        for (const std::uint32_t r : w.pattern())
          xb[r] -= esign * alpha * w[r];

      if (leave == m) {
        // Bound flip: the entering variable traversed to its other bound.
        status[enter] = status[enter] == VarStatus::kAtLower
                            ? VarStatus::kAtUpper
                            : VarStatus::kAtLower;
        continue;
      }

      const std::uint32_t out = basic[leave];
      const double in_value = (esign > 0.0 ? lower[enter] : upper[enter]) +
                              esign * alpha;
      status[out] =
          leave_at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      status[enter] = VarStatus::kBasic;
      basic[leave] = static_cast<std::uint32_t>(enter);
      xb[leave] = in_value;
      file.append(w, static_cast<std::uint32_t>(leave), tol::kEtaDrop);
      ++pivots_since_refactor;
      STOSCHED_INVARIANT(basis_consistent(),
                         "basis column count != row count after pivot");
    }
  }

  /// Fill the caller-facing Solution from an optimal iterate. `y` and `z`
  /// must hold the phase-2 duals (B⁻ᵀĉ_B) and Aᵀy, which run() guarantees
  /// at kOptimal exit.
  void extract(const Problem& p, Solution& sol) const {
    sol.x.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j)
      if (status[j] != VarStatus::kBasic) sol.x[j] = nonbasic_value(j);
    for (std::size_t r = 0; r < m; ++r)
      if (basic[r] < n) sol.x[basic[r]] = xb[r];
    sol.objective = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      sol.objective += p.costs[j] * sol.x[j];
    // duals/reduced costs back in the caller's sense (ĉ = dir·c flips both).
    sol.duals.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) sol.duals[i] = dir * y[i];
    sol.reduced_costs.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (status[j] == VarStatus::kBasic) continue;  // 0, as dense reports
      sol.reduced_costs[j] = dir * (chat[j] - z[j]);
    }
  }

  void export_basis(Basis& out) const {
    out.vars = n;
    out.rows = m;
    out.status = status;
    out.basic = basic;
  }
};

Solution solve_revised_impl(const Problem& p, Basis* warm,
                            std::size_t max_iterations) {
  Engine e;
  e.build(p);
  if (warm == nullptr || !warm->matches(e.n, e.m) || !e.load_basis(*warm))
    e.set_slack_basis();
  Solution sol = e.run(max_iterations);
  add_process_lp_solve(sol.iterations);
  if (sol.status == Solution::Status::kOptimal) e.extract(p, sol);
  if (warm != nullptr) e.export_basis(*warm);
  return sol;
}

}  // namespace

bool Basis::matches(std::size_t n_vars, std::size_t n_rows) const {
  if (vars != n_vars || rows != n_rows) return false;
  if (status.size() != vars + rows || basic.size() != rows) return false;
  std::size_t basics = 0;
  for (const VarStatus s : status) basics += s == VarStatus::kBasic;
  if (basics != rows) return false;
  for (const std::uint32_t bv : basic)
    if (bv >= status.size() || status[bv] != VarStatus::kBasic) return false;
  return true;
}

Solution solve_revised(const Problem& p, std::size_t max_iterations) {
  return solve_revised_impl(p, nullptr, max_iterations);
}

Solution solve_revised(const Problem& p, Basis& basis,
                       std::size_t max_iterations) {
  return solve_revised_impl(p, &basis, max_iterations);
}

Solution solve(const Problem& p, Solver solver, std::size_t max_iterations) {
  return solver == Solver::kDense ? solve(p, max_iterations)
                                  : solve_revised(p, max_iterations);
}

}  // namespace stosched::lp
