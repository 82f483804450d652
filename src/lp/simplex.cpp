#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace stosched::lp {

namespace {

/// Internal dense tableau. Rows 0..m-1 are constraints, row m is the
/// reduced-cost row (entries c_j - z_j for the current maximization), and
/// column N is the right-hand side.
struct Tableau {
  std::size_t m = 0;          // constraint rows
  std::size_t n_total = 0;    // structural + slack/surplus + artificial
  std::vector<double> a;      // (m+1) x (n_total+1), row-major
  std::vector<std::size_t> basis;  // basic column of each row

  double& at(std::size_t r, std::size_t c) { return a[r * (n_total + 1) + c]; }
  double at(std::size_t r, std::size_t c) const {
    return a[r * (n_total + 1) + c];
  }
  double& rhs(std::size_t r) { return at(r, n_total); }

  void pivot(std::size_t pr, std::size_t pc) {
    const double pivot_val = at(pr, pc);
    STOSCHED_ASSERT(std::abs(pivot_val) > tol::kPivot, "pivot too small");
    const double inv = 1.0 / pivot_val;
    for (std::size_t c = 0; c <= n_total; ++c) at(pr, c) *= inv;
    at(pr, pc) = 1.0;
    for (std::size_t r = 0; r <= m; ++r) {
      if (r == pr) continue;
      const double factor = at(r, pc);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= n_total; ++c)
        at(r, c) -= factor * at(pr, c);
      at(r, pc) = 0.0;
    }
    basis[pr] = pc;
  }
};

/// Runs the simplex loop on the current objective row. `eligible(c)` masks
/// columns that may enter (used to bar artificials in phase 2).
/// Returns kOptimal or kUnbounded/kIterLimit.
Solution::Status run_simplex(Tableau& t, const std::vector<char>& eligible,
                             std::size_t max_iter, std::size_t& iters) {
  std::size_t degenerate_run = 0;
  bool bland = false;
  while (iters < max_iter) {
    // Pricing: Dantzig (most positive reduced cost) or Bland (smallest index)
    // once a degenerate streak suggests cycling risk.
    std::size_t enter = t.n_total;
    double best = tol::kPivot;
    for (std::size_t c = 0; c < t.n_total; ++c) {
      if (!eligible[c]) continue;
      const double rc = t.at(t.m, c);
      if (bland) {
        if (rc > tol::kPivot) {
          enter = c;
          break;
        }
      } else if (rc > best) {
        best = rc;
        enter = c;
      }
    }
    if (enter == t.n_total) return Solution::Status::kOptimal;

    // Ratio test: leaving row minimizes rhs / column over positive entries;
    // ties broken by smallest basis index (lexicographic-ish, aids Bland).
    std::size_t leave = t.m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.m; ++r) {
      const double col = t.at(r, enter);
      if (col > tol::kPivot) {
        const double ratio = t.rhs(r) / col;
        if (ratio < best_ratio - tol::kRatioTie ||
            (ratio < best_ratio + tol::kRatioTie && leave < t.m &&
             t.basis[r] < t.basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == t.m) return Solution::Status::kUnbounded;

    degenerate_run =
        best_ratio < tol::kDegenerateStep ? degenerate_run + 1 : 0;
    if (degenerate_run > 2 * t.m + 20) bland = true;

    t.pivot(leave, enter);
    ++iters;
  }
  return Solution::Status::kIterLimit;
}

}  // namespace

void add_process_lp_solve(std::uint64_t iterations) noexcept {
  obs::record_lp_solve(iterations);
}

Problem Problem::maximize(std::vector<double> costs) {
  Problem p;
  p.objective = Objective::kMaximize;
  p.costs = std::move(costs);
  return p;
}

Problem Problem::minimize(std::vector<double> costs) {
  Problem p;
  p.objective = Objective::kMinimize;
  p.costs = std::move(costs);
  return p;
}

Problem& Problem::subject_to(const std::vector<double>& coeffs, Sense sense,
                             double rhs) {
  STOSCHED_REQUIRE(coeffs.size() == costs.size(),
                   "constraint width must match variable count");
  Constraint c;
  c.sense = sense;
  c.rhs = rhs;
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] == 0.0) continue;
    c.idx.push_back(j);
    c.val.push_back(coeffs[j]);
  }
  constraints.push_back(std::move(c));
  return *this;
}

Problem& Problem::subject_to_sparse(std::vector<std::size_t> idx,
                                    std::vector<double> val, Sense sense,
                                    double rhs) {
  STOSCHED_REQUIRE(idx.size() == val.size(),
                   "sparse constraint: index/value length mismatch");
  for (const std::size_t j : idx)
    STOSCHED_REQUIRE(j < costs.size(),
                     "sparse constraint: column index out of range");
  constraints.push_back(Constraint{std::move(idx), std::move(val), sense, rhs});
  return *this;
}

std::string to_string(Solution::Status s) {
  switch (s) {
    case Solution::Status::kOptimal:
      return "optimal";
    case Solution::Status::kInfeasible:
      return "infeasible";
    case Solution::Status::kUnbounded:
      return "unbounded";
    case Solution::Status::kIterLimit:
      return "iteration-limit";
  }
  return "?";
}

Solution solve(const Problem& p, std::size_t max_iterations) {
  const std::size_t n = p.costs.size();
  const std::size_t m = p.constraints.size();
  STOSCHED_REQUIRE(n > 0, "LP needs at least one variable");

  // Maximization sign: internally we always maximize sign * c.
  const double sign =
      p.objective == Problem::Objective::kMaximize ? 1.0 : -1.0;

  // Column layout: [0,n) structural | slack/surplus | artificial.
  // First pass: count extra columns, normalizing rhs >= 0.
  std::size_t n_slack = 0, n_art = 0;
  std::vector<double> row_scale(m, 1.0);
  std::vector<Sense> sense(m);
  for (std::size_t i = 0; i < m; ++i) {
    sense[i] = p.constraints[i].sense;
    if (p.constraints[i].rhs < 0.0) {
      row_scale[i] = -1.0;
      sense[i] = sense[i] == Sense::kLe   ? Sense::kGe
                 : sense[i] == Sense::kGe ? Sense::kLe
                                          : Sense::kEq;
    }
    if (sense[i] != Sense::kEq) ++n_slack;
    if (sense[i] != Sense::kLe) ++n_art;
  }

  Tableau t;
  t.m = m;
  t.n_total = n + n_slack + n_art;
  t.a.assign((m + 1) * (t.n_total + 1), 0.0);
  t.basis.assign(m, 0);

  std::vector<std::size_t> slack_col(m, SIZE_MAX), art_col(m, SIZE_MAX);
  std::size_t next_slack = n, next_art = n + n_slack;
  for (std::size_t i = 0; i < m; ++i) {
    const Constraint& row = p.constraints[i];
    for (std::size_t k = 0; k < row.idx.size(); ++k) {
      STOSCHED_REQUIRE(row.idx[k] < n,
                       "constraint column index out of range");
      t.at(i, row.idx[k]) += row_scale[i] * row.val[k];
    }
    t.rhs(i) = row_scale[i] * row.rhs;
    if (sense[i] != Sense::kEq) {
      slack_col[i] = next_slack++;
      t.at(i, slack_col[i]) = sense[i] == Sense::kLe ? 1.0 : -1.0;
    }
    if (sense[i] != Sense::kLe) {
      art_col[i] = next_art++;
      t.at(i, art_col[i]) = 1.0;
      t.basis[i] = art_col[i];
    } else {
      t.basis[i] = slack_col[i];
    }
  }

  Solution sol;
  std::vector<char> eligible(t.n_total, 1);

  // ---- Phase 1: maximize -(sum of artificials). ----
  if (n_art > 0) {
    // Objective row: for each artificial basic row, add the row (so the
    // reduced costs of the initial basis are zero).
    for (std::size_t i = 0; i < m; ++i) {
      if (art_col[i] == SIZE_MAX) continue;
      for (std::size_t c = 0; c <= t.n_total; ++c)
        t.at(t.m, c) += t.at(i, c);
    }
    for (std::size_t i = 0; i < m; ++i)
      if (art_col[i] != SIZE_MAX) t.at(t.m, art_col[i]) = 0.0;

    const auto status =
        run_simplex(t, eligible, max_iterations, sol.iterations);
    if (status == Solution::Status::kIterLimit) {
      sol.status = status;
      add_process_lp_solve(sol.iterations);
      return sol;
    }
    // Phase-1 optimum is -(infeasibility); rhs of the objective row holds it.
    if (t.rhs(t.m) > tol::kFeas) {
      sol.status = Solution::Status::kInfeasible;
      add_process_lp_solve(sol.iterations);
      return sol;
    }
    // Pivot any artificial still in the basis (at zero level) out, if a
    // nonartificial column with a nonzero entry exists in its row.
    for (std::size_t i = 0; i < m; ++i) {
      if (t.basis[i] < n + n_slack) continue;
      for (std::size_t c = 0; c < n + n_slack; ++c) {
        if (std::abs(t.at(i, c)) > tol::kPivot) {
          t.pivot(i, c);
          break;
        }
      }
    }
    // Bar artificials from re-entering.
    for (std::size_t c = n + n_slack; c < t.n_total; ++c) eligible[c] = 0;
  }

  // ---- Phase 2: maximize sign * c over structural variables. ----
  // Rebuild the objective row from scratch for the current basis:
  // rc_j = c_j - c_B B^{-1} A_j. We compute it by starting from c and
  // eliminating basic columns.
  for (std::size_t c = 0; c <= t.n_total; ++c) t.at(t.m, c) = 0.0;
  for (std::size_t j = 0; j < n; ++j) t.at(t.m, j) = sign * p.costs[j];
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t bc = t.basis[i];
    const double cb = bc < n ? sign * p.costs[bc] : 0.0;
    if (cb == 0.0) continue;
    for (std::size_t c = 0; c <= t.n_total; ++c)
      t.at(t.m, c) -= cb * t.at(i, c);
  }
  for (std::size_t i = 0; i < m; ++i) t.at(t.m, t.basis[i]) = 0.0;

  sol.status = run_simplex(t, eligible, max_iterations, sol.iterations);
  add_process_lp_solve(sol.iterations);
  if (sol.status != Solution::Status::kOptimal) return sol;

  // Extract primal values.
  sol.x.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    if (t.basis[i] < n) sol.x[t.basis[i]] = t.rhs(i);

  // Objective in the caller's sense. The tableau's objective row rhs equals
  // -(current max-form objective value).
  const double obj_max = -t.rhs(t.m);
  sol.objective = sign * obj_max;

  // Duals: y_i = -rc(column with +e_i footprint in row i). Slack columns of
  // <= rows carry +e_i; surplus columns of >= rows carry -e_i; artificials
  // of = / >= rows carry +e_i (their columns remain in the tableau).
  sol.duals.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double y_max;
    if (sense[i] == Sense::kLe) {
      y_max = -t.at(t.m, slack_col[i]);
    } else if (sense[i] == Sense::kGe) {
      // surplus has -e_i: rc = -c_B B^{-1} (-e_i) = +y_i
      y_max = t.at(t.m, slack_col[i]);
      // artificial (+e_i) also available; prefer it when present for
      // numerical agreement.
      if (art_col[i] != SIZE_MAX) y_max = -t.at(t.m, art_col[i]);
    } else {
      y_max = -t.at(t.m, art_col[i]);
    }
    // Undo the rhs normalization (row multiplied by -1 flips the dual) and
    // the maximization sign.
    sol.duals[i] = sign * row_scale[i] * y_max;
  }

  // Reduced costs of structural variables, reported in the caller's sense:
  // positive reduced cost means "increasing this nonbasic variable improves
  // the (caller-sense) objective" for max problems, and the usual
  // min-problem convention (c_j - z_j >= 0 at optimum) for min problems.
  sol.reduced_costs.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    sol.reduced_costs[j] = sign * t.at(t.m, j);

  return sol;
}

}  // namespace stosched::lp
