#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A slope parked in Engine::price() to be repriced holds kParkedTag | the
/// index of the next parked column (the column count ends the list). The
/// tag makes it a signalling NaN, which no arithmetic yields (a computed
/// NaN is quiet), so a parked slope never equals a priced one. None
/// outlives price().
constexpr std::uint64_t kParkedTag = 0x7ff4'0000'0000'0000ULL;
constexpr std::uint64_t kParkedNext = 0xffff'ffffULL;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The sign a column is held to: structurals and kLe slacks x ≥ 0, kGe
/// slacks x ≤ 0, kEq slacks both (x = 0). 0 is every finite bound, so a
/// nonbasic variable always rests at 0.
enum Sign : std::uint8_t {
  kNonneg = 1,
  kNonpos = 2,
  kFixed = kNonneg | kNonpos,
};

/// The working set of one solve. Computational form:
///
///     minimize  ĉ·x̃   s.t.   [A | I] x̃ = b,   x̃ signed as `sign` says
///
/// over the structural variables followed by one slack per row. Row sense
/// lives entirely in the slack's sign — kLe: s ≥ 0, kGe: s ≤ 0, kEq: s = 0
/// — so every slack column is +e_i, the all-slack basis is the identity
/// (empty eta file), and no artificial columns ever exist. Maximization
/// flips the cost sign (ĉ = dir·c with dir = ±1).
struct Engine {
  // Problem data.
  std::size_t n = 0;      ///< structural variables
  std::size_t m = 0;      ///< rows
  std::size_t total = 0;  ///< n + m columns
  double dir = 1.0;       ///< +1 minimize, -1 maximize
  SparseColumns cols;     ///< all columns, slacks included
  /// The same matrix by rows, with the rhs b: the Problem's own
  /// constraints, read in place (the Problem outlives the solve).
  const std::vector<Constraint>* rows = nullptr;
  std::vector<std::uint8_t> sign;  ///< Sign per column
  std::vector<double> chat;  ///< internal min costs (slacks 0)

  // Basis state.
  std::vector<VarStatus> status;     ///< per column
  std::vector<std::uint32_t> basic;  ///< per row
  std::vector<double> xb;            ///< value of basic[r], per row
  EtaFile file;
  std::size_t pivots_since_refactor = 0;
  static constexpr std::size_t kRefactorInterval = 64;

  // Basic feasibility, kept across pivots: only the rows a pivot moves are
  // reclassified.
  std::vector<std::int8_t> d;  ///< -1 below 0 / +1 above 0 / 0 ok
  std::size_t infeasible = 0;  ///< rows with d != 0; phase 1 while > 0

  // Pricing, kept across iterations (see price()).
  IndexedVector w;                ///< FTRAN of the entering column (m)
  std::vector<double> y;          ///< BTRAN duals of the current phase cost
  std::vector<double> priced_y;   ///< the duals `slope` was priced at (m)
  std::vector<double> slope;      ///< pricing slope per column (total)
  bool priced = false;            ///< slope holds every column's slope
  bool priced_phase1 = false;     ///< ... for this phase's cost

  // Ghost state for the phase-2 monotonicity contract.
  STOSCHED_CONTRACT_STATE(double ghost_obj = 0.0; bool ghost_phase2 = false;)

  void build(const Problem& p) {
    n = p.costs.size();
    m = p.constraints.size();
    total = n + m;
    STOSCHED_REQUIRE(n > 0, "LP needs at least one variable");
    STOSCHED_REQUIRE(total < kParkedNext, "LP has too many columns");
    p.validate();
    rows = &p.constraints;
    dir = p.objective == Problem::Objective::kMinimize ? 1.0 : -1.0;

    sign.assign(total, kNonneg);
    chat.assign(total, 0.0);
    for (std::size_t j = 0; j < n; ++j) chat[j] = dir * p.costs[j];

    // CSC assembly, two passes over the sparse rows; slack column n+i is
    // the single entry (i, 1). Duplicate row indices stay as separate
    // entries — every consumer (scatter, column dot) adds them up.
    std::vector<std::size_t> count(total, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (const std::size_t j : p.constraints[i].idx) ++count[j];
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
      if (row.sense == Sense::kGe) sign[n + i] = kNonpos;
      if (row.sense == Sense::kEq) sign[n + i] = kFixed;
    }
    w = IndexedVector(m);
    y.assign(m, 0.0);
    priced_y.assign(m, 0.0);
    slope.assign(total, 0.0);
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

  /// a_jᵀy, summed over column j's CSC entries from +0 in their order:
  /// ascending rows, a row's duplicates in the row's own order.
  double column_dot(std::size_t j) const {
    double sum = 0.0;
    for (std::size_t k = cols.start[j]; k < cols.start[j + 1]; ++k)
      sum += y[cols.row[k]] * cols.value[k];
    return sum;
  }

  /// The pricing slope of column j from scratch: σ_j·(g_j − a_jᵀy), the
  /// phase objective's rate of change as j moves off 0 (σ = +1 upward from
  /// kAtLower, −1 downward from kAtUpper; g = ĉ in phase 2, 0 in phase 1,
  /// whose cost lives on the basics only). A column that cannot enter
  /// (basic, or a kEq slack) gets +0, which never prices as improving.
  double fresh_slope(std::size_t j, bool phase1) const {
    if (status[j] == VarStatus::kBasic || sign[j] == kFixed) return 0.0;
    const double zhat = (phase1 ? 0.0 : chat[j]) - column_dot(j);
    const double sigma = status[j] == VarStatus::kAtLower ? 1.0 : -1.0;
    return sigma * zhat;
  }

  /// Bring `slope` up to date with the duals in `y`.
  ///
  /// A slope depends on y only through a_jᵀy, a sum over the rows of
  /// column j. So when no dual in those rows changed bit-wise since the
  /// column was last priced, and neither its status nor the phase did, the
  /// kept slope is already the fresh one, bit for bit. Each iteration
  /// therefore compares y with `priced_y` row by row and reprices only the
  /// columns of changed rows: the structurals the Problem's row lists and
  /// the row's slack. Most duals keep their bits from one pivot to the
  /// next, so this is a small share of the columns. The pivot reprices the
  /// columns whose status it changes (end of run()'s loop), since rounding
  /// may leave every dual in their rows as it was. Every column is
  /// repriced on the first iteration, after a basis reload
  /// (set_slack_basis) and when the phase flips, which changes g for every
  /// column at once.
  ///
  /// The column dot gives the bits of a row-wise Aᵀy over the rows with
  /// y_i ≠ 0 (the pivot-path goldens were pinned on that): a walk over
  /// those rows in ascending order adds column j's products in its CSC
  /// order, and the rows it skips add ±0 products to a sum that starts at
  /// +0, which leaves every sum as it was. (A slack's dot, +0 + y_i·1,
  /// differs from y_i only for y_i = −0, and g − (±0) is +0 either way.)
  void price(bool phase1) {
    if (!priced || phase1 != priced_phase1) {
      for (std::size_t j = 0; j < total; ++j) slope[j] = fresh_slope(j, phase1);
      priced_y = y;
      priced = true;
      priced_phase1 = phase1;
      return;
    }
    // A column may lie in several changed rows but is repriced once: the
    // first of its rows parks it on a list threaded through the parked
    // slopes themselves (no mark array), and the walk below reprices each
    // parked column.
    std::size_t head = total;
    for (std::size_t i = 0; i < m; ++i) {
      if (same_bits(y[i], priced_y[i])) continue;
      priced_y[i] = y[i];
      for (const std::size_t j : (*rows)[i].idx) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(slope[j]);
        const bool parked = (bits & ~kParkedNext) == kParkedTag;
        slope[j] = std::bit_cast<double>(parked ? bits : kParkedTag | head);
        head = parked ? head : j;
      }
      slope[n + i] = fresh_slope(n + i, phase1);
    }
    while (head != total) {
      const std::size_t j = head;
      head = std::bit_cast<std::uint64_t>(slope[j]) & kParkedNext;
      slope[j] = fresh_slope(j, phase1);
    }
  }

  /// Ghost check: every kept slope is its from-scratch value, bit for bit.
  /// O(nnz) per call, so it only ever runs with contracts armed.
  bool slopes_fresh(bool phase1) const {
    for (std::size_t j = 0; j < total; ++j)
      if (!same_bits(slope[j], fresh_slope(j, phase1))) return false;
    return true;
  }

  /// The entering column, or `total` when none improves. Dantzig: the most
  /// negative slope below −kPivot, the smallest index among equal minima.
  /// Bland: the first slope below −kPivot. Non-candidates hold +0 (see
  /// fresh_slope), so both scans read `slope` alone. Dantzig's minimum runs
  /// over independent lanes, which breaks the serial dependence on one
  /// running minimum; `v < lane ? v : lane` skips NaN as the serial scan
  /// did, and a second pass finds the first index holding the minimum.
  std::size_t choose_entering(bool bland) const {
    if (bland) {
      for (std::size_t j = 0; j < total; ++j)
        if (slope[j] < -tol::kPivot) return j;
      return total;
    }
    constexpr std::size_t kLanes = 8;
    double lane[kLanes];
    std::fill(lane, lane + kLanes, -tol::kPivot);
    std::size_t j = 0;
    for (; j + kLanes <= total; j += kLanes)
      for (std::size_t l = 0; l < kLanes; ++l)
        lane[l] = slope[j + l] < lane[l] ? slope[j + l] : lane[l];
    for (; j < total; ++j) lane[0] = slope[j] < lane[0] ? slope[j] : lane[0];
    double best = lane[0];
    for (std::size_t l = 1; l < kLanes; ++l)
      best = lane[l] < best ? lane[l] : best;
    if (!(best < -tol::kPivot)) return total;
    j = 0;
    while (slope[j] != best) ++j;
    return j;
  }

  /// Every structural nonbasic at its lower bound 0 (kAtLower); all
  /// slacks basic; empty eta file (B = I).
  void set_slack_basis() {
    status.assign(total, VarStatus::kAtLower);
    basic.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      basic[i] = static_cast<std::uint32_t>(n + i);
      status[n + i] = VarStatus::kBasic;
    }
    file.clear();
    pivots_since_refactor = 0;
    priced = false;
  }

  /// A warm basis is usable when its statuses are consistent with this
  /// problem's signs (kAtLower needs x ≥ 0, kAtUpper x ≤ 0, so a kEq slack
  /// takes either) and its basic set has full rank (checked by
  /// refactorize()). Shape compatibility was already checked by the caller.
  bool load_basis(const Basis& warm) {
    for (std::size_t j = 0; j < total; ++j) {
      if (warm.status[j] == VarStatus::kAtLower && !(sign[j] & kNonneg))
        return false;
      if (warm.status[j] == VarStatus::kAtUpper && !(sign[j] & kNonpos))
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

  /// Recompute the basic values from scratch, x_B = B⁻¹b (every nonbasic
  /// rests at 0), and classify every row.
  void compute_xb() {
    xb.resize(m);
    for (std::size_t i = 0; i < m; ++i) xb[i] = (*rows)[i].rhs;
    file.ftran(xb);
    std::fill(d.begin(), d.end(), std::int8_t{0});
    infeasible = 0;
    for (std::size_t r = 0; r < m; ++r) classify(r);
  }

  /// Basic row r against its variable's sign: -1 below 0 where x ≥ 0, +1
  /// above 0 where x ≤ 0, 0 within kFeas.
  std::int8_t violation(std::size_t r) const {
    const std::uint8_t s = sign[basic[r]];
    if ((s & kNonneg) && xb[r] < -tol::kFeas) return -1;
    if ((s & kNonpos) && xb[r] > tol::kFeas) return 1;
    return 0;
  }

  /// Reclassify row r, keeping the infeasible-row count.
  void classify(std::size_t r) {
    const std::int8_t v = violation(r);
    infeasible = infeasible - (d[r] != 0) + (v != 0);
    d[r] = v;
  }

  /// Ghost check: the kept classification is a full one.
  bool classification_fresh() const {
    std::size_t count = 0;
    for (std::size_t r = 0; r < m; ++r) {
      if (d[r] != violation(r)) return false;
      count += d[r] != 0;
    }
    return count == infeasible;
  }

  /// Internal (minimization-form) objective of the current iterate.
  double internal_objective() const {
    double obj = 0.0;
    for (std::size_t r = 0; r < m; ++r) obj += chat[basic[r]] * xb[r];
    return obj;
  }

  /// The iterate loop. Each pass runs one composite phase-1 step (minimize
  /// total sign violation) while any basic violates its sign, else one
  /// phase-2 step — so a warm start that lands feasible skips phase 1
  /// entirely.
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

      STOSCHED_INVARIANT(classification_fresh(),
                         "kept basic classification is stale");
      const bool phase1 = infeasible > 0;

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
      // phase-1 cost (±1 on infeasible basics) or ĉ. Then pricing: Dantzig
      // over the kept slopes (Bland once a degenerate streak suggests
      // cycling); improving means slope < −kPivot.
      for (std::size_t r = 0; r < m; ++r)
        y[r] = phase1 ? static_cast<double>(d[r]) : chat[basic[r]];
      file.btran(y);
      price(phase1);
      STOSCHED_INVARIANT(slopes_fresh(phase1),
                         "kept pricing slope differs from its fresh value");
      const std::size_t enter = choose_entering(bland);
      if (enter == total) {
        // No improving column: phase-1 optimum with residual violation
        // means the LP is infeasible; otherwise we are optimal and `y`
        // already holds the phase-2 duals.
        sol.status = phase1 ? Solution::Status::kInfeasible
                            : Solution::Status::kOptimal;
        return sol;
      }

      // FTRAN the entering column, then the ratio test: a feasible basic
      // blocks where it reaches 0, unless its sign lets it pass (an x ≤ 0
      // basic falling, an x ≥ 0 basic rising); an infeasible basic blocks
      // where it gets back to 0 (the first breakpoint of the
      // piecewise-linear phase-1 objective).
      // The entering variable has no finite bound on the side it moves to,
      // so only a basic can block. Rows outside w's pattern hold +0 and
      // never block, so only the pattern is scanned.
      ftran_column(enter, w);
      const double esign = status[enter] == VarStatus::kAtLower ? 1.0 : -1.0;

      double alpha = kInf;
      std::size_t leave = m;  // m = no row blocks
      bool leave_at_upper = false;
      for (const std::uint32_t r : w.pattern()) {
        const double delta = esign * w[r];  // −d(x_B[r])/d(step)
        if (delta < tol::kPivot && delta > -tol::kPivot) continue;
        const std::uint32_t bv = basic[r];
        const bool falls = delta > 0.0;
        if (d[r] == 0 ? !(sign[bv] & (falls ? kNonneg : kNonpos))
                      : falls == (d[r] < 0))
          continue;  // never reaches 0, or moves further from it
        // It leaves labelled with the bound it reaches: the one it moves
        // toward when feasible, the one it violates when not.
        const bool at_upper = d[r] == 0 ? !falls : d[r] > 0;
        double a = xb[r] / delta;
        if (a < 0.0) a = 0.0;  // tolerance-negative step: degenerate
        if (a < alpha - tol::kRatioTie ||
            (a < alpha + tol::kRatioTie && leave < m && bv < basic[leave])) {
          alpha = a;
          leave = r;
          leave_at_upper = at_upper;
        }
      }

      if (leave == m) {
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

      // The entering variable moved off 0 by esign·alpha; the +0 start
      // turns a −0 step into +0.
      const std::uint32_t out = basic[leave];
      status[out] = leave_at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      status[enter] = VarStatus::kBasic;
      basic[leave] = static_cast<std::uint32_t>(enter);
      xb[leave] = 0.0 + esign * alpha;
      file.append(w, static_cast<std::uint32_t>(leave), tol::kEtaDrop);
      ++pivots_since_refactor;
      STOSCHED_INVARIANT(basis_consistent(),
                         "basis column count != row count after pivot");
      slope[out] = fresh_slope(out, phase1);
      // The step moved only the basics in w's pattern, which holds the
      // leaving row, and the two columns that swapped changed status.
      for (const std::uint32_t r : w.pattern()) classify(r);
      slope[enter] = fresh_slope(enter, phase1);
    }
  }

  /// Fill the caller-facing Solution from an optimal iterate. `y` must hold
  /// the phase-2 duals (B⁻ᵀĉ_B), which run() guarantees at kOptimal exit.
  void extract(const Problem& p, Solution& sol) const {
    sol.x.assign(n, 0.0);  // nonbasics rest at 0
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
      sol.reduced_costs[j] = dir * (chat[j] - column_dot(j));
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
