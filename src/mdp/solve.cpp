#include "mdp/solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace stosched::mdp {

namespace {

/// One Bellman backup for state s given current values v.
/// Returns (best value, best action index).
std::pair<double, std::size_t> backup(const FiniteMdp& mdp, double beta,
                                      const std::vector<double>& v,
                                      std::size_t s) {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_a = 0;
  const auto acts = mdp.actions(s);
  for (std::size_t ai = 0; ai < acts.size(); ++ai) {
    double q = acts[ai].reward;
    for (const auto& tr : acts[ai].transitions) q += beta * tr.prob * v[tr.state];
    if (q > best) {
      best = q;
      best_a = ai;
    }
  }
  return {best, best_a};
}

/// evaluate_policy without the input check, for policy_iteration, which
/// checks its MDP once.
std::vector<double> evaluate(const FiniteMdp& mdp, double beta,
                             const std::vector<std::size_t>& policy) {
  const std::size_t n = mdp.num_states();
  STOSCHED_REQUIRE(policy.size() == n, "policy size must match state count");
  // Solve (I - beta P) v = r.
  std::vector<double> a(n * n, 0.0), b(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const auto acts = mdp.actions(s);
    STOSCHED_REQUIRE(policy[s] < acts.size(), "policy picks missing action");
    const Action& act = acts[policy[s]];
    a[s * n + s] = 1.0;
    for (const auto& tr : act.transitions) a[s * n + tr.state] -= beta * tr.prob;
    b[s] = act.reward;
  }
  const bool ok = solve_linear_system(a, b, n);
  STOSCHED_ASSERT(ok, "policy evaluation system is singular");
  return b;
}

}  // namespace

bool solve_linear_system(std::vector<double>& a, std::vector<double>& b,
                         std::size_t n) {
  STOSCHED_REQUIRE(a.size() == n * n && b.size() == n,
                   "system dimensions mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t piv = col;
    double best = std::abs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(a[r * n + col]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < 1e-12) return false;
    if (piv != col) {
      for (std::size_t c = col; c < n; ++c)
        std::swap(a[piv * n + c], a[col * n + c]);
      std::swap(b[piv], b[col]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a[ri * n + c] * b[c];
    b[ri] = sum / a[ri * n + ri];
  }
  return true;
}

DiscountedSolution value_iteration(const FiniteMdp& mdp, double beta,
                                   double tol, std::size_t max_iter) {
  STOSCHED_REQUIRE(beta > 0.0 && beta < 1.0, "discount must lie in (0,1)");
  mdp.validate();
  const std::size_t n = mdp.num_states();
  DiscountedSolution out;
  out.value.assign(n, 0.0);
  out.policy.assign(n, 0);

  // Gauss–Seidel sweeps; stop when the span seminorm of the update, scaled
  // by beta/(1-beta), falls below tol (a true error bound for v*).
  for (out.iterations = 0; out.iterations < max_iter; ++out.iterations) {
    double max_delta = -std::numeric_limits<double>::infinity();
    double min_delta = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < n; ++s) {
      const auto [val, act] = backup(mdp, beta, out.value, s);
      const double delta = val - out.value[s];
      max_delta = std::max(max_delta, delta);
      min_delta = std::min(min_delta, delta);
      out.value[s] = val;
      out.policy[s] = act;
    }
    out.residual = std::max(std::abs(max_delta), std::abs(min_delta));
    if ((max_delta - min_delta) * beta / (1.0 - beta) < tol &&
        out.residual * beta / (1.0 - beta) < tol)
      break;
  }
  return out;
}

std::vector<double> evaluate_policy(const FiniteMdp& mdp, double beta,
                                    const std::vector<std::size_t>& policy) {
  mdp.validate();
  return evaluate(mdp, beta, policy);
}

DiscountedSolution policy_iteration(const FiniteMdp& mdp, double beta,
                                    std::size_t max_iter) {
  STOSCHED_REQUIRE(beta > 0.0 && beta < 1.0, "discount must lie in (0,1)");
  mdp.validate();
  const std::size_t n = mdp.num_states();
  DiscountedSolution out;
  out.policy.assign(n, 0);
  out.value.assign(n, 0.0);
  for (out.iterations = 0; out.iterations < max_iter; ++out.iterations) {
    out.value = evaluate(mdp, beta, out.policy);
    bool changed = false;
    for (std::size_t s = 0; s < n; ++s) {
      const auto [val, act] = backup(mdp, beta, out.value, s);
      // Strict improvement test with tolerance prevents cycling between
      // equal-value actions.
      if (act != out.policy[s] &&
          val > out.value[s] + 1e-12 * (1.0 + std::abs(out.value[s]))) {
        out.policy[s] = act;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return out;
}

AverageSolution relative_value_iteration(const FiniteMdp& mdp, double tol,
                                         std::size_t max_iter) {
  mdp.validate();
  const std::size_t n = mdp.num_states();
  AverageSolution out;
  out.bias.assign(n, 0.0);
  out.policy.assign(n, 0);
  std::vector<double> next(n, 0.0);
  // Aperiodicity transform: T_tau v = (1-tau) v + tau T v with tau in (0,1)
  // guarantees convergence for periodic chains.
  constexpr double tau = 0.9;
  for (out.iterations = 0; out.iterations < max_iter; ++out.iterations) {
    double max_delta = -std::numeric_limits<double>::infinity();
    double min_delta = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < n; ++s) {
      // Average-reward backup: no discount.
      double best = -std::numeric_limits<double>::infinity();
      std::size_t best_a = 0;
      const auto acts = mdp.actions(s);
      for (std::size_t ai = 0; ai < acts.size(); ++ai) {
        double q = acts[ai].reward;
        for (const auto& tr : acts[ai].transitions)
          q += tr.prob * out.bias[tr.state];
        if (q > best) {
          best = q;
          best_a = ai;
        }
      }
      next[s] = (1.0 - tau) * out.bias[s] + tau * best;
      out.policy[s] = best_a;
      const double delta = next[s] - out.bias[s];
      max_delta = std::max(max_delta, delta);
      min_delta = std::min(min_delta, delta);
    }
    // Normalize so bias[0] stays 0 (prevents drift).
    const double ref = next[0];
    for (std::size_t s = 0; s < n; ++s) out.bias[s] = next[s] - ref;
    out.gain = max_delta / tau;  // both deltas converge to tau*gain
    if (max_delta - min_delta < tol * tau) {
      out.gain = 0.5 * (max_delta + min_delta) / tau;
      break;
    }
  }
  return out;
}

double average_reward_of_policy(const FiniteMdp& mdp,
                                const std::vector<std::size_t>& policy) {
  // Unichain evaluation equations: g + h(s) = r(s) + sum_j P(s,j) h(j),
  // with the normalization h(0) = 0. Unknowns: [g, h(1), ..., h(n-1)].
  mdp.validate();
  const std::size_t n = mdp.num_states();
  STOSCHED_REQUIRE(policy.size() == n, "policy size must match state count");
  std::vector<double> a(n * n, 0.0), b(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const Action& act = mdp.actions(s)[policy[s]];
    // Row: g + h(s) - sum P h = r. Column 0 is g; columns 1..n-1 are h(1..).
    a[s * n + 0] = 1.0;
    auto h_col = [](std::size_t state) { return state; };  // h(k) at col k, k>=1
    if (s >= 1) a[s * n + h_col(s)] += 1.0;
    for (const auto& tr : act.transitions)
      if (tr.state >= 1) a[s * n + h_col(tr.state)] -= tr.prob;
    b[s] = act.reward;
  }
  const bool ok = solve_linear_system(a, b, n);
  STOSCHED_ASSERT(ok, "average-reward evaluation system is singular");
  return b[0];
}

double average_reward_of_policy_iterative(
    const FiniteMdp& mdp, const std::vector<std::size_t>& policy, double tol,
    std::size_t max_iter) {
  mdp.validate();
  const std::size_t n = mdp.num_states();
  STOSCHED_REQUIRE(policy.size() == n, "policy size must match state count");
  std::vector<double> h(n, 0.0), next(n, 0.0);
  constexpr double tau = 0.9;  // aperiodicity damping
  double gain = 0.0;
  for (std::size_t it = 0; it < max_iter; ++it) {
    double max_d = -std::numeric_limits<double>::infinity();
    double min_d = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < n; ++s) {
      const Action& a = mdp.actions(s)[policy[s]];
      double q = a.reward;
      for (const auto& tr : a.transitions) q += tr.prob * h[tr.state];
      next[s] = (1.0 - tau) * h[s] + tau * q;
      const double d = next[s] - h[s];
      max_d = std::max(max_d, d);
      min_d = std::min(min_d, d);
    }
    const double ref = next[0];
    for (std::size_t s = 0; s < n; ++s) h[s] = next[s] - ref;
    gain = 0.5 * (max_d + min_d) / tau;
    if (max_d - min_d < tol * tau) break;
  }
  return gain;
}

}  // namespace stosched::mdp
