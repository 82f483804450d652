// solve.hpp — exact solvers for finite MDPs.
//
// * value_iteration     — discounted; Gauss–Seidel sweeps with a span-based
//                         stopping rule (Bellman residual scaled by
//                         beta/(1-beta)), so `tol` bounds the true sup-norm
//                         distance to v*.
// * policy_iteration    — Howard's algorithm; policy evaluation by dense
//                         Gaussian elimination (exact to rounding), finite
//                         convergence, used as the reference solver in tests.
// * relative_value_iteration — average-reward (unichain) problems: gain +
//                         bias, used by the restless-bandit experiments that
//                         follow Whittle's time-average formulation.
// * evaluate_policy     — value of a fixed stationary policy (dense solve).
#pragma once

#include <vector>

#include "mdp/mdp.hpp"

namespace stosched::mdp {

/// Result of a discounted solve: optimal values and a greedy optimal policy
/// (index of the argmax action per state).
struct DiscountedSolution {
  std::vector<double> value;
  std::vector<std::size_t> policy;
  std::size_t iterations = 0;
  double residual = 0.0;
};

DiscountedSolution value_iteration(const FiniteMdp& mdp, double beta,
                                   double tol = 1e-10,
                                   std::size_t max_iter = 100000);

// caller-audit: test-only(PolicyIteration.AgreesWithValueIteration: Howard's
// algorithm is the independent optimum value_iteration is checked against)
DiscountedSolution policy_iteration(const FiniteMdp& mdp, double beta,
                                    std::size_t max_iter = 1000);

/// Value of the stationary policy `policy` (one action index per state).
std::vector<double> evaluate_policy(const FiniteMdp& mdp, double beta,
                                    const std::vector<std::size_t>& policy);

/// Average-reward solution for unichain MDPs.
struct AverageSolution {
  double gain = 0.0;               ///< long-run average reward per period
  std::vector<double> bias;        ///< relative values (h), h[ref] = 0
  std::vector<std::size_t> policy;
  std::size_t iterations = 0;
};

AverageSolution relative_value_iteration(const FiniteMdp& mdp,
                                         double tol = 1e-9,
                                         std::size_t max_iter = 200000);

/// Long-run average reward of a fixed stationary policy (unichain), via the
/// evaluation equations h + g·1 = r + P h solved with a dense system.
/// O(n^3); prefer the iterative variant beyond a few hundred states.
// caller-audit: test-only(AverageRewardOfPolicy.IterativeAgreesWithDense: the
// dense O(n^3) solve that the production iterative evaluator is checked
// against)
double average_reward_of_policy(const FiniteMdp& mdp,
                                const std::vector<std::size_t>& policy);

/// Iterative (damped successive-approximation) variant of the above; O(iters
/// x transitions), suitable for product state spaces.
double average_reward_of_policy_iterative(
    const FiniteMdp& mdp, const std::vector<std::size_t>& policy,
    double tol = 1e-10, std::size_t max_iter = 500000);

/// Dense linear solver (partial-pivot Gaussian elimination) shared by the
/// policy-evaluation routines; exposed for reuse by the fluid module and
/// tests. Solves A x = b in place; returns false if A is singular.
bool solve_linear_system(std::vector<double>& a, std::vector<double>& b,
                         std::size_t n);

}  // namespace stosched::mdp
