// single_machine.hpp — sequencing a batch on one machine (survey §1).
//
// Nonpreemptive case: for a *fixed* sequence the expected weighted flowtime
// depends on the processing-time laws only through their means,
//     E[Σ w_i C_i] = Σ_i w_{σ(i)} Σ_{k<=i} E[P_{σ(k)}],
// so the objective of every permutation is computed exactly — no simulation
// noise in experiment T1. Rothkopf [34] showed the deterministic Smith rule
// (nonincreasing w_i/E[P_i], WSEPT) transfers to the stochastic model.
//
// Preemptive case (Sevcik [35]): with general laws, preemption pays when
// hazard rates decrease. For *discrete* processing-time laws the optimal
// policy is an index rule whose index depends on attained service; decisions
// only matter at support points. This module computes the Sevcik/Gittins
// index exactly and evaluates policies exactly by backward induction on the
// (attained-service level per job) DAG — experiment T2.
#pragma once

#include <vector>

#include "batch/job.hpp"

namespace stosched::batch {

/// Exact E[Σ w_i C_i] of a nonpreemptive sequence (uses only means).
/// Throws std::invalid_argument unless `order` is a permutation of the jobs.
double exact_weighted_flowtime(const Batch& jobs, const Order& order);

/// Exhaustive minimum over all n! sequences (n <= 10). Returns the best
/// order; `value` (if non-null) receives its objective.
Order best_order_exhaustive(const Batch& jobs, double* value = nullptr);

// ---------------------------------------------------------------------------
// Preemptive scheduling of discrete-law jobs.
// ---------------------------------------------------------------------------

/// A job whose processing time has finite support v_1 < ... < v_K with
/// probabilities q_1..q_K (from discrete_dist / two_point_dist). `level`
/// counts support points already survived: attained service a = v_level
/// (a = 0 at level 0).
struct DiscreteJob {
  double weight = 1.0;
  std::vector<double> values;  ///< support, strictly increasing
  std::vector<double> probs;   ///< probabilities, sum to 1
};

/// Sevcik's index of a job at a given attained-service level:
///   sigma(level) = w * max_{t in later support points}
///                  P(finish by t | survived to level) / E[min(P, t) - a | survived].
/// Larger index = higher priority. Serving is reconsidered at support points.
double sevcik_index(const DiscreteJob& job, std::size_t level);

/// Exact expected weighted flowtime of the *Sevcik index policy* on discrete
/// jobs, by backward induction over level vectors. Jobs count <= 6 with
/// small supports (state space is prod(K_i + 1)).
double preemptive_index_policy_value(const std::vector<DiscreteJob>& jobs);

/// Exact optimal preemptive expected weighted flowtime over *all* policies
/// that act at support points (which contains an optimal policy), by
/// backward induction on the same DAG.
double preemptive_optimal_value(const std::vector<DiscreteJob>& jobs);

/// Exact value of the best *nonpreemptive* sequence on the same jobs
/// (exhaustive over orders), for the preemption-gain comparison of T2.
double nonpreemptive_optimal_value(const std::vector<DiscreteJob>& jobs);

}  // namespace stosched::batch
