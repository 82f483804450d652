// parallel_machines.hpp — identical parallel machines (survey §1).
//
// List policies: jobs are ordered once; whenever a machine frees, it takes
// the next unstarted job. SEPT is optimal for expected total flowtime under
// exponential laws [20] (and more generally [41,43]); LEPT is optimal for
// expected makespan under exponential laws [10]. Outside those assumptions
// the rules fail ([13], experiment T5). Policies are evaluated two ways:
//   * simulation (any laws, any n) — simulate_list_policy;
//   * exact enumeration over the realization lattice for discrete laws
//     (two-point counterexamples) — exact_list_policy_discrete;
// and the *dynamic* optimum for exponential laws comes from subset_dp.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "batch/job.hpp"

namespace stosched::batch {

/// Outcome of one schedule realization (or its expectation).
struct ScheduleOutcome {
  double flowtime = 0.0;           ///< Σ_j C_j
  double weighted_flowtime = 0.0;  ///< Σ_j w_j C_j
  double makespan = 0.0;           ///< max_j C_j
};

/// One simulated replication of the list policy (draws processing times).
ScheduleOutcome simulate_list_policy(const Batch& jobs, const Order& order,
                                     unsigned machines, Rng& rng);

/// Exact expectation of a list policy when every law is discrete: enumerates
/// the product support (prod K_i realizations; requires <= ~2^20).
ScheduleOutcome exact_list_policy_discrete(const Batch& jobs,
                                           const Order& order,
                                           unsigned machines);

/// Exhaustive minimum of exact expected flowtime (or makespan) over all list
/// orders for discrete-law jobs; n <= 8. `use_makespan` selects objective.
Order best_list_order_discrete(const Batch& jobs, unsigned machines,
                               bool use_makespan, double* value = nullptr);

}  // namespace stosched::batch
