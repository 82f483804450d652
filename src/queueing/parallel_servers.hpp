// parallel_servers.hpp — multiclass M/M/m scheduling (survey §3, [22]).
//
// N job classes share m identical exponential servers under a static
// priority order. No index rule is exactly optimal here, but Glazebrook and
// Niño-Mora showed the cµ/Klimov priority is asymptotically optimal in heavy
// traffic, with a suboptimality gap bounded via the achievable-region LP of
// a relaxed single-server system. Experiment F5 reproduces the shape: the
// relative gap between the simulated cµ cost and the lower bound vanishes
// as ρ -> 1.
//
// The lower bound implemented is the standard *resource-pooling relaxation*:
// an M/G/1 server working m times faster can emulate any m-server schedule
// (it can split its effort), so the optimal cost of the pooled system —
// attained by cµ there [15], evaluated with Cobham — lower-bounds the
// m-server optimum after adding back the irreducible in-service cost
// difference. We report the plain pooled-cµ bound, which is what the
// heavy-traffic argument needs (the queueing terms dominate as ρ -> 1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "queueing/mg1.hpp"

namespace stosched::queueing {

/// Simulate a multiclass M/M/m queue under a static nonpreemptive priority.
/// Service rates are per class; every server serves at rate 1.
struct MmmResult {
  std::vector<double> mean_in_system;  ///< per class
  double cost_rate = 0.0;
  double utilization = 0.0;  ///< mean busy servers / m
};

/// Run one replication. `priority` must be a permutation of 0..n-1 (highest
/// first). Statistics cover exactly [warmup, warmup + horizon]: the
/// time-averages restart at the warmup *epoch* (not at the first event after
/// it), so sparse-traffic runs are unbiased.
///
/// Randomness is split into per-purpose substreams derived from one draw of
/// `rng` (per-class arrival stream, per-class service stream), so two
/// priority orders replaying the same `rng` state see the *same* workload —
/// the synchronization behind common-random-number policy comparisons.
MmmResult simulate_mmm(const std::vector<ClassSpec>& classes,
                       unsigned servers,
                       const std::vector<std::size_t>& priority,
                       double horizon, double warmup, Rng& rng);

/// Experiment-engine adapter: metric vector layout is
///   [cost_rate, utilization, then per class j: mean_in_system_j].
std::size_t mmm_metric_count(std::size_t num_classes);

/// Uniform replication entry point: one simulate_mmm run, metrics written
/// into `out` (size mmm_metric_count(classes.size())).
void run_replication(const std::vector<ClassSpec>& classes, unsigned servers,
                     const std::vector<std::size_t>& priority, double horizon,
                     double warmup, Rng& rng, std::span<double> out);

/// Pooled-server lower bound on the holding-cost rate: optimal (cµ) cost of
/// the single m-times-faster M/M/1 with the same classes, minus nothing —
/// see header comment. Requires Σ ρ_j < m.
double pooled_lower_bound(const std::vector<ClassSpec>& classes,
                          unsigned servers);

}  // namespace stosched::queueing
