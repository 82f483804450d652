// polling.hpp — polling systems: queues with changeover (switchover) times
// (survey §3, [25, 32]).
//
// A single server attends N queues; moving its attention from one queue to
// another costs a random switchover time during which no work is done. With
// setups, pure index rules thrash: the cµ rule would switch on every
// comparison flip and burn capacity in setups. The classical service
// disciplines compared in experiment T11:
//   * exhaustive — serve the polled queue until empty, then switch;
//   * gated      — serve only the jobs present at the polling instant;
//   * k-limited  — serve at most k jobs per visit;
//   * greedy-cµ  — always move toward the globally highest cµ job,
//                  paying the setup each time the argmax changes queue.
// The simulator also reports the fraction of time spent switching, which
// explains *why* the greedy rule loses as setups grow.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "queueing/mg1.hpp"

namespace stosched::queueing {

enum class PollingDiscipline {
  kExhaustive,
  kGated,
  kLimited,   ///< at most `limit` services per visit
  kGreedyCmu, ///< chase the global cµ argmax, paying setups
};

struct PollingOptions {
  PollingDiscipline discipline = PollingDiscipline::kExhaustive;
  std::size_t limit = 1;        ///< for kLimited; must be >= 1
  DistPtr switchover;           ///< setup time law (required)
  double horizon = 2e5;
  double warmup = 2e4;
};

struct PollingResult {
  std::vector<double> mean_in_system;  ///< per queue
  double cost_rate = 0.0;
  double switching_fraction = 0.0;  ///< time spent in setups
  double serving_fraction = 0.0;
};

/// Run one replication. Like simulate_mg1, randomness is split into
/// per-purpose substreams (per-queue arrivals, per-queue services,
/// switchovers) derived from one draw of `rng`, so disciplines compared
/// under common random numbers see identical workloads.
PollingResult simulate_polling(const std::vector<ClassSpec>& classes,
                               const PollingOptions& options, Rng& rng);

/// Experiment-engine adapter: metric vector layout is
///   [cost_rate, switching_fraction, serving_fraction,
///    then per queue j: mean_in_system_j].
std::size_t polling_metric_count(std::size_t num_queues);

/// Uniform replication entry point for the experiment engine.
void run_replication(const std::vector<ClassSpec>& classes,
                     const PollingOptions& options, Rng& rng,
                     std::span<double> out);

}  // namespace stosched::queueing
