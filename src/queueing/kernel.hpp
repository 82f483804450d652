// kernel.hpp — the event-loop kernel of the queueing simulators.
//
// simulate_mg1, simulate_polling, simulate_mmm and simulate_network differ
// only in their event handlers. Everything around the handlers lives here:
//   * per-class randomness: one bootstrap draw of the caller's Rng, then
//     substream 2j for class j's arrivals, 2j+1 for its services and 2n for
//     the model's one extra purpose (feedback routing, switchovers). Every
//     discipline replaying the same caller state therefore sees the same
//     arrival epochs and the same k-th service requirement per class — the
//     synchronization common-random-number comparisons rely on;
//   * the effective arrival processes and the gap/service samplers, resolved
//     once per run (see CachedGapSampler and FlatSampler);
//   * the arrival epoch: next gap, push (every epoch delivers one job);
//   * the FES loop with its warm-up hook, which adds its event count and
//     wait histogram to the process-wide obs instruments when it ends.
// The loop is a template on the handler, so dispatch inlines: there is no
// std::function and no virtual call per event. The FES holds only what a
// handler cannot compute ahead: job events. Most handlers schedule one
// event, and that push fills the hole the pop left at the heap root (see
// EventQueue), so such an event costs the FES one sift. Deterministic
// epochs stay out of it: simulate_network walks its sample grid alongside
// the popped events and counts the samples itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event_queue.hpp"
#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "obs/metrics.hpp"
#include "queueing/mg1.hpp"
#include "queueing/network.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stosched::queueing {

/// Event type of an external arrival epoch (payload `a` = class).
inline constexpr std::uint32_t kArrival = 0;

inline FlatSampler service_sampler(const ClassSpec& c) {
  STOSCHED_REQUIRE(c.service != nullptr, "every class needs a service law");
  return c.service->flat();
}

/// `service_mean`-only network classes keep the historical exponential draw,
/// as a flat exponential: the same `rng.exponential(1/mean)` either way.
inline FlatSampler service_sampler(const NetworkClass& c) {
  return c.service ? c.service->flat()
                   : FlatSampler::exponential(1.0 / c.service_mean);
}

/// rank[class] = position of the class in `priority` (highest first).
/// Throws unless `priority` is a permutation of 0..n-1.
inline std::vector<std::size_t> priority_rank(
    const std::vector<std::size_t>& priority, std::size_t n) {
  require_permutation(priority, n);
  std::vector<std::size_t> rank(n);
  for (std::size_t pos = 0; pos < n; ++pos) rank[priority[pos]] = pos;
  return rank;
}

/// Per-class number in system and its time average.
class Population {
 public:
  explicit Population(std::size_t n) : count_(n, 0), avg_(n) {
    for (auto& a : avg_) a.observe(0.0, 0.0);
  }

  void add(std::size_t cls, long delta, double now) {
    count_[cls] += delta;
    STOSCHED_ASSERT(count_[cls] >= 0, "negative class population");
    avg_[cls].observe(now, static_cast<double>(count_[cls]));
  }

  /// Restart every time average at `t` (warm-up).
  void reset(double t) {
    for (auto& a : avg_) a.reset(t);
  }

  /// Close the path at `t_end`; per-class time-average numbers in system.
  std::vector<double> finish(double t_end) {
    std::vector<double> mean;
    mean.reserve(avg_.size());
    for (auto& a : avg_) mean.push_back(a.finish(t_end));
    return mean;
  }

 private:
  std::vector<long> count_;
  std::vector<TimeAverage> avg_;
};

/// Σ c_j L_j over the classes.
inline double holding_cost_rate(const std::vector<ClassSpec>& classes,
                                const std::vector<double>& mean_in_system) {
  double cost = 0.0;
  for (std::size_t j = 0; j < classes.size(); ++j)
    cost += classes[j].holding_cost * mean_in_system[j];
  return cost;
}

/// Class streams, samplers, FES and clock of one simulation run.
class Kernel {
 public:
  template <class Spec>
  Kernel(const std::vector<Spec>& classes, Rng& rng) {
    const std::size_t n = classes.size();
    for (const auto& c : classes)
      STOSCHED_REQUIRE(c.arrival_rate >= 0.0, "arrival rate must be >= 0");
    // One draw decouples back-to-back simulations sharing a caller Rng;
    // everything below derives from it, so copies of the same caller state
    // replay identical substreams.
    const Rng root(rng());
    arrival_rng.reserve(n);
    service_rng.reserve(n);
    arrival.reserve(n);
    gap.reserve(n);
    service_flat.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      arrival_rng.push_back(root.stream(2 * j));
      service_rng.push_back(root.stream(2 * j + 1));
      arrival.push_back(effective_arrival(classes[j]));
      gap.emplace_back(arrival[j].get());
      service_flat.push_back(service_sampler(classes[j]));
    }
    extra_rng = root.stream(2 * n);
    arrival_state.resize(n);
    // Steady state holds a few events per class; reserving up front keeps
    // multi-replication runs allocation-free after the first few events.
    events.reserve(4 * n + 16);
  }

  /// One service requirement of class `cls`.
  double service_time(std::size_t cls) {
    return service_flat[cls].sample(service_rng[cls]);
  }

  /// Schedule the first arrival epoch of every class that has arrivals.
  void start_arrivals() {
    for (std::size_t j = 0; j < arrival.size(); ++j)
      if (arrival[j]) arrival_epoch(j);
  }

  /// Handle the arrival epoch of `cls` at `now`, which delivers one job:
  /// schedule the next epoch, one gap after `now`.
  void arrival_epoch(std::size_t cls) {
    const double g = gap[cls].next_gap(arrival_state[cls], arrival_rng[cls]);
    events.push(now + g, kArrival, static_cast<std::uint32_t>(cls));
  }

  /// Pop every event due by `t_end` in (time, seq) order, advance `now` and
  /// pass the event to `handle`. `warm_up()` runs once, before handling the
  /// first event at or after `warmup`. Leaves `now` at `t_end`, then
  /// records the number of events popped (obs::record_events) and the wait
  /// histogram (obs::record_wait). A run that throws records neither.
  template <class WarmUp, class Handle>
  void run(double t_end, double warmup, WarmUp&& warm_up, Handle&& handle) {
    std::uint64_t popped = 0;
    while (!events.empty() && events.top().time <= t_end) {
      const Event e = events.pop();
      ++popped;
      now = e.time;
      if (!warm && now >= warmup) {
        warm = true;
        warm_up();
      }
      handle(e);
    }
    now = t_end;
    obs::record_events(popped);
    obs::record_wait(wait_hist);
  }

  std::vector<Rng> arrival_rng;  ///< substream 2j
  std::vector<Rng> service_rng;  ///< substream 2j+1
  Rng extra_rng;                 ///< substream 2n: feedback or switchovers
  /// Null for classes without external arrivals.
  std::vector<ArrivalPtr> arrival;
  std::vector<ArrivalState> arrival_state;
  std::vector<CachedGapSampler> gap;
  std::vector<FlatSampler> service_flat;

  EventQueue events;
  double now = 0.0;
  bool warm = false;
  /// Waits recorded during the run; merged once, at the end of run().
  obs::LocalHistogram wait_hist;
};

}  // namespace stosched::queueing
