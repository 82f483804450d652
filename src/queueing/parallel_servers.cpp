#include "queueing/parallel_servers.hpp"

#include <cstdint>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"
#include "queueing/kernel.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace stosched::queueing {
namespace {

constexpr std::uint32_t kDeparture = 1;

}  // namespace

MmmResult simulate_mmm(const std::vector<ClassSpec>& classes,
                       unsigned servers,
                       const std::vector<std::size_t>& priority,
                       double horizon, double warmup, Rng& rng) {
  const std::size_t n = classes.size();
  STOSCHED_REQUIRE(n >= 1, "need at least one class");
  STOSCHED_REQUIRE(servers >= 1, "need at least one server");
  STOSCHED_REQUIRE(horizon > 0.0, "horizon must be > 0");
  STOSCHED_REQUIRE(warmup >= 0.0, "warmup must be >= 0");
  const std::vector<std::size_t> rank = priority_rank(priority, n);

  // The kernel's streams: class j's arrivals and services each draw from
  // their own substream, so the k-th class-j service requirement is the
  // same number under every priority order.
  Kernel k(classes, rng);
  std::vector<FifoArena<double>> queue(n);  // arrival times per class
  Population pop(n);
  TimeAverage busy_ta;
  unsigned busy = 0;
  busy_ta.observe(0.0, 0.0);

  auto start_if_possible = [&]() {
    while (busy < servers) {
      std::size_t best = SIZE_MAX;
      for (std::size_t j = 0; j < n; ++j) {
        if (queue[j].empty()) continue;
        if (best == SIZE_MAX || rank[j] < rank[best]) best = j;
      }
      if (best == SIZE_MAX) break;
      const double arrived = queue[best].front();
      queue[best].pop_front();
      if (k.warm) k.wait_hist.record(k.now - arrived);
      ++busy;
      busy_ta.observe(k.now, static_cast<double>(busy));
      k.events.push(k.now + k.service_time(best), kDeparture,
                    static_cast<std::uint32_t>(best));
    }
  };

  // Restart the time-averages at the warmup *epoch*, not at the first event
  // at-or-after it: TimeAverage::reset keeps the current level, so the
  // segment [warmup, next event) is credited at the pre-warmup state. An
  // event-triggered reset would drop that segment (biased when events are
  // sparse) and never fire at all if no event follows warmup.
  auto warm_up = [&] {
    pop.reset(warmup);
    busy_ta.reset(warmup);
  };

  const double t_end = warmup + horizon;
  k.start_arrivals();
  k.run(t_end, warmup, warm_up, [&](const Event& e) {
    const auto cls = static_cast<std::size_t>(e.a);
    if (e.type == kArrival) {
      k.arrival_epoch(cls);
      pop.add(cls, +1, k.now);
      queue[cls].push_back(k.now);
    } else {
      pop.add(cls, -1, k.now);
      --busy;
      busy_ta.observe(k.now, static_cast<double>(busy));
    }
    start_if_possible();
  });
  if (!k.warm) warm_up();  // no event reached the warmup epoch

  MmmResult out;
  out.mean_in_system = pop.finish(t_end);
  out.cost_rate = holding_cost_rate(classes, out.mean_in_system);
  out.utilization = busy_ta.finish(t_end) / servers;
  return out;
}

std::size_t mmm_metric_count(std::size_t num_classes) {
  return 2 + num_classes;
}

void run_replication(const std::vector<ClassSpec>& classes, unsigned servers,
                     const std::vector<std::size_t>& priority, double horizon,
                     double warmup, Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == mmm_metric_count(classes.size()),
                   "metric span size mismatch");
  const MmmResult res =
      simulate_mmm(classes, servers, priority, horizon, warmup, rng);
  out[0] = res.cost_rate;
  out[1] = res.utilization;
  for (std::size_t j = 0; j < classes.size(); ++j)
    out[2 + j] = res.mean_in_system[j];
}

double pooled_lower_bound(const std::vector<ClassSpec>& classes,
                          unsigned servers) {
  STOSCHED_REQUIRE(servers >= 1, "need at least one server");
  // Pooled system: one server running `servers` times faster. Exponential
  // services scale exactly: mean/m, second moment 2 (mean/m)^2.
  std::vector<ClassSpec> pooled;
  pooled.reserve(classes.size());
  for (const auto& c : classes) {
    ClassSpec p = c;
    // The Cobham closed forms below are Poisson-rate formulas: collapse any
    // attached arrival process to its effective rate.
    p.arrival_rate = class_arrival_rate(c);
    p.arrival = nullptr;
    p.service = exponential_dist(servers / c.service->mean());
    pooled.push_back(std::move(p));
  }
  STOSCHED_REQUIRE(traffic_intensity(pooled) < 1.0,
                   "pooled system must be stable");
  // cµ is optimal for the pooled M/M/1; its cost is a valid lower bound for
  // the queueing (waiting) portion. Add the in-service population of the
  // original system (ρ_j per class, unaffected by scheduling) to keep the
  // bound in number-in-system units comparable with simulate_mmm.
  const auto order = cmu_order(pooled);
  const auto waits = cobham_waits(pooled, order);
  double bound = 0.0;
  for (std::size_t j = 0; j < classes.size(); ++j) {
    const double lq = pooled[j].arrival_rate * waits[j];  // waiting jobs
    const double in_service =
        pooled[j].arrival_rate * classes[j].service->mean();  // original ρ_j
    bound += classes[j].holding_cost * (lq + in_service / servers);
  }
  return bound;
}

}  // namespace stosched::queueing
