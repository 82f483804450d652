// network.cpp — the multistation network simulator on the shared kernel.
// Only job events (arrival epochs, service completions) enter the FES; the
// trace's sample epochs form a fixed grid that simulate_network walks
// alongside the popped events.
#include "queueing/network.hpp"

#include <limits>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"
#include "obs/metrics.hpp"
#include "queueing/kernel.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace stosched::queueing {

namespace {

/// Effective external arrival rate of a network class.
double network_class_rate(const NetworkClass& c) {
  return c.arrival ? c.arrival->rate() : c.arrival_rate;
}

}  // namespace

void NetworkConfig::validate() const {
  STOSCHED_REQUIRE(!classes.empty(), "network needs at least one class");
  STOSCHED_REQUIRE(num_stations >= 1, "network needs at least one station");
  for (const auto& c : classes) {
    STOSCHED_REQUIRE(c.station < num_stations, "class station out of range");
    STOSCHED_REQUIRE(network_class_service_mean(c) > 0.0,
                     "service mean must be positive");
    STOSCHED_REQUIRE(c.next == NetworkClass::kExit || c.next < classes.size(),
                     "route target out of range");
    STOSCHED_REQUIRE(c.arrival_rate >= 0.0, "arrival rate must be >= 0");
  }
  if (!station_priority.empty()) {
    STOSCHED_REQUIRE(station_priority.size() == num_stations,
                     "per-station priority shape mismatch");
    // Each list must be a permutation of exactly the classes at its station:
    // the dispatch scan only looks at listed classes, so an omitted class
    // would silently never be served (unbounded backlog, bogus growth rate).
    std::vector<char> listed(classes.size(), 0);
    for (std::size_t st = 0; st < num_stations; ++st) {
      for (const std::size_t cls : station_priority[st]) {
        STOSCHED_REQUIRE(cls < classes.size(), "priority class out of range");
        STOSCHED_REQUIRE(classes[cls].station == st,
                         "priority lists classes of another station");
        STOSCHED_REQUIRE(!listed[cls],
                         "priority lists a class more than once");
        listed[cls] = 1;
      }
    }
    for (std::size_t c = 0; c < classes.size(); ++c)
      STOSCHED_REQUIRE(
          listed[c],
          "station priority must list every class at the station exactly "
          "once; an omitted class would never be served (silent starvation)");
  }
}

double network_class_service_mean(const NetworkClass& c) {
  return c.service ? c.service->mean() : c.service_mean;
}

ArrivalPtr effective_arrival(const NetworkClass& c) {
  if (c.arrival) return c.arrival;
  return c.arrival_rate > 0.0 ? poisson_arrivals(c.arrival_rate) : nullptr;
}

std::vector<double> station_intensities(const NetworkConfig& config) {
  config.validate();
  // Effective class rates along deterministic routes: accumulate from
  // external arrivals down each chain.
  std::vector<double> rate(config.classes.size(), 0.0);
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    double lambda = network_class_rate(config.classes[c]);
    if (lambda <= 0.0) continue;
    std::size_t cur = c, hops = 0;
    while (cur != NetworkClass::kExit) {
      rate[cur] += lambda;
      cur = config.classes[cur].next;
      STOSCHED_REQUIRE(++hops <= config.classes.size(),
                       "routes must be acyclic chains");
    }
  }
  std::vector<double> rho(config.num_stations, 0.0);
  for (std::size_t c = 0; c < config.classes.size(); ++c)
    rho[config.classes[c].station] +=
        rate[c] * network_class_service_mean(config.classes[c]);
  return rho;
}

namespace {

constexpr std::uint32_t kServiceDone = 1;

}  // namespace

NetworkTrace simulate_network(const NetworkConfig& config, double horizon,
                              std::size_t samples, Rng& rng) {
  config.validate();
  STOSCHED_REQUIRE(horizon > 0.0 && samples >= 2, "need a horizon and samples");
  const std::size_t nc = config.classes.size();
  const std::size_t ns = config.num_stations;
  const bool fcfs = config.station_priority.empty();

  // The kernel's streams: class c's external arrivals and its service
  // requirements each draw from their own substream, so the workload is
  // identical under every priority assignment.
  Kernel k(config.classes, rng);
  // Per class FIFO (arrival times); per station FCFS order (class ids).
  std::vector<FifoArena<double>> queue(nc);
  std::vector<FifoArena<std::size_t>> station_fifo(ns);
  std::vector<char> busy(ns, 0);
  std::vector<std::size_t> serving(ns, 0);  // class being served

  long total_jobs = 0;
  TimeAverage total_ta;
  total_ta.observe(0.0, 0.0);

  auto start_if_idle = [&](std::size_t st) {
    if (busy[st]) return;
    std::size_t pick = SIZE_MAX;
    if (fcfs) {
      if (!station_fifo[st].empty()) {
        pick = station_fifo[st].front();
        station_fifo[st].pop_front();
      }
    } else {
      for (const std::size_t cls : config.station_priority[st]) {
        if (!queue[cls].empty()) {
          pick = cls;
          break;
        }
      }
    }
    if (pick == SIZE_MAX) return;
    STOSCHED_ASSERT(!queue[pick].empty(), "station FIFO out of sync");
    k.wait_hist.record(k.now - queue[pick].front());  // queued-at timestamp
    queue[pick].pop_front();
    busy[st] = 1;
    serving[st] = pick;
    k.events.push(k.now + k.service_time(pick), kServiceDone,
                  static_cast<std::uint32_t>(st));
  };

  auto enqueue_job = [&](std::size_t cls) {
    queue[cls].push_back(k.now);
    if (fcfs) station_fifo[config.classes[cls].station].push_back(cls);
    start_if_idle(config.classes[cls].station);
  };

  k.start_arrivals();
  // The trace samples the grid horizon·s/samples, s = 1..samples, without
  // putting the sample epochs in the FES: each is taken just before the
  // first popped event it precedes, the rest after the run. On an equal
  // time a sample comes after the first arrival epochs (seqs
  // 0..first_epochs-1 of the fresh kernel) and before every later event,
  // the order the golden tests and perfbench/reference.json pin.
  const std::uint64_t first_epochs = k.events.size();
  std::size_t s = 0;
  double next_sample = 0.0;
  auto advance_sample = [&] {
    next_sample = ++s <= samples ? horizon * static_cast<double>(s) /
                                       static_cast<double>(samples)
                                 : std::numeric_limits<double>::infinity();
  };
  advance_sample();

  NetworkTrace trace;
  trace.times.reserve(samples);
  trace.total_jobs.reserve(samples);
  auto take_sample = [&] {
    trace.times.push_back(next_sample);
    trace.total_jobs.push_back(static_cast<double>(total_jobs));
    advance_sample();
  };

  // No warm-up: the trace covers the whole run from an empty network.
  k.run(horizon, 0.0, [] {}, [&](const Event& e) {
    while (next_sample <= e.time &&
           (next_sample < e.time || e.seq >= first_epochs))
      take_sample();
    switch (e.type) {
      case kArrival: {
        const auto cls = static_cast<std::size_t>(e.a);
        k.arrival_epoch(cls);
        ++total_jobs;
        total_ta.observe(k.now, static_cast<double>(total_jobs));
        enqueue_job(cls);
        break;
      }
      case kServiceDone: {
        const auto st = static_cast<std::size_t>(e.a);
        const std::size_t cls = serving[st];
        busy[st] = 0;
        const std::size_t next = config.classes[cls].next;
        if (next == NetworkClass::kExit) {
          --total_jobs;
          total_ta.observe(k.now, static_cast<double>(total_jobs));
        } else {
          enqueue_job(next);
        }
        start_if_idle(st);
        break;
      }
    }
  });
  while (next_sample <= horizon) take_sample();
  // A sample is an event of the run, though it never enters the FES.
  obs::record_events(trace.times.size());

  trace.mean_total = total_ta.finish(horizon);
  trace.final_total = trace.total_jobs.empty() ? 0.0 : trace.total_jobs.back();

  // Least-squares slope of the sampled totals.
  const std::size_t m = trace.times.size();
  if (m >= 2) {
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      sx += trace.times[i];
      sy += trace.total_jobs[i];
      sxx += trace.times[i] * trace.times[i];
      sxy += trace.times[i] * trace.total_jobs[i];
    }
    const double d = static_cast<double>(m) * sxx - sx * sx;
    trace.growth_rate = d > 0.0 ? (static_cast<double>(m) * sxy - sx * sy) / d
                                : 0.0;
  }
  return trace;
}

std::size_t network_metric_count() { return 3; }

void run_replication(const NetworkConfig& config, double horizon,
                     std::size_t samples, Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == network_metric_count(),
                   "metric span size mismatch");
  const NetworkTrace trace = simulate_network(config, horizon, samples, rng);
  out[0] = trace.mean_total;
  out[1] = trace.final_total;
  out[2] = trace.growth_rate;
}

NetworkConfig lu_kumar_network(double lambda, double m1, double m2, double m3,
                               double m4, bool bad_priority) {
  NetworkConfig cfg;
  cfg.num_stations = 2;
  cfg.classes = {
      // class 0: station A, feeds class 1
      {0, m1, 1, lambda},
      // class 1: station B, feeds class 2
      {1, m2, 2, 0.0},
      // class 2: station B, feeds class 3
      {1, m3, 3, 0.0},
      // class 3: station A, exits
      {0, m4, NetworkClass::kExit, 0.0},
  };
  if (bad_priority) {
    // The destabilizing pair: 4 over 1 at A (classes 3 > 0), 2 over 3 at B
    // (classes 1 > 2).
    cfg.station_priority = {{3, 0}, {1, 2}};
  }
  return cfg;
}

NetworkConfig rybko_stolyar_network(double lambda, double m_in, double m_out) {
  STOSCHED_REQUIRE(lambda > 0.0 && m_in > 0.0 && m_out > 0.0,
                   "Rybko-Stolyar parameters must be positive");
  NetworkConfig cfg;
  cfg.num_stations = 2;
  cfg.classes = {
      // route A: class 0 @ station 0 -> class 1 @ station 1 -> exit
      {0, m_in, 1, lambda, nullptr},
      {1, m_out, NetworkClass::kExit, 0.0, nullptr},
      // route B: class 2 @ station 1 -> class 3 @ station 0 -> exit
      {1, m_in, 3, lambda, nullptr},
      {0, m_out, NetworkClass::kExit, 0.0, nullptr},
  };
  return cfg;
}

}  // namespace stosched::queueing
