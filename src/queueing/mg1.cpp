#include "queueing/mg1.hpp"

#include <cstdint>
#include <utility>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"
#include "obs/metrics.hpp"
#include "queueing/kernel.hpp"
#include "util/check.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace stosched::queueing {

double class_arrival_rate(const ClassSpec& c) {
  return c.arrival ? c.arrival->rate() : c.arrival_rate;
}

ArrivalPtr effective_arrival(const ClassSpec& c) {
  if (c.arrival) return c.arrival;
  return c.arrival_rate > 0.0 ? poisson_arrivals(c.arrival_rate) : nullptr;
}

double traffic_intensity(const std::vector<ClassSpec>& classes) {
  double rho = 0.0;
  for (const auto& c : classes) rho += class_arrival_rate(c) * c.service->mean();
  return rho;
}

void validate_feedback(const std::vector<std::vector<double>>& feedback,
                       std::size_t n) {
  STOSCHED_REQUIRE(feedback.size() == n, "feedback matrix shape mismatch");
  for (const auto& row : feedback) {
    STOSCHED_REQUIRE(row.size() == n, "feedback matrix must be square");
    double total = 0.0;
    for (const double p : row) {
      STOSCHED_REQUIRE(p >= 0.0, "feedback probabilities must be >= 0");
      total += p;
    }
    STOSCHED_REQUIRE(total <= 1.0 + 1e-9, "feedback rows must sum to <= 1");
  }
}

namespace {

constexpr std::uint32_t kDeparture = 1;

/// A waiting or preempted job: when it joined its current class queue and
/// (for preempted jobs) the unfinished service.
struct WaitingJob {
  double class_arrival = 0.0;
  double remaining = -1.0;   ///< <0: not yet started
  bool started = false;      ///< wait already credited
};

// The kernel's streams: class j's arrivals and services each draw from their
// own substream, feedback routing from the extra one.
struct Sim : Kernel {
  const std::vector<ClassSpec>& classes;
  const SimOptions& opt;
  std::size_t n;

  std::vector<FifoArena<WaitingJob>> queue;  // per class; FCFS within class
  FifoArena<std::pair<std::size_t, WaitingJob>> fcfs;  // global FCFS queue

  bool busy = false;
  std::size_t cur_class = 0;
  WaitingJob cur_job;
  double departure_time = 0.0;
  std::uint64_t departure_gen = 0;  // lazy cancellation for preemption

  std::vector<std::size_t> rank;    // rank[class] = priority position
  Population pop;
  TimeAverage busy_ta;
  std::vector<RunningStat> wait_stat, sojourn_stat;
  // Post-warmup sojourn samples, merged into obs "sojourn_time" once per
  // run() (plain increments here, one atomic merge at the end).
  obs::LocalHistogram sojourn_hist;
  std::vector<std::size_t> completions;

  Sim(const std::vector<ClassSpec>& c, const SimOptions& o, Rng& r)
      : Kernel(c, r), classes(c), opt(o), n(c.size()), pop(n) {
    STOSCHED_REQUIRE(n >= 1, "need at least one class");
    STOSCHED_REQUIRE(opt.horizon > 0.0, "horizon must be > 0");
    STOSCHED_REQUIRE(opt.warmup >= 0.0, "warmup must be >= 0");
    if (opt.discipline != Discipline::kFcfs)
      rank = priority_rank(opt.priority, n);
    if (!opt.feedback.empty()) {
      STOSCHED_REQUIRE(opt.discipline == Discipline::kPriorityNonPreemptive,
                       "feedback requires the nonpreemptive discipline");
      validate_feedback(opt.feedback, n);
    }
    queue.resize(n);
    wait_stat.resize(n);
    sojourn_stat.resize(n);
    completions.assign(n, 0);
    busy_ta.observe(0.0, 0.0);
  }

  void set_busy(bool b) {
    busy = b;
    busy_ta.observe(now, b ? 1.0 : 0.0);
  }

  /// Pick the next class to serve; SIZE_MAX if all queues empty.
  std::size_t pick_class() {
    if (opt.discipline == Discipline::kFcfs) {
      return fcfs.empty() ? SIZE_MAX : fcfs.front().first;
    }
    std::size_t best = SIZE_MAX;
    for (std::size_t j = 0; j < n; ++j) {
      if (queue[j].empty()) continue;
      if (best == SIZE_MAX || rank[j] < rank[best]) best = j;
    }
    return best;
  }

  void start_service() {
    const std::size_t cls = pick_class();
    if (cls == SIZE_MAX) {
      set_busy(false);
      return;
    }
    WaitingJob job;
    if (opt.discipline == Discipline::kFcfs) {
      job = fcfs.front().second;
      fcfs.pop_front();
    } else {
      job = queue[cls].front();
      queue[cls].pop_front();
    }
    if (!job.started) {
      if (warm) {
        wait_stat[cls].push(now - job.class_arrival);
        wait_hist.record(now - job.class_arrival);
      }
      job.started = true;
    }
    const double service =
        job.remaining >= 0.0 ? job.remaining : service_time(cls);
    cur_class = cls;
    cur_job = job;
    departure_time = now + service;
    ++departure_gen;
    events.push(departure_time, kDeparture, static_cast<std::uint32_t>(cls),
                departure_gen);
    set_busy(true);
  }

  void enqueue(std::size_t cls, WaitingJob job) {
    if (opt.discipline == Discipline::kFcfs)
      fcfs.push_back({cls, job});
    else
      queue[cls].push_back(job);
  }

  void admit(std::size_t cls) {
    pop.add(cls, +1, now);
    WaitingJob job;
    job.class_arrival = now;

    if (!busy) {
      enqueue(cls, job);
      start_service();
      return;
    }
    if (opt.discipline == Discipline::kPriorityPreemptiveResume &&
        rank[cls] < rank[cur_class]) {
      // Preempt: bank the incumbent's remaining service and requeue it at
      // the *front* of its class (resume order within class is LCFS-PR on
      // the preempted stack; any order is fine for class-level stats).
      WaitingJob preempted = cur_job;
      preempted.remaining = departure_time - now;
      preempted.started = true;
      queue[cur_class].push_front(preempted);
      ++departure_gen;  // invalidate the in-flight departure event
      enqueue(cls, job);
      start_service();
      return;
    }
    enqueue(cls, job);
  }

  void on_departure(const Event& e) {
    if (!busy || e.b != departure_gen) return;  // stale (preempted) event
    const std::size_t cls = cur_class;
    if (warm) {
      ++completions[cls];
      sojourn_stat[cls].push(now - cur_job.class_arrival);
      sojourn_hist.record(now - cur_job.class_arrival);
    }
    pop.add(cls, -1, now);

    // Feedback routing: job may re-enter as another class.
    if (!opt.feedback.empty()) {
      const auto& row = opt.feedback[cls];
      double u = extra_rng.uniform();
      for (std::size_t k = 0; k < n; ++k) {
        u -= row[k];
        if (u < 0.0) {
          pop.add(k, +1, now);
          WaitingJob back;
          back.class_arrival = now;
          enqueue(k, back);
          break;
        }
      }
    }
    start_service();
  }

  SimResult run() {
    const double t_end = opt.warmup + opt.horizon;
    start_arrivals();
    // Time averages restart at the first event at or after the warmup.
    const auto warm_up = [this] {
      pop.reset(now);
      busy_ta.reset(now);
    };
    Kernel::run(t_end, opt.warmup, warm_up, [this](const Event& e) {
      if (e.type != kArrival) return on_departure(e);
      const std::size_t jobs = arrival_epoch(e.a);
      for (std::size_t i = 0; i < jobs; ++i) admit(e.a);
    });

    SimResult out;
    out.per_class.resize(n);
    out.time_simulated = opt.horizon;
    const std::vector<double> mean_in_system = pop.finish(t_end);
    for (std::size_t j = 0; j < n; ++j) {
      auto& s = out.per_class[j];
      s.mean_in_system = mean_in_system[j];
      s.mean_wait = wait_stat[j].mean();
      s.mean_sojourn = sojourn_stat[j].mean();
      s.completions = completions[j];
      s.throughput = static_cast<double>(completions[j]) / opt.horizon;
    }
    out.cost_rate = holding_cost_rate(classes, mean_in_system);
    out.utilization = busy_ta.finish(t_end);
    obs::record_sojourn(sojourn_hist);
    return out;
  }
};

}  // namespace

SimResult simulate_mg1(const std::vector<ClassSpec>& classes,
                       const SimOptions& options, Rng& rng) {
  STOSCHED_EXPECTS(!classes.empty(), "simulate_mg1 needs at least one class");
  Sim sim(classes, options, rng);
  const SimResult res = sim.run();
  // A single server's busy fraction is a time average of an indicator.
  STOSCHED_ENSURES(res.utilization >= 0.0 && res.utilization <= 1.0 + 1e-9,
                   "M/G/1 utilization outside [0, 1]");
  return res;
}

std::size_t mg1_metric_count(std::size_t num_classes) {
  return 2 + 3 * num_classes;
}

void run_replication(const std::vector<ClassSpec>& classes,
                     const SimOptions& options, Rng& rng,
                     std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == mg1_metric_count(classes.size()),
                   "metric span size mismatch");
  const SimResult res = simulate_mg1(classes, options, rng);
  out[0] = res.cost_rate;
  out[1] = res.utilization;
  for (std::size_t j = 0; j < classes.size(); ++j) {
    out[2 + 3 * j] = res.per_class[j].mean_in_system;
    out[2 + 3 * j + 1] = res.per_class[j].mean_wait;
    out[2 + 3 * j + 2] = res.per_class[j].throughput;
  }
}

SimResult mg1_result_from_metrics(const std::vector<ClassSpec>& classes,
                                  std::span<const double> metric_means) {
  STOSCHED_REQUIRE(metric_means.size() == mg1_metric_count(classes.size()),
                   "metric span size mismatch");
  SimResult res;
  res.cost_rate = metric_means[0];
  res.utilization = metric_means[1];
  res.per_class.resize(classes.size());
  for (std::size_t j = 0; j < classes.size(); ++j) {
    res.per_class[j].mean_in_system = metric_means[2 + 3 * j];
    res.per_class[j].mean_wait = metric_means[2 + 3 * j + 1];
    res.per_class[j].throughput = metric_means[2 + 3 * j + 2];
  }
  return res;
}

}  // namespace stosched::queueing
