#include "queueing/polling.hpp"

#include <cstdint>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"
#include "queueing/kernel.hpp"
#include "util/check.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace stosched::queueing {
namespace {

constexpr std::uint32_t kServiceDone = 1;
constexpr std::uint32_t kSwitchDone = 2;

enum class ServerState { kIdle, kSwitching, kServing };

// The kernel's streams: queue j's arrivals and services draw from their own
// substreams and setups from the extra one, so every polling discipline
// sees the identical workload under common random numbers.
struct PollingSim : Kernel {
  const std::vector<ClassSpec>& classes;
  const PollingOptions& opt;
  std::size_t n;

  FlatSampler switch_flat;
  std::vector<FifoArena<double>> queue;
  Population pop;
  TimeAverage switch_ta, serve_ta;
  std::vector<double> cmu;  // static priority index per queue

  ServerState state = ServerState::kIdle;
  std::size_t at = 0;       // queue the server is at (or moving toward)
  std::size_t gate = 0;     // gated discipline: jobs admitted this visit
  std::size_t served_this_visit = 0;

  PollingSim(const std::vector<ClassSpec>& c, const PollingOptions& o, Rng& r)
      : Kernel(c, r), classes(c), opt(o), n(c.size()), pop(n) {
    STOSCHED_REQUIRE(n >= 1, "need at least one queue");
    STOSCHED_REQUIRE(opt.switchover != nullptr, "switchover law required");
    STOSCHED_REQUIRE(opt.horizon > 0.0, "horizon must be > 0");
    STOSCHED_REQUIRE(opt.warmup >= 0.0, "warmup must be >= 0");
    STOSCHED_REQUIRE(opt.discipline != PollingDiscipline::kLimited ||
                         opt.limit >= 1,
                     "k-limited polling needs limit >= 1");
    switch_flat = opt.switchover->flat();
    queue.resize(n);
    for (const auto& spec : classes)
      cmu.push_back(spec.holding_cost / spec.service->mean());
    switch_ta.observe(0.0, 0.0);
    serve_ta.observe(0.0, 0.0);
  }

  void set_state(ServerState s) {
    state = s;
    switch_ta.observe(now, s == ServerState::kSwitching ? 1.0 : 0.0);
    serve_ta.observe(now, s == ServerState::kServing ? 1.0 : 0.0);
  }

  /// Queue the server should work on next, or SIZE_MAX to idle in place.
  std::size_t choose_target() const {
    if (opt.discipline == PollingDiscipline::kGreedyCmu) {
      std::size_t best = SIZE_MAX;
      for (std::size_t j = 0; j < n; ++j) {
        if (queue[j].empty()) continue;
        if (best == SIZE_MAX || cmu[j] > cmu[best]) best = j;
      }
      return best;
    }
    // Cyclic order starting after the current position (so `at` itself is
    // reconsidered last, after a full tour).
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t q = (at + 1 + step) % n;
      if (!queue[q].empty()) return q;
    }
    return SIZE_MAX;
  }

  void start_service() {
    const std::size_t q = at;
    STOSCHED_ASSERT(!queue[q].empty(), "serving an empty queue");
    const double arrived = queue[q].front();
    queue[q].pop_front();
    if (warm) wait_hist.record(now - arrived);
    set_state(ServerState::kServing);
    ++served_this_visit;
    if (gate > 0) --gate;
    events.push(now + service_time(q), kServiceDone,
                static_cast<std::uint32_t>(q));
  }

  void begin_switch(std::size_t target) {
    at = target;
    set_state(ServerState::kSwitching);
    events.push(now + switch_flat.sample(extra_rng), kSwitchDone,
                static_cast<std::uint32_t>(target));
  }

  /// Decide what to do when the server becomes free at `at`.
  void decide() {
    switch (opt.discipline) {
      case PollingDiscipline::kExhaustive:
        if (!queue[at].empty()) {
          start_service();
          return;
        }
        break;
      case PollingDiscipline::kGated:
        if (gate > 0 && !queue[at].empty()) {
          start_service();
          return;
        }
        break;
      case PollingDiscipline::kLimited:
        if (served_this_visit < opt.limit && !queue[at].empty()) {
          start_service();
          return;
        }
        break;
      case PollingDiscipline::kGreedyCmu: {
        const std::size_t target = choose_target();
        if (target == SIZE_MAX) {
          set_state(ServerState::kIdle);
          return;
        }
        if (target == at) {
          start_service();
        } else {
          begin_switch(target);
        }
        return;
      }
    }
    // Visit over: move to the next nonempty queue (cyclic), or idle.
    const std::size_t target = choose_target();
    if (target == SIZE_MAX) {
      set_state(ServerState::kIdle);
      return;
    }
    begin_switch(target);
  }

  void on_poll() {
    // Server finished switching and now polls queue `at`.
    gate = queue[at].size();
    served_this_visit = 0;
    decide();
  }

  PollingResult run() {
    const double t_end = opt.warmup + opt.horizon;
    start_arrivals();
    // Time averages restart at the first event at or after the warmup.
    const auto warm_up = [this] {
      pop.reset(now);
      switch_ta.reset(now);
      serve_ta.reset(now);
    };
    Kernel::run(t_end, opt.warmup, warm_up, [this](const Event& e) {
      const auto q = static_cast<std::size_t>(e.a);
      switch (e.type) {
        case kArrival: {
          arrival_epoch(q);
          pop.add(q, +1, now);
          queue[q].push_back(now);
          if (state != ServerState::kIdle) break;
          // The idle server reacts as if re-polling its current position.
          if (q == at && opt.discipline != PollingDiscipline::kGreedyCmu)
            on_poll();
          else
            decide();
          break;
        }
        case kServiceDone:
          pop.add(q, -1, now);
          decide();
          break;
        case kSwitchDone:
          on_poll();
          break;
      }
    });

    PollingResult out;
    out.mean_in_system = pop.finish(t_end);
    out.cost_rate = holding_cost_rate(classes, out.mean_in_system);
    out.switching_fraction = switch_ta.finish(t_end);
    out.serving_fraction = serve_ta.finish(t_end);
    return out;
  }
};

}  // namespace

PollingResult simulate_polling(const std::vector<ClassSpec>& classes,
                               const PollingOptions& options, Rng& rng) {
  STOSCHED_EXPECTS(!classes.empty(),
                   "simulate_polling needs at least one queue");
  PollingSim sim(classes, options, rng);
  const PollingResult res = sim.run();
  // The server partitions time into serving / switching / idle, so the two
  // reported fractions are each in [0, 1] and sum to at most 1.
  STOSCHED_ENSURES(res.serving_fraction >= 0.0 && res.switching_fraction >= 0.0,
                   "polling time fractions must be nonnegative");
  STOSCHED_ENSURES(res.serving_fraction + res.switching_fraction <= 1.0 + 1e-9,
                   "polling serving+switching fractions exceed 1");
  return res;
}

std::size_t polling_metric_count(std::size_t num_queues) {
  return 3 + num_queues;
}

void run_replication(const std::vector<ClassSpec>& classes,
                     const PollingOptions& options, Rng& rng,
                     std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == polling_metric_count(classes.size()),
                   "metric span size mismatch");
  const PollingResult res = simulate_polling(classes, options, rng);
  out[0] = res.cost_rate;
  out[1] = res.switching_fraction;
  out[2] = res.serving_fraction;
  for (std::size_t j = 0; j < classes.size(); ++j)
    out[3 + j] = res.mean_in_system[j];
}

}  // namespace stosched::queueing
