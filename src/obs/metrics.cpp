#include "obs/metrics.hpp"

#include "util/check.hpp"

namespace stosched::obs {
namespace {

// Constant-initialized and trivially destructible: usable from any static
// initializer or destructor, with no registration step and no teardown.
constinit Counter g_events;
constinit Counter g_lp_solves;
constinit Counter g_lp_iterations;
constinit Histogram g_wait_time;
constinit Histogram g_sojourn_time;

constinit thread_local Telemetry* t_sink = nullptr;

}  // namespace

std::uint64_t counter_value(std::string_view name) {
  if (name == "events") return g_events.value();
  if (name == "lp_solves") return g_lp_solves.value();
  STOSCHED_REQUIRE(name == "lp_iterations",
                   "unknown counter (events, lp_solves, lp_iterations)");
  return g_lp_iterations.value();
}

HistogramSnapshot histogram_snapshot(std::string_view name) {
  if (name == "wait_time") return g_wait_time.snapshot();
  STOSCHED_REQUIRE(name == "sojourn_time",
                   "unknown histogram (wait_time, sojourn_time)");
  return g_sojourn_time.snapshot();
}

Telemetry* telemetry_sink() noexcept { return t_sink; }

Telemetry* set_telemetry_sink(Telemetry* sink) noexcept {
  Telemetry* const prev = t_sink;
  t_sink = sink;
  return prev;
}

void record_events(std::uint64_t n) noexcept {
  if (t_sink != nullptr)
    t_sink->events += n;
  else
    g_events.add(n);
}

namespace {

void record_lp(std::uint64_t solves, std::uint64_t iterations) noexcept {
  if (t_sink != nullptr) {
    t_sink->lp_solves += solves;
    t_sink->lp_iterations += iterations;
  } else {
    g_lp_solves.add(solves);
    g_lp_iterations.add(iterations);
  }
}

}  // namespace

void record_lp_solve(std::uint64_t iterations) noexcept {
  record_lp(1, iterations);
}

void record_wait(const LocalHistogram& local) noexcept {
  if (t_sink != nullptr)
    t_sink->wait.merge(local);
  else
    g_wait_time.merge(local);
}

void record_sojourn(const LocalHistogram& local) noexcept {
  if (t_sink != nullptr)
    t_sink->sojourn.merge(local);
  else
    g_sojourn_time.merge(local);
}

void commit(const Telemetry& t) noexcept {
  record_events(t.events);
  record_lp(t.lp_solves, t.lp_iterations);
  record_wait(t.wait);
  record_sojourn(t.sojourn);
}

}  // namespace stosched::obs
