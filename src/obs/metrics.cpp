#include "obs/metrics.hpp"

namespace stosched::obs {
namespace {

// Constant-initialized and trivially destructible: usable from any static
// initializer or destructor, with no registration step and no teardown.
constinit Counter g_events;
constinit Counter g_lp_solves;
constinit Counter g_lp_iterations;
constinit Histogram g_wait_time;
constinit Histogram g_sojourn_time;

}  // namespace

Counter& events_counter() { return g_events; }
Counter& lp_solves_counter() { return g_lp_solves; }
Counter& lp_iterations_counter() { return g_lp_iterations; }
Histogram& wait_time_histogram() { return g_wait_time; }
Histogram& sojourn_time_histogram() { return g_sojourn_time; }

std::uint64_t counter_value(std::string_view name) noexcept {
  if (name == "events") return g_events.value();
  if (name == "lp_solves") return g_lp_solves.value();
  if (name == "lp_iterations") return g_lp_iterations.value();
  return 0;
}

HistogramSnapshot histogram_snapshot(std::string_view name) noexcept {
  if (name == "wait_time") return g_wait_time.snapshot();
  if (name == "sojourn_time") return g_sojourn_time.snapshot();
  return {};
}

}  // namespace stosched::obs
