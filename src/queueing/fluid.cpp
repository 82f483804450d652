#include "queueing/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace stosched::queueing {

std::vector<double> FluidTrajectory::at(double t) const {
  STOSCHED_REQUIRE(!times.empty(), "empty trajectory");
  if (t <= times.front()) return levels.front();
  if (t >= times.back()) return levels.back();
  // Binary search for the segment containing t.
  const auto it = std::upper_bound(times.begin(), times.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times.begin());
  const std::size_t lo = hi - 1;
  const double span = times[hi] - times[lo];
  const double w = span > 0.0 ? (t - times[lo]) / span : 0.0;
  std::vector<double> q(levels[lo].size());
  for (std::size_t j = 0; j < q.size(); ++j)
    q[j] = (1.0 - w) * levels[lo][j] + w * levels[hi][j];
  return q;
}

FluidTrajectory fluid_drain(const std::vector<FluidClass>& classes,
                            const std::vector<double>& initial,
                            const std::vector<std::size_t>& priority,
                            double t_max) {
  const std::size_t n = classes.size();
  STOSCHED_REQUIRE(initial.size() == n, "shape mismatch");
  require_permutation(priority, n);
  for (const auto& c : classes) {
    STOSCHED_REQUIRE(c.lambda >= 0.0 && c.mu > 0.0, "bad fluid class");
  }

  FluidTrajectory out;
  std::vector<double> q = initial;
  double now = 0.0;
  out.times.push_back(now);
  out.levels.push_back(q);

  const std::size_t max_segments = 16 * n + 64;
  for (std::size_t seg = 0; seg < max_segments; ++seg) {
    // Effort allocation down the priority order: empty classes reserve
    // enough effort to stay empty; the first backlogged class takes all the
    // remaining effort; everyone below gets none.
    std::vector<double> deriv(n, 0.0);
    double effort = 1.0;
    bool someone_positive = false;
    for (const std::size_t j : priority) {
      if (q[j] > 1e-12) {
        someone_positive = true;
        deriv[j] = classes[j].lambda - classes[j].mu * effort;
        effort = 0.0;
      } else {
        const double hold = std::min(effort, classes[j].lambda / classes[j].mu);
        deriv[j] = classes[j].lambda - classes[j].mu * hold;
        effort -= hold;
        if (deriv[j] < 1e-12) deriv[j] = 0.0;  // held at zero
      }
    }
    if (!someone_positive) {
      out.drain_time = now;
      return out;  // drained; subcritical holding keeps it empty
    }

    // Next breakpoint: the earliest emptying among draining classes, a
    // formerly-empty class starting to grow counts as an immediate regime
    // change only through the emptying of the class above it, so emptying
    // events are sufficient breakpoints.
    double dt = t_max - now;
    for (std::size_t j = 0; j < n; ++j)
      if (q[j] > 1e-12 && deriv[j] < -1e-15)
        dt = std::min(dt, q[j] / -deriv[j]);
    STOSCHED_REQUIRE(dt >= 0.0, "negative fluid step");

    // Cost of the linear segment: trapezoid per class.
    double cost_now = 0.0, cost_next = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      cost_now += classes[j].cost * q[j];
      cost_next += classes[j].cost * std::max(0.0, q[j] + deriv[j] * dt);
    }
    out.cost_integral += 0.5 * (cost_now + cost_next) * dt;

    now += dt;
    for (std::size_t j = 0; j < n; ++j)
      q[j] = std::max(0.0, q[j] + deriv[j] * dt);
    out.times.push_back(now);
    out.levels.push_back(q);
    if (now >= t_max) {
      out.drain_time = t_max;
      return out;
    }
  }
  STOSCHED_ASSERT(false, "fluid integrator failed to converge (overload?)");
  return out;
}

std::vector<std::size_t> fluid_cmu_priority(
    const std::vector<FluidClass>& classes) {
  std::vector<std::size_t> order(classes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return classes[a].cost * classes[a].mu >
                            classes[b].cost * classes[b].mu;
                   });
  return order;
}

std::vector<std::vector<double>> simulate_backlog_path(
    const std::vector<FluidClass>& classes,
    const std::vector<std::size_t>& initial,
    const std::vector<std::size_t>& priority,
    const std::vector<double>& sample_times, Rng& rng) {
  const std::size_t n = classes.size();
  STOSCHED_REQUIRE(initial.size() == n, "shape mismatch");
  require_permutation(priority, n);
  STOSCHED_REQUIRE(!sample_times.empty(), "need at least one sample time");
  STOSCHED_REQUIRE(std::is_sorted(sample_times.begin(), sample_times.end()),
                   "sample times must be sorted");

  // Per-purpose substreams off a bootstrap root (the CRN discipline shared
  // by every event-driven simulator): the competing-clock holding times and
  // the which-clock-fired selector draw from separate named streams, so
  // priority arms replaying the same caller stream see maximally aligned
  // event skeletons.
  const Rng root(rng());
  Rng clock_rng = root.stream(0);
  Rng select_rng = root.stream(1);

  std::vector<long> q(n);
  for (std::size_t j = 0; j < n; ++j) q[j] = static_cast<long>(initial[j]);

  std::vector<std::vector<double>> samples;
  samples.reserve(sample_times.size());
  std::size_t next_sample = 0;
  double now = 0.0;
  const double t_end = sample_times.back();

  auto record_until = [&](double t) {
    while (next_sample < sample_times.size() && sample_times[next_sample] <= t) {
      std::vector<double> snap(n);
      for (std::size_t j = 0; j < n; ++j) snap[j] = static_cast<double>(q[j]);
      samples.push_back(std::move(snap));
      ++next_sample;
    }
  };

  while (now <= t_end && next_sample < sample_times.size()) {
    // Preemptive priority M/M/1: serve the highest-priority nonempty class;
    // memorylessness makes the competing-clock simulation exact.
    std::size_t serving = SIZE_MAX;
    for (const std::size_t j : priority)
      if (q[j] > 0) {
        serving = j;
        break;
      }
    double total_rate = 0.0;
    for (const auto& c : classes) total_rate += c.lambda;
    if (serving != SIZE_MAX) total_rate += classes[serving].mu;

    if (total_rate <= 0.0) {
      record_until(t_end);
      break;
    }
    const double dt = clock_rng.exponential(total_rate);
    record_until(std::min(now + dt, t_end));
    now += dt;
    if (now > t_end) break;

    // Which clock fired?
    double u = select_rng.uniform() * total_rate;
    bool handled = false;
    for (std::size_t j = 0; j < n; ++j) {
      u -= classes[j].lambda;
      if (u < 0.0) {
        ++q[j];
        handled = true;
        break;
      }
    }
    if (!handled && serving != SIZE_MAX) --q[serving];
  }
  record_until(t_end);
  STOSCHED_ASSERT(samples.size() == sample_times.size(),
                  "sample bookkeeping mismatch");
  return samples;
}

}  // namespace stosched::queueing
