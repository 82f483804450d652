// stats.hpp — streaming statistics for simulation output analysis.
//
// Two layers:
//   * RunningStat — Welford single-pass mean/variance, mergeable so that
//     per-thread accumulators combine into a global one without loss
//     (Chan–Golub–LeVeque pairwise update). This is the workhorse of the
//     Monte-Carlo replication driver.
//   * TimeAverage — integral of a piecewise-constant sample path divided by
//     elapsed time; the estimator for time-stationary quantities such as
//     queue lengths (E[L]) in steady-state experiments.
#pragma once

#include <cstddef>

namespace stosched {

/// Welford/Chan streaming moments: numerically stable, mergeable, O(1) push.
class RunningStat {
 public:
  void push(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  /// Merge another accumulator into this one (parallel reduction step).
  void merge(const RunningStat& o) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Half-width of the (1-alpha) normal-approximation confidence interval.
  [[nodiscard]] double ci_halfwidth(double alpha = 0.05) const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted average of a piecewise-constant path, e.g. queue length.
/// Call `observe(t, value)` at every change; `finish(t_end)` closes the last
/// segment. Supports a warm-up: samples before `reset_at` are discarded by
/// calling `reset(t_warm)` once.
class TimeAverage {
 public:
  void observe(double t, double value) noexcept {
    if (!started_) {
      started_ = true;
      start_t_ = t;
      last_t_ = t;
      value_ = value;
      return;
    }
    integral_ += value_ * (t - last_t_);
    last_t_ = t;
    value_ = value;
  }
  /// Drop everything accumulated so far and restart the integral at time t
  /// with the current value (used to discard a warm-up transient).
  void reset(double t) noexcept;
  /// Close the path at time t_end and return the time average.
  [[nodiscard]] double finish(double t_end) noexcept;

 private:
  double integral_ = 0.0;
  double last_t_ = 0.0;
  double value_ = 0.0;
  double start_t_ = 0.0;
  bool started_ = false;
};

/// Student-t upper quantile t_{1-alpha/2, dof}; dof>=1. Uses the normal
/// quantile plus Cornish–Fisher correction — accurate to ~1e-3 for dof>=3,
/// plenty for CI reporting.
double student_t_quantile(double alpha_two_sided, std::size_t dof);

/// Summary of a Monte-Carlo estimate: point value and 95% CI half-width.
struct Estimate {
  double value = 0.0;
  double half_width = 0.0;
  std::size_t replications = 0;

  [[nodiscard]] double lo() const noexcept { return value - half_width; }
  [[nodiscard]] double hi() const noexcept { return value + half_width; }
  /// True if `x` lies inside the interval.
  [[nodiscard]] bool covers(double x) const noexcept {
    return x >= lo() && x <= hi();
  }
};

/// Build an Estimate from a RunningStat (95% CI by default).
Estimate make_estimate(const RunningStat& s, double alpha = 0.05);

}  // namespace stosched
