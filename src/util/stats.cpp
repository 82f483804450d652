#include "util/stats.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace stosched {

void RunningStat::merge(const RunningStat& o) noexcept {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += o.m2_ + delta * delta * na * nb / nt;
  n_ += o.n_;
  if (o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::sem() const noexcept {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double RunningStat::ci_halfwidth() const {
  if (n_ < 2) return 0.0;
  return student_t_quantile(0.05, n_ - 1) * sem();  // two-sided 95%
}

void TimeAverage::reset(double t) noexcept {
  integral_ = 0.0;
  start_t_ = t;
  last_t_ = t;
  started_ = true;
}

double TimeAverage::finish(double t_end) noexcept {
  if (!started_ || t_end <= start_t_) return 0.0;
  integral_ += value_ * (t_end - last_t_);
  last_t_ = t_end;
  return integral_ / (t_end - start_t_);
}

double student_t_quantile(double alpha_two_sided, std::size_t dof) {
  STOSCHED_REQUIRE(alpha_two_sided > 0.0 && alpha_two_sided < 1.0,
                   "alpha must lie in (0,1)");
  STOSCHED_REQUIRE(dof >= 1, "dof must be >= 1");
  const double p = 1.0 - alpha_two_sided / 2.0;
  const double z = inverse_normal_cdf(p);
  if (dof > 300) return z;
  // Cornish–Fisher expansion of the t quantile around the normal quantile
  // (Abramowitz & Stegun 26.7.5, first four correction terms).
  const double n = static_cast<double>(dof);
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  const double z7 = z5 * z * z;
  double t = z + (z3 + z) / (4.0 * n) +
             (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * n * n) +
             (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) /
                 (384.0 * n * n * n);
  // Exact small-dof values matter for batch-means CIs; patch the worst cases.
  if (dof == 1) t = std::tan(3.14159265358979323846 * (p - 0.5));
  if (dof == 2) {
    const double a = 2.0 * p - 1.0;
    t = a * std::sqrt(2.0 / (1.0 - a * a));
  }
  return t;
}

Estimate make_estimate(const RunningStat& s) {
  Estimate e;
  e.value = s.mean();
  e.half_width = s.ci_halfwidth();
  e.replications = s.count();
  return e;
}

}  // namespace stosched
