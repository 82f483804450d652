#include "util/rng.hpp"

#include <cmath>

#include "util/check.hpp"

namespace stosched {

double Rng::exponential(double rate) noexcept {
  // Inversion: -log(U)/rate with U in (0,1]; avoids the platform-dependent
  // ziggurat in libstdc++.
  return -std::log(uniform_pos()) / rate;
}

double inverse_normal_cdf(double p) {
  STOSCHED_REQUIRE(p > 0.0 && p < 1.0, "probability must lie in (0,1)");
  // Acklam's rational approximation with one Halley refinement step.
  // Max abs error after refinement ~1e-13 over (1e-300, 1-1e-16).
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley step against the exact CDF brings the error to ~1e-13.
  const double e =
      0.5 * std::erfc(-x / std::sqrt(2.0)) - p;  // CDF(x) - p
  const double u = e * std::sqrt(2.0 * 3.14159265358979323846) *
                   std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

std::size_t Rng::categorical(const double* weights, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += weights[i];
  double u = uniform() * total;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return n == 0 ? 0 : n - 1;
}

}  // namespace stosched
