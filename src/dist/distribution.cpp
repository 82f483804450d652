#include "dist/distribution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace stosched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool sums_to_one(const std::vector<double>& probs) {
  double total = 0.0;
  for (const double p : probs) total += p;
  return std::abs(total - 1.0) <= 1e-9;
}

class ExponentialDist final : public Distribution {
 public:
  explicit ExponentialDist(double rate) : rate_(rate) {}
  double sample(Rng& rng) const override { return flat().sample(rng); }
  FlatSampler flat() const override { return FlatSampler::exponential(rate_); }
  double mean() const override { return 1.0 / rate_; }
  double second_moment() const override { return 2.0 / (rate_ * rate_); }
  double variance() const override { return 1.0 / (rate_ * rate_); }
  HazardClass hazard_class() const override { return HazardClass::kConstant; }
  const char* name() const noexcept override { return "exp"; }

 private:
  double rate_;
};

class DeterministicDist final : public Distribution {
 public:
  explicit DeterministicDist(double value) : value_(value) {}
  double sample(Rng& rng) const override { return flat().sample(rng); }
  FlatSampler flat() const override {
    return FlatSampler::deterministic(value_);
  }
  double mean() const override { return value_; }
  double second_moment() const override { return value_ * value_; }
  double variance() const override { return 0.0; }
  HazardClass hazard_class() const override {
    return HazardClass::kIncreasing;
  }
  const char* name() const noexcept override { return "det"; }

 protected:
  bool discrete_support_impl(std::vector<double>* values,
                             std::vector<double>* probs) const override {
    if (values) *values = {value_};
    if (probs) *probs = {1.0};
    return true;
  }

 private:
  double value_;
};

class UniformDist final : public Distribution {
 public:
  UniformDist(double lo, double hi) : lo_(lo), hi_(hi) {}
  double sample(Rng& rng) const override { return flat().sample(rng); }
  FlatSampler flat() const override { return FlatSampler::uniform(lo_, hi_); }
  double mean() const override { return 0.5 * (lo_ + hi_); }
  double second_moment() const override { return variance() + mean() * mean(); }
  double variance() const override {
    const double w = hi_ - lo_;
    return w * w / 12.0;
  }
  HazardClass hazard_class() const override {
    return HazardClass::kIncreasing;
  }
  const char* name() const noexcept override { return "uniform"; }

 private:
  double lo_, hi_;
};

class ErlangDist final : public Distribution {
 public:
  ErlangDist(unsigned k, double rate) : k_(k), rate_(rate) {}
  double sample(Rng& rng) const override { return flat().sample(rng); }
  FlatSampler flat() const override { return FlatSampler::erlang(k_, rate_); }
  double mean() const override { return k_ / rate_; }
  double second_moment() const override {
    return k_ * (k_ + 1.0) / (rate_ * rate_);
  }
  double variance() const override { return k_ / (rate_ * rate_); }
  HazardClass hazard_class() const override {
    return k_ == 1 ? HazardClass::kConstant : HazardClass::kIncreasing;
  }
  const char* name() const noexcept override { return "erlang"; }

 private:
  unsigned k_;
  double rate_;
};

/// Balanced-means two-branch fit: p1/mu1 == p2/mu2, hitting a requested
/// (mean, SCV). Reports the requested moments exactly.
class HyperExp2Dist final : public Distribution {
 public:
  HyperExp2Dist(double mean, double scv) : mean_(mean), scv_(scv) {
    const double p1 = 0.5 * (1.0 + std::sqrt((scv - 1.0) / (scv + 1.0)));
    p_ = p1;
    mu1_ = 2.0 * p1 / mean;
    mu2_ = 2.0 * (1.0 - p1) / mean;
  }
  double sample(Rng& rng) const override {
    return rng.exponential(rng.bernoulli(p_) ? mu1_ : mu2_);
  }
  double mean() const override { return mean_; }
  double second_moment() const override { return variance() + mean_ * mean_; }
  double variance() const override { return scv_ * mean_ * mean_; }
  HazardClass hazard_class() const override {
    return scv_ > 1.0 ? HazardClass::kDecreasing : HazardClass::kConstant;
  }
  const char* name() const noexcept override { return "hyperexp2"; }

 private:
  double mean_, scv_, p_, mu1_, mu2_;
};

class TwoPointDist final : public Distribution {
 public:
  TwoPointDist(double a, double pa, double b) : a_(a), b_(b), pa_(pa) {}
  double sample(Rng& rng) const override {
    return rng.bernoulli(pa_) ? a_ : b_;
  }
  double mean() const override { return pa_ * a_ + (1.0 - pa_) * b_; }
  double second_moment() const override {
    return pa_ * a_ * a_ + (1.0 - pa_) * b_ * b_;
  }
  double variance() const override {
    const double m = mean();
    return second_moment() - m * m;
  }
  HazardClass hazard_class() const override {
    return HazardClass::kNonMonotone;
  }
  const char* name() const noexcept override { return "twopoint"; }

 protected:
  bool discrete_support_impl(std::vector<double>* values,
                             std::vector<double>* probs) const override {
    if (values) *values = {a_, b_};
    if (probs) *probs = {pa_, 1.0 - pa_};
    return true;
  }

 private:
  double a_, b_, pa_;
};

class LognormalDist final : public Distribution {
 public:
  LognormalDist(double mu, double sigma) : mu_(mu), sigma_(sigma) {}
  double sample(Rng& rng) const override {
    return std::exp(mu_ + sigma_ * rng.normal());
  }
  double mean() const override {
    return std::exp(mu_ + 0.5 * sigma_ * sigma_);
  }
  double second_moment() const override {
    return std::exp(2.0 * mu_ + 2.0 * sigma_ * sigma_);
  }
  double variance() const override {
    const double m = mean();
    return second_moment() - m * m;
  }
  HazardClass hazard_class() const override {
    // The lognormal hazard rises from 0 then falls back to 0: upside-down
    // bathtub, for every sigma.
    return HazardClass::kNonMonotone;
  }
  const char* name() const noexcept override { return "lognormal"; }

 private:
  double mu_, sigma_;
};

class ParetoDist final : public Distribution {
 public:
  ParetoDist(double scale, double alpha) : scale_(scale), alpha_(alpha) {}
  double sample(Rng& rng) const override {
    // Inversion: x_m * U^{-1/alpha} with U in (0,1].
    return scale_ * std::pow(rng.uniform_pos(), -1.0 / alpha_);
  }
  double mean() const override { return alpha_ * scale_ / (alpha_ - 1.0); }
  double second_moment() const override {
    if (alpha_ <= 2.0) return kInf;
    return alpha_ * scale_ * scale_ / (alpha_ - 2.0);
  }
  double variance() const override {
    if (alpha_ <= 2.0) return kInf;
    const double m = mean();
    return second_moment() - m * m;
  }
  HazardClass hazard_class() const override {
    return HazardClass::kDecreasing;  // h(t) = alpha / t on [x_m, inf)
  }
  const char* name() const noexcept override { return "pareto"; }

 private:
  double scale_, alpha_;
};

class DiscreteDist final : public Distribution {
 public:
  DiscreteDist(std::vector<double> values, std::vector<double> probs)
      : values_(std::move(values)), probs_(std::move(probs)) {}
  double sample(Rng& rng) const override {
    // Linear-scan inversion — supports here are small (job outcomes).
    double u = rng.uniform();
    for (std::size_t i = 0; i + 1 < probs_.size(); ++i) {
      u -= probs_[i];
      if (u < 0.0) return values_[i];
    }
    return values_.back();
  }
  double mean() const override {
    double m = 0.0;
    for (std::size_t i = 0; i < values_.size(); ++i)
      m += probs_[i] * values_[i];
    return m;
  }
  double second_moment() const override {
    double m2 = 0.0;
    for (std::size_t i = 0; i < values_.size(); ++i)
      m2 += probs_[i] * values_[i] * values_[i];
    return m2;
  }
  double variance() const override {
    const double m = mean();
    return second_moment() - m * m;
  }
  HazardClass hazard_class() const override {
    return HazardClass::kNonMonotone;
  }
  const char* name() const noexcept override { return "discrete"; }

 protected:
  bool discrete_support_impl(std::vector<double>* values,
                             std::vector<double>* probs) const override {
    if (values) *values = values_;
    if (probs) *probs = probs_;
    return true;
  }

 private:
  std::vector<double> values_, probs_;
};

class ScaledDist final : public Distribution {
 public:
  ScaledDist(DistPtr base, double factor)
      : base_(std::move(base)), factor_(factor) {}
  double sample(Rng& rng) const override {
    return factor_ * base_->sample(rng);
  }
  double mean() const override { return factor_ * base_->mean(); }
  double second_moment() const override {
    return factor_ * factor_ * base_->second_moment();
  }
  double variance() const override {
    return factor_ * factor_ * base_->variance();
  }
  HazardClass hazard_class() const override {
    // h_scaled(t) = h(t / c) / c: a positive time rescale preserves the
    // monotonicity class.
    return base_->hazard_class();
  }
  const char* name() const noexcept override { return "scaled"; }

 protected:
  bool discrete_support_impl(std::vector<double>* values,
                             std::vector<double>* probs) const override {
    if (!discrete_support(*base_, values, probs)) return false;
    if (values)
      for (double& v : *values) v *= factor_;
    return true;
  }

 private:
  DistPtr base_;
  double factor_;
};

/// Tijms' common-rate mixture of Erlang(k-1) and Erlang(k) stages — the
/// exact two-moment fit for SCV in (1/k, 1/(k-1)). Known IFR: adjacent-
/// shape, common-rate Erlang mixtures have log-concave densities.
class ErlangMixDist final : public Distribution {
 public:
  ErlangMixDist(unsigned k, double rate, double p_short)
      : short_(std::make_shared<ErlangDist>(k - 1, rate)),
        long_(std::make_shared<ErlangDist>(k, rate)),
        p_(p_short) {}
  double sample(Rng& rng) const override {
    // One Bernoulli then the chosen branch's stage draws: a fixed primitive
    // sequence, deterministic across platforms.
    return rng.bernoulli(p_) ? short_->sample(rng) : long_->sample(rng);
  }
  double mean() const override {
    return p_ * short_->mean() + (1.0 - p_) * long_->mean();
  }
  double second_moment() const override {
    return p_ * short_->second_moment() +
           (1.0 - p_) * long_->second_moment();
  }
  double variance() const override {
    const double m = mean();
    return second_moment() - m * m;
  }
  HazardClass hazard_class() const override {
    return HazardClass::kIncreasing;
  }
  const char* name() const noexcept override { return "erlangmix"; }

 private:
  std::shared_ptr<ErlangDist> short_, long_;
  double p_;
};

}  // namespace

const char* to_string(HazardClass c) noexcept {
  switch (c) {
    case HazardClass::kConstant: return "constant";
    case HazardClass::kIncreasing: return "IFR";
    case HazardClass::kDecreasing: return "DFR";
    case HazardClass::kNonMonotone: return "non-monotone";
  }
  return "?";
}

bool discrete_support(const Distribution& d, std::vector<double>* values,
                      std::vector<double>* probs) {
  return d.discrete_support_impl(values, probs);
}

DistPtr exponential_dist(double rate) {
  STOSCHED_REQUIRE(rate > 0.0 && std::isfinite(rate),
                   "exponential rate must be positive and finite");
  return std::make_shared<ExponentialDist>(rate);
}

DistPtr deterministic_dist(double value) {
  STOSCHED_REQUIRE(value > 0.0 && std::isfinite(value),
                   "deterministic value must be positive and finite");
  return std::make_shared<DeterministicDist>(value);
}

DistPtr uniform_dist(double lo, double hi) {
  STOSCHED_REQUIRE(lo >= 0.0 && hi > lo && std::isfinite(hi),
                   "uniform support needs 0 <= lo < hi");
  return std::make_shared<UniformDist>(lo, hi);
}

DistPtr erlang_dist(unsigned k, double rate) {
  STOSCHED_REQUIRE(k >= 1, "Erlang needs at least one stage");
  STOSCHED_REQUIRE(rate > 0.0 && std::isfinite(rate),
                   "Erlang stage rate must be positive and finite");
  return std::make_shared<ErlangDist>(k, rate);
}

DistPtr hyperexp2_dist(double mean, double scv) {
  STOSCHED_REQUIRE(mean > 0.0 && std::isfinite(mean),
                   "hyperexp2 mean must be positive and finite");
  STOSCHED_REQUIRE(scv >= 1.0 && std::isfinite(scv),
                   "hyperexp2 SCV must be >= 1 (use Erlang below 1)");
  return std::make_shared<HyperExp2Dist>(mean, scv);
}

DistPtr two_point_dist(double a, double pa, double b) {
  STOSCHED_REQUIRE(a > 0.0 && b > a && std::isfinite(b),
                   "two-point support needs 0 < a < b");
  STOSCHED_REQUIRE(pa > 0.0 && pa < 1.0,
                   "two-point probability must lie in (0,1)");
  return std::make_shared<TwoPointDist>(a, pa, b);
}

DistPtr lognormal_dist(double mu, double sigma) {
  STOSCHED_REQUIRE(std::isfinite(mu), "lognormal mu must be finite");
  STOSCHED_REQUIRE(sigma > 0.0 && std::isfinite(sigma),
                   "lognormal sigma must be positive and finite");
  return std::make_shared<LognormalDist>(mu, sigma);
}

DistPtr pareto_dist(double scale, double alpha) {
  STOSCHED_REQUIRE(scale > 0.0 && std::isfinite(scale),
                   "Pareto scale must be positive and finite");
  STOSCHED_REQUIRE(alpha > 1.0 && std::isfinite(alpha),
                   "Pareto tail index must exceed 1 for a finite mean");
  return std::make_shared<ParetoDist>(scale, alpha);
}

DistPtr discrete_dist(std::vector<double> values, std::vector<double> probs) {
  STOSCHED_REQUIRE(!values.empty() && values.size() == probs.size(),
                   "discrete law needs matching, nonempty values and probs");
  STOSCHED_REQUIRE(values.front() > 0.0 && std::isfinite(values.back()),
                   "discrete support must be positive and finite");
  for (std::size_t i = 1; i < values.size(); ++i)
    STOSCHED_REQUIRE(values[i] > values[i - 1],
                     "discrete support must be strictly increasing");
  for (const double p : probs)
    STOSCHED_REQUIRE(p > 0.0 && p <= 1.0,
                     "discrete probabilities must lie in (0,1]");
  STOSCHED_REQUIRE(sums_to_one(probs),
                   "discrete probabilities must sum to 1");
  return std::make_shared<DiscreteDist>(std::move(values), std::move(probs));
}

DistPtr scaled_dist(DistPtr base, double factor) {
  STOSCHED_REQUIRE(base != nullptr, "scaled law needs a base distribution");
  STOSCHED_REQUIRE(factor > 0.0 && std::isfinite(factor),
                   "scale factor must be positive and finite");
  return std::make_shared<ScaledDist>(std::move(base), factor);
}

DistPtr with_mean_scv(double mean, double scv) {
  STOSCHED_REQUIRE(mean > 0.0 && std::isfinite(mean),
                   "two-moment fit mean must be positive and finite");
  STOSCHED_REQUIRE(scv >= 0.0 && std::isfinite(scv),
                   "two-moment fit SCV must be >= 0 and finite");
  if (scv == 0.0) return deterministic_dist(mean);
  if (scv == 1.0) return exponential_dist(1.0 / mean);
  if (scv > 1.0) return hyperexp2_dist(mean, scv);
  // SCV in (0, 1): pick k with 1/k <= scv <= 1/(k-1) and mix Erlang(k-1)
  // and Erlang(k) at a common rate (Tijms). With mixing probability
  //   p = (k*scv - sqrt(k(1+scv) - k^2 scv)) / (1 + scv)
  // and rate mu = (k - p) / mean, the first two moments match exactly.
  const auto k = static_cast<unsigned>(std::ceil(1.0 / scv));
  const double kd = static_cast<double>(k);
  // The radicand vanishes at scv == 1/(k-1); clamp float noise at 0.
  const double rad = std::max(0.0, kd * (1.0 + scv) - kd * kd * scv);
  const double p = (kd * scv - std::sqrt(rad)) / (1.0 + scv);
  if (p <= 0.0) return erlang_dist(k, kd / mean);  // scv == 1/k exactly
  const double mu = (kd - p) / mean;
  return std::make_shared<ErlangMixDist>(k, mu, p);
}

}  // namespace stosched
