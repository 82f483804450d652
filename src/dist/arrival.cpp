#include "dist/arrival.hpp"

#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace stosched {

namespace {

/// The historical simulator path: one `rng.exponential(rate)` per gap.
/// Deliberately NOT a RenewalArrivals over ExponentialDist — although the
/// two are bit-identical today, this class pins the old draw directly so
/// the Poisson-default construction path can never drift.
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate) : rate_(rate) {}
  double rate() const override { return rate_; }
  double burstiness() const override { return 1.0; }
  double next_gap(ArrivalState&, Rng& rng) const override {
    return rng.exponential(rate_);
  }
  bool flat_gap(FlatSampler* out) const override {
    *out = FlatSampler::exponential(rate_);  // the next_gap draw, verbatim
    return true;
  }
  ArrivalPtr scaled(double factor) const override {
    STOSCHED_REQUIRE(factor > 0.0 && std::isfinite(factor),
                     "arrival scale factor must be positive and finite");
    return poisson_arrivals(rate_ * factor);
  }

 private:
  double rate_;
};

class RenewalArrivals final : public ArrivalProcess {
 public:
  explicit RenewalArrivals(DistPtr interarrival)
      : interarrival_(std::move(interarrival)) {}
  double rate() const override { return 1.0 / interarrival_->mean(); }
  double burstiness() const override {
    // Asymptotic IDC of a renewal process == interarrival SCV.
    return interarrival_->scv();
  }
  double next_gap(ArrivalState&, Rng& rng) const override {
    return interarrival_->sample(rng);
  }
  bool flat_gap(FlatSampler* out) const override {
    // The law's own flat form; laws without a fast case still skip the
    // per-gap ArrivalProcess dispatch via the virtual-fallback sampler.
    *out = interarrival_->flat();
    return true;
  }
  ArrivalPtr scaled(double factor) const override {
    STOSCHED_REQUIRE(factor > 0.0 && std::isfinite(factor),
                     "arrival scale factor must be positive and finite");
    return renewal_arrivals(scaled_dist(interarrival_, 1.0 / factor));
  }

 private:
  DistPtr interarrival_;
};

class MMPPArrivals final : public ArrivalProcess {
 public:
  MMPPArrivals(double rate0, double rate1, double sw01, double sw10)
      : lambda_{rate0, rate1}, sw_{sw01, sw10} {}

  double rate() const override {
    const auto [pi0, pi1] = stationary();
    return pi0 * lambda_[0] + pi1 * lambda_[1];
  }

  double burstiness() const override {
    // Doubly-stochastic Poisson: Var N(t) = mean + variance contributed by
    // the integrated rate path. With Cov(lambda(0), lambda(u)) =
    // pi0 pi1 (l0 - l1)^2 exp(-(s01+s10) u), the asymptotic IDC is
    //   1 + 2 pi0 pi1 (l0 - l1)^2 / ((s01 + s10) * mean_rate).
    const auto [pi0, pi1] = stationary();
    const double d = lambda_[0] - lambda_[1];
    return 1.0 + 2.0 * pi0 * pi1 * d * d / ((sw_[0] + sw_[1]) * rate());
  }

  double next_gap(ArrivalState& state, Rng& rng) const override {
    // Competing exponentials: in phase p the next event fires at rate
    // lambda_p + sw_p and is an arrival with probability lambda_p / total;
    // otherwise the phase flips and the clock keeps accumulating.
    double gap = 0.0;
    for (;;) {
      const std::size_t p = state.phase & 1u;
      const double total = lambda_[p] + sw_[p];
      gap += rng.exponential(total);
      if (rng.uniform() * total < lambda_[p]) return gap;
      state.phase = p ^ 1u;
    }
  }

  ArrivalPtr scaled(double factor) const override {
    STOSCHED_REQUIRE(factor > 0.0 && std::isfinite(factor),
                     "arrival scale factor must be positive and finite");
    // Pure time rescaling: all four transition rates speed up together, so
    // the phase-path geometry (and hence burstiness) is unchanged.
    return mmpp_arrivals(lambda_[0] * factor, lambda_[1] * factor,
                         sw_[0] * factor, sw_[1] * factor);
  }

 private:
  std::pair<double, double> stationary() const {
    const double total = sw_[0] + sw_[1];
    return {sw_[1] / total, sw_[0] / total};
  }

  double lambda_[2];
  double sw_[2];  ///< sw_[0]: phase 0 -> 1, sw_[1]: phase 1 -> 0
};

}  // namespace

ArrivalPtr poisson_arrivals(double rate) {
  STOSCHED_REQUIRE(rate > 0.0 && std::isfinite(rate),
                   "Poisson arrival rate must be positive and finite");
  return std::make_shared<PoissonArrivals>(rate);
}

ArrivalPtr renewal_arrivals(DistPtr interarrival) {
  STOSCHED_REQUIRE(interarrival != nullptr, "interarrival law required");
  STOSCHED_REQUIRE(
      interarrival->mean() > 0.0 && std::isfinite(interarrival->mean()),
      "interarrival law needs a positive finite mean");
  return std::make_shared<RenewalArrivals>(std::move(interarrival));
}

ArrivalPtr mmpp_arrivals(double rate0, double rate1, double switch01,
                         double switch10) {
  STOSCHED_REQUIRE(rate0 >= 0.0 && std::isfinite(rate0) && rate1 >= 0.0 &&
                       std::isfinite(rate1),
                   "MMPP phase rates must be >= 0 and finite");
  STOSCHED_REQUIRE(switch01 > 0.0 && std::isfinite(switch01) &&
                       switch10 > 0.0 && std::isfinite(switch10),
                   "MMPP switch rates must be positive and finite");
  STOSCHED_REQUIRE(rate0 > 0.0 || rate1 > 0.0,
                   "MMPP needs a positive stationary rate");
  return std::make_shared<MMPPArrivals>(rate0, rate1, switch01, switch10);
}

ArrivalPtr bursty_arrivals(double rate, double burstiness) {
  STOSCHED_REQUIRE(rate > 0.0 && std::isfinite(rate),
                   "bursty arrival rate must be positive and finite");
  STOSCHED_REQUIRE(burstiness > 1.0 && std::isfinite(burstiness),
                   "burstiness must exceed 1 (use poisson_arrivals at 1)");
  // Symmetric on-off: pi0 = pi1 = 1/2, ON rate 2*rate, and the IDC formula
  // reduces to 1 + rate / switch, so switch = rate / (burstiness - 1).
  const double sw = rate / (burstiness - 1.0);
  return mmpp_arrivals(2.0 * rate, 0.0, sw, sw);
}

}  // namespace stosched
