// distribution.hpp — processing-time laws with known moments (survey §0).
//
// The policies in stochastic scheduling consume a job's law through its
// first two moments (WSEPT, Sevcik, cµ, achievable regions). `Distribution`
// exposes exactly that — closed-form `mean()` / `second_moment()` /
// `variance()` / `scv()` — together with deterministic sampling for the
// discrete-event side. Each factory below also documents its law's
// hazard-rate monotonicity (IFR, DFR or neither), the condition under
// which SEPT or LEPT is optimal; no code branches on it.
//
// Sampling reproducibility: every law draws through `stosched::Rng`
// primitives only (inversion, mixtures of inversions), never through
// implementation-defined <random> algorithms, so a (seed, stream) pair
// yields bit-identical sample paths on every platform. See util/rng.hpp.
//
// Laws whose support is a finite set additionally expose it through
// `discrete_support()`, which the exact DP solvers (subset_dp,
// parallel_machines) use to enumerate outcomes.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace stosched {

class Distribution;

/// Devirtualized per-event sampling: a tagged POD capturing one law's draw
/// procedure as (kind + parameters), dispatched by a `switch` instead of a
/// virtual call. Simulators resolve each class's law to a FlatSampler once
/// per replication and route every hot-loop draw through it — params live
/// inline in a 32-byte value instead of behind a shared_ptr + vtable chase.
///
/// Bit-identity contract: the laws with a fast-path case define their
/// `Distribution::sample` as `flat().sample(rng)`, so each has one draw
/// procedure and replacing virtual dispatch with a cached FlatSampler cannot
/// change any sample path (regression-tested for all laws in
/// tests/test_dist.cpp). Laws without a fast case fall back to
/// the virtual call through a raw pointer — the sampler is only valid while
/// the distribution it came from is alive.
class FlatSampler {
 public:
  enum class Kind : unsigned char {
    kExponential,    ///< a = rate
    kDeterministic,  ///< a = value; consumes no randomness
    kUniform,        ///< a = lo, b = hi
    kErlang,         ///< k = stages, a = per-stage rate
    kVirtual,        ///< fallback: one virtual sample() per draw
  };

  /// Default: point mass at 0 — an inert placeholder for containers;
  /// overwrite via a factory or Distribution::flat() before sampling.
  FlatSampler() noexcept = default;

  static FlatSampler exponential(double rate) noexcept {
    return {Kind::kExponential, 0, rate, 0.0, nullptr};
  }
  static FlatSampler deterministic(double value) noexcept {
    return {Kind::kDeterministic, 0, value, 0.0, nullptr};
  }
  static FlatSampler uniform(double lo, double hi) noexcept {
    return {Kind::kUniform, 0, lo, hi, nullptr};
  }
  static FlatSampler erlang(unsigned k, double rate) noexcept {
    return {Kind::kErlang, k, rate, 0.0, nullptr};
  }
  static FlatSampler virtual_fallback(const Distribution& d) noexcept {
    return {Kind::kVirtual, 0, 0.0, 0.0, &d};
  }

  /// One draw; defined inline below Distribution (the fallback case needs
  /// its complete type).
  double sample(Rng& rng) const;

  // caller-audit: test-only(FlatSampler.FastPathCoversTheCommonLawsOnly: it
  // observes which laws resolve to the switch fast path)
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  FlatSampler(Kind kind, unsigned k, double a, double b,
              const Distribution* fallback) noexcept
      : kind_(kind), k_(k), a_(a), b_(b), fallback_(fallback) {}

  Kind kind_ = Kind::kDeterministic;
  unsigned k_ = 0;
  double a_ = 0.0;
  double b_ = 0.0;
  const Distribution* fallback_ = nullptr;
};

/// A nonnegative processing-time law with closed-form first two moments.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// One draw, using only deterministic Rng primitives.
  virtual double sample(Rng& rng) const = 0;

  /// E[X] (finite for every law in the library).
  virtual double mean() const = 0;

  /// E[X^2]; +infinity where the law has none (Pareto with alpha <= 2).
  virtual double second_moment() const = 0;

  /// Var[X]; +infinity when the second moment is infinite.
  virtual double variance() const = 0;

  /// Squared coefficient of variation Var[X] / E[X]^2 — the quantity the
  /// SCV-sensitive approximation bounds are stated in.
  double scv() const {
    const double m = mean();
    return variance() / (m * m);
  }

  /// Devirtualized sampling hook: the FlatSampler whose switch-based
  /// sample() replays this law's draw procedure bit-for-bit. Laws with a
  /// flat fast path (exponential, deterministic, uniform, Erlang) override
  /// this; the default routes every draw back through the virtual sample().
  /// The returned sampler references *this — keep the law alive.
  virtual FlatSampler flat() const {
    return FlatSampler::virtual_fallback(*this);
  }

 protected:
  friend bool discrete_support(const Distribution&, std::vector<double>*,
                               std::vector<double>*);

  /// Finite-support hook: laws with a finite atom set fill `values`
  /// (strictly increasing) and `probs` and return true. Either out-pointer
  /// may be null. Default: not discrete.
  virtual bool discrete_support_impl(std::vector<double>* values,
                                     std::vector<double>* probs) const {
    (void)values;
    (void)probs;
    return false;
  }
};

inline double FlatSampler::sample(Rng& rng) const {
  switch (kind_) {
    case Kind::kExponential:
      return rng.exponential(a_);
    case Kind::kDeterministic:
      return a_;
    case Kind::kUniform:
      return rng.uniform(a_, b_);
    case Kind::kErlang: {
      // Sum of k exponentials via logs of chunked products of uniforms:
      // exact inversion composition, deterministic across platforms. Chunks
      // of 8 keep every partial product normal (>= 2^-424 even if all draws
      // hit the 2^-53 floor), so no underflow for any stage count.
      double acc = 0.0;
      for (unsigned i = 0; i < k_; i += 8) {
        double prod = 1.0;
        const unsigned end = std::min(i + 8u, k_);
        for (unsigned j = i; j < end; ++j) prod *= rng.uniform_pos();
        acc += std::log(prod);
      }
      return -acc / a_;
    }
    case Kind::kVirtual:
      return fallback_->sample(rng);
  }
  return 0.0;  // unreachable: the switch covers every Kind
}

/// Shared ownership: jobs, queueing class specs and generated instances all
/// hold (and freely copy) handles to immutable laws.
using DistPtr = std::shared_ptr<const Distribution>;

/// If `d` has finite support, fill `values` / `probs` (null pointers are
/// skipped) and return true; otherwise return false and leave the outputs
/// untouched.
bool discrete_support(const Distribution& d, std::vector<double>* values,
                      std::vector<double>* probs);

// ---- factories -----------------------------------------------------------
// All factories validate their arguments and throw std::invalid_argument on
// a bad parameterization (nonpositive rate, probabilities not summing to 1,
// unordered support, ...).

/// Exponential with the given rate; mean 1/rate, SCV 1, constant hazard.
DistPtr exponential_dist(double rate);

/// Point mass at `value` > 0; SCV 0, (weakly) increasing hazard.
DistPtr deterministic_dist(double value);

/// Uniform on [lo, hi), 0 <= lo < hi; increasing hazard.
DistPtr uniform_dist(double lo, double hi);

/// Erlang-k with per-stage rate `rate`: sum of k iid exponentials.
/// Mean k/rate, SCV 1/k; constant hazard for k == 1, increasing for k >= 2.
DistPtr erlang_dist(unsigned k, double rate);

/// Two-branch balanced-means hyperexponential calibrated to a target mean
/// and SCV >= 1 — the standard two-moment fit for high-variability service.
DistPtr hyperexp2_dist(double mean, double scv);

/// Two-point law: value `a` with probability `pa`, else `b`; 0 < a < b.
/// The counterexample family of the survey's §1 (nonmonotone hazard).
DistPtr two_point_dist(double a, double pa, double b);

/// Pareto with scale x_m and tail index alpha > 1 (finite mean); second
/// moment infinite for alpha <= 2. Decreasing hazard.
DistPtr pareto_dist(double scale, double alpha);

/// General finite law on strictly increasing positive atoms.
DistPtr discrete_dist(std::vector<double> values, std::vector<double> probs);

/// Time-rescaled law: samples `factor * X` for X ~ base (factor > 0).
/// Mean scales by factor, variance by factor^2, so the SCV and the hazard
/// monotonicity class are preserved exactly — the transform behind
/// rate-scaling a renewal arrival process without changing its shape.
DistPtr scaled_dist(DistPtr base, double factor);

/// Exact two-moment fit to a target (mean, SCV), the standard workhorse of
/// SCV sweeps: SCV 0 -> deterministic, SCV in (0,1) -> common-rate mixture
/// of Erlang(k-1)/Erlang(k) stages with 1/k <= SCV <= 1/(k-1) (Tijms' fit),
/// SCV 1 -> exponential, SCV > 1 -> balanced-means 2-branch
/// hyperexponential. The returned law reports the requested moments
/// exactly. An SCV below 1 / UINT_MAX (about 2.3e-10) is rejected: its
/// stage count would not fit `unsigned`.
DistPtr with_mean_scv(double mean, double scv);

}  // namespace stosched
