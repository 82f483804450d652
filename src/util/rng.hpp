// rng.hpp — deterministic, splittable pseudo-random number generation.
//
// Every stochastic experiment in libstosched consumes randomness through
// `Rng`, a xoshiro256++ generator. Design goals, in order:
//
//   1. *Reproducibility*: a (seed, stream) pair fully determines the draw
//      sequence, independent of platform, thread count and optimization
//      level. All distribution sampling built on top uses only arithmetic
//      that is exact or IEEE-754-deterministic (no std::normal_distribution,
//      whose algorithm is implementation-defined).
//   2. *Splittability*: Monte-Carlo replications run concurrently, so each
//      replication derives an independent stream via `Rng::stream(i)`,
//      seeded through SplitMix64 (the recommended seeding for xoshiro) plus
//      a stream-salt, giving 2^64 well-separated streams.
//   3. *Speed*: xoshiro256++ is ~0.8 ns/draw and passes BigCrush.
//
// The class satisfies std::uniform_random_bit_generator, so it can also be
// plugged into <random> machinery where determinism is not required.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace stosched {

/// SplitMix64 step — used for seeding and stream derivation. Public because
/// tests and hashing utilities reuse it.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ generator with SplitMix64 seeding and cheap stream splitting.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Equal (seed, stream) pairs yield equal sequences.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL,
               std::uint64_t stream = 0) noexcept
      : seed_material_(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1))) {
    // Mix the stream id into the seed sequence with a distinct salt so that
    // streams with nearby ids are statistically independent.
    std::uint64_t sm = seed_material_;
    for (auto& w : state_) w = splitmix64(sm);
  }

  /// Derive the i-th child stream of this generator deterministically. The
  /// child depends only on the parent's *seed material*, not on how many
  /// numbers the parent has drawn — callers can hand out streams first and
  /// draw later.
  [[nodiscard]] Rng stream(std::uint64_t i) const noexcept {
    Rng child;
    std::uint64_t sm =
        seed_material_ ^ (0xd1b54a32d192ed03ULL * (i + 1) + 0x1234567);
    child.seed_material_ = sm;
    for (auto& w : child.state_) w = splitmix64(sm);
    return child;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits (strictly less than 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe to pass to log() for exponentials.
  double uniform_pos() noexcept {
    return (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection
  /// method: unbiased and typically a single multiplication.
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli(p) draw.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential(rate) draw via inversion: -log(U)/rate with U in (0,1];
  /// avoids the platform-dependent ziggurat in libstdc++.
  double exponential(double rate) noexcept {
    return -std::log(uniform_pos()) / rate;
  }

  /// Sample an index from a discrete distribution given its (non-normalized)
  /// weights. Linear scan — intended for small supports (job classes,
  /// project states).
  std::size_t categorical(const double* weights, std::size_t n) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_material_ = 0;  ///< immutable; used for stream splitting
};

/// Inverse standard-normal CDF (quantile function). Exposed for tests and
/// for the confidence-interval code in stats.hpp.
double inverse_normal_cdf(double p);

}  // namespace stosched
