// arrival.hpp — pluggable arrival processes for the queueing simulators.
//
// Every event-driven simulator in queueing/ used to hard-code Poisson
// arrivals (`arrival_rate` + one exponential draw per arrival). That locks
// the policy experiments to memoryless traffic, which is exactly the regime
// where index/priority policies are *hardest to separate*: correlated or
// bursty input and non-unit interarrival variability are where scheduling
// choices move the cost. `ArrivalProcess` makes the arrival law a
// first-class, swappable model component:
//
//   * RenewalArrivals — i.i.d. interarrival times from any `Distribution`
//     (the exponential case IS the old Poisson path, bit-for-bit);
//   * MMPPArrivals   — 2-phase Markov-modulated Poisson (the simplest MAP):
//     the instantaneous rate jumps between two levels along a Markov chain,
//     producing positively correlated, bursty arrivals with a closed-form
//     stationary rate (so load sweeps still work exactly);
//   * BatchArrivals  — renewal epochs delivering fixed-size or geometric
//     batches of simultaneous jobs.
//
// Determinism contract: a process never owns randomness. The simulator
// hands each class a dedicated `Rng` substream plus a per-replication
// `ArrivalState`; `next_gap` / `batch_size` draw only through that stream.
// Two policy arms replaying the same substreams therefore see *identical*
// arrival epochs and batch sizes — the synchronization the common-random-
// number comparisons (experiment::run_paired) rely on — for every process
// kind, not just Poisson.
//
// Rate/burstiness contract: `rate()` is the exact long-run expected number
// of *jobs* per unit time (batch-size weighted), so traffic intensities and
// `scale_to_load` remain exact for any process. `burstiness()` is the
// asymptotic index of dispersion of counts, lim Var N(t) / E N(t): 1 for
// Poisson, the interarrival SCV for a renewal process, > 1 for bursty MMPP
// and batch input.
#pragma once

#include <cstddef>
#include <memory>

#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace stosched {

class ArrivalProcess;

/// Shared ownership: class specs and scenario registries hold (and freely
/// copy) handles to immutable processes, exactly like `DistPtr`.
using ArrivalPtr = std::shared_ptr<const ArrivalProcess>;

/// Per-replication mutable sampler state. The process object itself is
/// immutable and shared; everything that evolves along one sample path
/// (the MMPP phase) lives here, owned by the simulator next to the class's
/// Rng substream.
struct ArrivalState {
  std::size_t phase = 0;  ///< MMPP modulating phase; unused by renewal/batch
};

/// An exogenous arrival stream with known long-run rate and burstiness.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Long-run expected jobs per unit time (batch-size weighted); > 0.
  virtual double rate() const = 0;

  /// Asymptotic index of dispersion of counts, lim_t Var N(t) / E N(t).
  /// 1 for Poisson; for a renewal process this equals the interarrival SCV.
  virtual double burstiness() const = 0;

  /// Time from the current arrival epoch to the next one, advancing `state`.
  /// Draws only from `rng` (deterministic in the substream).
  virtual double next_gap(ArrivalState& state, Rng& rng) const = 0;

  /// Number of jobs delivered at the epoch just reached (>= 1). The default
  /// consumes no randomness, so non-batch processes leave the draw sequence
  /// untouched.
  virtual std::size_t batch_size(ArrivalState& state, Rng& rng) const {
    (void)state;
    (void)rng;
    return 1;
  }

  /// E[batch size] (1 for non-batch processes).
  virtual double mean_batch() const { return 1.0; }

  /// Gap-sampling fast path: when the process's `next_gap` is exactly one
  /// stateless Distribution-style draw (Poisson, renewal, batch epochs),
  /// fill `out` with the FlatSampler replaying that draw bit-for-bit and
  /// return true; stateful processes (MMPP) return false and keep the
  /// virtual path. `CachedGapSampler` below is the consumer.
  virtual bool flat_gap(FlatSampler* out) const {
    (void)out;
    return false;
  }

  /// Copy with the long-run job rate multiplied by `factor` (> 0), realized
  /// as a pure time rescaling: the correlation structure and `burstiness()`
  /// are preserved exactly. This is what makes `scale_to_load` work for any
  /// process kind.
  virtual ArrivalPtr scaled(double factor) const = 0;

  /// Short process tag ("poisson", "renewal", "mmpp", "batch"), for
  /// diagnostics and bench metadata.
  virtual const char* kind() const noexcept = 0;
};

/// Per-class cached gap dispatcher for simulator hot loops: resolves the
/// process's sampling procedure ONCE (at replication setup) instead of one
/// virtual `next_gap` per arrival. Flat-capable processes route every draw
/// through the tagged-POD switch; stateful ones keep the virtual call. The
/// draw sequence is bit-identical either way (see `flat_gap`). Holds raw
/// pointers — valid only while the process (and its laws) are alive, which
/// the simulators guarantee by keeping the ArrivalPtr next to it.
class CachedGapSampler {
 public:
  CachedGapSampler() noexcept = default;

  explicit CachedGapSampler(const ArrivalProcess* process) noexcept
      : process_(process) {
    if (process_ != nullptr) flat_ok_ = process_->flat_gap(&flat_);
  }

  /// Time to the next arrival epoch, advancing `state` (virtual path only).
  double next_gap(ArrivalState& state, Rng& rng) const {
    return flat_ok_ ? flat_.sample(rng) : process_->next_gap(state, rng);
  }

  [[nodiscard]] bool flat() const noexcept { return flat_ok_; }

 private:
  const ArrivalProcess* process_ = nullptr;
  FlatSampler flat_;
  bool flat_ok_ = false;
};

// ---- factories -----------------------------------------------------------
// All factories validate their arguments and throw std::invalid_argument on
// a bad parameterization.

/// Poisson with the given rate. Dedicated implementation (not a renewal
/// wrapper) whose gap draw is exactly `rng.exponential(rate)` — the
/// simulators' historical draw — so configurations built from plain
/// `arrival_rate` fields reproduce the pre-refactor sample paths
/// bit-for-bit.
ArrivalPtr poisson_arrivals(double rate);

/// Renewal process with i.i.d. interarrival law `interarrival` (positive,
/// finite mean). With an exponential law this is bit-identical to
/// `poisson_arrivals` (both reduce to one `rng.exponential` per gap).
ArrivalPtr renewal_arrivals(DistPtr interarrival);

/// 2-phase Markov-modulated Poisson process (the canonical 2-state MAP):
/// while in phase i the stream is Poisson(rate_i); the phase flips 0 -> 1 at
/// rate switch01 and 1 -> 0 at rate switch10. Stationary job rate (closed
/// form): pi0 rate0 + pi1 rate1 with pi0 = switch10 / (switch01 + switch10).
/// Requires both switch rates > 0, rates >= 0 and a positive stationary
/// rate. Sample paths start in phase 0.
ArrivalPtr mmpp_arrivals(double rate0, double rate1, double switch01,
                         double switch10);

/// Symmetric on-off MMPP calibrated to a target long-run `rate` and
/// asymptotic index of dispersion `burstiness` > 1: phase 0 is ON at
/// 2*rate, phase 1 is OFF, both switch rates rate / (burstiness - 1).
/// The standard one-knob bursty-traffic family of the scenario sweeps.
ArrivalPtr bursty_arrivals(double rate, double burstiness);

/// Renewal epochs delivering a fixed batch of `size` >= 1 simultaneous jobs.
// caller-audit: test-only(NetworkGolden.Fcfs: an arrival stream of the pinned
// golden workloads; dropping it means re-pinning them)
ArrivalPtr batch_arrivals(DistPtr interarrival, std::size_t size);

/// Renewal epochs delivering Geometric batches on {1, 2, ...} with mean
/// `mean_size` >= 1 (P[B = k] = (1-q) q^(k-1), q = 1 - 1/mean_size).
// caller-audit: test-only(Mg1Golden.FcfsBatchAndMmppArrivals: an arrival
// stream of the pinned golden workloads; dropping it means re-pinning them)
ArrivalPtr batch_arrivals_geometric(DistPtr interarrival, double mean_size);

}  // namespace stosched
