// metrics.hpp — the process-wide instruments of the observability layer.
//
// The library records exactly five instruments, each through one
// obs::record_* call that adds a whole run's worth at once:
//
//   * events        — DES events processed; record_events from
//                     queueing::Kernel::run when its loop ends;
//   * lp_solves,
//     lp_iterations — LP effort; record_lp_solve from
//                     lp::add_process_lp_solve once per completed solve;
//   * wait_time     — per-visit waiting times; record_wait from
//                     Kernel::run;
//   * sojourn_time  — per-job times in system; record_sojourn from
//                     simulate_mg1 and online::simulate_online.
//
// A record_* call writes to the calling thread's Telemetry sink when one
// is installed, and to the instrument otherwise. The experiment engine
// gives each chunk of replications a sink and commits it once the
// replications are sure to be merged, so work that a stop check discards,
// or that ran after a failing replication, is never counted.
//
// Two instrument kinds:
//
//   * Counter    — monotone event tally (relaxed-atomic adds). The sums are
//                  commutative, so totals are bit-identical under any
//                  OpenMP schedule — the discipline the LP counters set.
//   * Histogram  — deterministic log₂-bucketed distribution. The bucket of
//                  a value is a pure function of its IEEE-754 bits (no
//                  floating log), bucket counts are commutative atomic
//                  sums, and percentiles are bucket upper bounds — so a
//                  histogram snapshot, like a counter, is bit-identical
//                  across thread counts and joins the bench_compare.py
//                  --exact determinism gate.
//
// Hot-path policy: simulators count and record into plain locals (one
// increment per event or sample, no atomics) and hand them to record_*
// once per run. The instruments are constant-initialized, trivially
// destructible globals, so they are usable from any static initializer or
// destructor. Read by name with counter_value()/histogram_snapshot(),
// which is what bench_common::finish and perfbench use.
//
// The repo lint rule `metrics-registry` (tools/lint_stosched.py) forbids
// new file-scope std::atomic telemetry outside src/obs/ — all
// instrumentation flows through here, so bench_common::finish can stamp
// every counter and tail percentile into BENCH_*.json generically.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace stosched::obs {

/// Monotone event tally. Thread-safe; relaxed adds (commutative sums, so
/// totals never depend on the thread schedule).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// ---- deterministic log₂ bucketing ------------------------------------------
// Log-linear layout, 8 sub-buckets per octave (relative resolution 2^(1/8),
// ~9%): bucket (e, s) covers [2^e·(1+s/8), 2^e·(1+(s+1)/8)) for exponents
// e in [kMinExp, kMaxExp). Index 0 is the underflow bucket (v ≤ 0,
// subnormals, and everything below 2^kMinExp ≈ 9.5e-7 — "effectively zero"
// at queueing time scales; LocalHistogram::record keeps NaN and negative
// samples out of it); the last index is the overflow bucket
// (v ≥ 2^kMaxExp ≈ 8.8e12). The index is computed from the value's raw
// IEEE-754 bits, so it is exact, branch-light and identical on every
// platform — no floating-point log whose last ulp could differ.
namespace hist {

inline constexpr int kMinExp = -20;
inline constexpr int kMaxExp = 43;
inline constexpr std::size_t kSubBuckets = 8;
inline constexpr std::size_t kBuckets =
    2 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

/// Bucket of `v`. Zero, negatives and NaN land in the underflow bucket.
inline std::size_t bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // also catches NaN: no comparison is true
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int exp = static_cast<int>(bits >> 52) - 1023;  // v in [2^exp, 2^exp+1)
  if (exp < kMinExp) return 0;  // includes all subnormals (raw exponent 0)
  if (exp >= kMaxExp) return kBuckets - 1;  // includes +inf
  const std::size_t sub = (bits >> 49) & 7;  // top 3 mantissa bits
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

/// Inclusive lower edge of bucket `index` (0 for the underflow bucket).
inline double bucket_lower(std::size_t index) noexcept {
  if (index == 0) return 0.0;
  if (index >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t k = index - 1;
  const int e = kMinExp + static_cast<int>(k / kSubBuckets);
  const double frac = 1.0 + static_cast<double>(k % kSubBuckets) /
                                static_cast<double>(kSubBuckets);
  return std::ldexp(frac, e);
}

/// Exclusive upper edge of bucket `index` (+inf for the overflow bucket).
inline double bucket_upper(std::size_t index) noexcept {
  if (index >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower(index + 1);
}

}  // namespace hist

/// Frozen bucket counts of one histogram; value-comparable, so tests can
/// assert bit-identity across OpenMP schedules directly. `total` counts the
/// valid samples in `counts`; `invalid` counts the NaN and negative samples
/// that were kept out of them.
struct HistogramSnapshot {
  std::array<std::uint64_t, hist::kBuckets> counts{};
  std::uint64_t total = 0;
  std::uint64_t invalid = 0;

  bool operator==(const HistogramSnapshot&) const = default;

  /// Nearest-rank percentile (q in (0, 1]) of the valid samples: the upper
  /// edge of the bucket holding the ceil(q·total)-th smallest sample —
  /// deterministic and conservative (never below the true percentile by
  /// more than one bucket width, ~9% relative). The underflow bucket
  /// reports 0 (zero waits are zero, not 2^kMinExp) and the overflow bucket
  /// its lower edge, so the result is always finite. Returns 0 when the
  /// histogram holds no valid sample.
  [[nodiscard]] double percentile(double q) const noexcept {
    if (total == 0) return 0.0;
    const double want = std::ceil(q * static_cast<double>(total));
    std::uint64_t rank = want < 1.0 ? 1 : static_cast<std::uint64_t>(want);
    if (rank > total) rank = total;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < hist::kBuckets; ++i) {
      cum += counts[i];
      if (cum < rank) continue;
      if (i == 0) return 0.0;
      return i == hist::kBuckets - 1 ? hist::bucket_lower(i)
                                     : hist::bucket_upper(i);
    }
    return hist::bucket_lower(hist::kBuckets - 1);  // unreachable
  }
};

/// Replication-local histogram: plain increments, no atomics. Record into
/// one of these inside a simulator and hand it to obs::record_wait or
/// obs::record_sojourn once per run.
class LocalHistogram {
 public:
  /// NaN and negative samples are not durations: they go to the invalid
  /// tally, so they cannot pass for zero waits in the percentiles. Zero
  /// (and -0.0, which compares equal to it) stays in bucket 0.
  void record(double v) noexcept {
    if (!(v >= 0.0)) {
      ++invalid_;
      return;
    }
    ++counts_[hist::bucket_index(v)];
    ++total_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t invalid() const noexcept { return invalid_; }
  [[nodiscard]] const std::array<std::uint64_t, hist::kBuckets>& counts()
      const noexcept {
    return counts_;
  }
  /// Add another local histogram's counts (integer sums: order-free).
  void merge(const LocalHistogram& other) noexcept {
    for (std::size_t i = 0; i < hist::kBuckets; ++i)
      counts_[i] += other.counts_[i];
    total_ += other.total_;
    invalid_ += other.invalid_;
  }
  void clear() noexcept {
    counts_.fill(0);
    total_ = 0;
    invalid_ = 0;
  }

 private:
  std::array<std::uint64_t, hist::kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t invalid_ = 0;
};

/// Shared histogram: relaxed-atomic bucket counts, written by merge() (one
/// fetch_add per nonzero bucket per run).
class Histogram {
 public:
  void merge(const LocalHistogram& local) noexcept {
    if (local.invalid() != 0)
      invalid_.fetch_add(local.invalid(), std::memory_order_relaxed);
    if (local.total() == 0) return;
    const auto& c = local.counts();
    for (std::size_t i = 0; i < hist::kBuckets; ++i)
      if (c[i] != 0) counts_[i].fetch_add(c[i], std::memory_order_relaxed);
  }
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < hist::kBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
      s.total += s.counts[i];
    }
    s.invalid = invalid_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, hist::kBuckets> counts_{};
  std::atomic<std::uint64_t> invalid_{0};
};

// ---- the five process-wide instruments -------------------------------------

/// Read a counter by name: "events" (DES events processed, record_events),
/// "lp_solves" and "lp_iterations" (completed LP solves and their simplex
/// iterations, record_lp_solve). Any other name throws
/// std::invalid_argument, so a misspelt name cannot read as zero. This is
/// what bench_common::finish and perfbench use.
std::uint64_t counter_value(std::string_view name);

/// Snapshot a histogram by name: "wait_time" (post-warmup per-visit waiting
/// time, record_wait) or "sojourn_time" (per-job time in system,
/// record_sojourn); any other name throws std::invalid_argument.
/// bench_common::finish turns them into the wait_p50..p999 /
/// sojourn_p50..p999 columns of BENCH_*.json.
HistogramSnapshot histogram_snapshot(std::string_view name);

// ---- per-thread telemetry sink ---------------------------------------------

/// The five instruments' worth of recordings held back from them: what a
/// stretch of work on one thread recorded while this was its sink.
/// Integer sums throughout, so committing values in any order yields the
/// same totals.
struct Telemetry {
  std::uint64_t events = 0;
  std::uint64_t lp_solves = 0;
  std::uint64_t lp_iterations = 0;
  LocalHistogram wait;
  LocalHistogram sojourn;
};

/// The calling thread's sink; null (the default) means record_* writes to
/// the instruments.
Telemetry* telemetry_sink() noexcept;
/// Install `sink` (null to remove it) on the calling thread; returns the
/// sink it replaces, so callers can restore it.
Telemetry* set_telemetry_sink(Telemetry* sink) noexcept;

/// The recording calls: into the calling thread's sink if one is
/// installed, into the instruments otherwise.
void record_events(std::uint64_t n) noexcept;
void record_lp_solve(std::uint64_t iterations) noexcept;
void record_wait(const LocalHistogram& local) noexcept;
void record_sojourn(const LocalHistogram& local) noexcept;

/// Record all of `t` as the record_* calls would on the calling thread.
void commit(const Telemetry& t) noexcept;

}  // namespace stosched::obs
