// metrics.hpp — the process-wide metrics registry of the observability layer.
//
// Before this subsystem the repo's telemetry was three ad-hoc mechanisms
// that grew one PR at a time: the `events` atomic in des/event_queue.cpp,
// the `lp_solves`/`lp_iterations` pair in lp/simplex.cpp, and flat scalar
// columns in BENCH_*.json. This header unifies them behind one registry of
// named instruments:
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
// Hot-path policy mirrors the event counter's: simulators record into a
// plain LocalHistogram (one array increment per sample, no atomics) and
// merge it into the shared registry histogram once per replication.
// Callers that need an instrument repeatedly cache the reference returned
// by counter()/histogram(); the registry lookup itself takes a mutex and is
// not for hot loops.
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
#include <string>
#include <utility>

namespace stosched::obs {

/// Monotone event tally. Thread-safe; relaxed adds (commutative sums, so
/// totals never depend on the thread schedule).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

// ---- deterministic log₂ bucketing ------------------------------------------
// Log-linear layout, 8 sub-buckets per octave (relative resolution 2^(1/8),
// ~9%): bucket (e, s) covers [2^e·(1+s/8), 2^e·(1+(s+1)/8)) for exponents
// e in [kMinExp, kMaxExp). Index 0 is the underflow bucket (v ≤ 0,
// subnormals, and everything below 2^kMinExp ≈ 9.5e-7 — "effectively zero"
// at queueing time scales); the last index is the overflow bucket
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
/// assert bit-identity across OpenMP schedules directly.
struct HistogramSnapshot {
  std::array<std::uint64_t, hist::kBuckets> counts{};
  std::uint64_t total = 0;

  bool operator==(const HistogramSnapshot&) const = default;

  /// Nearest-rank percentile (q in (0, 1]): the upper edge of the bucket
  /// holding the ceil(q·total)-th smallest sample — deterministic and
  /// conservative (never below the true percentile by more than one bucket
  /// width, ~9% relative). The underflow bucket reports 0 (zero waits are
  /// zero, not 2^kMinExp) and the overflow bucket its lower edge, so the
  /// result is always finite. Returns 0 when the histogram is empty.
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
/// one of these inside a simulator and merge() it into the shared registry
/// histogram once per replication — the same flush-don't-contend pattern
/// as the event queues' pop counters.
class LocalHistogram {
 public:
  void record(double v) noexcept {
    ++counts_[hist::bucket_index(v)];
    ++total_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::array<std::uint64_t, hist::kBuckets>& counts()
      const noexcept {
    return counts_;
  }
  void clear() noexcept {
    counts_.fill(0);
    total_ = 0;
  }

 private:
  std::array<std::uint64_t, hist::kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Shared histogram: relaxed-atomic bucket counts, written by merge() (one
/// fetch_add per nonzero bucket per replication).
class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void merge(const LocalHistogram& local) noexcept {
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
    return s;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::array<std::atomic<std::uint64_t>, hist::kBuckets> counts_{};
};

// ---- registry --------------------------------------------------------------
// Process-wide, name-keyed, find-or-create. Returned references are stable
// for the process lifetime (instruments are never destroyed). Lookup takes
// a mutex: resolve once, cache the reference.

Counter& counter(const std::string& name);
Histogram& histogram(const std::string& name);

/// Read a counter without creating it: 0 when the name was never
/// registered. This is what bench_common::finish uses, so a bench that
/// popped no events or solved no LPs registers nothing.
std::uint64_t counter_value(const std::string& name) noexcept;

/// Snapshot a histogram without creating it: empty when never registered.
HistogramSnapshot histogram_snapshot(const std::string& name) noexcept;

/// The two cross-simulator tail histograms every event-driven simulator
/// merges into (post-warmup per-visit waiting time; per-job time in
/// system). bench_common::finish turns them into the wait_p50..p999 /
/// sojourn_p50..p999 columns of BENCH_*.json.
Histogram& wait_time_histogram();
Histogram& sojourn_time_histogram();

}  // namespace stosched::obs
