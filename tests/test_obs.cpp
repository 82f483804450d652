// test_obs.cpp — the observability subsystem (src/obs/).
//
// Three fronts:
//   * histogram determinism: the bucket of a value is exact (boundary
//     values land where the layout says), and shared-histogram merges are
//     commutative — the snapshot after an OpenMP fan-out is bit-identical
//     to a serial fill, whatever OMP_NUM_THREADS is (1 and 8 in CI);
//   * registry semantics: find-or-create stability, non-creating reads,
//     and the process counters ("events", "lp_solves", "lp_iterations")
//     that the simulators and LP engines write through their flush hooks;
//   * provenance: every build fact is populated.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "des/event_queue.hpp"
#include "experiment/engine.hpp"
#include "lp/simplex.hpp"
#include "obs/provenance.hpp"

namespace stosched {
namespace {

// ---- bucket layout ---------------------------------------------------------

TEST(HistBucketTest, SpecialValuesLandInUnderflow) {
  EXPECT_EQ(obs::hist::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::hist::bucket_index(-1.5), 0u);
  EXPECT_EQ(obs::hist::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(obs::hist::bucket_index(1e-300), 0u);  // below 2^kMinExp
}

TEST(HistBucketTest, OverflowCatchesHugeValues) {
  EXPECT_EQ(obs::hist::bucket_index(1e13), obs::hist::kBuckets - 1);
  EXPECT_EQ(obs::hist::bucket_index(
                std::numeric_limits<double>::infinity()),
            obs::hist::kBuckets - 1);
}

TEST(HistBucketTest, ExactBoundaryValuesLandInTheirOwnBucket) {
  // A bucket's inclusive lower edge maps to that bucket; one ulp below
  // maps to the previous one. Scan a swath of the layout.
  for (std::size_t i = 1; i + 1 < obs::hist::kBuckets; i += 37) {
    const double lo = obs::hist::bucket_lower(i);
    EXPECT_EQ(obs::hist::bucket_index(lo), i) << "lower edge of bucket " << i;
    const double below = std::nextafter(lo, 0.0);
    EXPECT_EQ(obs::hist::bucket_index(below), i - 1)
        << "one ulp below bucket " << i;
  }
}

TEST(HistBucketTest, PowersOfTwoStartAnOctave) {
  // 2^e has sub-bucket 0 and v in [2^e, 2^e (1 + 1/8)).
  const std::size_t i1 = obs::hist::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(obs::hist::bucket_lower(i1), 1.0);
  EXPECT_DOUBLE_EQ(obs::hist::bucket_upper(i1), 1.125);
  const std::size_t i2 = obs::hist::bucket_index(2.0);
  EXPECT_EQ(i2, i1 + obs::hist::kSubBuckets);
}

TEST(HistBucketTest, IndexIsMonotoneInValue) {
  double v = 1e-7;
  std::size_t prev = obs::hist::bucket_index(v);
  while (v < 1e13) {
    v *= 1.05;
    const std::size_t i = obs::hist::bucket_index(v);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

// ---- percentiles -----------------------------------------------------------

TEST(HistogramTest, PercentilesAreBucketUpperBounds) {
  obs::LocalHistogram h;
  // 90 samples in the bucket of 1.0, 10 in the bucket of 100.0.
  for (int i = 0; i < 90; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(100.0);
  obs::Histogram shared("test_pct");
  shared.merge(h);
  const obs::HistogramSnapshot s = shared.snapshot();
  EXPECT_EQ(s.total, 100u);
  const double b1 = obs::hist::bucket_upper(obs::hist::bucket_index(1.0));
  const double b100 = obs::hist::bucket_upper(obs::hist::bucket_index(100.0));
  EXPECT_DOUBLE_EQ(s.percentile(0.50), b1);
  EXPECT_DOUBLE_EQ(s.percentile(0.90), b1);   // rank 90 is the last 1.0
  EXPECT_DOUBLE_EQ(s.percentile(0.99), b100);
  EXPECT_DOUBLE_EQ(s.percentile(0.999), b100);
}

TEST(HistogramTest, EmptySnapshotReportsZero) {
  const obs::HistogramSnapshot s;
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.percentile(0.99), 0.0);
}

TEST(HistogramTest, ZeroWaitMassReportsZero) {
  // Ranks that fall in the underflow bucket (zero waits, and anything below
  // 2^kMinExp) report 0, not the bucket's upper edge 2^-20.
  obs::LocalHistogram h;
  for (int i = 0; i < 60; ++i) h.record(0.0);
  for (int i = 0; i < 40; ++i) h.record(1.0);
  obs::Histogram shared("test_pct_zero");
  shared.merge(h);
  const obs::HistogramSnapshot s = shared.snapshot();
  EXPECT_EQ(s.percentile(0.50), 0.0);
  EXPECT_EQ(s.percentile(0.60), 0.0);  // rank 60 is the last zero
  EXPECT_DOUBLE_EQ(s.percentile(0.61),
                   obs::hist::bucket_upper(obs::hist::bucket_index(1.0)));
}

TEST(HistogramTest, PercentileIsAlwaysFinite) {
  obs::LocalHistogram h;
  h.record(1e300);  // overflow bucket
  obs::Histogram shared("test_pct_inf");
  shared.merge(h);
  EXPECT_TRUE(std::isfinite(shared.snapshot().percentile(0.999)));
}

// ---- merge determinism -----------------------------------------------------

TEST(HistogramTest, MergeIsCommutative) {
  obs::LocalHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(0.1 * i);
  for (int i = 0; i < 50; ++i) b.record(3.0 * i);
  obs::Histogram ab("test_merge_ab"), ba("test_merge_ba");
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.snapshot(), ba.snapshot());
}

TEST(HistogramTest, SnapshotBitIdenticalAcrossOmpSchedules) {
  // Fill a registry histogram from inside the OpenMP replication driver —
  // whatever OMP_NUM_THREADS is (the CI determinism gate runs this binary
  // under 1 and 8), the commutative bucket sums must equal a serial fill.
  obs::Histogram& shared = obs::histogram("test_hist_omp");
  constexpr std::size_t kReps = 256;
  auto sample = [](std::size_t r, int i) {
    return 0.37 * static_cast<double>((r * 31 + static_cast<std::size_t>(i) * 7) % 97) + 1e-3;
  };
  experiment::run_fixed(kReps, 20260807, 1,
                        [&](std::size_t r, Rng& rng, std::span<double> out) {
                          (void)rng;
                          obs::LocalHistogram local;
                          for (int i = 0; i < 64; ++i)
                            local.record(sample(r, i));
                          shared.merge(local);
                          out[0] = 0.0;
                        });
  obs::LocalHistogram serial;
  for (std::size_t r = 0; r < kReps; ++r)
    for (int i = 0; i < 64; ++i) serial.record(sample(r, i));
  const obs::HistogramSnapshot got = shared.snapshot();
  EXPECT_EQ(got.total, serial.total());
  EXPECT_EQ(got.counts, serial.counts());
}

// ---- registry --------------------------------------------------------------

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  obs::Counter& a = obs::counter("test_reg_counter");
  obs::Counter& b = obs::counter("test_reg_counter");
  EXPECT_EQ(&a, &b);
  a.add(3);
  a.add();
  EXPECT_EQ(b.value(), 4u);
  EXPECT_EQ(obs::counter_value("test_reg_counter"), 4u);
}

TEST(RegistryTest, NonCreatingReadsOfAbsentNames) {
  EXPECT_EQ(obs::counter_value("test_never_registered"), 0u);
  EXPECT_EQ(obs::histogram_snapshot("test_never_registered").total, 0u);
}

// ---- process counters ------------------------------------------------------

TEST(MigrationTest, EventCounterBackedByRegistry) {
  const std::uint64_t before = obs::counter_value("events");
  add_process_events(42);
  EXPECT_EQ(obs::counter_value("events"), before + 42);
}

TEST(MigrationTest, LpCountersBackedByRegistry) {
  const std::uint64_t solves = obs::counter_value("lp_solves");
  const std::uint64_t iterations = obs::counter_value("lp_iterations");
  lp::add_process_lp_solve(7);
  EXPECT_EQ(obs::counter_value("lp_solves"), solves + 1);
  EXPECT_EQ(obs::counter_value("lp_iterations"), iterations + 7);
}

// ---- provenance ------------------------------------------------------------

TEST(ProvenanceTest, BuildFactsArePopulated) {
  const obs::BuildInfo b = obs::build_info();
  EXPECT_FALSE(b.git_sha.empty());
  EXPECT_FALSE(b.compiler.empty());
  EXPECT_FALSE(b.build_type.empty());
  EXPECT_FALSE(b.sanitizers.empty());  // "none" when off
  EXPECT_GE(b.omp_max_threads, 1);
}

}  // namespace
}  // namespace stosched
