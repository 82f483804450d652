// test_obs.cpp — the observability subsystem (src/obs/).
//
// Three fronts:
//   * histogram determinism: the bucket of a value is exact (boundary
//     values land where the layout says), NaN and negative samples are
//     tallied apart from the buckets, and shared-histogram merges are
//     commutative — the snapshot after an OpenMP fan-out is bit-identical
//     to a serial fill, whatever OMP_NUM_THREADS is;
//   * the five process-wide instruments: reads by name track the typed
//     instruments the simulators and LP engines record into, the record_*
//     calls honour the thread's telemetry sink, and unknown names read as
//     0 and empty;
//   * provenance: every build fact is populated.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "dist/distribution.hpp"
#include "experiment/engine.hpp"
#include "lp/simplex.hpp"
#include "obs/provenance.hpp"
#include "online/simulate.hpp"
#include "queueing/mg1.hpp"
#include "util/rng.hpp"

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
  obs::Histogram shared;
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
  obs::Histogram shared;
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
  obs::Histogram shared;
  shared.merge(h);
  EXPECT_TRUE(std::isfinite(shared.snapshot().percentile(0.999)));
}

// ---- invalid samples -------------------------------------------------------

TEST(HistogramTest, NanAndNegativeSamplesCountAsInvalid) {
  obs::LocalHistogram h;
  h.record(std::nan(""));
  h.record(-1.0);
  h.record(2.0);
  EXPECT_EQ(h.invalid(), 2u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.counts()[0], 0u);  // not passed off as zero waits
  obs::Histogram shared;
  shared.merge(h);
  const obs::HistogramSnapshot s = shared.snapshot();
  EXPECT_EQ(s.invalid, 2u);
  EXPECT_EQ(s.total, 1u);
  // Percentiles cover the valid sample only.
  EXPECT_DOUBLE_EQ(s.percentile(0.01),
                   obs::hist::bucket_upper(obs::hist::bucket_index(2.0)));
}

TEST(HistogramTest, SignedZerosAreZeroWaits) {
  obs::LocalHistogram h;
  h.record(0.0);
  h.record(-0.0);
  EXPECT_EQ(h.invalid(), 0u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.counts()[0], 2u);
}

TEST(HistogramTest, MergeAddsInvalidTallies) {
  obs::LocalHistogram a, b;
  a.record(-3.0);
  b.record(std::nan(""));
  b.record(-0.5);
  obs::Histogram shared;
  shared.merge(a);
  shared.merge(b);
  const obs::HistogramSnapshot s = shared.snapshot();
  EXPECT_EQ(s.invalid, 3u);
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.percentile(0.5), 0.0);
}

// ---- merge determinism -----------------------------------------------------

TEST(HistogramTest, MergeIsCommutative) {
  obs::LocalHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(0.1 * i);
  for (int i = 0; i < 50; ++i) b.record(3.0 * i);
  obs::Histogram ab, ba;
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.snapshot(), ba.snapshot());
}

TEST(HistogramTest, SnapshotBitIdenticalAcrossOmpSchedules) {
  // Fill a shared histogram from inside the OpenMP replication driver —
  // whatever OMP_NUM_THREADS is, the commutative bucket sums must equal a
  // serial fill.
  obs::Histogram shared;
  constexpr std::size_t kReps = 256;
  auto sample = [](std::size_t r, int i) {
    return 0.37 * static_cast<double>((r * 31 + static_cast<std::size_t>(i) * 7) % 97) + 1e-3;
  };
  experiment::EngineOptions opt;
  opt.seed = 20260807;
  opt.max_replications = kReps;
  experiment::run(opt, 1, [&](std::size_t r, Rng& rng, std::span<double> out) {
    (void)rng;
    obs::LocalHistogram local;
    for (int i = 0; i < 64; ++i) local.record(sample(r, i));
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

// ---- the five instruments ---------------------------------------------------

TEST(RegistryTest, NonCreatingReadsOfAbsentNames) {
  EXPECT_EQ(obs::counter_value("test_never_registered"), 0u);
  EXPECT_EQ(obs::histogram_snapshot("test_never_registered").total, 0u);
}

/// Every name-keyed read equals the typed instrument it names.
void expect_names_match_instruments() {
  EXPECT_EQ(obs::counter_value("events"), obs::events_counter().value());
  EXPECT_EQ(obs::counter_value("lp_solves"),
            obs::lp_solves_counter().value());
  EXPECT_EQ(obs::counter_value("lp_iterations"),
            obs::lp_iterations_counter().value());
  EXPECT_EQ(obs::histogram_snapshot("wait_time"),
            obs::wait_time_histogram().snapshot());
  EXPECT_EQ(obs::histogram_snapshot("sojourn_time"),
            obs::sojourn_time_histogram().snapshot());
}

TEST(RegistryTest, NamedReadsMoveWithTypedInstruments) {
  // bench_common::finish and perfbench read all five instruments by name.
  expect_names_match_instruments();

  const std::uint64_t events0 = obs::counter_value("events");
  const std::uint64_t waits0 = obs::histogram_snapshot("wait_time").total;
  queueing::SimOptions sim;
  sim.horizon = 200.0;
  sim.warmup = 20.0;
  sim.priority = {0};
  Rng rng(17);
  queueing::simulate_mg1({{0.5, exponential_dist(1.0)}}, sim, rng);
  EXPECT_GT(obs::counter_value("events"), events0);
  EXPECT_GT(obs::histogram_snapshot("wait_time").total, waits0);
  expect_names_match_instruments();

  const std::uint64_t sojourns0 =
      obs::histogram_snapshot("sojourn_time").total;
  const auto env = online::identical_machines(1, 1);
  const std::vector<online::JobType> types{
      {1.0, 1.0, deterministic_dist(1.0)}};
  online::OnlineInstance inst;
  inst.push_back({0.0, 0, 1.0, 1.0, 1.0});
  inst.push_back({0.5, 0, 1.0, 1.0, 1.0});
  online::simulate_online(inst, env, types, *online::greedy_wsept_policy(),
                          rng);
  EXPECT_EQ(obs::histogram_snapshot("sojourn_time").total, sojourns0 + 2);
  expect_names_match_instruments();

  const std::uint64_t solves0 = obs::counter_value("lp_solves");
  const std::uint64_t iterations0 = obs::counter_value("lp_iterations");
  auto p = lp::Problem::maximize({1.0, 1.0});
  p.subject_to({1.0, 2.0}, lp::Sense::kLe, 4.0);
  p.subject_to({3.0, 1.0}, lp::Sense::kLe, 6.0);
  const lp::Solution sol = lp::solve(p, lp::Solver::kRevised);
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(obs::counter_value("lp_solves"), solves0 + 1);
  EXPECT_EQ(obs::counter_value("lp_iterations"),
            iterations0 + sol.iterations);
  expect_names_match_instruments();
}

TEST(RegistryTest, RecordCallsFollowTheThreadSink) {
  obs::LocalHistogram local;
  local.record(2.0);
  local.record(-1.0);  // invalid
  const auto read_all = [] {
    return std::tuple{obs::counter_value("events"),
                      obs::counter_value("lp_solves"),
                      obs::counter_value("lp_iterations"),
                      obs::histogram_snapshot("wait_time"),
                      obs::histogram_snapshot("sojourn_time")};
  };
  const auto record_all = [&] {
    obs::record_events(5);
    obs::record_lp_solve(7);
    obs::record_wait(local);
    obs::record_sojourn(local);
    obs::record_sojourn(local);
  };

  // With a sink installed, every call lands in it and nothing else moves.
  const auto before = read_all();
  obs::Telemetry sink;
  ASSERT_EQ(obs::set_telemetry_sink(&sink), nullptr);
  EXPECT_EQ(obs::telemetry_sink(), &sink);
  record_all();
  EXPECT_EQ(obs::set_telemetry_sink(nullptr), &sink);
  EXPECT_EQ(read_all(), before);
  EXPECT_EQ(sink.events, 5u);
  EXPECT_EQ(sink.lp_solves, 1u);
  EXPECT_EQ(sink.lp_iterations, 7u);
  EXPECT_EQ(sink.wait.total(), 1u);
  EXPECT_EQ(sink.wait.invalid(), 1u);
  EXPECT_EQ(sink.sojourn.total(), 2u);
  EXPECT_EQ(sink.sojourn.invalid(), 2u);
  EXPECT_EQ(sink.sojourn.counts()[obs::hist::bucket_index(2.0)], 2u);

  // Without one, the same calls land in the instruments.
  record_all();
  const auto direct = read_all();
  EXPECT_EQ(std::get<0>(direct), std::get<0>(before) + 5);
  EXPECT_EQ(std::get<1>(direct), std::get<1>(before) + 1);
  EXPECT_EQ(std::get<2>(direct), std::get<2>(before) + 7);
  EXPECT_EQ(std::get<3>(direct).total, std::get<3>(before).total + 1);
  EXPECT_EQ(std::get<3>(direct).invalid, std::get<3>(before).invalid + 1);
  EXPECT_EQ(std::get<4>(direct).total, std::get<4>(before).total + 2);
  EXPECT_EQ(std::get<4>(direct).invalid, std::get<4>(before).invalid + 2);

  // Committing the sink records it as the calls did, into the
  // instruments, or into the sink installed on the committing thread.
  obs::Telemetry outer;
  obs::set_telemetry_sink(&outer);
  obs::commit(sink);
  obs::set_telemetry_sink(nullptr);
  EXPECT_EQ(read_all(), direct);
  EXPECT_EQ(outer.events, sink.events);
  EXPECT_EQ(outer.lp_iterations, sink.lp_iterations);
  EXPECT_EQ(outer.sojourn.counts(), sink.sojourn.counts());
  obs::commit(sink);
  const auto committed = read_all();
  EXPECT_EQ(std::get<0>(committed), std::get<0>(direct) + 5);
  EXPECT_EQ(std::get<1>(committed), std::get<1>(direct) + 1);
  EXPECT_EQ(std::get<2>(committed), std::get<2>(direct) + 7);
  EXPECT_EQ(std::get<3>(committed).total, std::get<3>(direct).total + 1);
  EXPECT_EQ(std::get<4>(committed).total, std::get<4>(direct).total + 2);
  EXPECT_EQ(std::get<4>(committed).invalid, std::get<4>(direct).invalid + 2);
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
