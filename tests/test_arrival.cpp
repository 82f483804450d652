// Tests for dist/arrival.hpp — the pluggable arrival processes — and their
// integration with the queueing simulators:
//   * closed-form rate/burstiness contracts (MMPP stationary rate, batch
//     weighting, time-scaling invariance);
//   * the bit-identity regression: renewal-with-exponential (and the
//     Poisson-default construction path) reproduce the pre-refactor
//     simulator draws exactly on a fixed seed;
//   * CRN under MMPP: policy arms replaying the same substreams see the
//     same bursty workload, enforced as a >= 2x paired-variance cut.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "experiment/adapters.hpp"
#include "experiment/engine.hpp"
#include "experiment/scenario.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1_analytic.hpp"
#include "queueing/network.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stosched {
namespace {

using queueing::ClassSpec;

// ---------------------------------------------------------------------------
// Process-level contracts.
// ---------------------------------------------------------------------------

TEST(Arrival, PoissonAndRenewalExponentialGapsAreBitIdentical) {
  // The renewal process over an exponential law must consume the substream
  // exactly like the dedicated Poisson path (one rng.exponential per gap).
  const auto poisson = poisson_arrivals(0.7);
  const auto renewal = renewal_arrivals(exponential_dist(0.7));
  const Rng master(2026);
  Rng a = master.stream(3), b = master.stream(3);
  ArrivalState sa, sb;
  for (int i = 0; i < 1000; ++i)
    ASSERT_DOUBLE_EQ(poisson->next_gap(sa, a), renewal->next_gap(sb, b));
  EXPECT_DOUBLE_EQ(poisson->rate(), renewal->rate());
  EXPECT_DOUBLE_EQ(poisson->burstiness(), 1.0);
  EXPECT_NEAR(renewal->burstiness(), 1.0, 1e-12);
}

TEST(Arrival, MmppStationaryRateMatchesClosedForm) {
  // pi0 = sw10 / (sw01 + sw10) = 2/3, so rate = 2/3 * 3 + 1/3 * 0.5.
  const auto p = mmpp_arrivals(3.0, 0.5, 0.2, 0.4);
  const double expected = (2.0 / 3.0) * 3.0 + (1.0 / 3.0) * 0.5;
  EXPECT_NEAR(p->rate(), expected, 1e-12);

  // Long-run empirical arrival count per unit time converges to rate().
  ArrivalState st;
  Rng rng(404);
  double t = 0.0;
  std::size_t count = 0;
  while (t < 40000.0) {
    t += p->next_gap(st, rng);
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / t, p->rate(), 0.02 * p->rate());
}

TEST(Arrival, MmppGapReplayIsDeterministicPerSubstream) {
  // The CRN foundation: identical substream + state => identical epochs,
  // independent of what any consumer does in between.
  const auto p = bursty_arrivals(1.3, 7.0);
  const Rng master(7);
  Rng a = master.stream(11), b = master.stream(11);
  ArrivalState sa, sb;
  for (int i = 0; i < 2000; ++i)
    ASSERT_DOUBLE_EQ(p->next_gap(sa, a), p->next_gap(sb, b));
}

TEST(Arrival, BurstyFamilyHitsRateAndBurstiness) {
  const auto p = bursty_arrivals(0.8, 9.0);
  EXPECT_NEAR(p->rate(), 0.8, 1e-12);
  EXPECT_NEAR(p->burstiness(), 9.0, 1e-12);
  EXPECT_STREQ(p->kind(), "mmpp");
  // Time scaling moves the rate and preserves the burstiness exactly.
  const auto scaled = p->scaled(1.75);
  EXPECT_NEAR(scaled->rate(), 1.4, 1e-12);
  EXPECT_NEAR(scaled->burstiness(), 9.0, 1e-12);
}

TEST(Arrival, BurstyEmpiricalDispersionExceedsPoisson) {
  // Counts in fixed windows: the bursty stream's index of dispersion must
  // be far above 1 (Poisson) and in the rough vicinity of the asymptotic
  // target — the whole point of the MAP family.
  const auto p = bursty_arrivals(1.0, 8.0);
  ArrivalState st;
  Rng rng(99);
  const double window = 200.0;  // >> the 1/sw ~ 7 phase time scale
  RunningStat counts;
  double t = 0.0, next = p->next_gap(st, rng);
  for (int w = 0; w < 3000; ++w) {
    const double end = t + window;
    std::size_t n = 0;
    while (t + next <= end) {
      t += next;
      ++n;
      next = p->next_gap(st, rng);
    }
    next -= end - t;
    t = end;
    counts.push(static_cast<double>(n));
  }
  const double idc = counts.variance() / counts.mean();
  EXPECT_GT(idc, 4.0);
  EXPECT_LT(idc, 12.0);
  EXPECT_NEAR(counts.mean(), window * p->rate(), 0.05 * window);
}

TEST(Arrival, BatchProcessesWeightRateAndSizes) {
  const auto fixed = batch_arrivals(deterministic_dist(2.0), 3);
  EXPECT_NEAR(fixed->rate(), 1.5, 1e-12);
  EXPECT_NEAR(fixed->mean_batch(), 3.0, 1e-12);
  EXPECT_STREQ(fixed->kind(), "batch");
  // Deterministic epochs and fixed batches: zero count dispersion.
  EXPECT_NEAR(fixed->burstiness(), 0.0, 1e-12);
  ArrivalState st;
  Rng rng(1);
  EXPECT_EQ(fixed->batch_size(st, rng), 3u);

  const auto geo = batch_arrivals_geometric(exponential_dist(1.0), 2.5);
  EXPECT_NEAR(geo->rate(), 2.5, 1e-12);
  RunningStat sizes;
  for (int i = 0; i < 200000; ++i)
    sizes.push(static_cast<double>(geo->batch_size(st, rng)));
  EXPECT_NEAR(sizes.mean(), 2.5, 0.02);
  // Geometric on {1,2,...} with mean b: Var = b(b-1).
  EXPECT_NEAR(sizes.variance(), 2.5 * 1.5, 0.1);
  // Batch over Poisson base: IDC = Var B / E B + E B.
  EXPECT_NEAR(geo->burstiness(), 1.5 + 2.5, 1e-12);
}

TEST(Arrival, ScaledRenewalPreservesInterarrivalScv) {
  const auto p = renewal_arrivals(with_mean_scv(0.5, 4.0));
  EXPECT_NEAR(p->rate(), 2.0, 1e-9);
  EXPECT_NEAR(p->burstiness(), 4.0, 1e-9);
  const auto scaled = p->scaled(3.0);
  EXPECT_NEAR(scaled->rate(), 6.0, 1e-9);
  EXPECT_NEAR(scaled->burstiness(), 4.0, 1e-9);
}

TEST(Arrival, ScaledComposedTwiceMatchesOneStepScaling) {
  // scaled() is a pure time rescaling, so composing two rescalings must be
  // the same as one combined rescaling: rate multiplies through, the
  // correlation structure (burstiness) and the process kind are untouched.
  const std::vector<ArrivalPtr> processes{
      poisson_arrivals(0.7),
      renewal_arrivals(with_mean_scv(0.5, 4.0)),
      bursty_arrivals(0.8, 9.0),
      batch_arrivals_geometric(exponential_dist(1.0), 2.5)};
  for (const auto& p : processes) {
    const auto twice = p->scaled(2.0)->scaled(3.0);
    const auto once = p->scaled(6.0);
    EXPECT_NEAR(twice->rate(), once->rate(), 1e-9 * once->rate())
        << p->kind();
    EXPECT_NEAR(twice->rate(), 6.0 * p->rate(), 1e-9 * p->rate());
    EXPECT_NEAR(twice->burstiness(), p->burstiness(), 1e-9) << p->kind();
    EXPECT_STREQ(twice->kind(), p->kind());
    // Sample-path check: long-run empirical rate of the composed process.
    ArrivalState st;
    Rng rng(515);
    double t = 0.0;
    double count = 0.0;
    while (t < 4000.0) {
      t += twice->next_gap(st, rng);
      count += static_cast<double>(twice->batch_size(st, rng));
    }
    EXPECT_NEAR(count / t, twice->rate(), 0.05 * twice->rate()) << p->kind();
  }
}

TEST(Arrival, InvalidParametersThrow) {
  EXPECT_THROW(poisson_arrivals(0.0), std::invalid_argument);
  EXPECT_THROW(renewal_arrivals(nullptr), std::invalid_argument);
  EXPECT_THROW(mmpp_arrivals(1.0, 1.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(mmpp_arrivals(0.0, 0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(bursty_arrivals(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(batch_arrivals(exponential_dist(1.0), 0),
               std::invalid_argument);
  EXPECT_THROW(batch_arrivals_geometric(exponential_dist(1.0), 0.5),
               std::invalid_argument);
  EXPECT_THROW(poisson_arrivals(1.0)->scaled(0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Simulator integration.
// ---------------------------------------------------------------------------

std::vector<ClassSpec> two_class_mix() {
  return {{0.25, exponential_dist(1.0), 1.0},
          {0.20, erlang_dist(2, 3.0), 2.5}};
}

TEST(ArrivalSim, RenewalExponentialBitIdenticalToPoissonPathInMg1) {
  // The acceptance regression: replacing the arrival_rate field with an
  // explicit renewal-over-exponential process must reproduce the old
  // Poisson sample path bit-for-bit (identical draws, identical metrics).
  const auto classes = two_class_mix();
  auto renewal_classes = classes;
  for (auto& c : renewal_classes) {
    c.arrival = renewal_arrivals(exponential_dist(c.arrival_rate));
    c.arrival_rate = 0.0;  // must be ignored once a process is attached
  }
  queueing::SimOptions opt;
  opt.horizon = 4000.0;
  opt.warmup = 400.0;
  opt.discipline = queueing::Discipline::kPriorityNonPreemptive;
  opt.priority = {1, 0};
  Rng r1(42), r2(42);
  const auto a = queueing::simulate_mg1(classes, opt, r1);
  const auto b = queueing::simulate_mg1(renewal_classes, opt, r2);
  EXPECT_DOUBLE_EQ(a.cost_rate, b.cost_rate);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  for (std::size_t j = 0; j < classes.size(); ++j) {
    EXPECT_EQ(a.per_class[j].completions, b.per_class[j].completions);
    EXPECT_DOUBLE_EQ(a.per_class[j].mean_in_system,
                     b.per_class[j].mean_in_system);
    EXPECT_DOUBLE_EQ(a.per_class[j].mean_wait, b.per_class[j].mean_wait);
    EXPECT_DOUBLE_EQ(a.per_class[j].mean_sojourn,
                     b.per_class[j].mean_sojourn);
  }
}

TEST(ArrivalSim, RenewalExponentialBitIdenticalToPoissonPathInNetwork) {
  auto base = queueing::lu_kumar_network(1.0, 0.01, 2.0 / 3.0, 0.01,
                                         2.0 / 3.0, /*bad_priority=*/true);
  auto renewal = base;
  renewal.classes[0].arrival =
      renewal_arrivals(exponential_dist(renewal.classes[0].arrival_rate));
  Rng r1(7), r2(7);
  const auto a = queueing::simulate_network(base, 4000.0, 20, r1);
  const auto b = queueing::simulate_network(renewal, 4000.0, 20, r2);
  EXPECT_DOUBLE_EQ(a.mean_total, b.mean_total);
  EXPECT_DOUBLE_EQ(a.final_total, b.final_total);
  EXPECT_DOUBLE_EQ(a.growth_rate, b.growth_rate);
}

TEST(ArrivalSim, EffectiveRatesDriveTrafficIntensity) {
  std::vector<ClassSpec> classes{
      {0.0, exponential_dist(2.0), 1.0, bursty_arrivals(0.6, 5.0)},
      {0.3, exponential_dist(1.0), 1.0}};
  EXPECT_NEAR(queueing::class_arrival_rate(classes[0]), 0.6, 1e-12);
  EXPECT_NEAR(queueing::traffic_intensity(classes), 0.6 * 0.5 + 0.3, 1e-12);
}

TEST(ArrivalSim, Mg1DeterministicUnderMmpp) {
  auto classes = two_class_mix();
  for (auto& c : classes)
    c.arrival = bursty_arrivals(c.arrival_rate, 6.0);
  queueing::SimOptions opt;
  opt.horizon = 2000.0;
  opt.warmup = 200.0;
  opt.discipline = queueing::Discipline::kFcfs;
  Rng r1(11), r2(11);
  const auto a = queueing::simulate_mg1(classes, opt, r1);
  const auto b = queueing::simulate_mg1(classes, opt, r2);
  EXPECT_DOUBLE_EQ(a.cost_rate, b.cost_rate);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(ArrivalSim, Mg1ThroughputMatchesBatchWeightedRate) {
  // A stable queue completes what arrives: per-class throughput must match
  // the batch-weighted process rate, pinning the batch fan-out in the
  // simulator.
  std::vector<ClassSpec> classes{
      {0.0, exponential_dist(4.0), 1.0,
       batch_arrivals_geometric(exponential_dist(0.3), 2.0)}};
  queueing::SimOptions opt;
  opt.horizon = 60000.0;
  opt.warmup = 2000.0;
  opt.discipline = queueing::Discipline::kFcfs;
  Rng rng(5);
  const auto res = queueing::simulate_mg1(classes, opt, rng);
  EXPECT_NEAR(res.per_class[0].throughput, 0.6, 0.03);
  EXPECT_NEAR(res.utilization, 0.6 / 4.0, 0.01);
}

TEST(ArrivalSim, CrnCutsDifferenceVarianceUnderMmpp) {
  // The CRN acceptance regression under correlated input: comparing c-mu
  // against FCFS on the bursty T9 workload, common random numbers must cut
  // the variance of the cost-rate difference by >= 2x versus independent
  // streams — i.e. both arms replay the identical MMPP arrival epochs.
  using namespace stosched::experiment;
  QueueScenario s = queue_scenario("t9-bursty");
  s.horizon = 1500.0;
  s.warmup = 150.0;
  const QueuePolicy fcfs{"fcfs", queueing::Discipline::kFcfs, {}};
  const QueuePolicy cmu{"c-mu", queueing::Discipline::kPriorityNonPreemptive,
                        queueing::cmu_order(s.classes)};
  EngineOptions opt;
  opt.seed = 2027;
  opt.max_replications = 128;
  const auto crn = compare_queue_policies(s, {fcfs, cmu}, opt,
                                          Pairing::kCommonRandomNumbers);
  const auto ind = compare_queue_policies(s, {fcfs, cmu}, opt,
                                          Pairing::kIndependentStreams);
  const double var_crn = crn.diff[0][0].variance();
  const double var_ind = ind.diff[0][0].variance();
  ASSERT_GT(var_ind, 0.0);
  EXPECT_LE(2.0 * var_crn, var_ind)
      << "CRN variance " << var_crn << " vs independent " << var_ind;
  EXPECT_NEAR(crn.diff[0][0].mean(), ind.diff[0][0].mean(),
              4.0 * (crn.diff[0][0].sem() + ind.diff[0][0].sem()));
}

// ---------------------------------------------------------------------------
// CachedGapSampler: the simulators' per-class dispatch cache must replay
// the virtual next_gap path bit-for-bit for every process kind.
// ---------------------------------------------------------------------------

TEST(CachedGapSampler, FlatPathIsBitIdenticalForStatelessProcesses) {
  const ArrivalPtr processes[] = {
      poisson_arrivals(0.7),
      renewal_arrivals(uniform_dist(0.5, 1.5)),
      renewal_arrivals(pareto_dist(1.0, 2.5)),  // via virtual-fallback case
      batch_arrivals(erlang_dist(2, 3.0), 4),
  };
  for (const auto& p : processes) {
    const CachedGapSampler cached(p.get());
    Rng virt_rng(314);
    Rng flat_rng(314);
    ArrivalState virt_st;
    ArrivalState flat_st;
    for (int i = 0; i < 500; ++i) {
      const double expected = p->next_gap(virt_st, virt_rng);
      const double got = cached.next_gap(flat_st, flat_rng);
      ASSERT_EQ(expected, got) << p->kind() << " draw " << i;
    }
    EXPECT_EQ(virt_rng(), flat_rng()) << p->kind();
  }
}

TEST(CachedGapSampler, FastPathCoversExactlyTheStatelessDraws) {
  // Which processes resolve to the flat switch is part of the perf contract:
  // Poisson/renewal/batch epochs are one stateless draw; MMPP gaps depend
  // on the modulating chain and must keep the virtual path.
  EXPECT_TRUE(CachedGapSampler(poisson_arrivals(1.0).get()).flat());
  EXPECT_TRUE(
      CachedGapSampler(renewal_arrivals(deterministic_dist(1.0)).get())
          .flat());
  EXPECT_TRUE(
      CachedGapSampler(batch_arrivals(exponential_dist(1.0), 3).get())
          .flat());
  EXPECT_FALSE(
      CachedGapSampler(mmpp_arrivals(0.5, 4.0, 0.1, 0.4).get()).flat());
}

TEST(CachedGapSampler, MmppVirtualFallbackMatchesDirectCalls) {
  const auto mmpp = mmpp_arrivals(0.5, 4.0, 0.1, 0.4);
  const CachedGapSampler cached(mmpp.get());
  Rng direct_rng(99);
  Rng cached_rng(99);
  ArrivalState direct_st;
  ArrivalState cached_st;
  for (int i = 0; i < 500; ++i)
    ASSERT_EQ(mmpp->next_gap(direct_st, direct_rng),
              cached.next_gap(cached_st, cached_rng));
}

}  // namespace
}  // namespace stosched
