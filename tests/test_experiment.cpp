// Tests for the experiment subsystem: the replication engine (fixed-length,
// sequential-precision and paired/CRN modes), the scenario registry, and the
// adapters that bind policy arms to the simulators (replication, run_policy,
// compare_*_policies).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "experiment/adapters.hpp"
#include "experiment/engine.hpp"
#include "experiment/scenario.hpp"
#include "obs/metrics.hpp"
#include "queueing/mg1_analytic.hpp"

using namespace stosched;
using namespace stosched::experiment;

namespace {

/// Scalar exponential body used by the generic engine tests.
void exp_body(std::size_t, Rng& rng, std::span<double> out) {
  out[0] = rng.exponential(1.0);
}

/// A short-horizon copy of the registered T9 scenario (tests trade CI width
/// for runtime; the workload itself comes from the registry).
QueueScenario short_t9() {
  QueueScenario s = queue_scenario("t9-three-class");
  s.horizon = 1500.0;
  s.warmup = 150.0;
  return s;
}

/// A fixed-length run: exactly `replications`, no stopping rule.
EngineOptions fixed_run(std::size_t replications, std::uint64_t seed) {
  EngineOptions opt;
  opt.seed = seed;
  opt.max_replications = replications;
  return opt;
}

QueuePolicy fcfs_arm() { return {"fcfs", queueing::Discipline::kFcfs, {}}; }

QueuePolicy cmu_arm(const QueueScenario& s) {
  return {"c-mu", queueing::Discipline::kPriorityNonPreemptive,
          queueing::cmu_order(s.classes)};
}

/// The T9 mix under renewal arrivals with interarrival SCV 4: each class
/// keeps its rate, and its interarrival law is the exact two-moment fit.
QueueScenario t9_scv4() {
  QueueScenario s = queue_scenario("t9-three-class");
  for (auto& c : s.classes)
    c.arrival = renewal_arrivals(with_mean_scv(1.0 / c.arrival_rate, 4.0));
  s.name = "t9-scv4";
  return s;
}

/// The Lu–Kumar network with its one external stream (class 0, rate 1)
/// made a bursty MMPP with IDC 9.
NetworkScenario lu_kumar_bursty() {
  NetworkScenario s = network_scenario("lu-kumar");
  s.config.classes[0].arrival = bursty_arrivals(1.0, 9.0);
  s.name = "lu-kumar-bursty";
  return s;
}

/// A Dai–Wang-style re-entrant line: one route visiting stations
/// 0,1,0,1,0, fed at rate 1, with station loads (0.85, 0.9).
NetworkScenario dai_wang_reentrant() {
  NetworkScenario s;
  s.name = "dai-wang-reentrant";
  s.config.num_stations = 2;
  s.config.classes = {{0, 0.1, 1, 1.0},
                      {1, 0.45, 2},
                      {0, 0.1, 3},
                      {1, 0.45, 4},
                      {0, 0.65, queueing::NetworkClass::kExit}};
  return s;
}

}  // namespace

TEST(Engine, FixedRunDeterministicAndCounted) {
  const auto a = run(fixed_run(1000, 99), 1, exp_body);
  const auto b = run(fixed_run(1000, 99), 1, exp_body);
  EXPECT_EQ(a.replications, 1000u);
  EXPECT_TRUE(a.converged);
  EXPECT_DOUBLE_EQ(a.metrics[0].mean(), b.metrics[0].mean());
  EXPECT_DOUBLE_EQ(a.metrics[0].variance(), b.metrics[0].variance());
}

TEST(Engine, FixedRunCountsAreExact) {
  // Pin a fixed run's count/min/max bookkeeping on a known body.
  const auto engine = run(fixed_run(1000, 99), 1, exp_body);
  EXPECT_EQ(engine.metrics[0].count(), 1000u);
  EXPECT_GT(engine.metrics[0].min(), 0.0);
  EXPECT_GT(engine.metrics[0].max(), engine.metrics[0].mean());
}

TEST(Engine, SequentialStoppingHitsRequestedPrecision) {
  EngineOptions opt;
  opt.seed = 7;
  opt.rel_precision = 0.02;
  opt.min_replications = 64;
  opt.batch = 128;
  opt.max_replications = 1 << 20;
  const auto res = run(opt, 1, exp_body);
  ASSERT_TRUE(res.converged);
  const double hw = res.metrics[0].ci_halfwidth();
  EXPECT_LE(hw, opt.rel_precision * std::abs(res.metrics[0].mean()));
  // An exponential CV of 1 needs roughly (1.96/0.02)^2 ~ 9600 replications;
  // the stopping rule should land in that ballpark, not at the cap.
  EXPECT_GT(res.replications, 2000u);
  EXPECT_LT(res.replications, 60000u);
}

TEST(Engine, SequentialStoppingDeterministicInSeedAndPrecision) {
  EngineOptions opt;
  opt.seed = 21;
  opt.rel_precision = 0.05;
  opt.max_replications = 1 << 18;
  const auto a = run(opt, 1, exp_body);
  const auto b = run(opt, 1, exp_body);
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_DOUBLE_EQ(a.metrics[0].mean(), b.metrics[0].mean());
  EXPECT_DOUBLE_EQ(a.metrics[0].variance(), b.metrics[0].variance());

  // Tighter precision keeps all earlier replications (prefix property) and
  // adds more.
  EngineOptions tight = opt;
  tight.rel_precision = 0.02;
  const auto c = run(tight, 1, exp_body);
  EXPECT_GT(c.replications, a.replications);
}

TEST(Engine, StoppingReportsMissWhenCapTooSmall) {
  EngineOptions opt;
  opt.seed = 3;
  opt.rel_precision = 1e-4;  // unreachable within the cap
  opt.max_replications = 512;
  const auto res = run(opt, 1, exp_body);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.replications, 512u);
}

TEST(Engine, TrackedIndexOutOfRangeThrowsAtStopCheck) {
  EngineOptions opt;
  opt.seed = 4;
  opt.rel_precision = 0.05;
  opt.min_replications = 64;
  opt.batch = 64;
  opt.max_replications = 256;
  opt.tracked = {1};  // the body reports one dimension
  EXPECT_THROW(run(opt, 1, exp_body), std::invalid_argument);
  const std::vector<RunningStat> one(1);
  EXPECT_THROW(experiment::detail::precision_met(one, opt),
               std::invalid_argument);
  // A fixed-length run never consults the stopping rule.
  opt.rel_precision = 0.0;
  EXPECT_NO_THROW(run(opt, 1, exp_body));
}

TEST(Engine, ZeroMeanMetricJudgedOnAbsoluteHalfwidth) {
  // |mean| < abs_floor: the target is rel_precision itself, so a constant
  // zero metric converges at the first stop check.
  EngineOptions opt;
  opt.seed = 8;
  opt.rel_precision = 0.02;
  opt.min_replications = 64;
  opt.batch = 16;
  opt.max_replications = 4096;
  const auto zero = run(opt, 1, [](std::size_t, Rng&, std::span<double>) {});
  EXPECT_TRUE(zero.converged);
  EXPECT_EQ(zero.replications, opt.min_replications);

  // A noisy metric far below the floor is precise in absolute terms at 64
  // samples; judged relatively (abs_floor = 0) its half-width is ~25% of
  // the mean, well short of 2%.
  RunningStat tiny;
  Rng rng(3);
  for (int i = 0; i < 64; ++i) tiny.push(1e-12 * rng.exponential(1.0));
  EXPECT_TRUE(experiment::detail::metric_precise(tiny, opt));
  EngineOptions relative = opt;
  relative.abs_floor = 0.0;
  EXPECT_FALSE(experiment::detail::metric_precise(tiny, relative));
}

TEST(Engine, PairedStopWaitsForEveryArmDifference) {
  // Arm 1 differs from arm 0 by a constant (precise at once); arm 2 adds an
  // independent exponential, whose difference needs ~2400 replications for
  // 2% precision. Three arms must run to the cap; the first two alone stop
  // at min_replications.
  EngineOptions opt;
  opt.seed = 12;
  opt.rel_precision = 0.02;
  opt.min_replications = 64;
  opt.batch = 64;
  opt.max_replications = 512;
  const auto body = [](std::size_t, std::size_t arm, Rng& rng,
                       std::span<double> out) {
    out[0] = rng.exponential(1.0);
    if (arm >= 1) out[0] += 1.0;
    if (arm == 2) out[0] += rng.exponential(1.0);
  };
  const auto three =
      run_paired(opt, 3, 1, Pairing::kCommonRandomNumbers, body);
  EXPECT_FALSE(three.converged);
  EXPECT_EQ(three.replications, opt.max_replications);
  EXPECT_TRUE(experiment::detail::precision_met(three.diff[0], opt));
  EXPECT_FALSE(experiment::detail::precision_met(three.diff[1], opt));

  const auto two = run_paired(opt, 2, 1, Pairing::kCommonRandomNumbers, body);
  EXPECT_TRUE(two.converged);
  EXPECT_EQ(two.replications, opt.min_replications);
}

TEST(Engine, PairedPrepareCountFollowsPairing) {
  // Under CRN the shared half runs once per replication; under independent
  // streams once per (replication, arm). Cells may run on several threads.
  EngineOptions opt;
  opt.seed = 13;
  opt.max_replications = 40;  // not a whole number of cells
  const std::size_t arms = 3;
  for (const Pairing pairing :
       {Pairing::kCommonRandomNumbers, Pairing::kIndependentStreams}) {
    std::atomic<std::size_t> prepared{0};
    std::atomic<std::size_t> evaluated{0};
    const auto res = run_paired(
        opt, arms, 1, pairing,
        [&](std::size_t, Rng& rng) {
          ++prepared;
          return rng.uniform();
        },
        [&](double shared, std::size_t, std::span<double> out) {
          ++evaluated;
          out[0] = shared;
        });
    const std::size_t want = pairing == Pairing::kCommonRandomNumbers
                                 ? opt.max_replications
                                 : opt.max_replications * arms;
    EXPECT_EQ(prepared.load(), want);
    EXPECT_EQ(evaluated.load(), opt.max_replications * arms);
    EXPECT_EQ(res.replications, opt.max_replications);
  }
}

TEST(Engine, PairedBodyFormMatchesSplitForm) {
  // The same draws through both forms: a shared exponential, then an
  // arm-specific uniform from the rest of the replication's stream.
  EngineOptions opt;
  opt.seed = 14;
  opt.rel_precision = 0.05;
  opt.min_replications = 32;
  opt.batch = 32;
  opt.max_replications = 256;
  const auto body = [](std::size_t, std::size_t arm, Rng& rng,
                       std::span<double> out) {
    out[0] = rng.exponential(1.0);
    out[1] = out[0] + static_cast<double>(arm) * rng.uniform();
  };
  struct Shared {
    double x;
    Rng rest;
  };
  const auto prepare = [](std::size_t, Rng& rng) {
    const double x = rng.exponential(1.0);
    return Shared{x, rng};
  };
  const auto evaluate = [](const Shared& s, std::size_t arm,
                           std::span<double> out) {
    Rng rng = s.rest;
    out[0] = s.x;
    out[1] = s.x + static_cast<double>(arm) * rng.uniform();
  };
  const auto bits = [](const RunningStat& s) {
    return std::vector<double>{static_cast<double>(s.count()), s.mean(),
                               s.variance(), s.min(), s.max()};
  };
  for (const Pairing pairing :
       {Pairing::kCommonRandomNumbers, Pairing::kIndependentStreams}) {
    const auto a = run_paired(opt, 3, 2, pairing, body);
    const auto b = run_paired(opt, 3, 2, pairing, prepare, evaluate);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.converged, b.converged);
    for (const auto member : {&PairedResult::arm, &PairedResult::diff}) {
      ASSERT_EQ((a.*member).size(), (b.*member).size());
      for (std::size_t k = 0; k < (a.*member).size(); ++k)
        for (std::size_t d = 0; d < 2; ++d)
          EXPECT_EQ(bits((a.*member)[k][d]), bits((b.*member)[k][d]))
              << "row " << k << " metric " << d;
    }
  }
}

TEST(Engine, PairedDiffMatchesArmMeans) {
  EngineOptions opt;
  opt.seed = 11;
  opt.max_replications = 96;
  const auto s = short_t9();
  const auto res = compare_queue_policies(s, {fcfs_arm(), cmu_arm(s)}, opt,
                                          Pairing::kCommonRandomNumbers);
  ASSERT_EQ(res.arm.size(), 2u);
  ASSERT_EQ(res.diff.size(), 1u);
  EXPECT_EQ(res.replications, 96u);
  // E[X1 - X0] == E[X1] - E[X0] up to floating-point association.
  EXPECT_NEAR(res.diff[0][0].mean(),
              res.arm[1][0].mean() - res.arm[0][0].mean(), 1e-9);
}

TEST(Engine, CrnCutsDifferenceVarianceAtLeastTwofold) {
  // The acceptance test of the CRN design: comparing the WSEPT/c-mu priority
  // against FCFS on the same M/G/1 workload, common random numbers must cut
  // the variance of the cost-rate difference by >= 2x versus independent
  // streams at the same replication count. (Measured factors are far larger
  // because the per-purpose substreams in simulate_mg1 synchronize the
  // workload exactly; 2x is the contract.)
  EngineOptions opt;
  opt.seed = 2026;
  opt.max_replications = 128;
  const auto s = short_t9();
  const std::vector<QueuePolicy> arms{fcfs_arm(), cmu_arm(s)};
  const auto crn =
      compare_queue_policies(s, arms, opt, Pairing::kCommonRandomNumbers);
  const auto ind =
      compare_queue_policies(s, arms, opt, Pairing::kIndependentStreams);
  const double var_crn = crn.diff[0][0].variance();
  const double var_ind = ind.diff[0][0].variance();
  ASSERT_GT(var_ind, 0.0);
  EXPECT_LE(2.0 * var_crn, var_ind)
      << "CRN variance " << var_crn << " vs independent " << var_ind;
  // Both designs estimate the same difference.
  EXPECT_NEAR(crn.diff[0][0].mean(), ind.diff[0][0].mean(),
              4.0 * (crn.diff[0][0].sem() + ind.diff[0][0].sem()));
}

TEST(Engine, PairedSequentialStoppingConverges) {
  EngineOptions opt;
  opt.seed = 5;
  opt.rel_precision = 0.10;
  opt.min_replications = 64;
  opt.batch = 64;
  opt.max_replications = 4096;
  opt.tracked = {0};  // the comparison is about the cost rate
  const auto s = short_t9();
  const auto res = compare_queue_policies(s, {fcfs_arm(), cmu_arm(s)}, opt,
                                          Pairing::kCommonRandomNumbers);
  ASSERT_TRUE(res.converged);
  const double hw = res.diff[0][0].ci_halfwidth();
  EXPECT_LE(hw, opt.rel_precision * std::abs(res.diff[0][0].mean()) + 1e-12);
}

// ---------------------------------------------------------------------------
// Replication scheduling: replications run as parallel tasks, and a
// sequential run executes replications past the next stop check instead
// of waiting for it. A result must not depend on the thread count —
// neither its statistics nor the telemetry it commits.
// ---------------------------------------------------------------------------

namespace {

/// Call `f()` with the engine fanned out over `threads` threads (a no-op
/// without OpenMP), restoring the previous count afterwards.
template <class F>
decltype(auto) with_threads(int threads, F&& f) {
#ifdef _OPENMP
  struct Restore {
    int threads;
    ~Restore() { omp_set_num_threads(threads); }
  } restore{omp_get_max_threads()};
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  return f();
}

/// Every field of an accumulator, so EXPECT_EQ compares them bit-exactly.
std::vector<double> stat_bits(const RunningStat& s) {
  return {static_cast<double>(s.count()), s.mean(), s.variance(), s.min(),
          s.max()};
}

void expect_same(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t d = 0; d < a.metrics.size(); ++d)
    EXPECT_EQ(stat_bits(a.metrics[d]), stat_bits(b.metrics[d]))
        << "metric " << d;
}

void expect_same(const PairedResult& a, const PairedResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.converged, b.converged);
  for (const auto member : {&PairedResult::arm, &PairedResult::diff}) {
    ASSERT_EQ((a.*member).size(), (b.*member).size());
    for (std::size_t k = 0; k < (a.*member).size(); ++k) {
      ASSERT_EQ((a.*member)[k].size(), (b.*member)[k].size());
      for (std::size_t d = 0; d < (a.*member)[k].size(); ++d)
        EXPECT_EQ(stat_bits((a.*member)[k][d]), stat_bits((b.*member)[k][d]))
            << "row " << k << " metric " << d;
    }
  }
}

/// The five instruments, read together.
struct Instruments {
  std::uint64_t events, lp_solves, lp_iterations;
  obs::HistogramSnapshot wait, sojourn;

  static Instruments now() {
    return {obs::counter_value("events"), obs::counter_value("lp_solves"),
            obs::counter_value("lp_iterations"),
            obs::histogram_snapshot("wait_time"),
            obs::histogram_snapshot("sojourn_time")};
  }
};

/// What the instruments gained from `before` to `after`.
Instruments delta(const Instruments& before, const Instruments& after) {
  Instruments d{after.events - before.events,
                after.lp_solves - before.lp_solves,
                after.lp_iterations - before.lp_iterations,
                {},
                {}};
  for (const auto member : {&Instruments::wait, &Instruments::sojourn}) {
    for (std::size_t i = 0; i < obs::hist::kBuckets; ++i)
      (d.*member).counts[i] =
          (after.*member).counts[i] - (before.*member).counts[i];
    (d.*member).total = (after.*member).total - (before.*member).total;
    (d.*member).invalid = (after.*member).invalid - (before.*member).invalid;
  }
  return d;
}

/// Run `f()` at `threads` threads and return what it added to the
/// instruments.
template <class F>
Instruments recorded_at(int threads, F&& f) {
  const Instruments before = Instruments::now();
  with_threads(threads, f);
  return delta(before, Instruments::now());
}

void expect_same(const Instruments& a, const Instruments& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.lp_solves, b.lp_solves);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.wait, b.wait);
  EXPECT_EQ(a.sojourn, b.sojourn);
}

}  // namespace

TEST(Engine, SpeculativeScheduleMatchesOneThread) {
  // Once a stop test lets a run go on, threads run speculatively one batch
  // (of 16, 32 or 48) past the next check at 3, 4 and 8 threads; at 24
  // threads a batch of 16 holds too few replications, so they run two
  // batches past it, and one past the first check. min_replications (40)
  // is no multiple of any batch, and the cap (1000) is no multiple of a
  // cell. The loose target stops mid-run, the tight one runs into the cap.
  const auto two_dims = [](std::size_t, Rng& rng, std::span<double> out) {
    out[0] = rng.exponential(1.0);
    out[1] = rng.uniform();
  };
  const auto paired = [](std::size_t, std::size_t arm, Rng& rng,
                         std::span<double> out) {
    out[0] = rng.exponential(1.0) + static_cast<double>(arm) * rng.uniform();
  };
  const auto prepare = [](std::size_t, Rng& rng) {
    return rng.exponential(1.0);
  };
  const auto evaluate = [](double x, std::size_t arm, std::span<double> out) {
    out[0] = x * (1.0 + 0.25 * static_cast<double>(arm));
  };
  for (const std::size_t batch : {16u, 32u, 48u}) {
    for (const double rel : {0.08, 1e-3}) {
      EngineOptions opt;
      opt.seed = 31 + batch;
      opt.rel_precision = rel;
      opt.min_replications = 40;
      opt.batch = batch;
      opt.max_replications = 1000;
      const auto run_all = [&] {
        return std::tuple{
            run(opt, 2, two_dims),
            run_paired(opt, 3, 1, Pairing::kCommonRandomNumbers, paired),
            run_paired(opt, 2, 1, Pairing::kIndependentStreams, paired),
            run_paired(opt, 3, 1, Pairing::kCommonRandomNumbers, prepare,
                       evaluate)};
      };
      const auto serial = with_threads(1, run_all);
      EXPECT_EQ(std::get<0>(serial).converged, rel > 0.01);
      for (const int threads : {3, 4, 8, 24}) {
        SCOPED_TRACE("batch " + std::to_string(batch) + ", rel " +
                     std::to_string(rel) + ", threads " +
                     std::to_string(threads));
        const auto spec = with_threads(threads, run_all);
        expect_same(std::get<0>(serial), std::get<0>(spec));
        expect_same(std::get<1>(serial), std::get<1>(spec));
        expect_same(std::get<2>(serial), std::get<2>(spec));
        expect_same(std::get<3>(serial), std::get<3>(spec));
      }
    }
  }
}

TEST(Engine, DiscardedCellsLeaveNoTelemetry) {
  // Both comparisons stop at the first check (16 replications). At 8
  // threads the 16 replications of that batch run in parallel; at 24,
  // too many threads for one batch, a speculative second batch runs and is
  // discarded. The instruments must move exactly as at one thread.
  EngineOptions opt;
  opt.seed = 41;
  opt.rel_precision = 1.0;
  opt.abs_floor = std::numeric_limits<double>::infinity();
  opt.min_replications = 16;
  opt.batch = 16;
  opt.max_replications = 512;
  opt.tracked = {0};

  const auto s = short_t9();
  PairedResult queue;
  const auto compare_queue = [&] {
    queue = compare_queue_policies(s, {fcfs_arm(), cmu_arm(s)}, opt,
                                   Pairing::kCommonRandomNumbers);
  };
  const Instruments serial = recorded_at(1, compare_queue);
  EXPECT_EQ(queue.replications, 16u);
  EXPECT_GT(serial.events, 0u);
  EXPECT_GT(serial.wait.total, 0u);
  EXPECT_GT(serial.sojourn.total, 0u);
  for (const int threads : {8, 24}) {
    expect_same(serial, recorded_at(threads, compare_queue));
    EXPECT_EQ(queue.replications, 16u);
  }

  OnlineScenario o = online_scenario("online-bernoulli");
  o.horizon = 8.0;
  o.bound.use_lp = true;
  PairedResult online;
  const auto compare_online = [&] {
    online = compare_online_policies(o, online_policy_arms(), opt,
                                     Pairing::kCommonRandomNumbers);
  };
  const Instruments online_serial = recorded_at(1, compare_online);
  EXPECT_EQ(online.replications, 16u);
  EXPECT_GT(online_serial.lp_solves, 0u);
  EXPECT_GT(online_serial.lp_iterations, 0u);
  for (const int threads : {8, 24}) {
    expect_same(online_serial, recorded_at(threads, compare_online));
    EXPECT_EQ(online.replications, 16u);
  }
}

TEST(Engine, FailingCellRethrowsInMergeOrder) {
  // A sequential run that never converges; reps 40 and 90 throw (cells 2
  // and 5). The first failure in merge order is rethrown after cells 0 and
  // 1 are merged, with the telemetry of every replication up to and
  // including the throwing one and none from the replications after it,
  // though at 4 threads they run while rep 40 stalls before its throw.
  EngineOptions opt;
  opt.seed = 51;
  opt.rel_precision = 1e-6;
  opt.min_replications = 16;
  opt.batch = 16;
  opt.max_replications = 256;
  const auto body = [](std::size_t r, std::span<double> row) {
    obs::record_events(1);
    if (r == 40) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (r == 40 || r == 90)
      throw std::runtime_error("rep " + std::to_string(r));
    row[0] = static_cast<double>(r);
  };
  for (const int threads : {1, 4}) {
    std::vector<std::size_t> merged;
    std::string what;
    const Instruments got = recorded_at(threads, [&] {
      try {
        experiment::detail::drive(
            opt, 1, body,
            [&](const std::vector<RunningStat>& acc) {
              merged.push_back(static_cast<std::size_t>(acc[0].min()));
            },
            [] { return false; });
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
    });
    EXPECT_EQ(what, "rep 40") << threads << " threads";
    EXPECT_EQ(merged, (std::vector<std::size_t>{0, 16})) << threads;
    EXPECT_EQ(got.events, 41u) << threads << " threads";
  }

  // Through run(), and in a fixed run, which has no stop check.
  const auto throwing = [](std::size_t r, Rng& rng, std::span<double> out) {
    if (r == 20 || r == 40)
      throw std::runtime_error("rep " + std::to_string(r));
    out[0] = rng.uniform();
  };
  for (const double rel : {0.05, 0.0}) {
    opt.rel_precision = rel;
    with_threads(4, [&] {
      try {
        run(opt, 1, throwing);
        ADD_FAILURE() << "no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "rep 20");
      }
    });
  }
}

TEST(Engine, DiscardedFailingCellNeverThrows) {
  // A constant metric converges at the first check; at 24 threads the
  // batch after it runs speculatively, throws, and is discarded unseen (at
  // 4 threads nothing runs past a first check).
  EngineOptions opt;
  opt.seed = 52;
  opt.rel_precision = 0.1;
  opt.min_replications = 16;
  opt.batch = 16;
  opt.max_replications = 256;
  for (const int threads : {4, 24}) {
    EngineResult res;
    const Instruments got = recorded_at(threads, [&] {
      res = run(opt, 1, [](std::size_t r, Rng&, std::span<double>) {
        obs::record_events(1);
        if (r >= 16) throw std::runtime_error("past the stopping point");
      });
    });
    EXPECT_TRUE(res.converged) << threads << " threads";
    EXPECT_EQ(res.replications, 16u) << threads << " threads";
    EXPECT_EQ(got.events, 16u) << threads << " threads";
  }
}

TEST(Engine, NestedRunSchedulesForOneThread) {
  // A run inside an engine body gets a team of one (nesting off), so
  // engine_threads() must say one there, whatever omp_get_max_threads()
  // says, and the nested run must call its body exactly as often as at one
  // thread: its batch of 16 converges at the first check, and a team of
  // one never runs past a stop check.
#ifdef _OPENMP
  struct Restore {
    int levels;
    ~Restore() { omp_set_max_active_levels(levels); }
  } restore{omp_get_max_active_levels()};
  omp_set_max_active_levels(1);
#endif
  EngineOptions inner;
  inner.seed = 53;
  inner.rel_precision = 0.1;
  inner.min_replications = 16;
  inner.batch = 16;
  inner.max_replications = 256;
  std::atomic<std::size_t> calls{0};
  const auto nested = [&] {
    calls = 0;
    const EngineResult outer =
        run(fixed_run(4, 54), 1, [&](std::size_t, Rng&, std::span<double> out) {
          run(inner, 1, [&](std::size_t, Rng&, std::span<double> x) {
            ++calls;
            x[0] = 1.0;
          });
          out[0] = static_cast<double>(engine_threads());
        });
    EXPECT_EQ(outer.metrics[0].max(), 1.0);
    return calls.load();
  };
  const std::size_t serial = with_threads(1, nested);
  EXPECT_EQ(serial, 4u * 16u);
  EXPECT_EQ(with_threads(24, nested), serial);
}

TEST(Scenarios, RegistryLookupAndUnknownName) {
  const auto& t9 = queue_scenario("t9-three-class");
  EXPECT_EQ(t9.classes.size(), 3u);
  EXPECT_NEAR(queueing::traffic_intensity(t9.classes),
              0.25 + 0.20 * (2.0 / 3.0) + 0.15 * 1.3, 1e-12);
  // Every family's lookup throws on an unknown name, and the error lists
  // the known scenarios.
  const auto unknown_lists = [](auto lookup, const char* known) {
    EXPECT_THROW(lookup("no-such-scenario"), std::invalid_argument) << known;
    try {
      lookup("no-such-scenario");
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(known), std::string::npos)
          << e.what();
    }
  };
  unknown_lists(queue_scenario, "t9-three-class");
  unknown_lists(polling_scenario, "t11-two-queue");
  unknown_lists(restless_scenario, "f3-decay");
  unknown_lists(batch_scenario, "quickstart-four-jobs");
  unknown_lists(network_scenario, "lu-kumar");
  unknown_lists(mmm_scenario, "parallel-pooling");
  unknown_lists(fluid_scenario, "f7-fluid");
  unknown_lists(online_scenario, "online-bernoulli");
}

TEST(Scenarios, KlimovScenarioCarriesFeedback) {
  const auto& t10 = queue_scenario("klimov-t10");
  ASSERT_EQ(t10.feedback.size(), 3u);
  EXPECT_NEAR(t10.feedback[0][1], 0.4, 1e-15);
  // options() forwards the feedback matrix for the simulator.
  EXPECT_EQ(t10.options().feedback, t10.feedback);
}

TEST(Adapters, QueueReplicationMatchesDirectSimulate) {
  const auto s = short_t9();
  const auto arm = cmu_arm(s);
  std::vector<double> metrics(metric_count(s), 0.0);
  Rng r1(42);
  replication(s, arm)(r1, std::span<double>(metrics));

  queueing::SimOptions opt = s.options();
  opt.discipline = arm.discipline;
  opt.priority = arm.priority;
  Rng r2(42);
  const auto direct = queueing::simulate_mg1(s.classes, opt, r2);
  EXPECT_DOUBLE_EQ(metrics[0], direct.cost_rate);
  EXPECT_DOUBLE_EQ(metrics[1], direct.utilization);
  for (std::size_t j = 0; j < s.classes.size(); ++j)
    EXPECT_DOUBLE_EQ(metrics[2 + 3 * j], direct.per_class[j].mean_in_system);

  // Round-trip through the metric layout.
  const auto rebuilt =
      queueing::mg1_result_from_metrics(s.classes,
                                        std::span<const double>(metrics));
  EXPECT_DOUBLE_EQ(rebuilt.cost_rate, direct.cost_rate);
  EXPECT_DOUBLE_EQ(rebuilt.per_class[2].mean_wait,
                   direct.per_class[2].mean_wait);
}

TEST(Adapters, SimOptionsValidationRejectsBadRuns) {
  const auto s = short_t9();
  Rng rng(1);
  queueing::SimOptions opt = s.options();
  opt.discipline = queueing::Discipline::kFcfs;
  opt.horizon = -1.0;
  EXPECT_THROW(queueing::simulate_mg1(s.classes, opt, rng),
               std::invalid_argument);
  opt.horizon = 100.0;
  opt.warmup = -5.0;
  EXPECT_THROW(queueing::simulate_mg1(s.classes, opt, rng),
               std::invalid_argument);
  // Non-permutation priority list.
  opt.warmup = 10.0;
  opt.discipline = queueing::Discipline::kPriorityNonPreemptive;
  opt.priority = {0, 0, 2};
  EXPECT_THROW(queueing::simulate_mg1(s.classes, opt, rng),
               std::invalid_argument);
  // Feedback row summing past one.
  opt.priority = {0, 1, 2};
  opt.feedback = {{0.7, 0.7, 0.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  EXPECT_THROW(queueing::simulate_mg1(s.classes, opt, rng),
               std::invalid_argument);
}

TEST(Scenarios, NewFamiliesRegistered) {
  EXPECT_THROW(network_scenario("no-such"), std::invalid_argument);
  EXPECT_NO_THROW(turnpike_scenario(100));
  EXPECT_NO_THROW(twopoint_scenario(0));
  EXPECT_EQ(turnpike_scenario(100).machines, 3u);
  EXPECT_EQ(turnpike_scenario(100).jobs.size(), 100u);
  // Generators are deterministic: same n, same batch.
  const auto a = turnpike_scenario(50);
  const auto b = turnpike_scenario(50);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].weight, b.jobs[i].weight);
    EXPECT_DOUBLE_EQ(a.jobs[i].processing->mean(), b.jobs[i].processing->mean());
  }
}

TEST(Scenarios, NonPoissonConfigurationsReachableByName) {
  // The bursty polling configuration is a registered scenario; the bursty
  // parallel-server workload and the heavy-tailed Lu–Kumar variant carry
  // their arrival and service laws through the registered bases.
  const PollingScenario& polling = polling_scenario("t11-bursty");
  for (const auto& c : polling.classes) {
    ASSERT_NE(c.arrival, nullptr);
    EXPECT_NEAR(c.arrival->burstiness(), 6.0, 1e-9);
  }
  MmmScenario mmm = mmm_scenario("parallel-pooling");
  for (auto& c : mmm.classes)
    c.arrival = bursty_arrivals(c.arrival_rate, 6.0);
  EXPECT_NEAR(mmm.load(), 0.85, 1e-9);
  for (const auto& c : mmm.classes) {
    ASSERT_NE(c.arrival, nullptr);
    EXPECT_NEAR(c.arrival->burstiness(), 6.0, 1e-9);
  }
  NetworkScenario ht = network_scenario("lu-kumar");
  ht.config.classes[1].service = hyperexp2_dist(2.0 / 3.0, 6.0);
  ht.config.classes[3].service = hyperexp2_dist(2.0 / 3.0, 6.0);
  ASSERT_NE(ht.config.classes[1].service, nullptr);
  EXPECT_NEAR(ht.config.classes[1].service->scv(), 6.0, 1e-9);
  // Heavy-tailed services keep the same nominal intensities as the base.
  const auto rho = queueing::station_intensities(ht.config);
  EXPECT_NEAR(rho[0], 0.01 + 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(rho[1], 2.0 / 3.0 + 0.01, 1e-9);
}

TEST(Scenarios, LuKumarIntensitiesSubcritical) {
  // station_intensities through the registered scenario: both stations are
  // nominally stable, the classic precondition of the instability result.
  const auto& s = network_scenario("lu-kumar");
  const auto rho = queueing::station_intensities(s.config);
  ASSERT_EQ(rho.size(), 2u);
  EXPECT_NEAR(rho[0], 0.01 + 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rho[1], 2.0 / 3.0 + 0.01, 1e-12);
  EXPECT_LT(rho[0], 1.0);
  EXPECT_LT(rho[1], 1.0);
}

TEST(Scenarios, MmmSweepHelpersPreserveStructure) {
  const auto base = mmm_scenario("parallel-pooling");
  EXPECT_NEAR(base.load(), 0.85, 1e-12);
  const auto heavy = mmm_scale_to_load(base, 0.95);
  EXPECT_NEAR(heavy.load(), 0.95, 1e-12);
}

TEST(Adapters, MmmReplicationMatchesDirectSimulate) {
  MmmScenario s = mmm_scenario("parallel-pooling");
  s.horizon = 2000.0;
  s.warmup = 200.0;
  const MmmPolicy arm{"c-mu", queueing::cmu_order(s.classes)};
  std::vector<double> metrics(metric_count(s), 0.0);
  Rng r1(42);
  replication(s, arm)(r1, std::span<double>(metrics));
  Rng r2(42);
  const auto direct = queueing::simulate_mmm(s.classes, s.servers,
                                             arm.priority, s.horizon,
                                             s.warmup, r2);
  EXPECT_DOUBLE_EQ(metrics[0], direct.cost_rate);
  EXPECT_DOUBLE_EQ(metrics[1], direct.utilization);
  for (std::size_t j = 0; j < s.classes.size(); ++j)
    EXPECT_DOUBLE_EQ(metrics[2 + j], direct.mean_in_system[j]);
}

TEST(Adapters, NetworkGrowthSignSeparatesStableFromBad) {
  // lu_kumar_network through the engine adapters: the destabilizing
  // priority pair shows a clearly positive mean growth rate, FCFS and the
  // safe pair do not — the sign structure bench F6 reports.
  NetworkScenario s = network_scenario("lu-kumar");
  s.horizon = 8000.0;
  s.samples = 40;
  const auto arms = lu_kumar_policies();
  ASSERT_EQ(arms.size(), 3u);
  EngineOptions opt;
  opt.seed = 31;
  opt.max_replications = 4;
  const auto bad = run_policy(s, arms[0], opt);
  const auto fcfs = run_policy(s, arms[1], opt);
  const auto safe = run_policy(s, arms[2], opt);
  EXPECT_GT(bad.metrics[2].mean(), 0.05);
  EXPECT_LT(std::abs(fcfs.metrics[2].mean()), 0.002);
  EXPECT_LT(std::abs(safe.metrics[2].mean()), 0.002);
  EXPECT_GT(bad.metrics[0].mean(), 20.0 * fcfs.metrics[0].mean());
}

TEST(Engine, NetworkCrnCutsDifferenceVarianceAtLeastTwofold) {
  // The satellite acceptance test of the per-class substream refactor:
  // comparing two *stable* priority assignments on the Lu–Kumar workload
  // (they differ only in station A's order), common random numbers must cut
  // the variance of the mean-backlog difference by >= 2x versus independent
  // streams at the same replication count. (Measured factor is ~3x; the
  // per-class substreams replay the identical workload under any priority
  // order, so only the scheduling difference remains.)
  NetworkScenario s = network_scenario("lu-kumar");
  s.horizon = 4000.0;
  s.samples = 40;
  const std::vector<NetworkPolicy> pair{
      {"safe", {{0, 3}, {2, 1}}},
      {"swap-A", {{3, 0}, {2, 1}}}};
  EngineOptions opt;
  opt.seed = 404;
  opt.max_replications = 48;
  const auto crn =
      compare_network_policies(s, pair, opt, Pairing::kCommonRandomNumbers);
  const auto ind =
      compare_network_policies(s, pair, opt, Pairing::kIndependentStreams);
  const double var_crn = crn.diff[0][0].variance();
  const double var_ind = ind.diff[0][0].variance();
  ASSERT_GT(var_ind, 0.0);
  EXPECT_LE(2.0 * var_crn, var_ind)
      << "CRN variance " << var_crn << " vs independent " << var_ind;
  EXPECT_NEAR(crn.diff[0][0].mean(), ind.diff[0][0].mean(),
              4.0 * (crn.diff[0][0].sem() + ind.diff[0][0].sem()));
}

TEST(Adapters, FluidReplicationTracksFluidLimit) {
  FluidScenario s = fluid_scenario("f7-fluid");
  s.scale = 100.0;  // cheaper than the bench's 400 and still tight
  const auto priority = queueing::fluid_cmu_priority(s.classes);
  EngineOptions opt;
  opt.seed = 12;
  opt.max_replications = 24;
  const auto res = run_policy(s, priority, opt);
  ASSERT_EQ(res.metrics.size(), metric_count(s));
  const auto fluid = queueing::fluid_drain(s.classes, s.initial, priority);
  // Cost integral close to the fluid prediction; path point mid-drain too.
  EXPECT_NEAR(res.metrics[0].mean(), fluid.cost_integral,
              0.15 * fluid.cost_integral);
  const auto mid = fluid.at(0.5 * fluid.drain_time);
  const std::size_t nc = s.classes.size();
  EXPECT_NEAR(res.metrics[1 + 4 * nc + 1].mean(), mid[1], 0.15 * (1.0 + mid[1]));
}

TEST(Adapters, TreeComparisonRunsUnderCrn) {
  const TreeScenario s = intree_scenario(40);
  EngineOptions opt;
  opt.seed = 8;
  opt.max_replications = 64;
  const auto cmp = compare_tree_policies(
      s,
      {batch::TreePolicy::kHighestLevelFirst,
       batch::TreePolicy::kFifoEligible},
      opt, Pairing::kCommonRandomNumbers);
  EXPECT_EQ(cmp.replications, 64u);
  EXPECT_GT(cmp.arm[0][0].mean(), 0.0);
  // HLF is never worse in expectation (allow CRN-tight noise).
  EXPECT_LE(cmp.arm[0][0].mean(),
            cmp.arm[1][0].mean() + 2.0 * cmp.diff[0][0].sem() + 0.05);
}

TEST(Scenarios, ArrivalFamiliesRegistered) {
  // The bursty/SCV variants carry the same effective rates (and hence the
  // same nominal load) as their Poisson bases — only the arrival law
  // changes.
  const auto& t9 = queue_scenario("t9-three-class");
  const auto bursty = with_burstiness(t9, 9.0);
  const auto scv4 = t9_scv4();
  const double load = queueing::traffic_intensity(t9.classes);
  EXPECT_NEAR(queueing::traffic_intensity(bursty.classes), load, 1e-9);
  EXPECT_NEAR(queueing::traffic_intensity(scv4.classes), load, 1e-9);
  for (const auto& c : bursty.classes) {
    ASSERT_NE(c.arrival, nullptr);
    EXPECT_FALSE(CachedGapSampler(c.arrival.get()).flat());  // MMPP
    EXPECT_NEAR(c.arrival->burstiness(), 9.0, 1e-9);
  }
  for (const auto& c : scv4.classes) {
    ASSERT_NE(c.arrival, nullptr);
    EXPECT_TRUE(CachedGapSampler(c.arrival.get()).flat());  // renewal
    EXPECT_NEAR(c.arrival->burstiness(), 4.0, 1e-9);
  }
  EXPECT_NO_THROW(with_burstiness(queue_scenario("call-center"), 6.0));
  EXPECT_NO_THROW(lu_kumar_bursty().config.validate());
  EXPECT_NO_THROW(network_scenario("rybko-stolyar"));
  EXPECT_NO_THROW(dai_wang_reentrant().config.validate());
}

TEST(Scenarios, RybkoStolyarIntensitiesSubcritical) {
  const auto& rs = network_scenario("rybko-stolyar");
  const auto rho = queueing::station_intensities(rs.config);
  ASSERT_EQ(rho.size(), 2u);
  EXPECT_NEAR(rho[0], 0.61, 1e-12);
  EXPECT_NEAR(rho[1], 0.61, 1e-12);
  const NetworkScenario dw = dai_wang_reentrant();
  const auto dw_rho = queueing::station_intensities(dw.config);
  ASSERT_EQ(dw_rho.size(), 2u);
  EXPECT_NEAR(dw_rho[0], 0.85, 1e-12);
  EXPECT_NEAR(dw_rho[1], 0.90, 1e-12);
}

TEST(Adapters, RybkoStolyarExitPrioritySelfStarves) {
  // Both stations sit at rho = 0.61, yet prioritizing the exit classes
  // diverges (virtual-station load 1.2 > 1) while FCFS and the entry
  // priority stay flat — the crossing-routes cousin of Lu–Kumar.
  NetworkScenario s = network_scenario("rybko-stolyar");
  s.horizon = 8000.0;
  s.samples = 40;
  const auto arms = rybko_stolyar_policies();
  ASSERT_EQ(arms.size(), 3u);
  EngineOptions opt;
  opt.seed = 33;
  opt.max_replications = 4;
  const auto bad = run_policy(s, arms[0], opt);
  const auto fcfs = run_policy(s, arms[1], opt);
  const auto safe = run_policy(s, arms[2], opt);
  EXPECT_GT(bad.metrics[2].mean(), 0.02);
  EXPECT_LT(std::abs(fcfs.metrics[2].mean()), 0.005);
  EXPECT_LT(std::abs(safe.metrics[2].mean()), 0.005);
  EXPECT_GT(bad.metrics[0].mean(), 5.0 * fcfs.metrics[0].mean());
}

TEST(Engine, BurstyScenarioSequentialStoppingConverges) {
  // Sequential-precision stopping must work for non-Poisson input too: a
  // short bursty T9 run tracked on the cost rate converges and hits the
  // requested precision.
  QueueScenario s = with_burstiness(queue_scenario("t9-three-class"), 9.0);
  s.horizon = 1200.0;
  s.warmup = 120.0;
  EngineOptions opt;
  opt.seed = 17;
  opt.rel_precision = 0.15;
  opt.min_replications = 32;
  opt.batch = 64;
  opt.max_replications = 1 << 14;
  opt.tracked = {0};
  const auto res = run_policy(s, fcfs_arm(), opt);
  ASSERT_TRUE(res.converged);
  const double hw = res.metrics[0].ci_halfwidth();
  EXPECT_LE(hw, opt.rel_precision * std::abs(res.metrics[0].mean()) + 1e-12);
}

TEST(Adapters, NewQueueScenariosSmokeThroughReplication) {
  // Every arrival-process variant is runnable through its bound
  // replication (one cheap replication each).
  for (QueueScenario s :
       {with_burstiness(queue_scenario("t9-three-class"), 9.0), t9_scv4(),
        with_burstiness(queue_scenario("call-center"), 6.0)}) {
    s.horizon = 400.0;
    s.warmup = 40.0;
    std::vector<double> metrics(metric_count(s), 0.0);
    Rng rng(5);
    replication(s, fcfs_arm())(rng, std::span<double>(metrics));
    EXPECT_GT(metrics[1], 0.0) << s.name;  // utilization
  }
  for (NetworkScenario s : {lu_kumar_bursty(), network_scenario("rybko-stolyar"),
                            dai_wang_reentrant()}) {
    s.horizon = 500.0;
    s.samples = 10;
    std::vector<double> metrics(metric_count(s), 0.0);
    Rng rng(6);
    replication(s, NetworkPolicy{"FCFS", {}})(rng,
                                              std::span<double>(metrics));
    EXPECT_GT(metrics[0], 0.0) << s.name;  // mean_total
  }
}

TEST(Adapters, RestlessAndBatchReplicationsRun) {
  const auto& f3 = restless_scenario("f3-decay");
  const restless::PriorityTable uniform(
      f3.projects,
      std::vector<double>(f3.prototype.num_states(), 1.0));
  RestlessScenario quick = f3;
  quick.horizon = 500;
  quick.burnin = 50;
  EngineOptions opt;
  opt.seed = 9;
  opt.max_replications = 8;
  const auto res = run_policy(quick, uniform, opt);
  EXPECT_EQ(res.replications, 8u);
  EXPECT_GT(res.metrics[0].mean(), 0.0);

  const auto& qs = batch_scenario("quickstart-four-jobs");
  batch::Order order{0, 1, 2, 3};
  const auto bres = run_policy(qs, order, opt);
  EXPECT_EQ(bres.replications, 8u);
  EXPECT_GT(bres.metrics[0].mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Golden outputs of the adapters: every family's comparison driver, plus the
// single-arm batch path on one and on several machines, at fixed seeds and
// short horizons, pinned bit-exactly. Any change in how a policy arm becomes
// simulator input, or in the draw order behind it, shows up here. On a
// mismatch the message lists the new means as hexfloat literals.
// ---------------------------------------------------------------------------

namespace {

std::string hexfloats(const std::vector<double>& v) {
  std::string s;
  char buf[40];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%a, ", x);
    s += buf;
  }
  return s;
}

/// Checks the replication count, every accumulator's count, and the means
/// of every arm then every difference, in [k][metric] order.
void expect_golden(const PairedResult& r, std::size_t reps,
                   const std::vector<double>& want) {
  EXPECT_EQ(r.replications, reps);
  std::vector<double> got;
  for (const auto* stats : {&r.arm, &r.diff})
    for (const auto& row : *stats)
      for (const auto& m : row) {
        EXPECT_EQ(m.count(), reps);
        got.push_back(m.mean());
      }
  EXPECT_EQ(got, want) << hexfloats(got);
}

void expect_golden(const EngineResult& r, std::size_t reps,
                   const std::vector<double>& want) {
  EXPECT_EQ(r.replications, reps);
  std::vector<double> got;
  for (const auto& m : r.metrics) {
    EXPECT_EQ(m.count(), reps);
    got.push_back(m.mean());
  }
  EXPECT_EQ(got, want) << hexfloats(got);
}

EngineOptions golden_fixed(std::uint64_t seed, std::size_t reps) {
  EngineOptions opt;
  opt.seed = seed;
  opt.max_replications = reps;
  return opt;
}

EngineOptions golden_sequential(std::uint64_t seed, double rel) {
  EngineOptions opt;
  opt.seed = seed;
  opt.rel_precision = rel;
  opt.min_replications = 32;
  opt.batch = 32;
  opt.max_replications = 512;
  opt.tracked = {0};
  return opt;
}

}  // namespace

TEST(AdaptersGolden, QueueSequentialCrn) {
  QueueScenario s = queue_scenario("f4-two-class");
  s.horizon = 1500.0;
  s.warmup = 150.0;
  const auto res = compare_queue_policies(
      s, {fcfs_arm(), cmu_arm(s)}, golden_sequential(101, 0.1),
      Pairing::kCommonRandomNumbers);
  expect_golden(res, 224,
                {0x1.6d24f045c67d2p+1, 0x1.32d52234096c8p-1,
                 0x1.fab35b5aed493p-1, 0x1.24e94cf170a97p+1,
                 0x1.33fbb57de73aap-2, 0x1.bf2d0a613f61bp-1,
                 0x1.24036234c2c6cp+1, 0x1.ff1dbea8b7584p-3,
                 0x1.408e8d8f06a69p+1, 0x1.32d4948598bfap-1,
                 0x1.63ee21a19544dp-1, 0x1.502368e94a955p+0,
                 0x1.33fc7d38775e7p-2, 0x1.1d2ef97c78082p+0,
                 0x1.9e8c8877ac876p+1, 0x1.ff2a3a51b9969p-3,
                 -0x1.64b315b5feb3dp-2, -0x1.1b5ce159ea924p-18,
                 -0x1.2d8a7372b008bp-2, -0x1.f35e61f32d7b2p-1,
                 0x1.8f752047c700ep-19, 0x1.ecc3a25ec2bafp-3,
                 0x1.ea24990ba702bp-1, 0x1.8f752047c7002p-16});
}

TEST(AdaptersGolden, PollingCrn) {
  PollingScenario s = polling_scenario("t11-two-queue");
  s.horizon = 1500.0;
  s.warmup = 150.0;
  const std::vector<PollingPolicy> arms{
      {"exhaustive", queueing::PollingDiscipline::kExhaustive},
      {"gated", queueing::PollingDiscipline::kGated},
      {"2-limited", queueing::PollingDiscipline::kLimited, 2}};
  const auto res = compare_polling_policies(s, arms, golden_fixed(102, 32),
                                            Pairing::kCommonRandomNumbers);
  expect_golden(res, 32,
                {0x1.5902b46af3d33p+1, 0x1.3ddde39004d0dp-4,
                 0x1.389a09da9e671p-1, 0x1.04f838b093864p+0,
                 0x1.ad0d302554203p-1, 0x1.930937ec08d44p+1,
                 0x1.da358fe949c9ep-4, 0x1.38a14b723eb0bp-1,
                 0x1.2333f903f77f5p+0, 0x1.016f3b6a0d14ap+0,
                 0x1.abed786f09b44p+1, 0x1.dd6a150d816f7p-4,
                 0x1.38ae5b60428a5p-1, 0x1.4fe8431d948fap+0,
                 0x1.03f956e03f6c6p+0, 0x1.d0341c08a808bp-2,
                 0x1.38af58b289f22p-5, 0x1.d065e81267dffp-15,
                 0x1.e3bc05363f91dp-4, 0x1.57451abb18244p-3,
                 0x1.4bab101057842p-1, 0x1.3f1862faf93d7p-5,
                 0x1.45185a4234d81p-13, 0x1.2bc029b40425cp-2,
                 0x1.6b95f66caae28p-3});
}

TEST(AdaptersGolden, RestlessCrn) {
  RestlessScenario s = restless_scenario("f3-decay");
  s.horizon = 500;
  s.burnin = 50;
  const std::size_t states = s.prototype.num_states();
  std::vector<double> ascending(states);
  for (std::size_t x = 0; x < states; ++x)
    ascending[x] = static_cast<double>(x);
  const std::vector<restless::PriorityTable> arms{
      restless::PriorityTable(s.projects, std::vector<double>(states, 1.0)),
      restless::PriorityTable(s.projects, ascending)};
  const auto res = compare_restless_policies(s, arms, golden_fixed(103, 32),
                                             Pairing::kCommonRandomNumbers);
  expect_golden(res, 32,
                {0x1.9a69ad42c3c8cp-1, 0x1.a303afb7e90ebp-1,
                 0x1.13404ea4a8beap-6});
}

TEST(AdaptersGolden, NetworkIndependentStreams) {
  NetworkScenario s = network_scenario("lu-kumar");
  s.horizon = 1000.0;
  s.samples = 10;
  const auto res =
      compare_network_policies(s, lu_kumar_policies(), golden_fixed(104, 16),
                               Pairing::kIndependentStreams);
  expect_golden(res, 16,
                {0x1.82134f3d85d41p+7, 0x1.81affffffffffp+8,
                 0x1.9980c6980c69ap-2, 0x1.f59a151798e31p+3, 0x1.33p+4,
                 0x1.f376b8d10526ap-9, 0x1.2f5dc6d0650ebp+2, 0x1.68p+1,
                 0x1.5d867c3ece2ap-14, -0x1.62b9adec0c45dp+7, -0x1.6e8p+8,
                 -0x1.9599d9266a5f4p-2, -0x1.7898610702ab9p+7, -0x1.7eep+8,
                 -0x1.996aee30487cbp-2});
}

TEST(AdaptersGolden, MmmCrn) {
  MmmScenario s = mmm_scenario("parallel-pooling");
  s.horizon = 1000.0;
  s.warmup = 100.0;
  const auto cmu = queueing::cmu_order(s.classes);
  const std::vector<MmmPolicy> arms{{"c-mu", cmu},
                                    {"reverse", {cmu.rbegin(), cmu.rend()}}};
  const auto res = compare_mmm_policies(s, arms, golden_fixed(105, 32),
                                        Pairing::kCommonRandomNumbers);
  expect_golden(res, 32,
                {0x1.2440b997b512p+3, 0x1.b6636397dddcbp-1,
                 0x1.bfa7dc73320f2p+0, 0x1.68ad84f5d11c5p+2,
                 0x1.55bfb456aacd2p+3, 0x1.b6666b2e58c0ep-1,
                 0x1.2e7ab63da2fdep+2, 0x1.3a27f0c83e7a6p+0,
                 0x1.8bf7d5f7add9ap+0, 0x1.83cb3d72248p-16,
                 0x1.7d217e41acf42p+1, -0x1.1a2388c3c17dcp+2});
}

TEST(AdaptersGolden, FluidCrn) {
  FluidScenario s = fluid_scenario("f7-fluid");
  s.scale = 40.0;
  s.path_fractions = {0.5};
  const auto cmu = queueing::fluid_cmu_priority(s.classes);
  const std::vector<std::vector<std::size_t>> arms{
      cmu, {cmu.rbegin(), cmu.rend()}};
  const auto res = compare_fluid_policies(s, arms, golden_fixed(106, 16),
                                          Pairing::kCommonRandomNumbers);
  expect_golden(res, 16,
                {0x1.03459203cae76p+3, 0x1.9999999999998p-10,
                 0x1.0f99999999998p+0, 0x1.e973e93e93e92p+3,
                 0x1.4accccccccccep+0, 0x1.3333333333333p-7,
                 0x1.cc5cae759203cp+2, 0x1.4a66666666666p+0,
                 -0x1.0d33333333332p+0});
}

TEST(AdaptersGolden, TreeCrn) {
  const auto res = compare_tree_policies(
      intree_scenario(30),
      {batch::TreePolicy::kHighestLevelFirst,
       batch::TreePolicy::kFifoEligible},
      golden_fixed(107, 32), Pairing::kCommonRandomNumbers);
  expect_golden(res, 32,
                {0x1.6fe2a856eedb4p+3, 0x1.92c56cf713e2p+3,
                 0x1.1716250128358p+0});
}

TEST(AdaptersGolden, OnlineCrn) {
  OnlineScenario s = online_scenario("online-identical");
  s.horizon = 6.0;
  const auto res =
      compare_online_policies(s, online_policy_arms(), golden_fixed(108, 16),
                              Pairing::kCommonRandomNumbers);
  expect_golden(res, 16,
                {0x1.0e3f45ca5a7dap+0, 0x1.25731d90d8ab7p+7,
                 0x1.155b810b16ecbp+7, 0x1.3900000000001p+4,
                 0x1.0f368223669b9p+0, 0x1.27d3f3b9767b8p+7,
                 0x1.155b810b16ecbp+7, 0x1.3900000000001p+4,
                 0x1.1ee817e91c1b3p+0, 0x1.3a3ee631c640fp+7,
                 0x1.155b810b16ecbp+7, 0x1.3900000000001p+4,
                 0x1.2a38de3f1e2cfp+0, 0x1.45ca0a28ac3fbp+7,
                 0x1.155b810b16ecbp+7, 0x1.3900000000001p+4,
                 0x1.ee78b2183befcp-9, 0x1.306b144ee80fp+0, 0x0p+0, 0x0p+0,
                 0x1.0a8d21ec19d9ep-4, 0x1.4cbc8a0ed9576p+3, 0x0p+0, 0x0p+0,
                 0x1.bf99874c3af5ap-4, 0x1.02b764be9ca0ep+4, 0x0p+0, 0x0p+0});
}

TEST(AdaptersGolden, OnlineLpCrn) {
  // The interval LP raises the bound above the combinatorial one on some
  // of these paths, so lower_bound pins the LP solution too.
  OnlineScenario s = online_scenario("online-bernoulli");
  s.horizon = 8.0;
  s.bound.use_lp = true;
  const auto res =
      compare_online_policies(s, online_policy_arms(), golden_fixed(111, 16),
                              Pairing::kCommonRandomNumbers);
  expect_golden(res, 16,
                {0x1.19bc79f1e8e11p+0, 0x1.5cbc3d58f855ep+7,
                 0x1.3bb88a158ccb5p+7, 0x1.61p+4, 0x1.19bd1639ab3c6p+0,
                 0x1.5cbd6dd5524a4p+7, 0x1.3bb88a158ccb5p+7, 0x1.61p+4,
                 0x1.1ae1ef634f397p+0, 0x1.5d18c352dcb53p+7,
                 0x1.3bb88a158ccb5p+7, 0x1.61p+4, 0x1.82404823db73cp+0,
                 0x1.da63d37d780adp+7, 0x1.3bb88a158ccb5p+7, 0x1.61p+4,
                 0x1.388f84b68ep-17, 0x1.307c59f46ap-9, 0x0p+0, 0x0p+0,
                 0x1.25757166584bfp-8, 0x1.7217e7917d65cp-3, 0x0p+0, 0x0p+0,
                 0x1.a20f38c7ca4abp-2, 0x1.f69e5891fed3fp+5, 0x0p+0, 0x0p+0});
}

TEST(AdaptersGolden, OnlineIndependentStreams) {
  OnlineScenario s = online_scenario("online-identical");
  s.horizon = 6.0;
  const auto res =
      compare_online_policies(s, online_policy_arms(), golden_fixed(112, 16),
                              Pairing::kIndependentStreams);
  expect_golden(res, 16,
                {0x1.0ff74c3e2f742p+0, 0x1.15e6fbb2f51f5p+7,
                 0x1.02f942249b204p+7, 0x1.2dp+4, 0x1.135311322bc71p+0,
                 0x1.221266e58d7bfp+7, 0x1.0e4710bccc479p+7,
                 0x1.36ffffffffffep+4, 0x1.1c935c94a5669p+0,
                 0x1.38c736fc1dca3p+7, 0x1.1a08057183061p+7,
                 0x1.4600000000001p+4, 0x1.3bc4b05b28ec2p+0,
                 0x1.37825d58b3842p+7, 0x1.f03ccbf99a42fp+6, 0x1.2bp+4,
                 0x1.ade279fe29758p-7, 0x1.856d66530b95cp+2,
                 0x1.69b9d30624eacp+2, 0x1.3ffffffffffffp-1,
                 0x1.93820acebe4ccp-5, 0x1.1701da4945578p+4,
                 0x1.70ec34ce7e5e2p+3, 0x1.9p+0, 0x1.5e6b20e7cbbfbp-3,
                 0x1.0cdb0d2df326ap+4, -0x1.5b5b84f9bfd96p+2,
                 -0x1.0000000000005p-3});
}

TEST(AdaptersGolden, BatchSingleMachineSequential) {
  const auto& s = batch_scenario("quickstart-four-jobs");
  ASSERT_EQ(s.machines, 1u);
  const auto res =
      run_policy(s, batch::Order{2, 0, 1, 3}, golden_sequential(109, 0.05));
  expect_golden(res, 352, {0x1.0179558959859p+5});
}

TEST(AdaptersGolden, BatchParallelMachines) {
  const BatchScenario s = turnpike_scenario(20);
  ASSERT_GT(s.machines, 1u);
  const auto res = run_policy(s, batch::wsept_order(s.jobs),
                              golden_fixed(110, 64));
  expect_golden(res, 64, {0x1.3d5fdaa27a082p+7});
}
