// Tests for queueing/mg1: the simulator against closed forms — M/M/1,
// Pollaczek–Khinchine, Cobham, preemptive-resume — plus Little's law and
// Kleinrock's conservation law as built-in invariants. These are the tests
// that certify the survey-§3 experiment harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/conservation.hpp"
#include "des/event_queue.hpp"
#include "obs/metrics.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/rng.hpp"

namespace stosched::queueing {
namespace {

SimOptions fcfs_options(double horizon = 4e5) {
  SimOptions opt;
  opt.discipline = Discipline::kFcfs;
  opt.horizon = horizon;
  opt.warmup = horizon / 10.0;
  return opt;
}

TEST(Mg1Analytic, MM1ClosedForms) {
  // M/M/1 with lambda = 0.6, mu = 1: W_q = rho/(mu - lambda) = 1.5.
  std::vector<ClassSpec> classes{{0.6, exponential_dist(1.0), 1.0}};
  EXPECT_NEAR(traffic_intensity(classes), 0.6, 1e-12);
  EXPECT_NEAR(mean_residual_work(classes), 0.6, 1e-12);
  EXPECT_NEAR(pk_fcfs_wait(classes), 1.5, 1e-12);
}

TEST(Mg1Analytic, PkGrowsWithServiceVariability) {
  // Same mean, higher SCV -> longer FCFS waits (the PK shape).
  std::vector<ClassSpec> det{{0.6, deterministic_dist(1.0), 1.0}};
  std::vector<ClassSpec> exp{{0.6, exponential_dist(1.0), 1.0}};
  std::vector<ClassSpec> h2{{0.6, hyperexp2_dist(1.0, 5.0), 1.0}};
  EXPECT_LT(pk_fcfs_wait(det), pk_fcfs_wait(exp));
  EXPECT_LT(pk_fcfs_wait(exp), pk_fcfs_wait(h2));
}

TEST(Mg1Analytic, CobhamReducesToPkForOneClass) {
  std::vector<ClassSpec> classes{{0.7, erlang_dist(2, 2.5), 1.0}};
  const auto waits = cobham_waits(classes, {0});
  EXPECT_NEAR(waits[0], pk_fcfs_wait(classes), 1e-12);
}

TEST(Mg1Analytic, CobhamHighPriorityWaitsLess) {
  std::vector<ClassSpec> classes{{0.3, exponential_dist(1.0), 1.0},
                                 {0.4, exponential_dist(2.0), 1.0}};
  const auto w01 = cobham_waits(classes, {0, 1});
  EXPECT_LT(w01[0], w01[1]);
  const auto w10 = cobham_waits(classes, {1, 0});
  EXPECT_LT(w10[1], w10[0]);
}

TEST(Mg1Analytic, KleinrockInvariantHoldsAcrossOrders) {
  std::vector<ClassSpec> classes{{0.25, exponential_dist(1.0), 1.0},
                                 {0.3, erlang_dist(2, 4.0), 2.0},
                                 {0.2, hyperexp2_dist(1.2, 3.0), 0.5}};
  const double invariant = kleinrock_invariant(classes);
  std::vector<std::size_t> order{0, 1, 2};
  std::sort(order.begin(), order.end());
  do {
    const auto waits = cobham_waits(classes, order);
    double sum = 0.0;
    for (std::size_t j = 0; j < classes.size(); ++j)
      sum += classes[j].arrival_rate * classes[j].service->mean() * waits[j];
    EXPECT_NEAR(sum, invariant, 1e-9);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Mg1Analytic, CmuOrderSortsCorrectly) {
  std::vector<ClassSpec> classes{{0.1, exponential_dist(1.0), 1.0},   // cµ=1
                                 {0.1, exponential_dist(4.0), 1.0},   // cµ=4
                                 {0.1, exponential_dist(1.0), 3.0}};  // cµ=3
  const auto order = cmu_order(classes);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Mg1Analytic, CmuMinimizesCobhamCostOverAllOrders) {
  std::vector<ClassSpec> classes{{0.25, exponential_dist(1.0), 1.0},
                                 {0.2, erlang_dist(2, 3.0), 2.5},
                                 {0.15, exponential_dist(0.8), 0.7}};
  const double cmu_cost = cobham_cost_rate(classes, cmu_order(classes));
  std::vector<std::size_t> order{0, 1, 2};
  std::sort(order.begin(), order.end());
  do {
    EXPECT_GE(cobham_cost_rate(classes, order), cmu_cost - 1e-9);
  } while (std::next_permutation(order.begin(), order.end()));
}

// ---------------------------------------------------------------------------
// Simulator vs closed forms.
// ---------------------------------------------------------------------------

TEST(Mg1Sim, MM1NumberInSystem) {
  std::vector<ClassSpec> classes{{0.6, exponential_dist(1.0), 1.0}};
  Rng rng(1);
  const auto res = simulate_mg1(classes, fcfs_options(), rng);
  // L = rho / (1 - rho) = 1.5.
  EXPECT_NEAR(res.per_class[0].mean_in_system, 1.5, 0.08);
  EXPECT_NEAR(res.utilization, 0.6, 0.01);
  EXPECT_NEAR(res.per_class[0].throughput, 0.6, 0.01);
}

TEST(Mg1Sim, PkWaitForMG1) {
  std::vector<ClassSpec> classes{{0.5, hyperexp2_dist(1.0, 4.0), 1.0}};
  Rng rng(2);
  const auto res = simulate_mg1(classes, fcfs_options(6e5), rng);
  EXPECT_NEAR(res.per_class[0].mean_wait, pk_fcfs_wait(classes),
              0.06 * pk_fcfs_wait(classes));
}

TEST(Mg1Sim, CobhamWaitsUnderStaticPriority) {
  std::vector<ClassSpec> classes{{0.25, exponential_dist(1.0), 1.0},
                                 {0.3, erlang_dist(2, 4.0), 1.0},
                                 {0.2, hyperexp2_dist(0.8, 3.0), 1.0}};
  SimOptions opt;
  opt.discipline = Discipline::kPriorityNonPreemptive;
  opt.priority = {2, 0, 1};
  opt.horizon = 6e5;
  opt.warmup = 6e4;
  Rng rng(3);
  const auto res = simulate_mg1(classes, opt, rng);
  const auto waits = cobham_waits(classes, opt.priority);
  for (std::size_t j = 0; j < classes.size(); ++j)
    EXPECT_NEAR(res.per_class[j].mean_wait, waits[j], 0.08 * waits[j] + 0.02)
        << "class " << j;
}

TEST(Mg1Sim, LittleLawPerClass) {
  std::vector<ClassSpec> classes{{0.3, exponential_dist(1.0), 1.0},
                                 {0.25, erlang_dist(2, 4.0), 1.0}};
  SimOptions opt;
  opt.discipline = Discipline::kPriorityNonPreemptive;
  opt.priority = {0, 1};
  opt.horizon = 4e5;
  opt.warmup = 4e4;
  Rng rng(4);
  const auto res = simulate_mg1(classes, opt, rng);
  for (std::size_t j = 0; j < classes.size(); ++j) {
    const double little = classes[j].arrival_rate *
                          res.per_class[j].mean_sojourn;
    EXPECT_NEAR(res.per_class[j].mean_in_system, little,
                0.05 * little + 0.02)
        << "class " << j;
  }
}

TEST(Mg1Sim, ConservationLawAudit) {
  std::vector<ClassSpec> classes{{0.3, exponential_dist(1.0), 1.0},
                                 {0.25, hyperexp2_dist(1.1, 2.5), 2.0}};
  SimOptions opt;
  opt.discipline = Discipline::kPriorityNonPreemptive;
  opt.priority = {1, 0};
  opt.horizon = 6e5;
  opt.warmup = 6e4;
  Rng rng(5);
  const auto res = simulate_mg1(classes, opt, rng);
  const auto audit = core::audit_conservation(classes, res);
  EXPECT_LT(audit.rel_error, 0.05);
}

TEST(Mg1Sim, PreemptiveResumeSojourns) {
  std::vector<ClassSpec> classes{{0.3, exponential_dist(1.0), 1.0},
                                 {0.3, exponential_dist(1.5), 1.0}};
  SimOptions opt;
  opt.discipline = Discipline::kPriorityPreemptiveResume;
  opt.priority = {0, 1};
  opt.horizon = 6e5;
  opt.warmup = 6e4;
  Rng rng(6);
  const auto res = simulate_mg1(classes, opt, rng);
  const auto sojourns = preemptive_resume_sojourns(classes, opt.priority);
  for (std::size_t j = 0; j < classes.size(); ++j)
    EXPECT_NEAR(res.per_class[j].mean_sojourn, sojourns[j],
                0.07 * sojourns[j])
        << "class " << j;
}

TEST(Mg1Sim, PreemptionShieldsHighPriorityCompletely) {
  // Under PR priority the top class behaves as an isolated M/G/1.
  std::vector<ClassSpec> classes{{0.4, exponential_dist(1.0), 1.0},
                                 {0.4, exponential_dist(1.0), 1.0}};
  SimOptions opt;
  opt.discipline = Discipline::kPriorityPreemptiveResume;
  opt.priority = {0, 1};
  opt.horizon = 4e5;
  opt.warmup = 4e4;
  Rng rng(7);
  const auto res = simulate_mg1(classes, opt, rng);
  std::vector<ClassSpec> isolated{classes[0]};
  const double expected = 0.4 / (1.0 - 0.4);  // M/M/1 L
  EXPECT_NEAR(res.per_class[0].mean_in_system, expected, 0.05 * expected);
}

TEST(Mg1Sim, DeterministicGivenRngState) {
  std::vector<ClassSpec> classes{{0.5, exponential_dist(1.0), 1.0}};
  SimOptions opt = fcfs_options(1e4);
  Rng r1(42), r2(42);
  const auto a = simulate_mg1(classes, opt, r1);
  const auto b = simulate_mg1(classes, opt, r2);
  EXPECT_DOUBLE_EQ(a.per_class[0].mean_in_system,
                   b.per_class[0].mean_in_system);
  EXPECT_EQ(a.per_class[0].completions, b.per_class[0].completions);
}

TEST(Mg1Sim, OptionValidation) {
  std::vector<ClassSpec> classes{{0.5, exponential_dist(1.0), 1.0},
                                 {0.2, exponential_dist(1.0), 1.0}};
  SimOptions opt;
  opt.discipline = Discipline::kPriorityNonPreemptive;
  opt.priority = {0};  // wrong size
  Rng rng(8);
  EXPECT_THROW(simulate_mg1(classes, opt, rng), std::invalid_argument);
  opt.priority = {0, 0};  // not a permutation
  EXPECT_THROW(simulate_mg1(classes, opt, rng), std::invalid_argument);
}

TEST(Mg1Analytic, UnstableInputsRejected) {
  std::vector<ClassSpec> classes{{1.5, exponential_dist(1.0), 1.0}};
  EXPECT_THROW(pk_fcfs_wait(classes), std::invalid_argument);
  EXPECT_THROW(kleinrock_invariant(classes), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden outputs: every result field of fixed-seed runs, pinned bit-exactly,
// plus the events popped and waits recorded. Any change to the draw order,
// the FES push order or the warm-up rule shows up here. On a mismatch the
// message lists the new values as hexfloat literals.
// ---------------------------------------------------------------------------

std::string hexfloats(const std::vector<double>& v) {
  std::string s;
  char buf[40];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%a, ", x);
    s += buf;
  }
  return s;
}

// Poisson, hyperexponential-renewal and bursty MMPP classes; flat and
// virtual service laws. The checks fail if a later fast path takes over
// the virtual sampling this workload covers.
std::vector<ClassSpec> golden_classes() {
  const DistPtr gap = hyperexp2_dist(1.0 / 0.3, 4.0);
  const DistPtr heavy = pareto_dist(0.68, 2.5);
  std::vector<ClassSpec> classes{
      {0.25, exponential_dist(1.0), 3.0},
      {0.0, uniform_dist(0.2, 0.6), 1.0, renewal_arrivals(gap)},
      {0.0, heavy, 2.0, bursty_arrivals(0.2, 5.0)}};
  EXPECT_EQ(gap->flat().kind(), FlatSampler::Kind::kVirtual);
  EXPECT_EQ(heavy->flat().kind(), FlatSampler::Kind::kVirtual);
  EXPECT_FALSE(CachedGapSampler(classes[2].arrival.get()).flat());
  EXPECT_EQ(classes[0].arrival, nullptr);  // plain Poisson
  return classes;
}

void expect_golden(const SimOptions& opt, const std::vector<double>& want,
                   std::uint64_t events, std::uint64_t waits) {
  Rng rng(2024);
  const std::uint64_t events0 = obs::counter_value("events");
  const std::uint64_t waits0 = obs::histogram_snapshot("wait_time").total;
  const SimResult r = simulate_mg1(golden_classes(), opt, rng);
  std::vector<double> got{r.cost_rate, r.utilization, r.time_simulated};
  for (const auto& c : r.per_class)
    got.insert(got.end(), {c.mean_in_system, c.mean_wait, c.mean_sojourn,
                           static_cast<double>(c.completions), c.throughput});
  EXPECT_EQ(got, want) << hexfloats(got);
  EXPECT_EQ(obs::counter_value("events") - events0, events);
  EXPECT_EQ(obs::histogram_snapshot("wait_time").total - waits0, waits);
}

SimOptions golden_options(Discipline d) {
  SimOptions opt;
  opt.discipline = d;
  opt.priority = {2, 0, 1};
  opt.horizon = 3000.0;
  opt.warmup = 300.0;
  return opt;
}

TEST(Mg1Golden, FcfsBatchAndMmppArrivals) {
  const std::vector<double> want{
      0x1.2a7eb3584c3efp+2, 0x1.423717f4a1f26p-1, 0x1.77p+11,
      0x1.8d02f317f0baep-1, 0x1.d3eb7ad52a186p+0, 0x1.7048f4eef2f26p+1,
      0x1.94p+9, 0x1.13cc1e098ead6p-2, 0x1.9baf3dfaea68dp-1,
      0x1.1735c69f4d0fdp+1, 0x1.4ae9f4126735bp+1, 0x1.d28p+9,
      0x1.3e76c8b439581p-2, 0x1.889ec1bfd2af3p-1, 0x1.551d1d9cdfa5p+1,
      0x1.df370769ef3c7p+1, 0x1.34p+9, 0x1.a485cd7b900afp-3};
  expect_golden(golden_options(Discipline::kFcfs), want, 5243, 2357);
}

TEST(Mg1Golden, NonpreemptivePriority) {
  const std::vector<double> want{
      0x1.377e99bc72c69p+2, 0x1.423717f4a1f22p-1, 0x1.77p+11,
      0x1.95ba20ba275c4p-1, 0x1.e54dae525657cp+0, 0x1.78d5879b20b4dp+1,
      0x1.95p+9, 0x1.147ae147ae148p-2, 0x1.9e3e731737db4p+0,
      0x1.334b49690df4cp+2, 0x1.4d222f1c46d1p+2, 0x1.d3p+9,
      0x1.3ece2a53490bap-2, 0x1.be498586b0695p-2, 0x1.0d424c1a5cd3ap+0,
      0x1.10bf4fef139dcp+1, 0x1.33p+9, 0x1.a32846ff513ccp-3};
  expect_golden(golden_options(Discipline::kPriorityNonPreemptive), want,
                5243, 2358);
}

TEST(Mg1Golden, PreemptiveResume) {
  const std::vector<double> want{
      0x1.436d7598ee46fp+2, 0x1.423717f4a1f22p-1, 0x1.77p+11,
      0x1.c0b887175b0aep-1, 0x1.d2e227bafd84p+0, 0x1.a06d354c98a9ep+1,
      0x1.948p+9, 0x1.14237fa89e60fp-2, 0x1.c6ffc9e70b399p+0,
      0x1.334b49690df4cp+2, 0x1.6e03ef38b7aeep+2, 0x1.d38p+9,
      0x1.3f258bf258bf2p-2, 0x1.4b4283b34aa4p-2, 0x1.012631d99a995p-1,
      0x1.94ff922c405p+0, 0x1.33p+9, 0x1.a32846ff513ccp-3};
  expect_golden(golden_options(Discipline::kPriorityPreemptiveResume), want,
                5581, 2356);
}

TEST(Mg1Golden, KlimovFeedback) {
  const std::vector<double> want{
      0x1.4730f78b9a91p+3, 0x1.922cfed6c1e9cp-1, 0x1.77p+11,
      0x1.31fc443eb98f1p+0, 0x1.75cb670bb427ep+1, 0x1.fca8832bc196fp+1,
      0x1.c38p+9, 0x1.34395810624ddp-2, 0x1.61610e6589fc7p+2,
      0x1.afdba1af0912fp+3, 0x1.bcd5822469e36p+3, 0x1.2ap+10,
      0x1.96de8ca11bfd4p-2, 0x1.1e0eb60a7fe9p-1, 0x1.ccce95b92af74p-1,
      0x1.007354dff1077p+1, 0x1.a28p+9, 0x1.1db22d0e56042p-2};
  SimOptions opt = golden_options(Discipline::kPriorityNonPreemptive);
  opt.feedback = {{0.0, 0.3, 0.0}, {0.0, 0.0, 0.2}, {0.1, 0.0, 0.0}};
  expect_golden(opt, want, 5880, 2932);
}

}  // namespace
}  // namespace stosched::queueing
