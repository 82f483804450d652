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

// Poisson, geometric-batch and bursty MMPP classes; flat and virtual
// service laws.
std::vector<ClassSpec> golden_classes() {
  return {{0.25, exponential_dist(1.0), 3.0},
          {0.0, uniform_dist(0.2, 0.6), 1.0,
           batch_arrivals_geometric(exponential_dist(0.15), 2.0)},
          {0.0, lognormal_dist(-0.2, 0.8), 2.0, bursty_arrivals(0.2, 5.0)}};
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
      0x1.87526f042e9bap+2, 0x1.47cfe480e3cf6p-1, 0x1.77p+11,
      0x1.fbcdfc4ee532ap-1, 0x1.50aa81563cb78p+1, 0x1.d71e433c29b71p+1,
      0x1.94p+9, 0x1.13cc1e098ead6p-2, 0x1.32b847f59f4fdp+0,
      0x1.bc2b93afc061ap+1, 0x1.efb0d8b60c168p+1, 0x1.dp+9,
      0x1.3cc1e098ead66p-2, 0x1.f0dc79a4c352cp-1, 0x1.cdab7668373a8p+1,
      0x1.2f8905a0bfd55p+2, 0x1.33p+9, 0x1.a32846ff513ccp-3};
  expect_golden(golden_options(Discipline::kFcfs), want, 4662, 2350);
}

TEST(Mg1Golden, NonpreemptivePriority) {
  const std::vector<double> want{
      0x1.9d6f4c7382524p+2, 0x1.47cfe480e3cf6p-1, 0x1.77p+11,
      0x1.fc35dbb01fe86p-1, 0x1.510acbc330b76p+1, 0x1.d77eac2b26e38p+1,
      0x1.94p+9, 0x1.13cc1e098ead6p-2, 0x1.3d88df56f55d1p+1,
      0x1.e76f9841d4026p+2, 0x1.00991d627ceeep+3, 0x1.dp+9,
      0x1.3cc1e098ead66p-2, 0x1.005aa997eeb26p-1, 0x1.4edcd33cadbf3p+0,
      0x1.394fac59ee7a9p+1, 0x1.33p+9, 0x1.a32846ff513ccp-3};
  expect_golden(golden_options(Discipline::kPriorityNonPreemptive), want,
                4662, 2350);
}

TEST(Mg1Golden, PreemptiveResume) {
  const std::vector<double> want{
      0x1.a89042ac61c87p+2, 0x1.47cfe480e3cf6p-1, 0x1.77p+11,
      0x1.104639e3bf5d8p+0, 0x1.450c6eec577dcp+1, 0x1.f938ecfef2e67p+1,
      0x1.94p+9, 0x1.13cc1e098ead6p-2, 0x1.4eca480e63877p+1,
      0x1.e76f9841d4026p+2, 0x1.0e8afaa6de33cp+3, 0x1.dp+9,
      0x1.3cc1e098ead66p-2, 0x1.a7b399d303f46p-2, 0x1.c3f123df39ac2p-1,
      0x1.02f43f098f1b1p+1, 0x1.33p+9, 0x1.a32846ff513ccp-3};
  expect_golden(golden_options(Discipline::kPriorityPreemptiveResume), want,
                5000, 2350);
}

TEST(Mg1Golden, KlimovFeedback) {
  const std::vector<double> want{
      0x1.7a64378803b1ap+3, 0x1.9cf6e51bc0d2ep-1, 0x1.77p+11,
      0x1.3ce5b1c884bb9p+0, 0x1.863e2f690425fp+1, 0x1.0684f368167b2p+2,
      0x1.c5p+9, 0x1.353f7ced91687p-2, 0x1.b2b2cb3e70bd4p+2,
      0x1.09dbd2c0e75f2p+4, 0x1.105818e8ff15ap+4, 0x1.2b4p+10,
      0x1.989374bc6a7fp-2, 0x1.51a579eccc651p-1, 0x1.2bc1fa53395eap+0,
      0x1.29a426958d72fp+1, 0x1.aap+9, 0x1.22d0e56041893p-2};
  SimOptions opt = golden_options(Discipline::kPriorityNonPreemptive);
  opt.feedback = {{0.0, 0.3, 0.0}, {0.0, 0.0, 0.2}, {0.1, 0.0, 0.0}};
  expect_golden(opt, want, 5321, 2955);
}

}  // namespace
}  // namespace stosched::queueing
