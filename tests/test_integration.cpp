// Cross-module integration tests: end-to-end flows a downstream user would
// run, touching several subsystems at once. These mirror the examples and
// the experiment harness in miniature.
#include <gtest/gtest.h>

#include <cmath>

#include "core/stosched.hpp"

namespace stosched {
namespace {

TEST(Integration, BatchPipelineWseptAgainstSimulatedAlternatives) {
  // Build a batch, rank with WSEPT, evaluate exactly and by simulation,
  // and confirm WSEPT dominates a random order end to end.
  Rng rng(1);
  const batch::Batch jobs = batch::random_batch(7, rng);
  const auto wsept = batch::wsept_order(jobs);
  const auto rnd = batch::random_order(jobs.size(), rng);

  const double exact_wsept = batch::exact_weighted_flowtime(jobs, wsept);
  const double exact_rnd = batch::exact_weighted_flowtime(jobs, rnd);
  EXPECT_LE(exact_wsept, exact_rnd + 1e-12);

  const experiment::BatchScenario scenario{"wsept-pipeline", "", jobs, 1};
  experiment::EngineOptions opt;
  opt.seed = 2;
  opt.max_replications = 4000;
  const auto sim = experiment::run_policy(scenario, wsept, opt);
  EXPECT_TRUE(make_estimate(sim.metrics[0]).covers(exact_wsept));
}

TEST(Integration, GittinsPipelineFromProjectsToSimulation) {
  Rng rng(3);
  bandit::BanditInstance inst;
  inst.beta = 0.92;
  for (int j = 0; j < 3; ++j)
    inst.projects.push_back(bandit::random_project(3, rng));
  const std::vector<std::size_t> start{0, 0, 0};

  const auto table = bandit::gittins_table(inst);
  const double exact = bandit::index_policy_value(inst, table, start);
  const double opt = bandit::optimal_value(inst, start);
  EXPECT_NEAR(exact, opt, 1e-6 * (1.0 + std::abs(opt)));

  RunningStat s;
  Rng sim_rng(4);
  for (int i = 0; i < 5000; ++i)
    s.push(bandit::simulate_index_policy(inst, table, start, sim_rng));
  EXPECT_NEAR(s.mean(), exact, 6.0 * s.sem());
}

TEST(Integration, WhittlePipelineIndexToSimulationToBound) {
  Rng rng(5);
  restless::RestlessProject proto;
  // An indexable prototype: identical dynamics, state-dependent advantage.
  proto.reward_passive = {0.0, 0.0, 0.0};
  proto.reward_active = {0.2, 0.5, 0.9};
  proto.trans_passive = {{0.6, 0.3, 0.1}, {0.3, 0.4, 0.3}, {0.1, 0.3, 0.6}};
  proto.trans_active = proto.trans_passive;

  const auto w = restless::whittle_index(proto);
  ASSERT_TRUE(w.indexable);

  const auto inst = restless::symmetric_instance(proto, 8, 2);
  restless::PriorityTable table(8, w.index);
  Rng sim_rng(6);
  const double whittle_reward =
      restless::simulate_priority_policy(inst, table, 30000, 3000, sim_rng);
  const double bound = restless::solve_relaxation_symmetric(proto, 8, 2).bound;
  EXPECT_LE(whittle_reward, bound * 1.02 + 0.02);
  // Whittle should capture most of the relaxation bound here.
  EXPECT_GT(whittle_reward, 0.6 * bound);
}

TEST(Integration, QueuePipelineCmuSimulationRegionAudit) {
  std::vector<queueing::ClassSpec> classes{
      {0.25, exponential_dist(1.0), 1.0},
      {0.2, erlang_dist(2, 3.0), 2.5},
      {0.15, hyperexp2_dist(1.3, 3.0), 0.7}};
  queueing::SimOptions opt;
  opt.discipline = queueing::Discipline::kPriorityNonPreemptive;
  opt.priority = queueing::cmu_order(classes);
  // The low-priority heavy-tail class converges slowly; 6e5 keeps the 5%
  // region-containment check comfortably clear of Monte-Carlo noise.
  opt.horizon = 6e5;
  opt.warmup = 6e4;
  Rng rng(7);
  const auto res = simulate_mg1(classes, opt, rng);

  // Simulated cost within a few percent of Cobham, conservation law holds,
  // and the simulated performance point sits inside the achievable region.
  const double analytic = queueing::cobham_cost_rate(classes, opt.priority);
  EXPECT_NEAR(res.cost_rate, analytic, 0.08 * analytic);
  EXPECT_LT(core::audit_conservation(classes, res).rel_error, 0.06);

  std::vector<double> x(classes.size());
  for (std::size_t j = 0; j < classes.size(); ++j)
    x[j] = classes[j].arrival_rate * classes[j].service->mean() *
           res.per_class[j].mean_wait;
  EXPECT_TRUE(core::mg1_region_contains(classes, x, 0.05));
}

TEST(Integration, KlimovEndToEnd) {
  queueing::KlimovNetwork net;
  net.classes = {{0.15, exponential_dist(2.0), 2.0},
                 {0.1, exponential_dist(1.0), 1.0},
                 {0.1, exponential_dist(1.5), 3.0}};
  net.feedback = {{0.0, 0.4, 0.0}, {0.0, 0.0, 0.3}, {0.1, 0.0, 0.0}};
  ASSERT_LT(queueing::klimov_traffic_intensity(net), 0.9);

  const auto res = queueing::klimov_indices(net);
  Rng rng(8);
  const auto sim = queueing::simulate_klimov(net, res.priority, 2e5, 2e4, rng);
  // Sanity: simulated throughput matches the traffic equations.
  const auto rates = queueing::effective_arrival_rates(net);
  for (std::size_t j = 0; j < net.num_classes(); ++j)
    EXPECT_NEAR(sim.per_class[j].throughput, rates[j], 0.08 * rates[j] + 0.01);
}

TEST(Integration, FluidPredictsStochasticPolicyRanking) {
  // The fluid cost ranking of two priority orders must match the stochastic
  // draining cost ranking (F7's premise).
  std::vector<queueing::FluidClass> classes{{0.2, 1.5, 3.0}, {0.2, 1.0, 1.0}};
  const std::vector<double> q0{30.0, 30.0};
  const auto good = queueing::fluid_cmu_priority(classes);
  std::vector<std::size_t> bad(good.rbegin(), good.rend());
  const double fluid_good =
      queueing::fluid_drain(classes, q0, good).cost_integral;
  const double fluid_bad =
      queueing::fluid_drain(classes, q0, bad).cost_integral;
  ASSERT_LT(fluid_good, fluid_bad);

  // Stochastic counterpart through the experiment engine: a CRN-paired
  // fluid-scenario comparison (scale 1, absolute horizon) accumulating
  // holding cost along the sampled paths.
  experiment::FluidScenario scenario;
  scenario.name = "fluid-ranking";
  scenario.classes = classes;
  scenario.initial = q0;
  scenario.scale = 1.0;
  scenario.t_end = 80.0;
  scenario.cost_samples = 80;
  experiment::EngineOptions opt;
  opt.seed = 11;
  opt.max_replications = 60;
  const auto cmp = experiment::compare_fluid_policies(
      scenario, {good, bad}, opt, experiment::Pairing::kCommonRandomNumbers);
  EXPECT_LT(cmp.arm[0][0].mean(), cmp.arm[1][0].mean());
}

TEST(Integration, UmbrellaHeaderExposesEverything) {
  // Compile-time surface check: one symbol per subsystem.
  (void)sizeof(Rng);
  (void)sizeof(batch::Job);
  (void)sizeof(bandit::MarkovProject);
  (void)sizeof(restless::RestlessProject);
  (void)sizeof(queueing::ClassSpec);
  (void)sizeof(core::ConservationAudit);
  (void)sizeof(lp::Problem);
  (void)sizeof(mdp::FiniteMdp);
  SUCCEED();
}

}  // namespace
}  // namespace stosched
