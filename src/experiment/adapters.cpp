#include "experiment/adapters.hpp"

#include <algorithm>
#include <utility>

#include "batch/parallel_machines.hpp"
#include "batch/single_machine.hpp"
#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched::experiment {

namespace {

queueing::SimOptions arm_options(const QueueScenario& s,
                                 const QueuePolicy& policy) {
  queueing::SimOptions opt = s.options();
  opt.discipline = policy.discipline;
  opt.priority = policy.priority;
  return opt;
}

queueing::NetworkConfig arm_config(const NetworkScenario& s,
                                   const NetworkPolicy& policy) {
  queueing::NetworkConfig cfg = s.config;
  cfg.station_priority = policy.station_priority;
  cfg.validate();
  return cfg;
}

/// The merged, sorted sample grid of a fluid replication: the cost-integral
/// Riemann points plus the reported path points, with per-entry provenance.
struct FluidGrid {
  std::vector<double> times;
  std::vector<int> path_slot;  ///< metric offset of a path point, -1 = cost
  double t_end = 0.0;
  double dt = 0.0;  ///< cost Riemann step
};

FluidGrid fluid_grid(const FluidScenario& s) {
  STOSCHED_REQUIRE(s.scale > 0.0 && s.cost_samples >= 1,
                   "fluid scenario needs a scale and a cost grid");
  const double drain = s.reference_drain_time();
  FluidGrid g;
  g.t_end = s.t_end > 0.0 ? s.t_end : s.horizon_factor * drain * s.scale;
  STOSCHED_REQUIRE(g.t_end > 0.0, "fluid horizon must be positive");
  g.dt = g.t_end / static_cast<double>(s.cost_samples);
  const std::size_t nc = s.classes.size();
  std::vector<std::pair<double, int>> grid;
  grid.reserve(s.cost_samples + s.path_fractions.size());
  for (std::size_t i = 1; i <= s.cost_samples; ++i)
    grid.emplace_back(g.dt * static_cast<double>(i), -1);
  for (std::size_t i = 0; i < s.path_fractions.size(); ++i)
    grid.emplace_back(s.path_fractions[i] * drain * s.scale,
                      static_cast<int>(1 + i * nc));
  std::stable_sort(grid.begin(), grid.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  g.times.reserve(grid.size());
  g.path_slot.reserve(grid.size());
  for (const auto& [t, slot] : grid) {
    g.times.push_back(t);
    g.path_slot.push_back(slot);
  }
  return g;
}

void fluid_replication(const FluidScenario& s, const FluidGrid& grid,
                       const std::vector<std::size_t>& priority, Rng& rng,
                       std::span<double> out) {
  const std::size_t nc = s.classes.size();
  STOSCHED_REQUIRE(s.initial.size() == nc && priority.size() == nc,
                   "fluid scenario shape mismatch");
  std::vector<std::size_t> init(nc);
  for (std::size_t j = 0; j < nc; ++j)
    init[j] = static_cast<std::size_t>(s.scale * s.initial[j]);
  const auto path =
      queueing::simulate_backlog_path(s.classes, init, priority, grid.times,
                                      rng);
  double cost = 0.0;
  for (std::size_t i = 0; i < grid.times.size(); ++i) {
    if (grid.path_slot[i] < 0) {
      for (std::size_t j = 0; j < nc; ++j)
        cost += s.classes[j].cost * path[i][j] * grid.dt;
    } else {
      for (std::size_t j = 0; j < nc; ++j)
        out[static_cast<std::size_t>(grid.path_slot[i]) + j] =
            path[i][j] / s.scale;
    }
  }
  out[0] = cost / (s.scale * s.scale);  // fluid scaling of the cost integral
}

}  // namespace

std::vector<NetworkPolicy> lu_kumar_policies() {
  return {{"bad priority (2>3, 4>1)", {{3, 0}, {1, 2}}},
          {"FCFS", {}},
          {"safe priority (1>4, 3>2)", {{0, 3}, {2, 1}}}};
}

std::vector<NetworkPolicy> rybko_stolyar_policies() {
  // Station 0 serves classes {0, 3}, station 1 serves {1, 2}; the exit
  // classes (1 and 3) form the virtual station that self-starves under the
  // "bad" pair.
  return {{"exit priority (3>0, 1>2)", {{3, 0}, {1, 2}}},
          {"FCFS", {}},
          {"entry priority (0>3, 2>1)", {{0, 3}, {2, 1}}}};
}

std::vector<online::OnlinePolicyPtr> online_policy_arms() {
  return {online::greedy_wsept_policy(), online::min_increase_policy(),
          online::single_sample_policy(), online::random_assignment_policy()};
}

std::vector<NetworkPolicy> reentrant_policies(
    const queueing::NetworkConfig& config) {
  // Group each station's classes in buffer (= class index) order; FBFS is
  // that order, LBFS its reverse.
  std::vector<std::vector<std::size_t>> fbfs(config.num_stations);
  for (std::size_t c = 0; c < config.classes.size(); ++c)
    fbfs[config.classes[c].station].push_back(c);
  std::vector<std::vector<std::size_t>> lbfs = fbfs;
  for (auto& station : lbfs) std::reverse(station.begin(), station.end());
  return {{"LBFS", std::move(lbfs)}, {"FBFS", std::move(fbfs)}, {"FCFS", {}}};
}

std::size_t metric_count(const QueueScenario& s) {
  return queueing::mg1_metric_count(s.classes.size());
}

std::vector<std::string> metric_names(const QueueScenario& s) {
  return queueing::mg1_metric_names(s.classes.size());
}

std::size_t metric_count(const PollingScenario& s) {
  return queueing::polling_metric_count(s.classes.size());
}

std::vector<std::string> metric_names(const PollingScenario& s) {
  return queueing::polling_metric_names(s.classes.size());
}

std::size_t metric_count(const NetworkScenario&) {
  return queueing::network_metric_count();
}

std::vector<std::string> metric_names(const NetworkScenario&) {
  return queueing::network_metric_names();
}

std::size_t metric_count(const MmmScenario& s) {
  return queueing::mmm_metric_count(s.classes.size());
}

std::vector<std::string> metric_names(const MmmScenario& s) {
  return queueing::mmm_metric_names(s.classes.size());
}

std::size_t metric_count(const OnlineScenario&) {
  return online::online_metric_count();
}

std::vector<std::string> metric_names(const OnlineScenario&) {
  return online::online_metric_names();
}

std::size_t metric_count(const FluidScenario& s) {
  return 1 + s.path_fractions.size() * s.classes.size();
}

std::vector<std::string> metric_names(const FluidScenario& s) {
  std::vector<std::string> names{"cost_integral"};
  for (std::size_t i = 0; i < s.path_fractions.size(); ++i)
    for (std::size_t j = 0; j < s.classes.size(); ++j) {
      // Built piecewise: GCC 12's -Wrestrict trips on chained string
      // concatenation here.
      std::string n = "q";
      n += std::to_string(j);
      n += "_at_f";
      n += std::to_string(i);
      names.push_back(std::move(n));
    }
  return names;
}

void run_replication(const QueueScenario& s, const QueuePolicy& policy,
                     Rng& rng, std::span<double> out) {
  queueing::run_replication(s.classes, arm_options(s, policy), rng, out);
}

void run_replication(const PollingScenario& s, const PollingPolicy& policy,
                     Rng& rng, std::span<double> out) {
  queueing::run_replication(s.classes,
                            s.options(policy.discipline, policy.limit), rng,
                            out);
}

void run_replication(const RestlessScenario& s,
                     const restless::PriorityTable& priority, Rng& rng,
                     std::span<double> out) {
  restless::run_replication(s.instance(), priority, s.horizon, s.burnin, rng,
                            out);
}

void run_replication(const BatchScenario& s, const batch::Order& order,
                     Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == 1, "batch replication reports one metric");
  // machines == 1 keeps the original single-machine draw sequence so
  // existing seeds reproduce bit-for-bit.
  out[0] = s.machines == 1
               ? batch::simulate_weighted_flowtime(s.jobs, order, rng)
               : batch::simulate_list_policy(s.jobs, order, s.machines, rng)
                     .weighted_flowtime;
}

void run_replication(const NetworkScenario& s, const NetworkPolicy& policy,
                     Rng& rng, std::span<double> out) {
  queueing::run_replication(arm_config(s, policy), s.horizon, s.samples, rng,
                            out);
}

void run_replication(const MmmScenario& s, const MmmPolicy& policy, Rng& rng,
                     std::span<double> out) {
  queueing::run_replication(s.classes, s.servers, policy.priority, s.horizon,
                            s.warmup, rng, out);
}

void run_replication(const FluidScenario& s,
                     const std::vector<std::size_t>& priority, Rng& rng,
                     std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == metric_count(s), "metric span size mismatch");
  fluid_replication(s, fluid_grid(s), priority, rng, out);
}

void run_replication(const TreeScenario& s, batch::TreePolicy policy,
                     Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == 1, "tree replication reports one metric");
  out[0] =
      batch::simulate_tree_makespan(s.tree, s.machines, s.rate, policy, rng);
}

void run_replication(const OnlineScenario& s,
                     const online::OnlinePolicy& policy, Rng& rng,
                     std::span<double> out) {
  STOSCHED_REQUIRE(s.arrival != nullptr,
                   "online scenario needs an arrival process");
  online::run_online_replication(*s.arrival, s.types, s.env, s.horizon,
                                 s.bound, policy, rng, out);
}

EngineResult run_queue(const QueueScenario& s, const QueuePolicy& policy,
                       const EngineOptions& opt) {
  const queueing::SimOptions sim_opt = arm_options(s, policy);
  return run(opt, metric_count(s),
             [&](std::size_t, Rng& rng, std::span<double> out) {
               queueing::run_replication(s.classes, sim_opt, rng, out);
             });
}

EngineResult run_restless(const RestlessScenario& s,
                          const restless::PriorityTable& priority,
                          const EngineOptions& opt) {
  const restless::RestlessInstance inst = s.instance();
  return run(opt, 1, [&](std::size_t, Rng& rng, std::span<double> out) {
    restless::run_replication(inst, priority, s.horizon, s.burnin, rng, out);
  });
}

EngineResult run_batch(const BatchScenario& s, const batch::Order& order,
                       const EngineOptions& opt) {
  return run(opt, 1, [&](std::size_t, Rng& rng, std::span<double> out) {
    run_replication(s, order, rng, out);
  });
}

EngineResult run_network(const NetworkScenario& s, const NetworkPolicy& policy,
                         const EngineOptions& opt) {
  const queueing::NetworkConfig cfg = arm_config(s, policy);
  return run(opt, metric_count(s),
             [&](std::size_t, Rng& rng, std::span<double> out) {
               queueing::run_replication(cfg, s.horizon, s.samples, rng, out);
             });
}

EngineResult run_fluid(const FluidScenario& s,
                       const std::vector<std::size_t>& priority,
                       const EngineOptions& opt) {
  const FluidGrid grid = fluid_grid(s);
  return run(opt, metric_count(s),
             [&](std::size_t, Rng& rng, std::span<double> out) {
               fluid_replication(s, grid, priority, rng, out);
             });
}

EngineResult run_online(const OnlineScenario& s,
                        const online::OnlinePolicy& policy,
                        const EngineOptions& opt) {
  return run(opt, metric_count(s),
             [&](std::size_t, Rng& rng, std::span<double> out) {
               run_replication(s, policy, rng, out);
             });
}

PairedResult compare_queue_policies(const QueueScenario& s,
                                    const std::vector<QueuePolicy>& arms,
                                    const EngineOptions& opt,
                                    Pairing pairing) {
  STOSCHED_EXPECTS(!arms.empty(), "paired comparison needs at least one arm");
  std::vector<queueing::SimOptions> sim_opts;
  sim_opts.reserve(arms.size());
  for (const auto& a : arms) sim_opts.push_back(arm_options(s, a));
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      queueing::run_replication(s.classes, sim_opts[k], rng,
                                                out);
                    });
}

PairedResult compare_polling_policies(const PollingScenario& s,
                                      const std::vector<PollingPolicy>& arms,
                                      const EngineOptions& opt,
                                      Pairing pairing) {
  std::vector<queueing::PollingOptions> sim_opts;
  sim_opts.reserve(arms.size());
  for (const auto& a : arms)
    sim_opts.push_back(s.options(a.discipline, a.limit));
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      queueing::run_replication(s.classes, sim_opts[k], rng,
                                                out);
                    });
}

PairedResult compare_restless_policies(
    const RestlessScenario& s,
    const std::vector<restless::PriorityTable>& arms, const EngineOptions& opt,
    Pairing pairing) {
  const restless::RestlessInstance inst = s.instance();
  return run_paired(opt, arms.size(), 1, pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      restless::run_replication(inst, arms[k], s.horizon,
                                                s.burnin, rng, out);
                    });
}

PairedResult compare_network_policies(const NetworkScenario& s,
                                      const std::vector<NetworkPolicy>& arms,
                                      const EngineOptions& opt,
                                      Pairing pairing) {
  std::vector<queueing::NetworkConfig> cfgs;
  cfgs.reserve(arms.size());
  for (const auto& a : arms) cfgs.push_back(arm_config(s, a));
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      queueing::run_replication(cfgs[k], s.horizon, s.samples,
                                                rng, out);
                    });
}

PairedResult compare_mmm_policies(const MmmScenario& s,
                                  const std::vector<MmmPolicy>& arms,
                                  const EngineOptions& opt, Pairing pairing) {
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      run_replication(s, arms[k], rng, out);
                    });
}

PairedResult compare_fluid_policies(
    const FluidScenario& s, const std::vector<std::vector<std::size_t>>& arms,
    const EngineOptions& opt, Pairing pairing) {
  const FluidGrid grid = fluid_grid(s);
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      fluid_replication(s, grid, arms[k], rng, out);
                    });
}

PairedResult compare_tree_policies(const TreeScenario& s,
                                   const std::vector<batch::TreePolicy>& arms,
                                   const EngineOptions& opt, Pairing pairing) {
  return run_paired(opt, arms.size(), 1, pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      run_replication(s, arms[k], rng, out);
                    });
}

PairedResult compare_online_policies(
    const OnlineScenario& s, const std::vector<online::OnlinePolicyPtr>& arms,
    const EngineOptions& opt, Pairing pairing) {
  STOSCHED_EXPECTS(!arms.empty(), "paired comparison needs at least one arm");
  for (const auto& a : arms)
    STOSCHED_REQUIRE(a != nullptr, "online policy arm must be non-null");
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      run_replication(s, *arms[k], rng, out);
                    });
}

}  // namespace stosched::experiment
