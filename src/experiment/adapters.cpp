#include "experiment/adapters.hpp"

#include <algorithm>
#include <utility>

#include "batch/parallel_machines.hpp"
#include "batch/single_machine.hpp"
#include "online/simulate.hpp"
#include "util/check.hpp"

namespace stosched::experiment {

namespace {

/// The merged, sorted sample grid of a fluid replication: the cost-integral
/// Riemann points plus the reported path points, with per-entry provenance.
struct FluidGrid {
  std::vector<double> times;
  std::vector<int> path_slot;  ///< metric offset of a path point, -1 = cost
  double dt = 0.0;             ///< cost Riemann step
};

FluidGrid fluid_grid(const FluidScenario& s) {
  STOSCHED_REQUIRE(s.scale > 0.0 && s.cost_samples >= 1,
                   "fluid scenario needs a scale and a cost grid");
  const double drain = s.reference_drain_time();
  const double t_end =
      s.t_end > 0.0 ? s.t_end : s.horizon_factor * drain * s.scale;
  STOSCHED_REQUIRE(t_end > 0.0, "fluid horizon must be positive");
  FluidGrid g;
  g.dt = t_end / static_cast<double>(s.cost_samples);
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

/// The preconditions every online arm shares, checked before anything runs.
void require_online_arm(const OnlineScenario& s,
                        const online::OnlinePolicyPtr& policy) {
  STOSCHED_REQUIRE(policy != nullptr, "online policy arm must be non-null");
  STOSCHED_REQUIRE(s.arrival != nullptr,
                   "online scenario needs an arrival process");
}

/// Every arm's bound replication, in arm order, as one paired comparison.
template <class Scenario, class Arm>
PairedResult compare(const Scenario& s, const std::vector<Arm>& arms,
                     const EngineOptions& opt, Pairing pairing) {
  std::vector<Replication> reps;
  reps.reserve(arms.size());
  for (const auto& a : arms) reps.push_back(replication(s, a));
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) { reps[k](rng, out); });
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

std::size_t metric_count(const QueueScenario& s) {
  return queueing::mg1_metric_count(s.classes.size());
}

std::size_t metric_count(const PollingScenario& s) {
  return queueing::polling_metric_count(s.classes.size());
}

std::size_t metric_count(const NetworkScenario&) {
  return queueing::network_metric_count();
}

std::size_t metric_count(const MmmScenario& s) {
  return queueing::mmm_metric_count(s.classes.size());
}

std::size_t metric_count(const OnlineScenario&) {
  return online::online_metric_count();
}

std::size_t metric_count(const FluidScenario& s) {
  return 1 + s.path_fractions.size() * s.classes.size();
}

Replication replication(const QueueScenario& s, const QueuePolicy& arm) {
  queueing::SimOptions opt = s.options();
  opt.discipline = arm.discipline;
  opt.priority = arm.priority;
  return [classes = s.classes, opt = std::move(opt)](Rng& rng,
                                                     std::span<double> out) {
    queueing::run_replication(classes, opt, rng, out);
  };
}

Replication replication(const PollingScenario& s, const PollingPolicy& arm) {
  return [classes = s.classes, opt = s.options(arm.discipline, arm.limit)](
             Rng& rng, std::span<double> out) {
    queueing::run_replication(classes, opt, rng, out);
  };
}

Replication replication(const NetworkScenario& s, const NetworkPolicy& arm) {
  queueing::NetworkConfig cfg = s.config;
  cfg.station_priority = arm.station_priority;
  cfg.validate();
  return [cfg = std::move(cfg), horizon = s.horizon, samples = s.samples](
             Rng& rng, std::span<double> out) {
    queueing::run_replication(cfg, horizon, samples, rng, out);
  };
}

Replication replication(const MmmScenario& s, const MmmPolicy& arm) {
  return [classes = s.classes, servers = s.servers, priority = arm.priority,
          horizon = s.horizon,
          warmup = s.warmup](Rng& rng, std::span<double> out) {
    queueing::run_replication(classes, servers, priority, horizon, warmup, rng,
                              out);
  };
}

Replication replication(const FluidScenario& s,
                        const std::vector<std::size_t>& priority) {
  const std::size_t nc = s.classes.size();
  STOSCHED_REQUIRE(s.initial.size() == nc && priority.size() == nc,
                   "fluid scenario shape mismatch");
  std::vector<std::size_t> init(nc);
  for (std::size_t j = 0; j < nc; ++j)
    init[j] = static_cast<std::size_t>(s.scale * s.initial[j]);
  return [classes = s.classes, init = std::move(init), priority,
          grid = fluid_grid(s), scale = s.scale](Rng& rng,
                                                 std::span<double> out) {
    const auto path = queueing::simulate_backlog_path(classes, init, priority,
                                                      grid.times, rng);
    double cost = 0.0;
    for (std::size_t i = 0; i < grid.times.size(); ++i) {
      if (grid.path_slot[i] < 0) {
        for (std::size_t j = 0; j < classes.size(); ++j)
          cost += classes[j].cost * path[i][j] * grid.dt;
      } else {
        for (std::size_t j = 0; j < classes.size(); ++j)
          out[static_cast<std::size_t>(grid.path_slot[i]) + j] =
              path[i][j] / scale;
      }
    }
    out[0] = cost / (scale * scale);  // fluid scaling of the cost integral
  };
}

Replication replication(const RestlessScenario& s,
                        const restless::PriorityTable& priority) {
  return [inst = s.instance(), priority, horizon = s.horizon,
          burnin = s.burnin](Rng& rng, std::span<double> out) {
    restless::run_replication(inst, priority, horizon, burnin, rng, out);
  };
}

Replication replication(const BatchScenario& s, const batch::Order& order) {
  return [jobs = s.jobs, order, machines = s.machines](Rng& rng,
                                                       std::span<double> out) {
    out[0] = batch::simulate_list_policy(jobs, order, machines, rng)
                 .weighted_flowtime;
  };
}

Replication replication(const TreeScenario& s, batch::TreePolicy policy) {
  return [tree = s.tree, machines = s.machines, rate = s.rate, policy](
             Rng& rng, std::span<double> out) {
    out[0] = batch::simulate_tree_makespan(tree, machines, rate, policy, rng);
  };
}

Replication replication(const OnlineScenario& s,
                        const online::OnlinePolicyPtr& policy) {
  require_online_arm(s, policy);
  return [s, policy](Rng& rng, std::span<double> out) {
    online::run_online_replication(*s.arrival, s.types, s.env, s.horizon,
                                   s.bound, *policy, rng, out);
  };
}

PairedResult compare_queue_policies(const QueueScenario& s,
                                    const std::vector<QueuePolicy>& arms,
                                    const EngineOptions& opt,
                                    Pairing pairing) {
  return compare(s, arms, opt, pairing);
}

PairedResult compare_polling_policies(const PollingScenario& s,
                                      const std::vector<PollingPolicy>& arms,
                                      const EngineOptions& opt,
                                      Pairing pairing) {
  return compare(s, arms, opt, pairing);
}

PairedResult compare_restless_policies(
    const RestlessScenario& s,
    const std::vector<restless::PriorityTable>& arms, const EngineOptions& opt,
    Pairing pairing) {
  return compare(s, arms, opt, pairing);
}

PairedResult compare_network_policies(const NetworkScenario& s,
                                      const std::vector<NetworkPolicy>& arms,
                                      const EngineOptions& opt,
                                      Pairing pairing) {
  return compare(s, arms, opt, pairing);
}

PairedResult compare_mmm_policies(const MmmScenario& s,
                                  const std::vector<MmmPolicy>& arms,
                                  const EngineOptions& opt, Pairing pairing) {
  return compare(s, arms, opt, pairing);
}

PairedResult compare_fluid_policies(
    const FluidScenario& s, const std::vector<std::vector<std::size_t>>& arms,
    const EngineOptions& opt, Pairing pairing) {
  return compare(s, arms, opt, pairing);
}

PairedResult compare_tree_policies(const TreeScenario& s,
                                   const std::vector<batch::TreePolicy>& arms,
                                   const EngineOptions& opt, Pairing pairing) {
  return compare(s, arms, opt, pairing);
}

PairedResult compare_online_policies(
    const OnlineScenario& s, const std::vector<online::OnlinePolicyPtr>& arms,
    const EngineOptions& opt, Pairing pairing) {
  for (const auto& a : arms) require_online_arm(s, a);
  // The instance and its offline bound do not depend on the arm: under CRN
  // they are built once per replication and shared by every arm.
  return run_paired(
      opt, arms.size(), metric_count(s), pairing,
      [&](std::size_t, Rng& rng) {
        return online::prepare_online_replication(
            *s.arrival, s.types, s.env, s.horizon, s.bound, rng);
      },
      [&](const online::OnlinePath& path, std::size_t k,
          std::span<double> out) {
        online::evaluate_online_replication(path, s.env, s.types, *arms[k],
                                            out);
      });
}

}  // namespace stosched::experiment
