// adapters.hpp — glue between scenarios, simulators and the engine.
//
// Each simulator family exposes a `run_replication(model, Rng&, out)` entry
// point in its own module; this layer pairs that with the scenario registry
// and a *policy arm* type, so an experiment reads as
//
//     auto res = run_queue(queue_scenario("t9-three-class"),
//                          {"c-mu", Discipline::kPriorityNonPreemptive, cmu},
//                          opts);
//     auto cmp = compare_queue_policies(scenario, {fcfs, cmu}, opts,
//                                       Pairing::kCommonRandomNumbers);
//
// The policy arm is deliberately separate from the scenario: a CRN
// comparison varies the arm while replaying the same workload randomness.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "batch/job.hpp"
#include "experiment/engine.hpp"
#include "experiment/scenario.hpp"
#include "online/policies.hpp"
#include "online/simulate.hpp"
#include "restless/restless_sim.hpp"

namespace stosched::experiment {

/// One M/G/1 scheduling policy under comparison.
struct QueuePolicy {
  std::string name;
  queueing::Discipline discipline = queueing::Discipline::kFcfs;
  std::vector<std::size_t> priority;  ///< empty for FCFS
};

/// One polling discipline under comparison.
struct PollingPolicy {
  std::string name;
  queueing::PollingDiscipline discipline =
      queueing::PollingDiscipline::kExhaustive;
  std::size_t limit = 1;
};

/// One per-station priority assignment for a network scenario. Empty lists
/// mean FCFS at every station; non-empty lists must cover each station's
/// classes exactly (NetworkConfig::validate enforces it).
struct NetworkPolicy {
  std::string name;
  std::vector<std::vector<std::size_t>> station_priority;
};

/// One static priority order for an M/M/m scenario.
struct MmmPolicy {
  std::string name;
  std::vector<std::size_t> priority;
};

/// The named policy arms of the Lu–Kumar stability experiment, in bench F6
/// order: the destabilizing pair (arm 0), FCFS, and the safe first-stage
/// pair — the canonical bad/stable contrast on the "lu-kumar" scenario.
std::vector<NetworkPolicy> lu_kumar_policies();

/// The policy arms of the Rybko–Stolyar experiment: the destabilizing
/// exit-class priority pair (arm 0), FCFS, and the safe entry-class pair —
/// for the "rybko-stolyar" scenario.
std::vector<NetworkPolicy> rybko_stolyar_policies();

/// Buffer-order policy arms for a re-entrant line (single route, class
/// index = buffer position): LBFS (last buffer first served, arm 0), FBFS
/// (first buffer first), and FCFS. Derived generically from the config's
/// station/class layout, so any reentrant_line_network instance works.
std::vector<NetworkPolicy> reentrant_policies(
    const queueing::NetworkConfig& config);

/// The canonical online-scheduling arms, in bench F11 order: greedy WSEPT
/// (arm 0, the baseline paired differences are taken against),
/// MinIncrease, single-sample SEPT, and random assignment.
std::vector<online::OnlinePolicyPtr> online_policy_arms();

/// Metric layout of each scenario family (delegates to the simulator).
std::size_t metric_count(const QueueScenario& s);
std::vector<std::string> metric_names(const QueueScenario& s);
std::size_t metric_count(const PollingScenario& s);
std::vector<std::string> metric_names(const PollingScenario& s);
std::size_t metric_count(const NetworkScenario& s);
std::vector<std::string> metric_names(const NetworkScenario& s);
std::size_t metric_count(const MmmScenario& s);
std::vector<std::string> metric_names(const MmmScenario& s);
/// Fluid layout: [cost_integral, then per path fraction i, per class j:
/// scaled level q_j(t_i)/n].
std::size_t metric_count(const FluidScenario& s);
std::vector<std::string> metric_names(const FluidScenario& s);
/// Online layout: [ratio, weighted_completion, lower_bound, jobs].
std::size_t metric_count(const OnlineScenario& s);
std::vector<std::string> metric_names(const OnlineScenario& s);

/// Uniform replication entry points on scenario types.
void run_replication(const QueueScenario& s, const QueuePolicy& policy,
                     Rng& rng, std::span<double> out);
void run_replication(const PollingScenario& s, const PollingPolicy& policy,
                     Rng& rng, std::span<double> out);
/// Restless: single metric, the average per-epoch reward.
void run_replication(const RestlessScenario& s,
                     const restless::PriorityTable& priority, Rng& rng,
                     std::span<double> out);
/// Batch: single metric, the realized weighted flowtime of `order` (list
/// policy on s.machines machines; the exact single-machine path when
/// machines == 1).
void run_replication(const BatchScenario& s, const batch::Order& order,
                     Rng& rng, std::span<double> out);
void run_replication(const NetworkScenario& s, const NetworkPolicy& policy,
                     Rng& rng, std::span<double> out);
void run_replication(const MmmScenario& s, const MmmPolicy& policy, Rng& rng,
                     std::span<double> out);
/// Fluid: the policy arm is a priority order over the fluid classes.
void run_replication(const FluidScenario& s,
                     const std::vector<std::size_t>& priority, Rng& rng,
                     std::span<double> out);
/// Tree: single metric, the realized makespan under `policy`.
void run_replication(const TreeScenario& s, batch::TreePolicy policy,
                     Rng& rng, std::span<double> out);
void run_replication(const OnlineScenario& s,
                     const online::OnlinePolicy& policy, Rng& rng,
                     std::span<double> out);

/// Engine drivers: replications of one policy on one scenario.
EngineResult run_queue(const QueueScenario& s, const QueuePolicy& policy,
                       const EngineOptions& opt);
EngineResult run_restless(const RestlessScenario& s,
                          const restless::PriorityTable& priority,
                          const EngineOptions& opt);
EngineResult run_batch(const BatchScenario& s, const batch::Order& order,
                       const EngineOptions& opt);
EngineResult run_network(const NetworkScenario& s, const NetworkPolicy& policy,
                         const EngineOptions& opt);
EngineResult run_fluid(const FluidScenario& s,
                       const std::vector<std::size_t>& priority,
                       const EngineOptions& opt);
EngineResult run_online(const OnlineScenario& s,
                        const online::OnlinePolicy& policy,
                        const EngineOptions& opt);

/// Paired policy comparisons (arm 0 is the baseline the differences are
/// taken against).
PairedResult compare_queue_policies(const QueueScenario& s,
                                    const std::vector<QueuePolicy>& arms,
                                    const EngineOptions& opt, Pairing pairing);
PairedResult compare_polling_policies(const PollingScenario& s,
                                      const std::vector<PollingPolicy>& arms,
                                      const EngineOptions& opt,
                                      Pairing pairing);
PairedResult compare_restless_policies(
    const RestlessScenario& s,
    const std::vector<restless::PriorityTable>& arms, const EngineOptions& opt,
    Pairing pairing);
PairedResult compare_network_policies(const NetworkScenario& s,
                                      const std::vector<NetworkPolicy>& arms,
                                      const EngineOptions& opt,
                                      Pairing pairing);
PairedResult compare_mmm_policies(const MmmScenario& s,
                                  const std::vector<MmmPolicy>& arms,
                                  const EngineOptions& opt, Pairing pairing);
PairedResult compare_fluid_policies(
    const FluidScenario& s, const std::vector<std::vector<std::size_t>>& arms,
    const EngineOptions& opt, Pairing pairing);
PairedResult compare_tree_policies(const TreeScenario& s,
                                   const std::vector<batch::TreePolicy>& arms,
                                   const EngineOptions& opt, Pairing pairing);
PairedResult compare_online_policies(
    const OnlineScenario& s, const std::vector<online::OnlinePolicyPtr>& arms,
    const EngineOptions& opt, Pairing pairing);

}  // namespace stosched::experiment
