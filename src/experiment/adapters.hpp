// adapters.hpp — glue between scenarios, simulators and the engine.
//
// Each simulator family exposes a one-replication entry point (model, Rng&,
// metric span) in its own module; this layer pairs that with the scenario
// registry and a *policy arm* type. `replication(scenario, arm)` binds the
// two once and the drivers hand the result to the engine, so an experiment
// reads as
//
//     auto res = run_policy(queue_scenario("t9-three-class"),
//                           QueuePolicy{"c-mu",
//                                       Discipline::kPriorityNonPreemptive,
//                                       cmu},
//                           opts);
//     auto cmp = compare_queue_policies(scenario, {fcfs, cmu}, opts,
//                                       Pairing::kCommonRandomNumbers);
//
// The policy arm is deliberately separate from the scenario: a CRN
// comparison varies the arm while replaying the same workload randomness.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "batch/job.hpp"
#include "experiment/engine.hpp"
#include "experiment/scenario.hpp"
#include "online/policies.hpp"
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

/// The canonical online-scheduling arms, in bench F11 order: greedy WSEPT
/// (arm 0, the baseline paired differences are taken against),
/// MinIncrease, single-sample SEPT, and random assignment.
std::vector<online::OnlinePolicyPtr> online_policy_arms();

/// Metric layout of each scenario family (delegates to the simulator).
std::size_t metric_count(const QueueScenario& s);
std::size_t metric_count(const PollingScenario& s);
std::size_t metric_count(const NetworkScenario& s);
std::size_t metric_count(const MmmScenario& s);
/// Fluid layout: [cost_integral, then per path fraction i, per class j:
/// scaled level q_j(t_i)/n].
std::size_t metric_count(const FluidScenario& s);
/// Online layout: [ratio, weighted_completion, lower_bound, jobs].
std::size_t metric_count(const OnlineScenario& s);
/// Restless: the average per-epoch reward.
inline std::size_t metric_count(const RestlessScenario&) { return 1; }
/// Batch: the realized weighted flowtime.
inline std::size_t metric_count(const BatchScenario&) { return 1; }
/// Tree: the realized makespan.
inline std::size_t metric_count(const TreeScenario&) { return 1; }

/// One replication of a bound policy arm: run the simulator once on `rng`
/// and write the scenario's metric vector (metric_count(s) doubles) into
/// the zeroed `out`.
using Replication = std::function<void(Rng&, std::span<double>)>;

/// Bind a policy arm to a scenario — the only place each family maps its
/// arm onto simulator input. Per-arm inputs (SimOptions, PollingOptions, the
/// validated NetworkConfig, the fluid sample grid, the RestlessInstance) are
/// built here once, not per replication; the returned callable holds copies
/// of everything it reads, so it may outlive `s` and `arm`.
Replication replication(const QueueScenario& s, const QueuePolicy& arm);
Replication replication(const PollingScenario& s, const PollingPolicy& arm);
Replication replication(const NetworkScenario& s, const NetworkPolicy& arm);
Replication replication(const MmmScenario& s, const MmmPolicy& arm);
/// Fluid: the arm is a priority order over the fluid classes.
Replication replication(const FluidScenario& s,
                        const std::vector<std::size_t>& priority);
Replication replication(const RestlessScenario& s,
                        const restless::PriorityTable& priority);
/// Batch: list policy `order` on s.machines machines (one machine runs the
/// jobs in sequence).
Replication replication(const BatchScenario& s, const batch::Order& order);
Replication replication(const TreeScenario& s, batch::TreePolicy policy);
// The online family has no single-arm binding: compare_online_policies
// prepares each sample path and its lower bound once for all its arms.

/// Engine driver: replications of one policy arm on one scenario. A
/// brace-initialized arm needs its type spelled out to deduce, e.g.
/// `run_policy(s, QueuePolicy{...}, opt)`.
template <class Scenario, class Arm>
EngineResult run_policy(const Scenario& s, const Arm& arm,
                        const EngineOptions& opt) {
  const Replication rep = replication(s, arm);
  return run(opt, metric_count(s),
             [&](std::size_t, Rng& rng, std::span<double> out) {
               rep(rng, out);
             });
}

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
