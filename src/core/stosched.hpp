// stosched.hpp — umbrella header for libstosched.
//
// One include gives the full public API:
//   * §1 batch scheduling: jobs, WSEPT/Sevcik, parallel machines, exact DPs,
//     uniform machines, flow shops, precedence trees;
//   * §2 bandits: Gittins indices (three algorithms), bandit simulation,
//     switching costs, restless bandits (Whittle index, LP relaxation,
//     primal-dual heuristic);
//   * §3 queueing control: multiclass M/G/1 (simulation + closed forms),
//     Klimov networks, parallel servers, polling, multistation stability,
//     fluid models;
//   * stochastic online scheduling: jobs arriving over time to identical /
//     related / unrelated machines, greedy & index assignment policies,
//     offline lower bounds and empirical competitive ratios;
//   * unifying machinery: conservation laws, achievable regions, adaptive
//     greedy indices, priority-rule catalog;
//   * observability: metrics registry (counters and deterministic
//     latency histograms) and run provenance;
//   * the experiment engine: replication driver, CRN paired comparisons,
//     sequential-precision stopping, scenario registry and adapters;
//   * substrates: distributions, RNG, statistics, discrete-event kernel,
//     LP solver, finite MDP solvers.
#pragma once

#include "util/check.hpp"
#include "util/contract.hpp"
#include "util/joint_space.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include "obs/obs.hpp"

#include "dist/arrival.hpp"
#include "dist/distribution.hpp"

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"

#include "lp/adaptive_greedy.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"

#include "mdp/mdp.hpp"
#include "mdp/solve.hpp"

#include "batch/job.hpp"
#include "batch/single_machine.hpp"
#include "batch/parallel_machines.hpp"
#include "batch/subset_dp.hpp"
#include "batch/uniform_machines.hpp"
#include "batch/flow_shop.hpp"
#include "batch/precedence.hpp"

#include "bandit/project.hpp"
#include "bandit/gittins.hpp"
#include "bandit/bandit_sim.hpp"
#include "bandit/switching.hpp"

#include "restless/restless_project.hpp"
#include "restless/whittle.hpp"
#include "restless/relaxation.hpp"
#include "restless/restless_sim.hpp"

#include "online/model.hpp"
#include "online/policies.hpp"
#include "online/lower_bound.hpp"
#include "online/simulate.hpp"

#include "queueing/mg1.hpp"
#include "queueing/mg1_analytic.hpp"
#include "queueing/kernel.hpp"
#include "queueing/klimov.hpp"
#include "queueing/parallel_servers.hpp"
#include "queueing/polling.hpp"
#include "queueing/network.hpp"
#include "queueing/fluid.hpp"

#include "core/conservation.hpp"
#include "core/achievable_region.hpp"
#include "core/policy.hpp"

#include "experiment/engine.hpp"
#include "experiment/scenario.hpp"
#include "experiment/adapters.hpp"
