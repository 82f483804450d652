// bandit_sim.hpp — playing multi-armed bandits: simulation and exact
// evaluation (survey §2, experiment T6).
//
// Policies are *index rules*: each project state carries a number, the rule
// engages a project with maximal current index (ties: lowest project id).
// Gittins = the Gittins index [19]; myopic = the one-step reward; random =
// uniform choice. Small instances are evaluated exactly on the product MDP,
// so T6's "Gittins attains the optimum, myopic does not" verdict carries no
// Monte-Carlo noise.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bandit/project.hpp"
#include "mdp/mdp.hpp"

namespace stosched::bandit {

/// Per-project index tables: indices[j][s] is the priority of project j in
/// state s.
using IndexTable = std::vector<std::vector<double>>;

/// Gittins table via the largest-index algorithm.
IndexTable gittins_table(const BanditInstance& inst);
/// Myopic table: index = immediate reward.
IndexTable myopic_table(const BanditInstance& inst);

/// The project an index rule engages in joint state `states`: the highest
/// index wins, and ties within 1e-14 go to the lowest project id. Every
/// project but `incumbent` has `switch_penalty` taken off its index, which
/// is switching.hpp's hysteresis rule; a zero penalty gives the plain rule.
std::size_t engaged_project(const IndexTable& table,
                            std::span<const std::size_t> states,
                            double switch_penalty = 0.0,
                            std::size_t incumbent = 0);

/// Build the product-space MDP of the instance (actions = which project to
/// engage, in project order). A joint state's code is its JointSpace code
/// (util/joint_space.hpp) with project j's state as digit j.
mdp::FiniteMdp product_mdp(const BanditInstance& inst);

/// Exact optimal expected discounted reward from a joint start state.
double optimal_value(const BanditInstance& inst,
                     const std::vector<std::size_t>& start);

/// Exact value of the index policy induced by `table` from `start`.
double index_policy_value(const BanditInstance& inst, const IndexTable& table,
                          const std::vector<std::size_t>& start);

/// One simulated discounted-reward replication of an index policy, truncated
/// when beta^t < trunc_eps (bias < trunc_eps * Rmax / (1-beta)).
// caller-audit: test-only(Integration.GittinsPipelineFromProjectsToSimulation: a
// simulation that index_policy_value's exact value is checked against)
double simulate_index_policy(const BanditInstance& inst,
                             const IndexTable& table,
                             const std::vector<std::size_t>& start, Rng& rng,
                             double trunc_eps = 1e-10);

}  // namespace stosched::bandit
