#include "bandit/bandit_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bandit/gittins.hpp"
#include "mdp/solve.hpp"
#include "util/check.hpp"
#include "util/joint_space.hpp"

namespace stosched::bandit {

IndexTable gittins_table(const BanditInstance& inst) {
  inst.validate();
  IndexTable table;
  table.reserve(inst.projects.size());
  for (const auto& p : inst.projects)
    table.push_back(gittins_largest_index(p, inst.beta));
  return table;
}

IndexTable myopic_table(const BanditInstance& inst) {
  inst.validate();
  IndexTable table;
  table.reserve(inst.projects.size());
  for (const auto& p : inst.projects) table.push_back(p.reward);
  return table;
}

std::size_t engaged_project(const IndexTable& table,
                            std::span<const std::size_t> states,
                            double switch_penalty, std::size_t incumbent) {
  std::size_t best = 0;
  double best_idx = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < states.size(); ++j) {
    const double idx =
        table[j][states[j]] - (j == incumbent ? 0.0 : switch_penalty);
    if (idx > best_idx + 1e-14) {
      best_idx = idx;
      best = j;
    }
  }
  return best;
}

namespace {

/// Digit j is project j's state.
JointSpace joint_space(const BanditInstance& inst) {
  std::vector<std::size_t> radix;
  radix.reserve(inst.projects.size());
  for (const auto& p : inst.projects) radix.push_back(p.num_states());
  return JointSpace(std::move(radix), std::size_t{1} << 22,
                    "product MDP too large");
}

/// Code of the caller's start state, checked digit by digit.
std::size_t start_code(const BanditInstance& inst,
                       const std::vector<std::size_t>& start) {
  STOSCHED_REQUIRE(start.size() == inst.projects.size(),
                   "joint state must cover all projects");
  for (std::size_t j = 0; j < start.size(); ++j)
    STOSCHED_REQUIRE(start[j] < inst.projects[j].num_states(),
                     "project state out of range");
  return joint_space(inst).encode(start);
}

}  // namespace

mdp::FiniteMdp product_mdp(const BanditInstance& inst) {
  inst.validate();
  const JointSpace space = joint_space(inst);
  mdp::FiniteMdp m(space.size());
  std::vector<std::size_t> states;
  for (std::size_t code = 0; code < space.size(); ++code) {
    space.decode(code, states);
    for (std::size_t j = 0; j < inst.projects.size(); ++j) {
      const auto& proj = inst.projects[j];
      mdp::Action a;
      a.reward = proj.reward[states[j]];
      a.label = static_cast<int>(j);
      const std::size_t s = states[j];
      for (std::size_t t = 0; t < proj.num_states(); ++t) {
        if (proj.trans[s][t] == 0.0) continue;
        auto next = states;
        next[j] = t;
        a.transitions.push_back({space.encode(next), proj.trans[s][t]});
      }
      m.add_action(code, std::move(a));
    }
  }
  return m;
}

double optimal_value(const BanditInstance& inst,
                     const std::vector<std::size_t>& start) {
  const auto m = product_mdp(inst);
  const auto sol = mdp::value_iteration(m, inst.beta, 1e-10);
  return sol.value[start_code(inst, start)];
}

double index_policy_value(const BanditInstance& inst, const IndexTable& table,
                          const std::vector<std::size_t>& start) {
  STOSCHED_REQUIRE(table.size() == inst.projects.size(),
                   "index table must cover all projects");
  const auto m = product_mdp(inst);
  const JointSpace space = joint_space(inst);
  // Action order == project order in product_mdp.
  std::vector<std::size_t> policy(space.size(), 0);
  std::vector<std::size_t> states;
  for (std::size_t code = 0; code < space.size(); ++code) {
    space.decode(code, states);
    policy[code] = engaged_project(table, states);
  }
  const auto values = mdp::evaluate_policy(m, inst.beta, policy);
  return values[start_code(inst, start)];
}

double simulate_index_policy(const BanditInstance& inst,
                             const IndexTable& table,
                             const std::vector<std::size_t>& start, Rng& rng,
                             double trunc_eps) {
  STOSCHED_REQUIRE(table.size() == inst.projects.size(),
                   "index table must cover all projects");
  // Per-project transition substreams off a bootstrap root: each arm's
  // chain consumes only its own stream, so index-policy variants replaying
  // the same caller stream keep untouched arms on identical trajectories.
  const Rng root(rng());
  std::vector<Rng> trans_rng;
  trans_rng.reserve(inst.projects.size());
  for (std::size_t j = 0; j < inst.projects.size(); ++j)
    trans_rng.push_back(root.stream(j));
  std::vector<std::size_t> states = start;
  double discount = 1.0;
  double total = 0.0;
  while (discount >= trunc_eps) {
    const std::size_t best = engaged_project(table, states);
    const auto& proj = inst.projects[best];
    total += discount * proj.reward[states[best]];
    states[best] = trans_rng[best].categorical(proj.trans[states[best]].data(),
                                               proj.num_states());
    discount *= inst.beta;
  }
  return total;
}

}  // namespace stosched::bandit
