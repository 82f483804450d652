#include "bandit/bandit_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bandit/gittins.hpp"
#include "mdp/solve.hpp"
#include "util/check.hpp"

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

std::size_t encode_joint(const BanditInstance& inst,
                         const std::vector<std::size_t>& states) {
  STOSCHED_REQUIRE(states.size() == inst.projects.size(),
                   "joint state must cover all projects");
  std::size_t code = 0;
  for (std::size_t j = states.size(); j-- > 0;) {
    STOSCHED_REQUIRE(states[j] < inst.projects[j].num_states(),
                     "project state out of range");
    code = code * inst.projects[j].num_states() + states[j];
  }
  return code;
}

namespace {

std::size_t joint_space_size(const BanditInstance& inst) {
  std::size_t total = 1;
  for (const auto& p : inst.projects) {
    STOSCHED_REQUIRE(total < (std::size_t{1} << 22) / p.num_states(),
                     "product MDP too large");
    total *= p.num_states();
  }
  return total;
}

void decode_joint(const BanditInstance& inst, std::size_t code,
                  std::vector<std::size_t>& states) {
  states.resize(inst.projects.size());
  for (std::size_t j = 0; j < inst.projects.size(); ++j) {
    states[j] = code % inst.projects[j].num_states();
    code /= inst.projects[j].num_states();
  }
}

}  // namespace

mdp::FiniteMdp product_mdp(const BanditInstance& inst) {
  inst.validate();
  const std::size_t total = joint_space_size(inst);
  mdp::FiniteMdp m(total);
  std::vector<std::size_t> states;
  for (std::size_t code = 0; code < total; ++code) {
    decode_joint(inst, code, states);
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
        a.transitions.push_back({encode_joint(inst, next), proj.trans[s][t]});
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
  return sol.value[encode_joint(inst, start)];
}

namespace {

/// The index policy as a deterministic action map on the product MDP.
std::vector<std::size_t> index_policy_actions(const BanditInstance& inst,
                                              const IndexTable& table,
                                              std::size_t total) {
  std::vector<std::size_t> policy(total, 0);
  std::vector<std::size_t> states;
  for (std::size_t code = 0; code < total; ++code) {
    decode_joint(inst, code, states);
    std::size_t best = 0;
    double best_idx = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < inst.projects.size(); ++j) {
      const double idx = table[j][states[j]];
      if (idx > best_idx + 1e-14) {
        best_idx = idx;
        best = j;
      }
    }
    policy[code] = best;  // action order == project order in product_mdp
    // NOLINTNEXTLINE: decode buffer reused intentionally
  }
  return policy;
}

}  // namespace

double index_policy_value(const BanditInstance& inst, const IndexTable& table,
                          const std::vector<std::size_t>& start) {
  STOSCHED_REQUIRE(table.size() == inst.projects.size(),
                   "index table must cover all projects");
  const auto m = product_mdp(inst);
  const auto policy = index_policy_actions(inst, table, m.num_states());
  const auto values = mdp::evaluate_policy(m, inst.beta, policy);
  return values[encode_joint(inst, start)];
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
    std::size_t best = 0;
    double best_idx = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < inst.projects.size(); ++j) {
      const double idx = table[j][states[j]];
      if (idx > best_idx + 1e-14) {
        best_idx = idx;
        best = j;
      }
    }
    const auto& proj = inst.projects[best];
    total += discount * proj.reward[states[best]];
    states[best] = trans_rng[best].categorical(proj.trans[states[best]].data(),
                                               proj.num_states());
    discount *= inst.beta;
  }
  return total;
}

}  // namespace stosched::bandit
