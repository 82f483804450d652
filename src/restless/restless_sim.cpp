#include "restless/restless_sim.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "mdp/mdp.hpp"
#include "mdp/solve.hpp"
#include "util/check.hpp"
#include "util/joint_space.hpp"

namespace stosched::restless {

namespace {

/// Rank projects by priority and return the indices of the top m
/// (ties broken by project id for determinism).
void top_m(const std::vector<double>& score, std::size_t m,
           std::vector<std::size_t>& out) {
  const std::size_t n = score.size();
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  std::partial_sort(out.begin(), out.begin() + m, out.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (score[a] != score[b]) return score[a] > score[b];
                      return a < b;
                    });
  out.resize(m);
}

}  // namespace

double simulate_priority_policy(const RestlessInstance& inst,
                                const PriorityTable& priority,
                                std::size_t horizon, std::size_t burnin,
                                Rng& rng) {
  inst.validate();
  STOSCHED_REQUIRE(priority.size() == inst.projects.size(),
                   "priority table must cover all projects");
  const std::size_t n = inst.projects.size();
  // Per-project transition substreams off a bootstrap root: project j's
  // chain consumes only its own stream, so a CRN comparison against
  // simulate_random_policy (which uses the same layout) keeps project
  // trajectories aligned wherever the action sequences agree.
  const Rng root(rng());
  std::vector<Rng> trans_rng;
  trans_rng.reserve(n);
  for (std::size_t j = 0; j < n; ++j) trans_rng.push_back(root.stream(j));
  std::vector<std::size_t> state(n, 0);
  std::vector<double> score(n, 0.0);
  std::vector<char> active(n, 0);
  std::vector<std::size_t> chosen;

  double total = 0.0;
  for (std::size_t t = 0; t < burnin + horizon; ++t) {
    for (std::size_t j = 0; j < n; ++j) score[j] = priority[j][state[j]];
    top_m(score, inst.activate, chosen);
    std::fill(active.begin(), active.end(), 0);
    for (const std::size_t j : chosen) active[j] = 1;

    for (std::size_t j = 0; j < n; ++j) {
      const auto& p = inst.projects[j];
      const double r =
          active[j] ? p.reward_active[state[j]] : p.reward_passive[state[j]];
      if (t >= burnin) total += r;
      const auto& row =
          active[j] ? p.trans_active[state[j]] : p.trans_passive[state[j]];
      state[j] = trans_rng[j].categorical(row.data(), row.size());
    }
  }
  return total / static_cast<double>(horizon);
}

void run_replication(const RestlessInstance& inst,
                     const PriorityTable& priority, std::size_t horizon,
                     std::size_t burnin, Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == 1, "restless replication reports one metric");
  out[0] = simulate_priority_policy(inst, priority, horizon, burnin, rng);
}

double simulate_random_policy(const RestlessInstance& inst,
                              std::size_t horizon, std::size_t burnin,
                              Rng& rng) {
  inst.validate();
  const std::size_t n = inst.projects.size();
  // Same substream layout as simulate_priority_policy (per-project
  // transition streams 0..n-1) plus a dedicated selection stream at n, so
  // CRN comparisons between the two policies share project randomness.
  const Rng root(rng());
  std::vector<Rng> trans_rng;
  trans_rng.reserve(n);
  for (std::size_t j = 0; j < n; ++j) trans_rng.push_back(root.stream(j));
  Rng select_rng = root.stream(n);
  std::vector<std::size_t> state(n, 0);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  double total = 0.0;
  for (std::size_t t = 0; t < burnin + horizon; ++t) {
    // Partial Fisher–Yates: the first m entries form a random m-subset.
    for (std::size_t i = 0; i < inst.activate; ++i) {
      const std::size_t j = i + select_rng.below(n - i);
      std::swap(perm[i], perm[j]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const bool act =
          std::find(perm.begin(), perm.begin() + inst.activate, j) !=
          perm.begin() + inst.activate;
      const auto& p = inst.projects[j];
      const double r =
          act ? p.reward_active[state[j]] : p.reward_passive[state[j]];
      if (t >= burnin) total += r;
      const auto& row =
          act ? p.trans_active[state[j]] : p.trans_passive[state[j]];
      state[j] = trans_rng[j].categorical(row.data(), row.size());
    }
  }
  return total / static_cast<double>(horizon);
}

namespace {

/// Product-space machinery shared by the exact solvers. Digit j of a joint
/// state is project j's state.
struct ProductSpace {
  const RestlessInstance& inst;
  JointSpace space;
  std::vector<std::vector<std::size_t>> subsets;  // all m-subsets, fixed order

  explicit ProductSpace(const RestlessInstance& i)
      : inst(i), space(joint_space(i)) {
    // Enumerate m-subsets lexicographically.
    const std::size_t n = inst.projects.size();
    std::vector<std::size_t> idx(inst.activate);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (;;) {
      subsets.push_back(idx);
      std::size_t pos = inst.activate;
      bool done = true;
      while (pos-- > 0) {
        if (idx[pos] != pos + n - inst.activate) {
          ++idx[pos];
          for (std::size_t k = pos + 1; k < inst.activate; ++k)
            idx[k] = idx[k - 1] + 1;
          done = false;
          break;
        }
      }
      if (done) break;
    }
  }

  static JointSpace joint_space(const RestlessInstance& inst) {
    inst.validate();
    std::vector<std::size_t> radix;
    radix.reserve(inst.projects.size());
    for (const auto& p : inst.projects) radix.push_back(p.num_states());
    // Joint transition rows are dense (every project moves every epoch),
    // so the exact product solvers are reserved for tiny instances.
    return JointSpace(std::move(radix), std::size_t{1} << 10,
                      "restless product MDP too large");
  }

  [[nodiscard]] mdp::FiniteMdp build() const {
    mdp::FiniteMdp m(space.size());
    std::vector<std::size_t> s;
    std::vector<char> active(inst.projects.size(), 0);
    for (std::size_t code = 0; code < space.size(); ++code) {
      space.decode(code, s);
      for (std::size_t ai = 0; ai < subsets.size(); ++ai) {
        std::fill(active.begin(), active.end(), 0);
        for (const std::size_t j : subsets[ai]) active[j] = 1;

        mdp::Action act;
        act.label = static_cast<int>(ai);
        for (std::size_t j = 0; j < inst.projects.size(); ++j) {
          const auto& p = inst.projects[j];
          act.reward += active[j] ? p.reward_active[s[j]]
                                  : p.reward_passive[s[j]];
        }
        // Joint transition = product of per-project rows, expanded one
        // project at a time into (next joint state, probability) pairs.
        using Branch = std::pair<std::vector<std::size_t>, double>;
        std::vector<Branch> joint{{{}, 1.0}};
        for (std::size_t j = 0; j < inst.projects.size(); ++j) {
          const auto& p = inst.projects[j];
          const auto& row =
              active[j] ? p.trans_active[s[j]] : p.trans_passive[s[j]];
          std::vector<Branch> grown;
          grown.reserve(joint.size() * row.size());
          for (const auto& [next, prob] : joint)
            for (std::size_t t = 0; t < row.size(); ++t)
              if (row[t] > 0.0) {
                grown.emplace_back(next, prob * row[t]);
                grown.back().first.push_back(t);
              }
          joint = std::move(grown);
        }
        act.transitions.reserve(joint.size());
        for (const auto& [next, prob] : joint)
          act.transitions.push_back({space.encode(next), prob});
        m.add_action(code, std::move(act));
      }
    }
    return m;
  }

  /// Action index of the top-m priority choice in joint state s.
  [[nodiscard]] std::size_t priority_action(
      const PriorityTable& priority, const std::vector<std::size_t>& s) const {
    std::vector<double> score(inst.projects.size());
    for (std::size_t j = 0; j < inst.projects.size(); ++j)
      score[j] = priority[j][s[j]];
    std::vector<std::size_t> chosen;
    top_m(score, inst.activate, chosen);
    std::sort(chosen.begin(), chosen.end());
    for (std::size_t ai = 0; ai < subsets.size(); ++ai)
      if (subsets[ai] == chosen) return ai;
    STOSCHED_ASSERT(false, "chosen subset not found");
    return 0;
  }
};

}  // namespace

double optimal_average_reward(const RestlessInstance& inst) {
  const ProductSpace product(inst);
  const auto m = product.build();
  const auto sol = mdp::relative_value_iteration(m, 1e-10);
  return sol.gain;
}

double priority_policy_average_reward(const RestlessInstance& inst,
                                      const PriorityTable& priority) {
  STOSCHED_REQUIRE(priority.size() == inst.projects.size(),
                   "priority table must cover all projects");
  const ProductSpace product(inst);
  const auto m = product.build();
  std::vector<std::size_t> policy(product.space.size(), 0);
  std::vector<std::size_t> s;
  for (std::size_t code = 0; code < product.space.size(); ++code) {
    product.space.decode(code, s);
    policy[code] = product.priority_action(priority, s);
  }
  return mdp::average_reward_of_policy_iterative(m, policy);
}

}  // namespace stosched::restless
