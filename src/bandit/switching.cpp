#include "bandit/switching.hpp"

#include <span>
#include <utility>

#include "bandit/gittins.hpp"
#include "mdp/solve.hpp"
#include "util/joint_space.hpp"

namespace stosched::bandit {

namespace {

/// Augmented state: digit 0 is the incumbent (N == "no incumbent") and
/// digit 1 + j is project j's state.
struct Augmented {
  const SwitchingInstance& inst;
  std::size_t num_projects = 0;
  JointSpace space;

  explicit Augmented(const SwitchingInstance& si)
      : inst(si),
        num_projects(si.base.projects.size()),
        space(augmented_space(si.base)) {}

  static JointSpace augmented_space(const BanditInstance& base) {
    base.validate();
    const std::size_t n = base.projects.size();
    std::vector<std::size_t> radix{n + 1};
    for (const auto& p : base.projects) radix.push_back(p.num_states());
    // The cap bounds the joint project space alone. Below it, the
    // incumbent digit keeps the augmented space under N + 1 times the cap,
    // so the second guard never fires.
    constexpr std::size_t kCap = std::size_t{1} << 20;
    const JointSpace projects({radix.begin() + 1, radix.end()}, kCap,
                              "augmented MDP too large");
    return JointSpace(std::move(radix), (n + 1) * kCap,
                      "augmented MDP too large");
  }

  /// Code of `start` with no incumbent.
  [[nodiscard]] std::size_t start_code(
      const std::vector<std::size_t>& start) const {
    std::vector<std::size_t> digits{num_projects};
    digits.insert(digits.end(), start.begin(), start.end());
    return space.encode(digits);
  }

  /// Build the augmented MDP (actions = project to engage next).
  [[nodiscard]] mdp::FiniteMdp build() const {
    mdp::FiniteMdp m(space.size());
    std::vector<std::size_t> digits;
    for (std::size_t code = 0; code < space.size(); ++code) {
      space.decode(code, digits);
      const std::size_t inc = digits[0];
      for (std::size_t j = 0; j < num_projects; ++j) {
        const auto& proj = inst.base.projects[j];
        const std::size_t s = digits[1 + j];
        mdp::Action a;
        a.label = static_cast<int>(j);
        a.reward = proj.reward[s] - (j == inc ? 0.0 : inst.switch_cost);
        for (std::size_t t = 0; t < proj.num_states(); ++t) {
          if (proj.trans[s][t] == 0.0) continue;
          auto next = digits;
          next[0] = j;
          next[1 + j] = t;
          a.transitions.push_back({space.encode(next), proj.trans[s][t]});
        }
        m.add_action(code, std::move(a));
      }
    }
    return m;
  }

  /// Exact value from `start` of the deterministic policy that engages
  /// choose(incumbent, project states) in each augmented state.
  template <class Choose>
  [[nodiscard]] double policy_value(const std::vector<std::size_t>& start,
                                    Choose choose) const {
    std::vector<std::size_t> policy(space.size(), 0);
    std::vector<std::size_t> digits;
    for (std::size_t code = 0; code < space.size(); ++code) {
      space.decode(code, digits);
      policy[code] =
          choose(digits[0], std::span<const std::size_t>(digits).subspan(1));
    }
    const auto values =
        mdp::evaluate_policy(build(), inst.base.beta, policy);
    return values[start_code(start)];
  }
};

}  // namespace

double switching_optimal_value(const SwitchingInstance& inst,
                               const std::vector<std::size_t>& start) {
  const Augmented aug(inst);
  const auto sol = mdp::value_iteration(aug.build(), inst.base.beta, 1e-10);
  return sol.value[aug.start_code(start)];
}

double switching_hysteresis_value(const SwitchingInstance& inst,
                                  const std::vector<std::size_t>& start) {
  const Augmented aug(inst);
  const auto gittins = gittins_table(inst.base);
  // Challenger index: gamma - (1-beta) c_sw; incumbent keeps raw gamma.
  const double penalty = (1.0 - inst.base.beta) * inst.switch_cost;
  return aug.policy_value(
      start, [&](std::size_t inc, std::span<const std::size_t> states) {
        return engaged_project(gittins, states, penalty, inc);
      });
}

double switching_naive_gittins_value(const SwitchingInstance& inst,
                                     const std::vector<std::size_t>& start) {
  const Augmented aug(inst);
  const auto gittins = gittins_table(inst.base);
  return aug.policy_value(
      start, [&](std::size_t, std::span<const std::size_t> states) {
        return engaged_project(gittins, states);
      });
}

}  // namespace stosched::bandit
