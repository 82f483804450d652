// restless_project.hpp — restless bandit projects (survey §2, [48]).
//
// Unlike classical bandit projects, a restless project keeps evolving while
// passive, under its own transition law, and may earn a passive reward.
// Whittle's relaxation and index heuristic, the Weber–Weiss asymptotic
// optimality experiment (F3) and the primal-dual LP heuristic of [7] (T8)
// are all built on this type.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace stosched::restless {

/// Two-action finite project: action 0 = passive, action 1 = active.
struct RestlessProject {
  std::vector<double> reward_passive;             ///< r0(s)
  std::vector<double> reward_active;              ///< r1(s)
  std::vector<std::vector<double>> trans_passive; ///< P0, row-stochastic
  std::vector<std::vector<double>> trans_active;  ///< P1, row-stochastic

  [[nodiscard]] std::size_t num_states() const noexcept {
    return reward_passive.size();
  }
  void validate() const;
};

/// Random dense project: passive rewards from U(0, 0.3) and active ones from
/// U(0, 1), so activity matters on average.
RestlessProject random_restless_project(std::size_t states, Rng& rng);

/// The restless instance: N projects, exactly m activated per epoch.
struct RestlessInstance {
  std::vector<RestlessProject> projects;
  std::size_t activate = 1;  ///< m

  void validate() const;
};

/// Build a symmetric instance from `copies` copies of one project.
RestlessInstance symmetric_instance(const RestlessProject& proto,
                                    std::size_t copies, std::size_t activate);

}  // namespace stosched::restless
