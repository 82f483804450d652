#include "mdp/mdp.hpp"

#include <cmath>

#include "util/check.hpp"

namespace stosched::mdp {

std::size_t FiniteMdp::add_action(std::size_t state, Action a) {
  STOSCHED_REQUIRE(state < actions_.size(), "state out of range");
  actions_[state].push_back(std::move(a));
  return actions_[state].size() - 1;
}

void FiniteMdp::validate() const {
  for (std::size_t s = 0; s < actions_.size(); ++s) {
    STOSCHED_REQUIRE(!actions_[s].empty(),
                     "every state needs at least one action");
    for (const auto& a : actions_[s]) {
      double total = 0.0;
      for (const auto& tr : a.transitions) {
        STOSCHED_REQUIRE(tr.state < actions_.size(),
                         "transition target out of range");
        STOSCHED_REQUIRE(tr.prob >= -1e-12, "negative transition probability");
        total += tr.prob;
      }
      STOSCHED_REQUIRE(std::abs(total - 1.0) < 1e-9,
                       "transition probabilities must sum to 1");
    }
  }
}

}  // namespace stosched::mdp
