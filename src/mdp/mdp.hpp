// mdp.hpp — finite Markov decision processes.
//
// The survey frames most of its models as dynamic programs and immediately
// notes the curse of dimensionality; the library therefore uses this module
// in exactly the role the literature does: computing *exact optimal* values
// on small instances so that index policies (Gittins, Whittle, Klimov) can
// be certified optimal / near-optimal in the experiments (T3–T7, F3).
//
// Conventions: rewards are *maximized* (experiments that minimize cost
// negate); transitions are sparse row lists; discount factor beta in (0,1)
// for discounted problems.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace stosched::mdp {

/// One sparse transition entry: probability of moving to `state`.
struct Transition {
  std::size_t state = 0;
  double prob = 0.0;
};

/// One admissible action in a given state.
struct Action {
  double reward = 0.0;
  std::vector<Transition> transitions;
  int label = 0;  ///< caller-defined tag (e.g. which project was engaged)
};

/// A finite MDP stored as per-state action lists.
class FiniteMdp {
 public:
  explicit FiniteMdp(std::size_t num_states) : actions_(num_states) {}

  /// Append an action to `state`; returns its index within the state.
  std::size_t add_action(std::size_t state, Action a);

  [[nodiscard]] std::size_t num_states() const noexcept {
    return actions_.size();
  }
  [[nodiscard]] std::span<const Action> actions(std::size_t s) const {
    return actions_[s];
  }

  /// Verify every state has at least one action and every action's
  /// transition probabilities are nonnegative and sum to 1 (tolerance 1e-9).
  /// Throws std::invalid_argument on violation.
  void validate() const;

 private:
  std::vector<std::vector<Action>> actions_;
};

}  // namespace stosched::mdp
