// klimov.hpp — Klimov's problem: M/G/1 with Bernoulli feedback (survey §3,
// [24, 38]).
//
// On completing service, a class-j job becomes class k with probability
// p_jk and leaves with probability 1 - Σ_k p_jk. Klimov proved the optimal
// nonpreemptive policy is a *static priority order* whose indices are
// computed by an N-step algorithm using only (service means, feedback
// matrix, holding costs) — notably *not* the arrival rates. The library
// computes the indices with the adaptive-greedy algorithm of the achievable
// region method [4] (core/achievable_region.hpp) instantiated with the set
// function
//     A_j^S = τ_j^S = E[total service a class-j job receives before its
//                       class first leaves S]  =  [(I - P_SS)^{-1} β]_j,
// which reduces to the cµ rule when there is no feedback (tests assert
// this), and is cross-checked against the exact MDP optimum on truncated
// exponential instances (experiment T10).
#pragma once

#include <cstddef>
#include <vector>

#include "mdp/mdp.hpp"
#include "queueing/mg1.hpp"

namespace stosched::queueing {

/// A Klimov network: multiclass M/G/1 plus a feedback matrix.
struct KlimovNetwork {
  std::vector<ClassSpec> classes;
  std::vector<std::vector<double>> feedback;  ///< rows sum to <= 1

  [[nodiscard]] std::size_t num_classes() const { return classes.size(); }
  void validate() const;
};

/// Expected total service before first exit from S, per class in S:
/// solves (I - P_SS) τ = β_S. `in_set[j]` marks membership.
std::vector<double> exit_work(const std::vector<double>& service_means,
                              const std::vector<std::vector<double>>& feedback,
                              const std::vector<char>& in_set);

/// Klimov's indices and the induced priority order (highest first).
struct KlimovResult {
  std::vector<double> index;          ///< per class
  std::vector<std::size_t> priority;  ///< classes, highest index first
};

KlimovResult klimov_indices(const std::vector<double>& service_means,
                            const std::vector<std::vector<double>>& feedback,
                            const std::vector<double>& holding_costs);

/// Convenience overload pulling the data out of a network.
KlimovResult klimov_indices(const KlimovNetwork& net);

/// Effective arrival rate per class, λ_eff = (I - P^T)^{-1} α — the visit
/// rates including feedback; used for stability checks (Σ λ_eff,j β_j < 1).
std::vector<double> effective_arrival_rates(const KlimovNetwork& net);

/// Total traffic intensity including feedback visits.
double klimov_traffic_intensity(const KlimovNetwork& net);

/// Simulate a static priority order on the network (wraps simulate_mg1).
SimResult simulate_klimov(const KlimovNetwork& net,
                          const std::vector<std::size_t>& priority,
                          double horizon, double warmup, Rng& rng);

/// Exact baseline for exponential services: build the uniformized MDP of the
/// truncated (queue lengths <= cap) preemptive system; action = class to
/// serve; reward = -holding cost rate. Used by tests/benches to certify the
/// Klimov order. States: (cap+1)^N.
mdp::FiniteMdp build_truncated_mdp(const KlimovNetwork& net, std::size_t cap);

/// Average holding-cost rate of a static priority on the truncated MDP.
double truncated_priority_cost(const KlimovNetwork& net, std::size_t cap,
                               const std::vector<std::size_t>& priority);

/// Optimal average holding-cost rate on the truncated MDP.
double truncated_optimal_cost(const KlimovNetwork& net, std::size_t cap);

}  // namespace stosched::queueing
