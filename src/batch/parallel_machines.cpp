#include "batch/parallel_machines.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"
#include "util/joint_space.hpp"

namespace stosched::batch {

namespace {

/// Deterministically schedule given realized processing times: machine
/// becoming free earliest (ties: lowest machine id) takes the next job in
/// `order`, a permutation the caller has checked. Returns the realized
/// outcome.
ScheduleOutcome schedule_realization(const std::vector<double>& times,
                                     const std::vector<double>& weights,
                                     const Order& order, unsigned machines) {
  // Machine free times; next job always goes to the earliest-free machine.
  // A linear scan beats a heap for the machine counts used here (m <= 8).
  std::vector<double> free_at(machines, 0.0);
  ScheduleOutcome out;
  for (const std::size_t j : order) {
    std::size_t mach = 0;
    for (std::size_t m = 1; m < machines; ++m)
      if (free_at[m] < free_at[mach]) mach = m;
    const double completion = free_at[mach] + times[j];
    free_at[mach] = completion;
    out.flowtime += completion;
    out.weighted_flowtime += weights[j] * completion;
    out.makespan = std::max(out.makespan, completion);
  }
  return out;
}

}  // namespace

ScheduleOutcome simulate_list_policy(const Batch& jobs, const Order& order,
                                     unsigned machines, Rng& rng) {
  STOSCHED_REQUIRE(machines >= 1, "list policy needs a machine");
  require_permutation(order, jobs.size());
  // Per-job size substreams off a bootstrap root: the realized batch is a
  // function of the caller's stream alone, not of the order argument, so
  // CRN policy arms dispatch the identical workload.
  const Rng root(rng());
  std::vector<double> times(jobs.size());
  std::vector<double> weights(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Rng size_rng = root.stream(j);
    times[j] = jobs[j].processing->sample(size_rng);
    weights[j] = jobs[j].weight;
  }
  return schedule_realization(times, weights, order, machines);
}

namespace {

/// exact_list_policy_discrete for checked arguments.
ScheduleOutcome expected_list_outcome(const Batch& jobs, const Order& order,
                                      unsigned machines) {
  const std::size_t n = jobs.size();
  std::vector<std::vector<double>> values(n), probs(n);
  std::vector<std::size_t> radix(n);
  for (std::size_t j = 0; j < n; ++j) {
    STOSCHED_REQUIRE(discrete_support(*jobs[j].processing, &values[j], &probs[j]),
                     "exact evaluation requires discrete laws");
    radix[j] = values[j].size();
  }
  // Digit j of a realization is the index of job j's support point.
  const JointSpace lattice(std::move(radix), std::size_t{1} << 20,
                           "realization lattice too large");

  std::vector<double> times(n), weights(n);
  for (std::size_t j = 0; j < n; ++j) weights[j] = jobs[j].weight;

  ScheduleOutcome expected;
  std::vector<std::size_t> digit;
  for (std::size_t code = 0; code < lattice.size(); ++code) {
    lattice.decode(code, digit);
    double p = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      times[j] = values[j][digit[j]];
      p *= probs[j][digit[j]];
    }
    const ScheduleOutcome o = schedule_realization(times, weights, order, machines);
    expected.flowtime += p * o.flowtime;
    expected.weighted_flowtime += p * o.weighted_flowtime;
    expected.makespan += p * o.makespan;
  }
  return expected;
}

}  // namespace

ScheduleOutcome exact_list_policy_discrete(const Batch& jobs,
                                           const Order& order,
                                           unsigned machines) {
  STOSCHED_REQUIRE(machines >= 1, "need at least one machine");
  require_permutation(order, jobs.size());
  return expected_list_outcome(jobs, order, machines);
}

Order best_list_order_discrete(const Batch& jobs, unsigned machines,
                               bool use_makespan, double* value) {
  const std::size_t n = jobs.size();
  STOSCHED_REQUIRE(n >= 1 && n <= 8, "exhaustive list search limited to n <= 8");
  STOSCHED_REQUIRE(machines >= 1, "need at least one machine");
  Order perm = identity_order(n);
  Order best = perm;
  double best_val = std::numeric_limits<double>::infinity();
  do {
    const ScheduleOutcome o = expected_list_outcome(jobs, perm, machines);
    const double v = use_makespan ? o.makespan : o.flowtime;
    if (v < best_val - 1e-15) {
      best_val = v;
      best = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  if (value) *value = best_val;
  return best;
}

}  // namespace stosched::batch
