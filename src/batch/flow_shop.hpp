// flow_shop.hpp — stochastic flow shops, with and without blocking
// (survey §1, [49]).
//
// Jobs pass machines 1..m in series under a common permutation. With
// infinite intermediate buffers the completion times follow the classical
// recurrence C[i][k] = max(C[i-1][k], C[i][k-1]) + p[i][k]. With *blocking*
// (no buffers, the model of Wie–Pinedo [49]) a job holds its machine until
// the next machine frees:
//     d[i][k] = max( max(d[i-1][k], d[i][k-1]) + p[i][k], d[i-1][k+1] ).
// For two machines with exponential stage times, Talwar's rule — sequence by
// nonincreasing (rate on machine 1 − rate on machine 2) — minimizes expected
// makespan; the experiment verifies it empirically against all permutations
// under common random numbers.
#pragma once

#include <cstddef>
#include <vector>

#include "batch/job.hpp"
#include "dist/distribution.hpp"

namespace stosched::batch {

/// One flow-shop job: a processing-time law per stage.
struct FlowShopJob {
  std::vector<DistPtr> stages;
};

/// Realized makespan and flowtime of a permutation schedule given sampled
/// stage times p[job][stage].
struct FlowShopOutcome {
  double makespan = 0.0;
  double flowtime = 0.0;
};

FlowShopOutcome flow_shop_realization(
    const std::vector<std::vector<double>>& p, const Order& order,
    bool blocking);

/// Talwar's rule for 2-machine exponential flow shops: sort by nonincreasing
/// (rate at stage 0 − rate at stage 1). Requires exponential stage laws.
Order talwar_order(const std::vector<FlowShopJob>& jobs);

}  // namespace stosched::batch
