#include "batch/flow_shop.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace stosched::batch {

FlowShopOutcome flow_shop_realization(
    const std::vector<std::vector<double>>& p, const Order& order,
    bool blocking) {
  const std::size_t n = order.size();
  STOSCHED_REQUIRE(n > 0 && p.size() >= n, "need processing times per job");
  const std::size_t m = p[0].size();
  STOSCHED_REQUIRE(m >= 1, "need at least one machine");

  FlowShopOutcome out;
  // prev[k] = departure time of the previous job from machine k (blocking)
  // or its completion time (infinite buffer).
  std::vector<double> prev(m + 1, 0.0);
  std::vector<double> cur(m + 1, 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto& times = p[order[pos]];
    STOSCHED_REQUIRE(times.size() == m, "stage count mismatch");
    if (!blocking) {
      double c = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        c = std::max(c, prev[k]) + times[k];
        cur[k] = c;
      }
    } else {
      // Blocking recurrence: cur[k] is the *departure* of this job from
      // machine k. The job starts on k when it has left k-1 and the previous
      // job has left k; it departs k when both its service is done and the
      // previous job has left k+1 (machine k+1 free). prev[m] == 0 sentinel.
      double leave_prev_machine = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double start = std::max(leave_prev_machine, prev[k]);
        const double complete = start + times[k];
        const double depart =
            k + 1 < m ? std::max(complete, prev[k + 1]) : complete;
        cur[k] = depart;
        leave_prev_machine = depart;
      }
    }
    const double completion = cur[m - 1];
    out.flowtime += completion;
    out.makespan = completion;  // last job's exit == makespan for permutations
    prev = cur;
  }
  return out;
}

Order talwar_order(const std::vector<FlowShopJob>& jobs) {
  std::vector<double> delta(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    STOSCHED_REQUIRE(jobs[j].stages.size() == 2,
                     "Talwar's rule applies to 2-machine flow shops");
    // Exponential rate = 1/mean; the rule needs rates, which we recover from
    // the means (exactness only claimed for exponential stage laws).
    const double r1 = 1.0 / jobs[j].stages[0]->mean();
    const double r2 = 1.0 / jobs[j].stages[1]->mean();
    delta[j] = r1 - r2;
  }
  Order order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return delta[a] > delta[b];
                   });
  return order;
}

}  // namespace stosched::batch
