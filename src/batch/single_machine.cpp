#include "batch/single_machine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "util/check.hpp"
#include "util/joint_space.hpp"

namespace stosched::batch {

namespace {

/// exact_weighted_flowtime for an `order` known to be a permutation.
double weighted_flowtime(const Batch& jobs, const Order& order) {
  // E[C_(i)] = sum of expected processing times of jobs up to position i;
  // linearity of expectation makes this exact for any laws.
  double completion = 0.0;
  double total = 0.0;
  for (const std::size_t j : order) {
    completion += jobs[j].processing->mean();
    total += jobs[j].weight * completion;
  }
  return total;
}

}  // namespace

double exact_weighted_flowtime(const Batch& jobs, const Order& order) {
  require_permutation(order, jobs.size());
  return weighted_flowtime(jobs, order);
}

Order best_order_exhaustive(const Batch& jobs, double* value) {
  const std::size_t n = jobs.size();
  STOSCHED_REQUIRE(n >= 1 && n <= 10, "exhaustive search limited to n <= 10");
  Order perm = identity_order(n);
  Order best = perm;
  double best_val = weighted_flowtime(jobs, perm);
  while (std::next_permutation(perm.begin(), perm.end())) {
    const double v = weighted_flowtime(jobs, perm);
    if (v < best_val) {
      best_val = v;
      best = perm;
    }
  }
  if (value) *value = best_val;
  return best;
}

// ---------------------------------------------------------------------------
// Preemptive discrete-law machinery.
// ---------------------------------------------------------------------------

double sevcik_index(const DiscreteJob& job, std::size_t level) {
  const std::size_t K = job.values.size();
  STOSCHED_REQUIRE(level < K, "job already past its last support point");
  // Survival mass beyond v_level (level 0 == no service yet).
  double surv = 0.0;
  for (std::size_t k = level; k < K; ++k) surv += job.probs[k];
  STOSCHED_ASSERT(surv > 0.0, "indexing a surely-completed job");
  const double attained = level == 0 ? 0.0 : job.values[level - 1];

  double best = 0.0;
  double p_done = 0.0;     // P(complete by candidate stop | survived)
  double e_work = 0.0;     // E[(min(P, v_t) - attained) | survived]
  for (std::size_t t = level; t < K; ++t) {
    const double q = job.probs[t] / surv;
    p_done += q;
    // Jobs that complete exactly at v_t contribute (v_t - attained); mass
    // surviving past v_t contributes the same truncation (v_t - attained).
    // Rebuild e_work incrementally: completed-at-earlier terms stay, the
    // surviving mass truncation moves out to v_t.
    e_work = 0.0;
    double done_mass = 0.0;
    for (std::size_t k = level; k <= t; ++k) {
      const double qk = job.probs[k] / surv;
      e_work += qk * (job.values[k] - attained);
      done_mass += qk;
    }
    e_work += (1.0 - done_mass) * (job.values[t] - attained);
    if (e_work > 0.0) best = std::max(best, p_done / e_work);
  }
  return job.weight * best;
}

namespace {

/// Digit i of a level state is job i's level: 0..K-1 while alive at that
/// level, K once completed.
JointSpace level_space(const std::vector<DiscreteJob>& jobs) {
  std::vector<std::size_t> radix;
  radix.reserve(jobs.size());
  for (const auto& j : jobs) radix.push_back(j.values.size() + 1);
  return JointSpace(std::move(radix), std::size_t{1} << 24,
                    "preemptive DP state space too large");
}

/// Backward induction over the level DAG. `pick` selects the job to serve in
/// an alive configuration (or SIZE_MAX to take the min over all alive jobs).
double level_dp(const std::vector<DiscreteJob>& jobs, bool optimal,
                const std::function<std::size_t(
                    const std::vector<std::size_t>&)>& pick) {
  const JointSpace space = level_space(jobs);
  std::vector<double> value(space.size(),
                            std::numeric_limits<double>::quiet_NaN());
  std::vector<std::size_t> lv;

  // States ordered by decreasing total progress: iterate codes descending is
  // NOT sufficient (mixed radix), so do a proper pass ordered by the sum of
  // digits, largest first. Progress sum ranges 0..sum(K_i).
  std::size_t max_progress = 0;
  for (const auto& j : jobs) max_progress += j.values.size();

  // Bucket states by progress.
  std::vector<std::vector<std::size_t>> buckets(max_progress + 1);
  for (std::size_t code = 0; code < space.size(); ++code) {
    space.decode(code, lv);
    std::size_t progress = 0;
    for (const std::size_t d : lv) progress += d;
    buckets[progress].push_back(code);
  }

  for (std::size_t progress = max_progress + 1; progress-- > 0;) {
    for (const std::size_t code : buckets[progress]) {
      space.decode(code, lv);
      // Weight of alive jobs; completed job i has digit K_i.
      double alive_weight = 0.0;
      bool any_alive = false;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (lv[i] < jobs[i].values.size()) {
          alive_weight += jobs[i].weight;
          any_alive = true;
        }
      }
      if (!any_alive) {
        value[code] = 0.0;
        continue;
      }

      auto segment_value = [&](std::size_t i) {
        const auto& job = jobs[i];
        const std::size_t l = lv[i];
        const std::size_t K = job.values.size();
        double surv = 0.0;
        for (std::size_t k = l; k < K; ++k) surv += job.probs[k];
        const double attained = l == 0 ? 0.0 : job.values[l - 1];
        const double d = job.values[l] - attained;
        const double h = surv > 0.0 ? job.probs[l] / surv : 1.0;
        lv[i] = K;  // completed
        const double v_done = value[space.encode(lv)];
        lv[i] = l + 1;  // survived to next level (encodes K when l+1==K)
        const double v_next = l + 1 < K ? value[space.encode(lv)] : v_done;
        lv[i] = l;
        STOSCHED_ASSERT(!std::isnan(v_done) && !std::isnan(v_next),
                        "DAG order violated in level DP");
        return d * alive_weight + h * v_done + (1.0 - h) * v_next;
      };

      if (optimal) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < jobs.size(); ++i)
          if (lv[i] < jobs[i].values.size()) best = std::min(best, segment_value(i));
        value[code] = best;
      } else {
        const std::size_t i = pick(lv);
        STOSCHED_ASSERT(i < jobs.size() && lv[i] < jobs[i].values.size(),
                        "policy picked a completed job");
        value[code] = segment_value(i);
      }
    }
  }

  std::vector<std::size_t> start(jobs.size(), 0);
  return value[space.encode(start)];
}

}  // namespace

double preemptive_index_policy_value(const std::vector<DiscreteJob>& jobs) {
  return level_dp(jobs, /*optimal=*/false,
                  [&](const std::vector<std::size_t>& lv) {
                    double best = -1.0;
                    std::size_t pick = SIZE_MAX;
                    for (std::size_t i = 0; i < jobs.size(); ++i) {
                      if (lv[i] >= jobs[i].values.size()) continue;
                      const double idx = sevcik_index(jobs[i], lv[i]);
                      if (idx > best + 1e-15) {
                        best = idx;
                        pick = i;
                      }
                    }
                    return pick;
                  });
}

double preemptive_optimal_value(const std::vector<DiscreteJob>& jobs) {
  return level_dp(jobs, /*optimal=*/true, {});
}

double nonpreemptive_optimal_value(const std::vector<DiscreteJob>& jobs) {
  Batch batch;
  batch.reserve(jobs.size());
  for (const auto& dj : jobs)
    batch.push_back(Job{dj.weight, discrete_dist(dj.values, dj.probs)});
  double value = 0.0;
  best_order_exhaustive(batch, &value);
  return value;
}

}  // namespace stosched::batch
