#include "online/simulate.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched::online {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Pop the highest-priority queued job (ties: earliest arrival) and start
/// it: believed end feeds the policy-visible state, the realized end drives
/// the event clock.
void start_next(MachineState& state, double& realized_end,
                std::size_t& serving, const OnlineInstance& inst,
                const Environment& env, std::size_t machine, double now) {
  if (state.queue.empty()) {
    state.busy = false;
    realized_end = kInf;
    return;
  }
  std::size_t best = 0;
  for (std::size_t k = 1; k < state.queue.size(); ++k) {
    const auto& a = state.queue[k];
    const auto& b = state.queue[best];
    if (a.priority > b.priority ||
        (a.priority == b.priority && a.job < b.job))
      best = k;
  }
  const QueueEntry entry = state.queue[best];
  state.queue.erase(state.queue.begin() +
                    static_cast<std::ptrdiff_t>(best));
  state.busy = true;
  state.believed_end = now + entry.believed;
  serving = entry.job;
  realized_end =
      now + env.proc_time(machine, inst[entry.job].type, inst[entry.job].size);
  // Believed-vs-realized separation: both clocks advance from `now`
  // independently — the policy-visible believed end and the hidden realized
  // end may disagree, but neither may point into the past, or a later
  // completion event would run the simulation clock backwards.
  STOSCHED_ENSURES(state.believed_end >= now,
                   "believed completion scheduled in the past");
  STOSCHED_ENSURES(realized_end >= now,
                   "realized completion scheduled in the past");
}

}  // namespace

OnlineResult simulate_online(const OnlineInstance& inst,
                             const Environment& env,
                             const std::vector<JobType>& types,
                             const OnlinePolicy& policy, Rng& policy_rng) {
  validate_types(types);
  env.validate(types.size());
  for (std::size_t j = 1; j < inst.size(); ++j)
    STOSCHED_REQUIRE(inst[j - 1].release <= inst[j].release,
                     "online instance must be sorted by release");

  const std::size_t m = env.machines();
  const OnlineContext ctx{env, types};
  std::vector<MachineState> states(m);
  std::vector<double> realized_end(m, kInf);  // hidden from policies
  std::vector<std::size_t> serving(m, 0);
  std::vector<double> completion(inst.size(), 0.0);

  std::size_t next_arrival = 0;
  // Ghost clock for the event-monotonicity contract (absent in Release).
  STOSCHED_CONTRACT_STATE(double contract_last_event = 0.0;)
  for (;;) {
    // Next event: the earliest realized completion or the next arrival;
    // simultaneous events complete first, so the arriving job observes the
    // freed machine.
    std::size_t done_machine = m;
    double done_time = kInf;
    for (std::size_t i = 0; i < m; ++i)
      if (realized_end[i] < done_time) {
        done_time = realized_end[i];
        done_machine = i;
      }
    const double arrival_time =
        next_arrival < inst.size() ? inst[next_arrival].release : kInf;
    if (done_machine == m && arrival_time == kInf) break;

    STOSCHED_INVARIANT(std::min(done_time, arrival_time) >= contract_last_event,
                       "online event clock ran backwards");
    STOSCHED_CONTRACT_CODE(contract_last_event =
                               std::min(done_time, arrival_time););

    if (done_time <= arrival_time) {
      completion[serving[done_machine]] = done_time;
      start_next(states[done_machine], realized_end[done_machine],
                 serving[done_machine], inst, env, done_machine, done_time);
    } else {
      const std::size_t j = next_arrival++;
      const OnlineJob& job = inst[j];
      const std::size_t pick =
          policy.assign(ctx, job, states, job.release, policy_rng);
      STOSCHED_ASSERT(pick < m, "policy assigned an out-of-range machine");
      states[pick].queue.push_back({j, policy.believed_proc(ctx, job, pick),
                                    job.weight,
                                    policy.priority(ctx, job, pick)});
      if (!states[pick].busy)
        start_next(states[pick], realized_end[pick], serving[pick], inst, env,
                   pick, job.release);
    }
  }

  OnlineResult res;
  res.jobs = inst.size();
  obs::LocalHistogram flow_hist;  // per-job flow times -> sojourn tails
  for (std::size_t j = 0; j < inst.size(); ++j) {
    res.weighted_completion += inst[j].weight * completion[j];
    res.weighted_flowtime +=
        inst[j].weight * (completion[j] - inst[j].release);
    res.makespan = std::max(res.makespan, completion[j]);
    flow_hist.record(completion[j] - inst[j].release);
  }
  obs::record_sojourn(flow_hist);
  return res;
}

std::size_t online_metric_count() { return 4; }

OnlinePath prepare_online_replication(const ArrivalProcess& arrival,
                                      const std::vector<JobType>& types,
                                      const Environment& env, double horizon,
                                      const OfflineBoundOptions& bound,
                                      Rng& rng) {
  // Per-purpose substreams (see the header comment): the workload streams
  // (arrival/type/size/sample) are consumed identically by every policy
  // arm; only the policy stream's usage differs between arms.
  const Rng root(rng());
  Rng arrival_rng = root.stream(0);
  Rng type_rng = root.stream(1);
  Rng size_rng = root.stream(2);
  Rng sample_rng = root.stream(3);

  OnlinePath path{generate_online_instance(arrival, types, horizon,
                                           arrival_rng, type_rng, size_rng,
                                           sample_rng),
                  0.0, root.stream(4)};
  path.lower_bound =
      offline_lower_bound(path.instance, env, types, bound).value;
  return path;
}

void evaluate_online_replication(const OnlinePath& path,
                                 const Environment& env,
                                 const std::vector<JobType>& types,
                                 const OnlinePolicy& policy,
                                 std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == online_metric_count(),
                   "metric span size mismatch");
  Rng policy_rng = path.policy_rng;
  const OnlineResult res =
      simulate_online(path.instance, env, types, policy, policy_rng);
  const double lb = path.lower_bound;
  out[0] = lb > 0.0 ? res.weighted_completion / lb : 1.0;
  out[1] = res.weighted_completion;
  out[2] = lb;
  out[3] = static_cast<double>(res.jobs);
}

void run_online_replication(const ArrivalProcess& arrival,
                            const std::vector<JobType>& types,
                            const Environment& env, double horizon,
                            const OfflineBoundOptions& bound,
                            const OnlinePolicy& policy, Rng& rng,
                            std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == online_metric_count(),
                   "metric span size mismatch");
  evaluate_online_replication(
      prepare_online_replication(arrival, types, env, horizon, bound, rng),
      env, types, policy, out);
}

}  // namespace stosched::online
