// layers.cpp — the traced run: per-layer numbers taken from outside the
// library, by timing calls into each layer's public functions.
//
// Passes, in order, all on the workload's round-0 experiment calls (after
// one untimed warm-up call of each):
//   A  production calls on N threads, untraced (the reference timing);
//   B  the traced replicas on N threads: spans around every arm body and,
//      for online experiments, around instance generation, simulation, the
//      bound and its LP solve. Must equal A bit for bit;
//   C  production calls on one thread. Must equal A bit for bit (thread-
//      count determinism); gives T1 for the parallel efficiency and the
//      per-family ns/event with an uncontended `events` counter.
// Then layer replays through public APIs at the workload's shapes: an
// EventQueue hold loop at the simulators' FES sizes and draw loops over the
// workload's laws. A workload that does not exercise a layer gets that
// layer's timings from a probe: a small single-thread call of the
// experiment that does (the queue-fixed families, the online-lp cell).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "experiment/engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

void set_threads(unsigned n) {
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(n));
#else
  (void)n;
#endif
}

volatile double g_sink = 0.0;  // keeps replay results observable

/// Median ns per operation over five timed repetitions of `body(ops)`.
template <class Body>
double replay_ns(std::size_t ops, Body&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    g_sink = g_sink + body(ops);
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(ops));
  }
  return median(ns);
}

/// Hold model on the production future-event set: pop the earliest event
/// and push it back one increment later, at a fixed resident size.
double hold_ns(std::size_t size) {
  stosched::Rng rng(7);
  std::vector<double> inc(4096);
  for (double& x : inc) x = rng.exponential(1.0);
  stosched::EventQueue fes(size + 1);
  for (std::size_t i = 0; i < size; ++i)
    fes.push(inc[i % inc.size()], static_cast<std::uint32_t>(i % 3));
  return replay_ns(2'000'000, [&](std::size_t ops) {
    double acc = 0.0;
    for (std::size_t i = 0; i < ops; ++i) {
      const stosched::Event e = fes.pop();
      acc += e.time;
      fes.push(e.time + inc[i & 4095], e.type, e.a, e.b);
    }
    return acc;
  });
}

double flat_draw_ns(const stosched::Distribution& law) {
  const stosched::FlatSampler flat = law.flat();
  stosched::Rng rng(11);
  return replay_ns(1'000'000, [&](std::size_t ops) {
    double acc = 0.0;
    for (std::size_t i = 0; i < ops; ++i) acc += flat.sample(rng);
    return acc;
  });
}

double gap_ns(const stosched::ArrivalProcess& process) {
  const stosched::CachedGapSampler gap(&process);
  stosched::ArrivalState state;
  stosched::Rng rng(13);
  return replay_ns(1'000'000, [&](std::size_t ops) {
    double acc = 0.0;
    for (std::size_t i = 0; i < ops; ++i) acc += gap.next_gap(state, rng);
    return acc;
  });
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-family single-thread cost: wall and events over that family's calls.
struct FamilyCost {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::size_t merged = 0;
};

}  // namespace

int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& trace_path) {
  const unsigned threads = stosched::experiment::engine_threads();
  Tracer& tr = tracer();
  tr.reset(threads);
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  const auto note = [&](const CallRecord& c, const char* pass) {
    ++attempted;
    if (!c.error.empty())
      failures.push_back(std::string(pass) + " " + c.experiment + ": " +
                         c.error);
  };

  // Passes A and B, after one warm-up call per experiment (first-touch
  // allocation and page faults stay out of them). They alternate twice,
  // A B A B, and the overhead compares the faster pass of each kind, so
  // that drift and bursts of contention do not masquerade as overhead.
  // Records and spans come from the first pair.
  for (const Experiment& e : w.experiments)
    note(run_call(e, seed, false), "warm-up");
  std::vector<CallRecord> a, b;
  std::set<std::uint32_t> span_calls, workload_calls, online_calls;
  double pass_a[2] = {0.0, 0.0}, pass_b[2] = {0.0, 0.0};
  for (int pair = 0; pair < 2; ++pair) {
    for (const Experiment& e : w.experiments) {
      CallRecord r = run_call(e, seed, false);
      note(r, "A");
      pass_a[pair] += r.wall_s;
      if (pair == 0) a.push_back(std::move(r));
    }
    tr.set_enabled(true);
    for (std::size_t i = 0; i < w.experiments.size(); ++i) {
      const Experiment& e = w.experiments[i];
      tr.begin_call(e.name.c_str());
      if (pair == 0) {
        span_calls.insert(tr.call_id());
        workload_calls.insert(tr.call_id());
        if (e.family == Family::kOnline) online_calls.insert(tr.call_id());
      }
      CallRecord r = run_call(e, seed, true);
      tr.end_call();
      note(r, "B");
      pass_b[pair] += r.wall_s;
      if (!same_result(a[i].result, r.result))
        failures.push_back("replica of " + e.name + " differs from production");
      if (pair == 0) b.push_back(std::move(r));
    }
    tr.set_enabled(false);
  }
  const double wall_a = 0.5 * (pass_a[0] + pass_a[1]);
  const double wall_b = 0.5 * (pass_b[0] + pass_b[1]);
  const double overhead = std::min(pass_b[0], pass_b[1]) /
                              std::min(pass_a[0], pass_a[1]) -
                          1.0;
  // Pass C: production, one thread.
  std::vector<CallRecord> c;
  set_threads(1);
  for (const Experiment& e : w.experiments) {
    c.push_back(run_call(e, seed, false));
    note(c.back(), "C");
    if (!same_result(a[c.size() - 1].result, c.back().result))
      failures.push_back("one-thread result of " + e.name +
                         " differs from " + std::to_string(threads) +
                         " threads");
  }

  // Per-family single-thread costs, then probes for the families and
  // layers this workload does not exercise.
  std::map<Family, FamilyCost> family;
  bool has_online = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Family f = w.experiments[i].family;
    has_online = has_online || f == Family::kOnline;
    FamilyCost& fc = family[f];
    fc.wall_s += c[i].wall_s;
    fc.events += c[i].des_events;
    fc.merged += c[i].merged;
  }
  Laws laws;
  for (const Experiment& e : w.experiments) {
    laws.service.insert(laws.service.end(), e.laws.service.begin(),
                        e.laws.service.end());
    laws.arrival.insert(laws.arrival.end(), e.laws.arrival.begin(),
                        e.laws.arrival.end());
    laws.fes_sizes.insert(laws.fes_sizes.end(), e.laws.fes_sizes.begin(),
                          e.laws.fes_sizes.end());
  }
  const Workload queue_probe = make_workload("queue-fixed");
  for (const Experiment& e : queue_probe.experiments) {
    if (family.count(e.family) != 0) continue;
    Experiment small = e;
    small.opt.max_replications = stosched::experiment::kCellSize;
    const CallRecord p = run_call(small, seed, false);
    note(p, "probe");
    family[e.family] = {p.wall_s, p.des_events, p.merged};
  }
  if (!has_online) {
    Experiment small = make_workload("online-lp").experiments.front();
    small.opt = {};
    small.opt.max_replications = 2;
    small.opt.rel_precision = 0.0;
    tr.set_enabled(true);
    tr.begin_call("online probe");
    span_calls.insert(tr.call_id());
    online_calls.insert(tr.call_id());
    note(run_call(small, seed, true), "probe");
    tr.end_call();
    tr.set_enabled(false);
  }
  set_threads(threads);

  // Layer replays. (Replays pop events too; every counter read is above.)
  // Shapes the workload lacks (online-lp holds no FES and draws no MMPP
  // gaps) come from the queue-fixed simulators.
  Laws probe_laws;
  for (const Experiment& e : queue_probe.experiments) {
    probe_laws.arrival.insert(probe_laws.arrival.end(),
                              e.laws.arrival.begin(), e.laws.arrival.end());
    probe_laws.fes_sizes.insert(probe_laws.fes_sizes.end(),
                                e.laws.fes_sizes.begin(),
                                e.laws.fes_sizes.end());
  }
  if (laws.fes_sizes.empty()) laws.fes_sizes = probe_laws.fes_sizes;
  std::set<std::size_t> sizes(laws.fes_sizes.begin(), laws.fes_sizes.end());
  std::vector<double> hold;
  for (const std::size_t n : sizes) hold.push_back(hold_ns(n));
  std::vector<double> draws, gaps, mmpp;
  for (const auto& law : laws.service) draws.push_back(flat_draw_ns(*law));
  for (const auto& p : laws.arrival) {
    if (stosched::CachedGapSampler(p.get()).flat())
      gaps.push_back(gap_ns(*p));
    else
      mmpp.push_back(gap_ns(*p));
  }
  if (mmpp.empty())
    for (const auto& p : probe_laws.arrival)
      if (!stosched::CachedGapSampler(p.get()).flat())
        mmpp.push_back(gap_ns(*p));

  // ---- metrics from the passes and spans --------------------------------
  double wall_c = 0.0;
  std::size_t merged = 0, rounds = 0, cells = 0;
  std::uint64_t des_events = 0, lp_solves = 0, lp_iterations = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    wall_c += c[i].wall_s;
    merged += a[i].merged;
    const RoundShape shape =
        round_shape(w.experiments[i].opt, a[i].result.replications);
    rounds += shape.rounds;
    cells += shape.cells;
    des_events += a[i].des_events;
    lp_solves += a[i].lp_solves;
    lp_iterations += a[i].lp_iterations;
  }
  double body_s = 0.0;
  std::size_t bodies = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> rep_ms;
  std::vector<double> instance_us, simulate_us, bound_ms, solve_ms;
  std::uint64_t span_iterations = 0;
  std::size_t online_reps = 0;
  for (const auto& buf : tr.buffers())
    for (const Span& s : buf) {
      if (span_calls.count(s.call) == 0) continue;
      const std::string name = s.name;
      const bool in_workload = workload_calls.count(s.call) != 0;
      if (name == "arm" && in_workload) {
        body_s += s.ms() * 1e-3;
        ++bodies;
        rep_ms[{s.call, s.rep}] += s.ms();
      } else if (name == "online.instance") {
        instance_us.push_back(s.ms() * 1e3);
      } else if (name == "online.simulate") {
        simulate_us.push_back(s.ms() * 1e3);
      } else if (name == "online.bound") {
        bound_ms.push_back(s.ms());
      } else if (name == "lp.solve") {
        solve_ms.push_back(s.ms());
        span_iterations += s.value;
      }
      if (name == "arm" && s.arm == 0 && online_calls.count(s.call) != 0)
        ++online_reps;
    }
  std::vector<double> reps;
  for (const auto& [key, ms] : rep_ms) reps.push_back(ms);

  double queue_wall = 0.0;
  std::uint64_t queue_events = 0;
  std::size_t queue_merged = 0;
  std::vector<Metric> m;
  for (const Family f :
       {Family::kMg1, Family::kPolling, Family::kNetwork, Family::kMmm}) {
    const FamilyCost& fc = family[f];
    queue_wall += fc.wall_s;
    queue_events += fc.events;
    queue_merged += fc.merged;
    m.push_back({std::string("queueing.") + family_name(f) + ".ns_per_event",
                 fc.events ? fc.wall_s * 1e9 / static_cast<double>(fc.events)
                           : 0.0,
                 "ns"});
  }
  const double hold_mean = mean(hold), draw_mean = mean(draws),
               gap_mean = mean(gaps);
  const double ns_per_event =
      queue_events ? queue_wall * 1e9 / static_cast<double>(queue_events) : 0.0;
  double solve_total = 0.0, bound_total = 0.0;
  for (const double x : solve_ms) solve_total += x;
  for (const double x : bound_ms) bound_total += x;
  const std::uint64_t iters_base = lp_solves ? lp_iterations : span_iterations;
  const std::size_t solves_base = lp_solves ? lp_solves : solve_ms.size();

  m.push_back({"queueing.events_per_rep",
               queue_merged ? static_cast<double>(queue_events) /
                                  static_cast<double>(queue_merged)
                            : 0.0,
               "count"});
  m.push_back({"queueing.bookkeeping_ns_per_event",
               ns_per_event - hold_mean - 0.5 * (draw_mean + gap_mean), "ns"});
  std::vector<Metric> head{
      {"experiment.rounds", static_cast<double>(rounds), "count"},
      {"experiment.cells_per_round",
       rounds ? static_cast<double>(cells) / static_cast<double>(rounds) : 0.0,
       "count"},
      {"experiment.busy_frac", body_s / (threads * wall_b), "ratio"},
      {"experiment.parallel_eff", wall_c / (threads * wall_a), "ratio"},
      {"experiment.useful_frac",
       bodies ? static_cast<double>(merged) / static_cast<double>(bodies) : 0.0,
       "ratio"},
      {"experiment.rep_ms_p50", percentile(reps, 0.5), "ms"},
      {"experiment.rep_ms_p99", percentile(reps, 0.99), "ms"},
  };
  m.insert(m.begin(), head.begin(), head.end());
  const std::vector<Metric> tail{
      {"des.events", static_cast<double>(des_events), "count"},
      {"des.hold_ns", hold_mean, "ns"},
      {"dist.flat_draw_ns", draw_mean, "ns"},
      {"dist.gap_ns", gap_mean, "ns"},
      {"dist.mmpp_gap_ns", mean(mmpp), "ns"},
      {"online.instance_us", mean(instance_us), "us"},
      {"online.simulate_us", mean(simulate_us), "us"},
      {"online.bound_ms", mean(bound_ms), "ms"},
      {"online.bound_calls_per_rep",
       online_reps ? static_cast<double>(bound_ms.size()) /
                         static_cast<double>(online_reps)
                   : 0.0,
       "count"},
      {"lp.solves", static_cast<double>(lp_solves), "count"},
      {"lp.iterations", static_cast<double>(lp_iterations), "count"},
      {"lp.iters_per_solve",
       solves_base ? static_cast<double>(iters_base) /
                         static_cast<double>(solves_base)
                   : 0.0,
       "count"},
      {"lp.solve_ms_p50", percentile(solve_ms, 0.5), "ms"},
      {"lp.solve_ms_p99", percentile(solve_ms, 0.99), "ms"},
      {"lp.us_per_iter",
       span_iterations ? solve_total * 1e3 / static_cast<double>(span_iterations)
                       : 0.0,
       "us"},
      {"lp.bound_share", bound_total > 0.0 ? solve_total / bound_total : 0.0,
       "ratio"},
      {"bench.trace_overhead_frac", overhead, "ratio"},
      {"bench.threads", static_cast<double>(threads), "count"},
  };
  m.insert(m.end(), tail.begin(), tail.end());

  if (!trace_path.empty() && !tr.write_chrome_trace(trace_path))
    failures.push_back("cannot write " + trace_path);
  for (const std::string& f : failures) std::cerr << "perfbench: " << f << '\n';

  std::string out = "{\"workload\": \"" + w.name + "\", \"attempted\": " +
                    std::to_string(attempted) + ", \"failed\": " +
                    std::to_string(failures.size()) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.9g", m[i].value);
    out += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  out += "}, \"calls\": [";
  for (std::size_t i = 0; i < a.size(); ++i)
    out += (i ? ", " : "") + call_json(a[i]);
  out += "]}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace perfbench
