#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/conservation.hpp"
#include "experiment/adapters.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "online/lower_bound.hpp"
#include "online/model.hpp"
#include "online/simulate.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1_analytic.hpp"
#include "queueing/network.hpp"
#include "queueing/parallel_servers.hpp"
#include "queueing/polling.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace ex = stosched::experiment;
namespace q = stosched::queueing;
namespace ol = stosched::online;
using stosched::Rng;

// ---- tracer ----------------------------------------------------------------

namespace {

unsigned thread_id() {
#ifdef _OPENMP
  return static_cast<unsigned>(omp_get_thread_num());
#else
  return 0;
#endif
}

std::int64_t global_id(unsigned tid, std::size_t index) {
  return (static_cast<std::int64_t>(tid) << 32) |
         static_cast<std::int64_t>(index);
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::reset(unsigned threads) {
  buf_.assign(threads, {});
  for (auto& b : buf_) b.reserve(1 << 16);
  open_.assign(threads, -1);
  call_span_ = -1;
  call_ = 0;
}

std::int64_t Tracer::open(const char* name, std::uint32_t rep,
                          std::uint32_t arm) {
  if (!enabled_) return -1;
  const unsigned tid = thread_id();
  auto& b = buf_[tid];
  Span s;
  s.name = name;
  s.parent = open_[tid] >= 0 ? global_id(tid, static_cast<std::size_t>(
                                                  open_[tid]))
                             : call_span_;
  s.call = call_;
  s.rep = rep;
  s.arm = arm;
  b.push_back(s);
  const auto index = static_cast<std::int64_t>(b.size() - 1);
  open_[tid] = index;
  b.back().start_ns = now_ns();
  return index;
}

void Tracer::close(std::int64_t index, std::uint64_t value) {
  if (index < 0) return;
  const std::uint64_t t = now_ns();
  const unsigned tid = thread_id();
  Span& s = buf_[tid][static_cast<std::size_t>(index)];
  s.end_ns = t;
  s.value = value;
  open_[tid] = s.parent >= 0 && (s.parent >> 32) == tid
                   ? (s.parent & 0xffffffffLL)
                   : -1;
}

void Tracer::begin_call(const char* name) {
  if (!enabled_) return;
  ++call_;
  const std::int64_t index = open(name);
  call_span_ = global_id(0, static_cast<std::size_t>(index));
}

void Tracer::end_call() {
  if (!enabled_ || call_span_ < 0) return;
  close(call_span_ & 0xffffffffLL);
  call_span_ = -1;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& b : buf_)
    for (const Span& s : b) t0 = std::min(t0, s.start_ns);
  os << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t tid = 0; tid < buf_.size(); ++tid)
    for (std::size_t i = 0; i < buf_[tid].size(); ++i) {
      const Span& s = buf_[tid][i];
      os << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
         << ", \"ts\": " << (s.start_ns - t0) * 1e-3
         << ", \"dur\": " << (s.end_ns - s.start_ns) * 1e-3
         << ", \"args\": {\"id\": " << global_id(static_cast<unsigned>(tid), i)
         << ", \"parent\": " << s.parent << ", \"call\": " << s.call
         << ", \"rep\": " << s.rep << ", \"arm\": " << s.arm
         << ", \"value\": " << s.value << "}}";
      first = false;
    }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// ---- helpers -----------------------------------------------------------------

const char* family_name(Family f) {
  switch (f) {
    case Family::kMg1: return "mg1";
    case Family::kPolling: return "polling";
    case Family::kNetwork: return "network";
    case Family::kMmm: return "mmm";
    case Family::kOnline: return "online";
  }
  return "?";
}

std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  if (round == 0) return seed;
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * round);
  return stosched::splitmix64(state);
}

namespace {

bool same_stat(const stosched::RunningStat& a, const stosched::RunningStat& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.count() == b.count() && bits(a.mean()) == bits(b.mean()) &&
         bits(a.variance()) == bits(b.variance()) &&
         bits(a.min()) == bits(b.min()) && bits(a.max()) == bits(b.max());
}

bool same_stats(const std::vector<std::vector<stosched::RunningStat>>& a,
                const std::vector<std::vector<stosched::RunningStat>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].size() != b[k].size()) return false;
    for (std::size_t d = 0; d < a[k].size(); ++d)
      if (!same_stat(a[k][d], b[k][d])) return false;
  }
  return true;
}

}  // namespace

bool same_result(const PairedResult& a, const PairedResult& b) {
  return a.replications == b.replications && a.converged == b.converged &&
         same_stats(a.arm, b.arm) && same_stats(a.diff, b.diff);
}

RoundShape round_shape(const EngineOptions& opt, std::size_t replications) {
  const bool sequential = opt.rel_precision > 0.0;
  const std::size_t batch =
      sequential ? ex::detail::cells_per_batch(opt.batch) * ex::kCellSize
                 : opt.max_replications;
  RoundShape shape;
  for (std::size_t done = 0; done < replications;) {
    const std::size_t want = std::min(batch, opt.max_replications - done);
    shape.cells += (want + ex::kCellSize - 1) / ex::kCellSize;
    ++shape.rounds;
    done += want;
  }
  return shape;
}

namespace {

// ---- replica bodies ------------------------------------------------------------
// Each replica runs the engine exactly as the production adapter does and
// calls the same simulator entry points, inside an "arm" span per body.

template <class Call>
PairedResult traced_paired(const EngineOptions& opt, std::size_t arms,
                           std::size_t dims, Call&& call) {
  return ex::run_paired(
      opt, arms, dims, ex::Pairing::kCommonRandomNumbers,
      [&](std::size_t r, std::size_t k, Rng& rng, std::span<double> out) {
        Scope span("arm", static_cast<std::uint32_t>(r),
                   static_cast<std::uint32_t>(k));
        call(k, rng, out);
      });
}

/// run_online_replication with a span around each of its three steps, and
/// the bound split into its combinatorial part and the interval LP (the
/// same max the library takes) so the LP solve gets its own span.
void online_replica(const ex::OnlineScenario& s, const ol::OnlinePolicy& policy,
                    Rng& rng, std::span<double> out) {
  const Rng root(rng());
  Rng arrival_rng = root.stream(0);
  Rng type_rng = root.stream(1);
  Rng size_rng = root.stream(2);
  Rng sample_rng = root.stream(3);
  Rng policy_rng = root.stream(4);

  ol::OnlineInstance inst;
  {
    Scope span("online.instance");
    inst = ol::generate_online_instance(*s.arrival, s.types, s.horizon,
                                        arrival_rng, type_rng, size_rng,
                                        sample_rng);
  }
  ol::OnlineResult res;
  {
    Scope span("online.simulate");
    res = ol::simulate_online(inst, s.env, s.types, policy, policy_rng);
  }
  double bound = 0.0;
  {
    Scope span("online.bound");
    ol::OfflineBoundOptions combinatorial = s.bound;
    combinatorial.use_lp = false;
    bound = ol::offline_lower_bound(inst, s.env, s.types, combinatorial).value;
    bool trivial = true;
    for (const auto& job : inst) {
      if (job.release > 0.0) trivial = false;
      for (std::size_t i = 0; i < s.env.machines(); ++i)
        if (s.env.proc_time(i, job.type, job.size) > 0.0) trivial = false;
    }
    if (s.bound.use_lp && !inst.empty() && inst.size() <= s.bound.lp_job_cap &&
        !trivial) {
      const stosched::lp::Problem prob =
          ol::interval_indexed_lp(inst, s.env, s.bound);
      stosched::lp::Solution sol;
      {
        Scope lp_span("lp.solve");
        sol = stosched::lp::solve(prob, s.bound.lp_solver);
        lp_span.set_value(sol.iterations);
      }
      bound = std::max(bound, sol.optimal() ? sol.objective : 0.0);
    }
  }
  out[0] = bound > 0.0 ? res.weighted_completion / bound : 1.0;
  out[1] = res.weighted_completion;
  out[2] = bound;
  out[3] = static_cast<double>(res.jobs);
}

// ---- verdicts ----------------------------------------------------------------

/// The T9 verdicts on a static-priority M/G/1 comparison whose arm 0 is the
/// cµ order: cµ is Cobham-optimal over the arms, every simulated cost is
/// within 10% of Cobham, and Kleinrock conservation holds within 8%.
std::string mg1_verdict(const ex::QueueScenario& s,
                        const std::vector<ex::QueuePolicy>& arms,
                        const PairedResult& r, bool check_simulation) {
  double best = 0.0;
  std::size_t best_arm = 0;
  std::vector<double> means(ex::metric_count(s));
  for (std::size_t k = 0; k < arms.size(); ++k) {
    const double analytic = q::cobham_cost_rate(s.classes, arms[k].priority);
    if (k == 0 || analytic < best) {
      best = analytic;
      best_arm = k;
    }
    if (!check_simulation) continue;
    for (std::size_t d = 0; d < means.size(); ++d) means[d] = r.arm[k][d].mean();
    const auto sim = q::mg1_result_from_metrics(s.classes, means);
    if (std::abs(sim.cost_rate - analytic) >= 0.10 * analytic)
      return "simulated cost not within 10% of Cobham";
    if (stosched::core::audit_conservation(s.classes, sim).rel_error >= 0.08)
      return "Kleinrock conservation residual >= 8%";
  }
  if (best_arm != 0) return "c-mu order is not Cobham-optimal";
  return "";
}

std::string online_verdict(const PairedResult& r) {
  for (const auto& arm : r.arm)
    if (arm[0].min() < 1.0 - 1e-9) return "an online ratio is below 1";
  return "";
}

// ---- experiments -------------------------------------------------------------

EngineOptions sequential_opts(std::size_t min, std::size_t batch,
                              std::size_t max, double rel) {
  EngineOptions o;
  o.min_replications = min;
  o.batch = batch;
  o.max_replications = max;
  o.rel_precision = rel;
  o.tracked = {0};
  return o;
}

EngineOptions fixed_opts(std::size_t replications) {
  EngineOptions o;
  o.max_replications = replications;
  o.rel_precision = 0.0;
  return o;
}

Laws class_laws(const std::vector<q::ClassSpec>& classes,
                std::size_t fes_size) {
  Laws laws;
  for (const auto& c : classes) {
    laws.service.push_back(c.service);
    if (auto a = q::effective_arrival(c)) laws.arrival.push_back(std::move(a));
  }
  laws.fes_sizes = {fes_size};
  return laws;
}

/// Static-priority M/G/1 comparison: arm 0 the cµ order, then the others.
Experiment mg1_experiment(std::string name, ex::QueueScenario s,
                          EngineOptions opt, bool all_orders,
                          bool check_simulation) {
  const auto cmu = q::cmu_order(s.classes);
  std::vector<ex::QueuePolicy> arms{
      {"c-mu", q::Discipline::kPriorityNonPreemptive, cmu}};
  if (all_orders) {
    std::vector<std::size_t> order(s.classes.size());
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    do {
      if (order != cmu)
        arms.push_back({"", q::Discipline::kPriorityNonPreemptive, order});
    } while (std::next_permutation(order.begin(), order.end()));
  } else {
    arms.push_back({"reverse", q::Discipline::kPriorityNonPreemptive,
                    {cmu.rbegin(), cmu.rend()}});
  }
  std::vector<q::SimOptions> sim_opts;
  for (const auto& a : arms) {
    q::SimOptions o = s.options();
    o.discipline = a.discipline;
    o.priority = a.priority;
    sim_opts.push_back(std::move(o));
  }
  Experiment e;
  e.name = std::move(name);
  e.family = Family::kMg1;
  e.arms = arms.size();
  e.opt = std::move(opt);
  e.laws = class_laws(s.classes, s.classes.size() + 1);
  e.production = [s, arms](const EngineOptions& o) {
    return ex::compare_queue_policies(s, arms, o,
                                      ex::Pairing::kCommonRandomNumbers);
  };
  e.replica = [s, sim_opts](const EngineOptions& o) {
    return traced_paired(o, sim_opts.size(), ex::metric_count(s),
                         [&](std::size_t k, Rng& rng, std::span<double> out) {
                           q::run_replication(s.classes, sim_opts[k], rng, out);
                         });
  };
  e.verdict = [s, arms, check_simulation](const PairedResult& r) {
    return mg1_verdict(s, arms, r, check_simulation);
  };
  return e;
}

Experiment polling_experiment(std::string name, ex::PollingScenario s,
                              EngineOptions opt) {
  const std::vector<ex::PollingPolicy> arms{
      {"exhaustive", q::PollingDiscipline::kExhaustive},
      {"gated", q::PollingDiscipline::kGated},
      {"1-limited", q::PollingDiscipline::kLimited, 1},
      {"greedy c-mu", q::PollingDiscipline::kGreedyCmu},
  };
  std::vector<q::PollingOptions> sim_opts;
  for (const auto& a : arms) sim_opts.push_back(s.options(a.discipline, a.limit));
  Experiment e;
  e.name = std::move(name);
  e.family = Family::kPolling;
  e.arms = arms.size();
  e.opt = std::move(opt);
  e.laws = class_laws(s.classes, s.classes.size() + 1);
  e.laws.service.push_back(s.switchover);
  e.production = [s, arms](const EngineOptions& o) {
    return ex::compare_polling_policies(s, arms, o,
                                        ex::Pairing::kCommonRandomNumbers);
  };
  e.replica = [s, sim_opts](const EngineOptions& o) {
    return traced_paired(o, sim_opts.size(), ex::metric_count(s),
                         [&](std::size_t k, Rng& rng, std::span<double> out) {
                           q::run_replication(s.classes, sim_opts[k], rng, out);
                         });
  };
  e.verdict = [](const PairedResult&) { return std::string(); };
  return e;
}

Experiment network_experiment(std::string name, ex::NetworkScenario s,
                              EngineOptions opt) {
  const auto arms = ex::lu_kumar_policies();
  std::vector<q::NetworkConfig> cfgs;
  for (const auto& a : arms) {
    q::NetworkConfig cfg = s.config;
    cfg.station_priority = a.station_priority;
    cfg.validate();
    cfgs.push_back(std::move(cfg));
  }
  Experiment e;
  e.name = std::move(name);
  e.family = Family::kNetwork;
  e.arms = arms.size();
  e.opt = std::move(opt);
  for (const auto& c : s.config.classes) {
    e.laws.service.push_back(c.service ? c.service
                                       : stosched::exponential_dist(
                                             1.0 / c.service_mean));
    if (auto a = q::effective_arrival(c)) e.laws.arrival.push_back(std::move(a));
  }
  e.laws.fes_sizes = {e.laws.arrival.size() + s.config.num_stations};
  e.production = [s, arms](const EngineOptions& o) {
    return ex::compare_network_policies(s, arms, o,
                                        ex::Pairing::kCommonRandomNumbers);
  };
  e.replica = [s, cfgs](const EngineOptions& o) {
    return traced_paired(o, cfgs.size(), ex::metric_count(s),
                         [&](std::size_t k, Rng& rng, std::span<double> out) {
                           q::run_replication(cfgs[k], s.horizon, s.samples,
                                              rng, out);
                         });
  };
  e.verdict = [](const PairedResult&) { return std::string(); };
  return e;
}

Experiment mmm_experiment(std::string name, ex::MmmScenario s,
                          EngineOptions opt) {
  const auto cmu = q::cmu_order(s.classes);
  const std::vector<ex::MmmPolicy> arms{{"c-mu", cmu},
                                        {"reverse", {cmu.rbegin(), cmu.rend()}}};
  Experiment e;
  e.name = std::move(name);
  e.family = Family::kMmm;
  e.arms = arms.size();
  e.opt = std::move(opt);
  e.laws = class_laws(s.classes, s.classes.size() + s.servers);
  e.production = [s, arms](const EngineOptions& o) {
    return ex::compare_mmm_policies(s, arms, o,
                                    ex::Pairing::kCommonRandomNumbers);
  };
  e.replica = [s, arms](const EngineOptions& o) {
    return traced_paired(o, arms.size(), ex::metric_count(s),
                         [&](std::size_t k, Rng& rng, std::span<double> out) {
                           q::run_replication(s.classes, s.servers,
                                              arms[k].priority, s.horizon,
                                              s.warmup, rng, out);
                         });
  };
  e.verdict = [](const PairedResult&) { return std::string(); };
  return e;
}

Experiment online_experiment(std::string name, ex::OnlineScenario s,
                             EngineOptions opt) {
  const auto arms = ex::online_policy_arms();
  Experiment e;
  e.name = std::move(name);
  e.family = Family::kOnline;
  e.arms = arms.size();
  e.opt = std::move(opt);
  e.lp_dims = {0, 2};  // ratio and lower_bound
  e.jobs_dim = 3;
  for (const auto& t : s.types) e.laws.service.push_back(t.size);
  e.laws.arrival.push_back(s.arrival);
  e.production = [s, arms](const EngineOptions& o) {
    return ex::compare_online_policies(s, arms, o,
                                       ex::Pairing::kCommonRandomNumbers);
  };
  e.replica = [s, arms](const EngineOptions& o) {
    return traced_paired(o, arms.size(), ex::metric_count(s),
                         [&](std::size_t k, Rng& rng, std::span<double> out) {
                           online_replica(s, *arms[k], rng, out);
                         });
  };
  e.verdict = online_verdict;
  return e;
}

}  // namespace

// ---- calls -------------------------------------------------------------------

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

bool is_lp_dim(const Experiment& e, std::size_t d) {
  return std::find(e.lp_dims.begin(), e.lp_dims.end(), d) != e.lp_dims.end();
}

void add_stats(Fnv& f, const Experiment& e,
               const std::vector<std::vector<stosched::RunningStat>>& stats) {
  for (const auto& arm : stats)
    for (std::size_t d = 0; d < arm.size(); ++d) {
      if (is_lp_dim(e, d)) continue;
      f.add(static_cast<std::uint64_t>(arm[d].count()));
      f.add(arm[d].mean());
      f.add(arm[d].variance());
      f.add(arm[d].min());
      f.add(arm[d].max());
    }
}

void add_histogram_delta(Fnv& f, const stosched::obs::HistogramSnapshot& before,
                         const stosched::obs::HistogramSnapshot& after) {
  for (std::size_t i = 0; i < before.counts.size(); ++i)
    f.add(after.counts[i] - before.counts[i]);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

CallRecord run_call(const Experiment& e, std::uint64_t seed, bool replica) {
  namespace obs = stosched::obs;
  CallRecord c;
  c.experiment = e.name;
  c.seed = seed;
  EngineOptions opt = e.opt;
  opt.seed = seed;
  const auto wait0 = obs::histogram_snapshot("wait_time");
  const auto sojourn0 = obs::histogram_snapshot("sojourn_time");
  const std::uint64_t events0 = obs::counter_value("events");
  const std::uint64_t solves0 = obs::counter_value("lp_solves");
  const std::uint64_t iters0 = obs::counter_value("lp_iterations");
  const std::uint64_t t0 = now_ns();
  try {
    c.result = replica ? e.replica(opt) : e.production(opt);
    c.error = e.verdict(c.result);
  } catch (const std::exception& ex) {
    c.error = std::string("threw: ") + ex.what();
  }
  c.wall_s = (now_ns() - t0) * 1e-9;
  c.des_events = obs::counter_value("events") - events0;
  c.lp_solves = obs::counter_value("lp_solves") - solves0;
  c.lp_iterations = obs::counter_value("lp_iterations") - iters0;
  c.merged = c.result.replications * e.arms;
  c.events = c.des_events;
  if (c.events == 0 && e.jobs_dim >= 0 && !c.result.arm.empty()) {
    double jobs = 0.0;
    for (const auto& arm : c.result.arm) {
      const auto& s = arm[static_cast<std::size_t>(e.jobs_dim)];
      jobs += s.mean() * static_cast<double>(s.count());
    }
    c.events = 2 * static_cast<std::uint64_t>(std::llround(jobs));
  }

  Fnv f;
  f.add(static_cast<std::uint64_t>(c.result.replications));
  f.add(static_cast<std::uint64_t>(c.result.converged));
  add_stats(f, e, c.result.arm);
  add_stats(f, e, c.result.diff);
  f.add(c.des_events);
  add_histogram_delta(f, wait0, obs::histogram_snapshot("wait_time"));
  add_histogram_delta(f, sojourn0, obs::histogram_snapshot("sojourn_time"));
  c.digest = hex(f.h);
  for (const auto& arm : c.result.arm)
    for (const std::size_t d : e.lp_dims) c.lp_values.push_back(arm[d].mean());
  for (const auto& diff : c.result.diff)
    for (const std::size_t d : e.lp_dims) c.lp_values.push_back(diff[d].mean());
  return c;
}

std::string call_json(const CallRecord& c) {
  std::string s = "{\"experiment\": \"" + c.experiment +
                  "\", \"seed\": " + std::to_string(c.seed) +
                  ", \"replications\": " +
                  std::to_string(c.result.replications) +
                  ", \"events\": " + std::to_string(c.des_events) +
                  ", \"wall_s\": " + std::to_string(c.wall_s) +
                  ", \"digest\": \"" + c.digest + "\", \"lp\": [";
  char buf[32];
  for (std::size_t i = 0; i < c.lp_values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", c.lp_values[i]);
    s += (i ? ", " : "") + std::string(buf);
  }
  s += "], \"error\": \"" + json_escape(c.error) + "\"}";
  return s;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's peak when that one is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0)
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "queue-seq") {
    // The shape of t9/t10/t11/f5/f6/f7: sequential precision with
    // batch = kCellSize, so each stopping round hands OpenMP one cell.
    ex::QueueScenario t9 = ex::queue_scenario("t9-three-class");
    t9.horizon = 2e4;
    t9.warmup = 2e3;
    w.experiments.push_back(mg1_experiment(
        "t9-three-class", t9, sequential_opts(16, ex::kCellSize, 256, 0.01),
        /*all_orders=*/true, /*check_simulation=*/true));
    ex::PollingScenario t11 = ex::polling_scenario("t11-two-queue");
    t11.horizon = 2e4;
    t11.warmup = 2e3;
    w.experiments.push_back(polling_experiment(
        "t11-two-queue", t11, sequential_opts(16, ex::kCellSize, 192, 0.02)));
  } else if (name == "queue-fixed") {
    // Fixed-length runs over the four event-driven simulators: every cell
    // fans out in one round, so the time goes to the event loop.
    w.experiments.push_back(network_experiment(
        "lu-kumar", ex::network_scenario("lu-kumar"), fixed_opts(64)));
    ex::MmmScenario pooling = ex::mmm_scenario("parallel-pooling");
    pooling.horizon = 5e4;
    pooling.warmup = 5e3;
    w.experiments.push_back(
        mmm_experiment("parallel-pooling", pooling, fixed_opts(64)));
    ex::PollingScenario bursty = ex::polling_scenario("t11-bursty");
    bursty.horizon = 2e4;
    bursty.warmup = 2e3;
    w.experiments.push_back(
        polling_experiment("t11-bursty", bursty, fixed_opts(64)));
    ex::QueueScenario heavy = ex::queue_scenario("heavy-tail");
    heavy.horizon = 5e4;
    heavy.warmup = 5e3;
    w.experiments.push_back(mg1_experiment(
        "heavy-tail", heavy, fixed_opts(64), /*all_orders=*/false,
        /*check_simulation=*/false));
  } else if (name == "online-lp") {
    // F11's LP-audited cell: online-bernoulli at horizon 48 with the
    // interval LP engaged and the four online_policy_arms().
    ex::OnlineScenario lp = ex::online_scenario("online-bernoulli");
    lp.name += "-lp";
    lp.horizon = 48.0;
    lp.bound.use_lp = true;
    w.experiments.push_back(online_experiment(
        "online-bernoulli-lp", lp, sequential_opts(32, 32, 48, 0.08)));
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (queue-seq, queue-fixed, online-lp)");
  }
  return w;
}

}  // namespace perfbench
