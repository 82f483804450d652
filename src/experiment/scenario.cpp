#include "experiment/scenario.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/check.hpp"

namespace stosched::experiment {

double QueueScenario::load() const {
  return queueing::traffic_intensity(classes);
}

queueing::SimOptions QueueScenario::options() const {
  queueing::SimOptions opt;
  opt.horizon = horizon;
  opt.warmup = warmup;
  opt.feedback = feedback;
  return opt;
}

queueing::PollingOptions PollingScenario::options(
    queueing::PollingDiscipline discipline, std::size_t limit) const {
  queueing::PollingOptions opt;
  opt.discipline = discipline;
  opt.limit = limit;
  opt.switchover = switchover;
  opt.horizon = horizon;
  opt.warmup = warmup;
  return opt;
}

restless::RestlessInstance RestlessScenario::instance() const {
  return restless::symmetric_instance(prototype, projects, activate);
}

double MmmScenario::load() const {
  return queueing::traffic_intensity(classes) / servers;
}

double OnlineScenario::load() const {
  STOSCHED_REQUIRE(arrival != nullptr,
                   "online scenario needs an arrival process");
  online::validate_types(types);
  env.validate(types.size());
  return arrival->rate() * online::mean_size(types) /
         env.mix_capacity(types);
}

double FluidScenario::reference_drain_time() const {
  return queueing::fluid_drain(classes, initial,
                               queueing::fluid_cmu_priority(classes))
      .drain_time;
}

RestlessScenario RestlessScenario::with_population(std::size_t n) const {
  STOSCHED_REQUIRE(n >= 1 && projects >= 1, "population must be >= 1");
  RestlessScenario out = *this;
  out.projects = n;
  out.activate = std::max<std::size_t>(1, n * activate / projects);
  out.name = name + "-N" + std::to_string(n);
  return out;
}

namespace {

/// Generic name -> scenario map with a helpful unknown-name error.
template <class S>
class Registry {
 public:
  void add(S s) { entries_.emplace(s.name, std::move(s)); }

  const S& get(std::string_view name, const char* family) const {
    const auto it = entries_.find(std::string(name));
    if (it == entries_.end()) {
      std::ostringstream os;
      os << "unknown " << family << " scenario '" << name << "'; known:";
      for (const auto& [k, v] : entries_) os << ' ' << k;
      throw std::invalid_argument(os.str());
    }
    return it->second;
  }

 private:
  std::map<std::string, S> entries_;  // ordered => sorted error listing
};

Registry<QueueScenario> build_queue_registry() {
  Registry<QueueScenario> reg;
  // The T9 instance: three classes with distinct cµ indices spanning IFR
  // (Erlang), memoryless and DFR (hyperexponential) service.
  reg.add({"t9-three-class",
           "3-class M/G/1, distinct c-mu indices (bench T9)",
           {{0.25, exponential_dist(1.0), 1.0},
            {0.20, erlang_dist(2, 3.0), 2.5},
            {0.15, hyperexp2_dist(1.3, 3.0), 0.7}},
           {},
           2e5,
           2e4});
  // The F4 instance: two classes tracing the achievable-region segment.
  reg.add({"f4-two-class",
           "2-class M/G/1 achievable-region instance (bench F4)",
           {{0.3, exponential_dist(1.0), 2.0},
            {0.25, hyperexp2_dist(1.2, 2.5), 1.0}},
           {},
           3e5,
           3e4});
  // The call-center example: urgent/standard/bulk caller mix at rho ~ 0.9.
  reg.add({"call-center",
           "3-class contact-center mix, rho ~ 0.9 (example)",
           {{8.0, exponential_dist(30.0), 12.0},
            {5.0, exponential_dist(15.0), 3.0},
            {1.5, hyperexp2_dist(0.2, 4.0), 1.0}},
           {},
           4e3,
           4e2});
  // The T10 Klimov network: 3 classes with Bernoulli feedback.
  reg.add({"klimov-t10",
           "3-class Klimov feedback network (bench T10)",
           {{0.15, exponential_dist(2.0), 2.0},
            {0.10, exponential_dist(1.0), 1.0},
            {0.10, exponential_dist(1.5), 3.0}},
           {{0.0, 0.4, 0.0}, {0.0, 0.0, 0.3}, {0.1, 0.0, 0.0}},
           2e5,
           2e4});
  // Heavy-tail mix: a Pareto class (alpha = 2.5, finite variance but high
  // SCV) against light-tailed competitors — the regime where priority
  // choices move the cost most.
  reg.add({"heavy-tail",
           "2-class M/G/1 with a Pareto heavy-tail class",
           {{0.30, pareto_dist(0.6, 2.5), 1.0},
            {0.35, exponential_dist(1.25), 2.0}},
           {},
           2e5,
           2e4});
  // Bursty (MMPP) and interarrival-SCV variants of the registered mixes:
  // same effective rates and service laws, non-memoryless input. These are
  // the fixed representatives of the with_burstiness / with_arrival_scv
  // sweeps (asymptotic IDC 9 ~ strongly correlated traffic; interarrival
  // SCV 4 ~ a high-variability renewal stream).
  {
    QueueScenario bursty = with_burstiness(reg.get("t9-three-class", "queue"),
                                           9.0);
    bursty.name = "t9-bursty";
    bursty.description =
        "T9 mix under symmetric on-off MMPP arrivals, IDC = 9";
    reg.add(std::move(bursty));
  }
  {
    QueueScenario scv = with_arrival_scv(reg.get("t9-three-class", "queue"),
                                         4.0);
    scv.name = "t9-scv4";
    scv.description =
        "T9 mix under renewal arrivals with interarrival SCV = 4";
    reg.add(std::move(scv));
  }
  {
    QueueScenario bursty = with_burstiness(reg.get("call-center", "queue"),
                                           6.0);
    bursty.name = "call-center-bursty";
    bursty.description =
        "contact-center mix under bursty MMPP caller arrivals, IDC = 6";
    reg.add(std::move(bursty));
  }
  return reg;
}

Registry<PollingScenario> build_polling_registry() {
  Registry<PollingScenario> reg;
  // The T11 system: two near-symmetric queues, class 1 with the higher cµ.
  reg.add({"t11-two-queue",
           "2-queue polling system, deterministic setups (bench T11)",
           {{0.30, exponential_dist(1.0), 1.0},
            {0.25, exponential_dist(0.8), 2.0}},
           deterministic_dist(0.4),
           2e5,
           2e4});
  // Bursty variant: identical queues and setups, MMPP input (IDC 6) — the
  // non-Poisson polling configuration the simulators already support, now
  // reachable by name.
  {
    PollingScenario bursty =
        with_burstiness(reg.get("t11-two-queue", "polling"), 6.0);
    bursty.name = "t11-bursty";
    bursty.description =
        "T11 polling system under bursty MMPP arrivals, IDC = 6";
    reg.add(std::move(bursty));
  }
  return reg;
}

Registry<RestlessScenario> build_restless_registry() {
  Registry<RestlessScenario> reg;
  // The F3 prototype: active work improves the state, passivity decays it;
  // indexable, with a binding activation budget at m/N = 1/4.
  RestlessScenario f3;
  f3.name = "f3-decay";
  f3.description =
      "4-state improve/decay restless prototype, m/N = 1/4 (bench F3)";
  f3.prototype.reward_passive = {0.0, 0.0, 0.0, 0.0};
  f3.prototype.reward_active = {0.1, 0.4, 0.7, 1.0};
  f3.prototype.trans_active = {{0.1, 0.6, 0.2, 0.1},
                               {0.05, 0.15, 0.6, 0.2},
                               {0.05, 0.1, 0.25, 0.6},
                               {0.05, 0.1, 0.15, 0.7}};
  f3.prototype.trans_passive = {{0.9, 0.1, 0.0, 0.0},
                                {0.5, 0.4, 0.1, 0.0},
                                {0.2, 0.5, 0.25, 0.05},
                                {0.1, 0.3, 0.4, 0.2}};
  f3.projects = 4;
  f3.activate = 1;
  f3.horizon = 60000;
  f3.burnin = 6000;
  reg.add(std::move(f3));
  return reg;
}

Registry<BatchScenario> build_batch_registry() {
  Registry<BatchScenario> reg;
  // The quickstart batch: four jobs whose weights and means disagree, so
  // index rules have something to decide.
  reg.add({"quickstart-four-jobs",
           "4 mixed-law jobs for single-machine WSEPT demos",
           {{3.0, exponential_dist(0.5)},
            {1.0, deterministic_dist(1.0)},
            {2.0, erlang_dist(3, 1.0)},
            {0.5, hyperexp2_dist(4.0, 3.0)}},
           1});
  // Representative members of the generated families; the sweeps call the
  // generators directly (turnpike_scenario(n), twopoint_scenario(i)).
  {
    BatchScenario turnpike = turnpike_scenario(100);
    turnpike.name = "turnpike";
    reg.add(std::move(turnpike));
  }
  {
    BatchScenario twopoint = twopoint_scenario(0);
    twopoint.name = "t5-twopoint";
    reg.add(std::move(twopoint));
  }
  return reg;
}

Registry<NetworkScenario> build_network_registry() {
  Registry<NetworkScenario> reg;
  // The Lu–Kumar instance of bench F6: rho ~ 0.68 at both stations, yet
  // m2 + m4 = 4/3 > 1 destabilizes the "bad" priority pair. The priority
  // assignment is the policy arm (lu_kumar_policies() in adapters.hpp).
  NetworkScenario lk;
  lk.name = "lu-kumar";
  lk.description =
      "Lu-Kumar 4-class 2-station network, rho ~ 0.68 < 1 (bench F6)";
  lk.config = queueing::lu_kumar_network(1.0, 0.01, 2.0 / 3.0, 0.01,
                                         2.0 / 3.0, /*bad_priority=*/false);
  lk.horizon = 4e4;
  lk.samples = 80;
  NetworkScenario lk_bursty = with_burstiness(lk, 9.0);
  reg.add(std::move(lk));
  // Bursty Lu–Kumar: identical topology and rates, MMPP external input
  // (IDC 9) — the stability contrast under correlated traffic.
  lk_bursty.name = "lu-kumar-bursty";
  lk_bursty.description =
      "Lu-Kumar network under bursty MMPP external arrivals, IDC = 9";
  reg.add(std::move(lk_bursty));
  // The Rybko–Stolyar network: two crossing routes, both stations at
  // rho = 0.61, yet the exit-priority pair self-starves whenever
  // 2 lambda m_out = 1.2 > 1 (virtual-station effect). The priority
  // assignment is the policy arm (rybko_stolyar_policies()).
  NetworkScenario rs;
  rs.name = "rybko-stolyar";
  rs.description =
      "Rybko-Stolyar 4-class 2-station crossing-routes network, rho = 0.61";
  rs.config = queueing::rybko_stolyar_network(1.0, 0.01, 0.6);
  rs.horizon = 4e4;
  rs.samples = 80;
  reg.add(std::move(rs));
  // A Dai–Wang-style re-entrant line: one route visiting the two stations
  // alternately (0,1,0,1,0), both stations subcritical.
  NetworkScenario dw;
  dw.name = "dai-wang-reentrant";
  dw.description =
      "5-class 2-station re-entrant line (Dai-Wang-style), rho = (0.85, 0.9)";
  dw.config = queueing::reentrant_line_network(
      1.0, {0, 1, 0, 1, 0}, {0.1, 0.45, 0.1, 0.45, 0.65});
  dw.horizon = 4e4;
  dw.samples = 80;
  reg.add(std::move(dw));
  // Heavy-tailed Lu–Kumar: identical topology and rates, but the exit-stage
  // classes draw hyperexponential services (SCV 6) — the stability contrast
  // when the virtual-station workload is dominated by rare huge jobs.
  NetworkScenario ht;
  ht.name = "lu-kumar-ht";
  ht.description =
      "Lu-Kumar network with heavy-tailed (SCV 6) exit-stage services";
  ht.config = queueing::lu_kumar_network(1.0, 0.01, 2.0 / 3.0, 0.01,
                                         2.0 / 3.0, /*bad_priority=*/false);
  ht.config.classes[1].service = hyperexp2_dist(2.0 / 3.0, 6.0);
  ht.config.classes[3].service = hyperexp2_dist(2.0 / 3.0, 6.0);
  ht.horizon = 4e4;
  ht.samples = 80;
  reg.add(std::move(ht));
  return reg;
}

Registry<MmmScenario> build_mmm_registry() {
  Registry<MmmScenario> reg;
  // The F5 instance: two classes carrying 60%/40% of the offered load of an
  // M/M/2, distinct c-mu indices. Sweeps derive variants via
  // mmm_scale_to_load (heavy traffic).
  MmmScenario pooling;
  pooling.name = "parallel-pooling";
  pooling.description =
      "2-class M/M/2 c-mu pooling workload, rho = 0.85 (bench F5)";
  pooling.servers = 2;
  const double rho = 0.85;
  pooling.classes = {
      {0.6 * rho * pooling.servers * 1.5, exponential_dist(1.5), 2.0},
      {0.4 * rho * pooling.servers * 2.25, exponential_dist(2.25), 1.0}};
  pooling.horizon = 2e5;
  pooling.warmup = 2e4;
  MmmScenario bursty = with_burstiness(pooling, 6.0);
  reg.add(std::move(pooling));
  // Bursty pooling: the same two-class workload under MMPP input (IDC 6) —
  // the non-Poisson parallel-server configuration, reachable by name.
  bursty.name = "parallel-pooling-bursty";
  bursty.description =
      "2-class M/M/2 pooling workload under bursty MMPP arrivals, IDC = 6";
  reg.add(std::move(bursty));
  return reg;
}

Registry<FluidScenario> build_fluid_registry() {
  Registry<FluidScenario> reg;
  // The F7 instance: a 2-class priority queue drained from a fluid-scaled
  // backlog; path sampled at 8 fractions of the cmu drain time.
  FluidScenario f7;
  f7.name = "f7-fluid";
  f7.description =
      "2-class fluid-limit draining workload, scale n = 400 (bench F7)";
  f7.classes = {{0.3, 1.0, 2.0}, {0.2, 0.8, 1.0}};
  f7.initial = {1.0, 1.5};
  f7.scale = 400.0;
  for (int i = 1; i <= 8; ++i)
    f7.path_fractions.push_back(0.1 * static_cast<double>(i));
  f7.horizon_factor = 2.0;
  f7.cost_samples = 60;
  reg.add(std::move(f7));
  return reg;
}

Registry<OnlineScenario> build_online_registry() {
  Registry<OnlineScenario> reg;
  // Identical machines: a 3-type mix whose weights and size laws disagree
  // (urgent short exponentials, standard Erlang, heavy hyperexponential),
  // so assignment and WSEPT sequencing both matter. rho = 0.75 at m = 4.
  {
    OnlineScenario s;
    s.name = "online-identical";
    s.description =
        "3-type online mix on 4 identical machines, rho = 0.75";
    s.types = {{0.50, 3.0, exponential_dist(2.0)},
               {0.35, 1.0, erlang_dist(2, 2.0)},
               {0.15, 0.5, hyperexp2_dist(2.0, 4.0)}};
    s.env = online::identical_machines(4, s.types.size());
    // load = rate * E[S] / m with E[S] = 0.9.
    s.arrival = poisson_arrivals(0.75 * 4.0 / 0.9);
    s.horizon = 45.0;
    reg.add(std::move(s));
  }
  // Unrelated machines: three specialists (3x fast on their own type,
  // slow elsewhere) plus one generalist — the regime where informed
  // assignment dominates and random routing pays the misrouting price.
  {
    OnlineScenario s;
    s.name = "online-unrelated";
    s.description =
        "3-type online mix on 3 specialists + 1 generalist, rho = 0.75";
    s.types = {{0.40, 2.0, exponential_dist(1.0)},
               {0.35, 1.0, erlang_dist(2, 5.0 / 3.0)},
               {0.25, 0.6, hyperexp2_dist(1.5, 3.0)}};
    s.env = online::unrelated_machines({{3.0, 0.8, 0.8},
                                        {0.8, 3.0, 0.8},
                                        {0.8, 0.8, 3.0},
                                        {1.2, 1.2, 1.2}});
    OnlineScenario base = s;  // reuse the mix for the load computation
    base.arrival = poisson_arrivals(1.0);
    s.arrival = poisson_arrivals(0.75 / base.load());
    s.horizon = 40.0;
    reg.add(std::move(s));
  }
  // Bursty variant of the unrelated workload: identical mix and machines,
  // MMPP job stream (IDC 6) — arrivals pile up exactly when assignment
  // mistakes are most expensive.
  {
    OnlineScenario bursty =
        with_burstiness(reg.get("online-unrelated", "online"), 6.0);
    bursty.name = "online-bursty";
    bursty.description =
        "unrelated online workload under bursty MMPP arrivals, IDC = 6";
    reg.add(std::move(bursty));
  }
  // Bernoulli-type jobs (Antoniadis–Hoeksma–Schewior–Uetz): two-point
  // sizes that are tiny with high probability and huge otherwise, on two
  // specialists plus a generalist — the regime where a single observed
  // sample is genuinely informative (it reveals which branch the job is
  // likely from) and moment-based rules face extreme residual risk.
  {
    OnlineScenario s;
    s.name = "online-bernoulli";
    s.description =
        "two-point Bernoulli-type jobs on 2 specialists + 1 generalist, "
        "rho = 0.7";
    s.types = {{0.55, 2.0, two_point_dist(0.1, 0.75, 4.0)},
               {0.45, 1.0, two_point_dist(0.05, 0.5, 2.0)}};
    s.env = online::unrelated_machines(
        {{2.5, 0.6}, {0.6, 2.5}, {1.0, 1.0}});
    OnlineScenario base = s;
    base.arrival = poisson_arrivals(1.0);
    s.arrival = poisson_arrivals(0.7 / base.load());
    s.horizon = 40.0;
    reg.add(std::move(s));
  }
  return reg;
}

const Registry<QueueScenario>& queue_registry() {
  static const Registry<QueueScenario> reg = build_queue_registry();
  return reg;
}

const Registry<PollingScenario>& polling_registry() {
  static const Registry<PollingScenario> reg = build_polling_registry();
  return reg;
}

const Registry<RestlessScenario>& restless_registry() {
  static const Registry<RestlessScenario> reg = build_restless_registry();
  return reg;
}

const Registry<BatchScenario>& batch_registry() {
  static const Registry<BatchScenario> reg = build_batch_registry();
  return reg;
}

const Registry<NetworkScenario>& network_registry() {
  static const Registry<NetworkScenario> reg = build_network_registry();
  return reg;
}

const Registry<MmmScenario>& mmm_registry() {
  static const Registry<MmmScenario> reg = build_mmm_registry();
  return reg;
}

const Registry<FluidScenario>& fluid_registry() {
  static const Registry<FluidScenario> reg = build_fluid_registry();
  return reg;
}

const Registry<OnlineScenario>& online_registry() {
  static const Registry<OnlineScenario> reg = build_online_registry();
  return reg;
}

}  // namespace

const QueueScenario& queue_scenario(std::string_view name) {
  return queue_registry().get(name, "queue");
}

const PollingScenario& polling_scenario(std::string_view name) {
  return polling_registry().get(name, "polling");
}

const RestlessScenario& restless_scenario(std::string_view name) {
  return restless_registry().get(name, "restless");
}

const BatchScenario& batch_scenario(std::string_view name) {
  return batch_registry().get(name, "batch");
}

const NetworkScenario& network_scenario(std::string_view name) {
  return network_registry().get(name, "network");
}

const MmmScenario& mmm_scenario(std::string_view name) {
  return mmm_registry().get(name, "parallel-server");
}

const FluidScenario& fluid_scenario(std::string_view name) {
  return fluid_registry().get(name, "fluid");
}

const OnlineScenario& online_scenario(std::string_view name) {
  return online_registry().get(name, "online");
}

namespace {

/// Multiply a class's effective arrival rate by `factor`, whichever way the
/// class encodes its arrivals (plain Poisson rate or attached process).
void scale_class_rate(queueing::ClassSpec& c, double factor) {
  if (c.arrival)
    c.arrival = c.arrival->scaled(factor);
  else
    c.arrival_rate *= factor;
}

std::string suffixed(const std::string& name, const char* tag, double value) {
  std::ostringstream os;
  os << name << tag << value;
  return os.str();
}

/// Shared body of the ClassSpec-based burstiness sweeps: every externally
/// fed class's arrivals become a symmetric on-off MMPP at its current
/// effective rate.
template <class Scenario>
Scenario burstify_classes(Scenario s, double burstiness) {
  for (auto& c : s.classes) {
    const double rate = queueing::class_arrival_rate(c);
    if (rate <= 0.0) continue;
    c.arrival = bursty_arrivals(rate, burstiness);
  }
  s.name = suffixed(s.name, "@idc=", burstiness);
  return s;
}

}  // namespace

QueueScenario scale_to_load(QueueScenario s, double rho) {
  STOSCHED_REQUIRE(rho > 0.0, "target load must be > 0");
  const double base = s.load();
  STOSCHED_REQUIRE(base > 0.0, "scenario has zero load");
  const double factor = rho / base;
  for (auto& c : s.classes) scale_class_rate(c, factor);
  s.name = suffixed(s.name, "@rho=", rho);
  return s;
}

QueueScenario with_arrival_scv(QueueScenario s, double scv) {
  for (auto& c : s.classes) {
    const double rate = queueing::class_arrival_rate(c);
    if (rate <= 0.0) continue;
    c.arrival = renewal_arrivals(with_mean_scv(1.0 / rate, scv));
  }
  s.name = suffixed(s.name, "@ascv=", scv);
  return s;
}

QueueScenario with_burstiness(QueueScenario s, double burstiness) {
  return burstify_classes(std::move(s), burstiness);
}

NetworkScenario with_burstiness(NetworkScenario s, double burstiness) {
  for (auto& c : s.config.classes) {
    const double rate = queueing::network_class_rate(c);
    if (rate <= 0.0) continue;
    c.arrival = bursty_arrivals(rate, burstiness);
  }
  s.name = suffixed(s.name, "@idc=", burstiness);
  return s;
}

PollingScenario with_burstiness(PollingScenario s, double burstiness) {
  return burstify_classes(std::move(s), burstiness);
}

MmmScenario with_burstiness(MmmScenario s, double burstiness) {
  return burstify_classes(std::move(s), burstiness);
}

PollingScenario with_switchover(PollingScenario s, DistPtr law) {
  STOSCHED_REQUIRE(law != nullptr, "switchover law required");
  s.switchover = std::move(law);
  return s;
}

MmmScenario mmm_scale_to_load(MmmScenario s, double rho) {
  STOSCHED_REQUIRE(rho > 0.0, "target load must be > 0");
  const double base = s.load();
  STOSCHED_REQUIRE(base > 0.0, "scenario has zero load");
  const double factor = rho / base;
  for (auto& c : s.classes) scale_class_rate(c, factor);
  s.name = suffixed(s.name, "@rho=", rho);
  return s;
}

BatchScenario turnpike_scenario(std::size_t n) {
  STOSCHED_REQUIRE(n >= 1, "need at least one job");
  // Deterministic family seed: matches the F1 scaling panel's historical
  // generation, so bench values are comparable across commits.
  const Rng master(4242);
  Rng rng = master.stream(1000 + n);
  BatchScenario s;
  s.name = "turnpike-n" + std::to_string(n);
  s.description = "F1 turnpike batch: exponential jobs on 3 machines";
  s.machines = 3;
  s.jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = rng.uniform(0.5, 4.0);
    s.jobs.push_back({rng.uniform(0.5, 3.0), exponential_dist(1.0 / mean)});
  }
  return s;
}

BatchScenario twopoint_scenario(std::size_t instance) {
  // Deterministic family seed: matches the T5 counterexample instances.
  const Rng master(77);
  Rng rng = master.stream(instance);
  BatchScenario s;
  s.name = "t5-twopoint-" + std::to_string(instance);
  s.description =
      "T5 two-point counterexample instance on 2 machines (Coffman-Hofri-"
      "Weiss family)";
  s.machines = 2;
  const std::size_t n = 5 + rng.below(2);  // 5..6 (exhaustive opt is n!)
  s.jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.05, 0.5);
    const double b = a + rng.uniform(2.0, 12.0);
    const double pa = rng.uniform(0.5, 0.95);
    s.jobs.push_back({1.0, two_point_dist(a, pa, b)});
  }
  return s;
}

TreeScenario intree_scenario(std::size_t n) {
  const Rng master(1234);
  Rng tree_rng = master.stream(n);
  TreeScenario s;
  s.name = "intree-n" + std::to_string(n);
  s.description = "F8 random in-tree: Exp(1) tasks on 3 machines";
  s.tree = batch::random_in_tree(n, tree_rng);
  s.machines = 3;
  s.rate = 1.0;
  return s;
}

OnlineScenario scale_to_load(OnlineScenario s, double rho) {
  STOSCHED_REQUIRE(rho > 0.0, "target load must be > 0");
  const double base = s.load();
  STOSCHED_REQUIRE(base > 0.0, "scenario has zero load");
  s.arrival = s.arrival->scaled(rho / base);
  s.name = suffixed(s.name, "@rho=", rho);
  return s;
}

OnlineScenario with_burstiness(OnlineScenario s, double burstiness) {
  STOSCHED_REQUIRE(s.arrival != nullptr,
                   "online scenario needs an arrival process");
  s.arrival = bursty_arrivals(s.arrival->rate(), burstiness);
  s.name = suffixed(s.name, "@idc=", burstiness);
  return s;
}

OnlineScenario with_machines(OnlineScenario s, std::size_t m) {
  STOSCHED_REQUIRE(m >= 1, "need at least one machine");
  (void)s.load();  // validates the arrival process, the types and the env
  const double old_capacity = s.env.mix_capacity(s.types);
  std::vector<std::vector<double>> rows;
  rows.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    rows.push_back(s.env.speed[i % s.env.machines()]);
  s.env.speed = std::move(rows);
  // Keep the nominal per-capacity load unchanged under the new pool.
  s.arrival = s.arrival->scaled(s.env.mix_capacity(s.types) / old_capacity);
  s.name += "-m" + std::to_string(m);
  return s;
}

OnlineScenario with_size_scv(OnlineScenario s, double scv) {
  for (auto& t : s.types) t.size = with_mean_scv(t.size->mean(), scv);
  s.name = suffixed(s.name, "@sscv=", scv);
  return s;
}

}  // namespace stosched::experiment
