// scenario.hpp — the named scenario registry of the experiment subsystem.
//
// Before this registry every bench and example hand-built its workload
// inline: the same three-class traffic mix, the same symmetric polling
// system and the same restless prototype were re-typed dozens of times,
// and load sweeps re-derived arrival-rate scalings ad hoc. A scenario is a
// *named, parameterized workload* — classes/laws/feedback plus run lengths —
// looked up by string, so benches, examples and tests draw from one
// catalogue and new workloads become one registration instead of N edits.
//
// Families:
//   * QueueScenario    — multiclass M/G/1 workloads, optionally with a
//                        Bernoulli feedback matrix (Klimov networks);
//   * PollingScenario  — queues plus a switchover law;
//   * RestlessScenario — a restless prototype replicated into a symmetric
//                        N-project instance with an activation budget;
//   * BatchScenario    — a fixed batch of stochastic jobs on one or more
//                        identical machines;
//   * NetworkScenario  — a multistation multiclass network workload (the
//                        stability experiments); the per-station priority is
//                        the *policy arm*, not part of the scenario;
//   * MmmScenario      — a multiclass M/M/m workload (parallel pooling);
//   * FluidScenario    — a fluid-scaled draining workload (FLLN
//                        experiments);
//   * TreeScenario     — an in-tree precedence instance on parallel
//                        machines;
//   * OnlineScenario   — stochastic online scheduling: jobs arriving over
//                        time (any ArrivalProcess) to identical / related /
//                        unrelated machines, assigned irrevocably by an
//                        OnlinePolicy and benchmarked against the offline
//                        lower bound (empirical competitive ratios).
//
// Helpers derive swept variants (scale_to_load, with_switchover,
// with_machines, with_arrival_scv, with_burstiness, turnpike_scenario(n),
// intree_scenario(n), ...) without mutating the registered base scenario.
// Arrival-process variants (bursty MMPP, interarrival-SCV renewal) ride on
// the same ClassSpec/NetworkClass fields, so every simulator family and
// every CRN comparison accepts them unchanged.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "batch/job.hpp"
#include "batch/precedence.hpp"
#include "online/lower_bound.hpp"
#include "online/model.hpp"
#include "queueing/fluid.hpp"
#include "queueing/mg1.hpp"
#include "queueing/network.hpp"
#include "queueing/parallel_servers.hpp"
#include "queueing/polling.hpp"
#include "restless/restless_project.hpp"

namespace stosched::experiment {

/// A multiclass M/G/1 workload (feedback empty => plain M/G/1; nonempty =>
/// Klimov network).
struct QueueScenario {
  std::string name;
  std::string description;
  std::vector<queueing::ClassSpec> classes;
  std::vector<std::vector<double>> feedback;
  double horizon = 2e5;
  double warmup = 2e4;

  /// Traffic intensity of the base workload (ignores feedback revisits).
  [[nodiscard]] double load() const;
  /// SimOptions preset with this scenario's horizon/warmup/feedback filled
  /// in; caller sets discipline and priority (the policy arm).
  [[nodiscard]] queueing::SimOptions options() const;
};

/// A polling workload: queues plus the switchover law.
struct PollingScenario {
  std::string name;
  std::string description;
  std::vector<queueing::ClassSpec> classes;
  DistPtr switchover;
  double horizon = 2e5;
  double warmup = 2e4;

  [[nodiscard]] queueing::PollingOptions options(
      queueing::PollingDiscipline discipline, std::size_t limit = 1) const;
};

/// A symmetric restless-bandit workload: N copies of a prototype project,
/// `activate` of which run per epoch.
struct RestlessScenario {
  std::string name;
  std::string description;
  restless::RestlessProject prototype;
  std::size_t projects = 4;
  std::size_t activate = 1;
  std::size_t horizon = 60000;
  std::size_t burnin = 6000;

  [[nodiscard]] restless::RestlessInstance instance() const;
  /// Variant scaled to n projects with budget n * activate / projects.
  [[nodiscard]] RestlessScenario with_population(std::size_t n) const;
};

/// A fixed batch of stochastic jobs scheduled by a list order on `machines`
/// identical machines (1 = the single-machine experiments).
struct BatchScenario {
  std::string name;
  std::string description;
  batch::Batch jobs;
  unsigned machines = 1;
};

/// A multistation multiclass network workload. `config.station_priority` is
/// deliberately left empty: the priority assignment is the policy arm (see
/// experiment::NetworkPolicy), so CRN comparisons replay one workload under
/// several priority choices.
struct NetworkScenario {
  std::string name;
  std::string description;
  queueing::NetworkConfig config;
  double horizon = 4e4;
  std::size_t samples = 80;  ///< trace snapshots per run
};

/// A multiclass M/M/m workload; the priority order is the policy arm.
struct MmmScenario {
  std::string name;
  std::string description;
  std::vector<queueing::ClassSpec> classes;
  unsigned servers = 2;
  double horizon = 2e5;
  double warmup = 2e4;

  /// Per-server traffic intensity rho = sum_j rho_j / m.
  [[nodiscard]] double load() const;
};

/// A fluid-scaled draining workload: initial backlog `scale * initial`,
/// sampled along the (cmu-priority) fluid drain. One replication reports the
/// fluid-scaled cost integral plus the scaled backlog path at
/// `path_fractions` of the reference drain time.
struct FluidScenario {
  std::string name;
  std::string description;
  std::vector<queueing::FluidClass> classes;
  std::vector<double> initial;  ///< fluid-scale initial levels
  double scale = 400.0;         ///< FLLN scaling factor n
  /// Fractions of the reference drain time at which the scaled path is
  /// reported as metrics (may be empty for cost-only scenarios).
  std::vector<double> path_fractions;
  /// Simulated horizon: `horizon_factor * drain_time * scale`, unless
  /// `t_end > 0` fixes an absolute horizon instead.
  double horizon_factor = 2.0;
  double t_end = 0.0;
  std::size_t cost_samples = 60;  ///< Riemann grid for the cost integral

  /// Drain time of the fluid trajectory under the cmu priority — the
  /// reference clock for path fractions and the default horizon.
  [[nodiscard]] double reference_drain_time() const;
};

/// An in-tree precedence instance: i.i.d. Exp(rate) tasks on `machines`
/// identical machines; the TreePolicy is the policy arm.
struct TreeScenario {
  std::string name;
  std::string description;
  batch::InTree tree;
  unsigned machines = 3;
  double rate = 1.0;
};

/// A stochastic online scheduling workload: jobs arrive on [0, horizon)
/// driven by `arrival`, draw a type from the mix, and must be assigned to a
/// machine of `env` the moment they arrive. The OnlinePolicy is the policy
/// arm; `bound` controls the offline lower bound of the ratio metric.
struct OnlineScenario {
  std::string name;
  std::string description;
  ArrivalPtr arrival;
  std::vector<online::JobType> types;
  online::Environment env;
  double horizon = 60.0;
  online::OfflineBoundOptions bound;

  /// Nominal load: job rate × mean size / mix service capacity (the
  /// identical-machine λ E[S] / m, generalized through mix_capacity).
  [[nodiscard]] double load() const;
};

/// Registry lookups. Unknown names throw std::invalid_argument listing the
/// known scenarios.
const QueueScenario& queue_scenario(std::string_view name);
const PollingScenario& polling_scenario(std::string_view name);
const RestlessScenario& restless_scenario(std::string_view name);
const BatchScenario& batch_scenario(std::string_view name);
const NetworkScenario& network_scenario(std::string_view name);
const MmmScenario& mmm_scenario(std::string_view name);
const FluidScenario& fluid_scenario(std::string_view name);
const OnlineScenario& online_scenario(std::string_view name);

/// Rescale every arrival rate by a common factor so the base traffic
/// intensity becomes `rho` — the standard load-sweep transform. Classes
/// with an attached arrival process are rescaled in time
/// (ArrivalProcess::scaled), preserving their SCV/burstiness exactly.
QueueScenario scale_to_load(QueueScenario s, double rho);

/// Replace every class's arrivals with a renewal process whose
/// interarrival law is the exact two-moment fit (dist::with_mean_scv) to
/// the class's current effective rate and the target SCV — the
/// interarrival-variability sweep. SCV 1 recovers Poisson exactly.
QueueScenario with_arrival_scv(QueueScenario s, double scv);

/// Replace every class's arrivals with a symmetric on-off MMPP
/// (bursty_arrivals) at the class's current effective rate and the target
/// asymptotic index of dispersion (> 1) — the burstiness sweep.
QueueScenario with_burstiness(QueueScenario s, double burstiness);

/// Network variant of the burstiness sweep: every externally-fed class's
/// arrivals become a bursty MMPP at its current effective rate.
NetworkScenario with_burstiness(NetworkScenario s, double burstiness);

/// Polling variant of the burstiness sweep: every queue's arrivals become a
/// symmetric on-off MMPP at its current effective rate.
PollingScenario with_burstiness(PollingScenario s, double burstiness);

/// Parallel-server variant of the burstiness sweep.
MmmScenario with_burstiness(MmmScenario s, double burstiness);

/// Swap in a different switchover law (setup-time sweeps).
PollingScenario with_switchover(PollingScenario s, DistPtr law);

/// Rescale arrival rates so the per-server load becomes `rho` (the heavy-
/// traffic sweep of experiment F5).
MmmScenario mmm_scale_to_load(MmmScenario s, double rho);

/// The F1 turnpike batch of size n on 3 machines: exponential jobs with
/// U(0.5, 4) means and U(0.5, 3) weights, generated deterministically from
/// the registered family seed (the registry's "turnpike" entry is this at
/// n = 100).
BatchScenario turnpike_scenario(std::size_t n);

/// The T5 two-point counterexample instance family on 2 machines (the
/// registry's "t5-twopoint" entry is instance 0).
BatchScenario twopoint_scenario(std::size_t instance);

/// The F8 random in-tree on n nodes, 3 machines, Exp(1) tasks.
TreeScenario intree_scenario(std::size_t n);

/// Rescale the arrival process in time (ArrivalProcess::scaled, preserving
/// burstiness) so the nominal load becomes `rho`.
OnlineScenario scale_to_load(OnlineScenario s, double rho);

/// Online variant of the burstiness sweep: the job stream becomes a
/// symmetric on-off MMPP at its current effective rate.
OnlineScenario with_burstiness(OnlineScenario s, double burstiness);

/// Machine-count sweep: grow/shrink the environment to `m` machines by
/// cycling its speed rows, rescaling the arrival stream so the nominal
/// per-capacity load is unchanged.
OnlineScenario with_machines(OnlineScenario s, std::size_t m);

/// Size-variability sweep: every type's size law becomes the exact
/// two-moment fit (dist::with_mean_scv) to its current mean and the target
/// SCV. SCV 1 recovers exponential sizes exactly.
OnlineScenario with_size_scv(OnlineScenario s, double scv);

}  // namespace stosched::experiment
