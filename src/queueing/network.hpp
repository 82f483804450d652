// network.hpp — multistation multiclass queueing networks and the stability
// problem (survey §3, [9]).
//
// The survey highlights that for MQNs with multiple stations "in general it
// is not known what conditions on model parameters ensure that a given
// policy is stable". The canonical demonstration is the Lu–Kumar network:
// one route through four classes,
//     class 1 @ station A -> class 2 @ station B ->
//     class 3 @ station B -> class 4 @ station A,
// with priorities (4 over 1 at A, 2 over 3 at B). Even when both stations
// satisfy ρ < 1, the priority pair starves itself through a "virtual
// station" effect whenever λ (m2 + m4) > 1, and the backlog grows linearly.
// FCFS at both stations is stable for this network. Experiment F6 reproduces
// the divergence/stability contrast.
//
// The simulator handles general feed-forward-or-cyclic class routes over a
// set of stations with per-station nonpreemptive priority or FCFS. Services
// default to exponential (`service_mean`, the historical path, reproduced
// bit-for-bit) but any `DistPtr` law can be attached per class — the
// heavy-tailed-service stability experiments ride on that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace stosched::queueing {

/// One class of a multistation network.
struct NetworkClass {
  NetworkClass() = default;
  NetworkClass(std::size_t serving_station, double mean, std::size_t next_cls,
               double rate = 0.0, ArrivalPtr arrival_process = nullptr)
      : station(serving_station),
        service_mean(mean),
        next(next_cls),
        arrival_rate(rate),
        arrival(std::move(arrival_process)) {}

  std::size_t station = 0;      ///< which station serves this class
  double service_mean = 1.0;    ///< exponential mean (ignored if `service`)
  /// Next class on the route (kExit to leave the system).
  std::size_t next = SIZE_MAX;
  double arrival_rate = 0.0;    ///< external Poisson arrivals (0 = none)
  /// Optional non-Poisson external arrival process (renewal / MMPP); when
  /// set it replaces the Poisson(arrival_rate) default and
  /// `arrival->rate()` is the class's effective external rate.
  ArrivalPtr arrival;
  /// Optional non-exponential service law. When set it *replaces* the
  /// exponential(service_mean) default entirely: `service_mean` is ignored
  /// and `service->mean()` is the class's effective mean. When null,
  /// services are exponential — the historical construction path,
  /// bit-identical to the pre-DistPtr simulator on a fixed seed.
  DistPtr service;

  static constexpr std::size_t kExit = SIZE_MAX;
};

/// Effective external arrival rate of a network class.
double network_class_rate(const NetworkClass& c);

/// Effective mean service time of a network class: `service->mean()` when a
/// law is attached, `service_mean` otherwise.
double network_class_service_mean(const NetworkClass& c);

/// The external arrival process the simulator actually runs for a class:
/// the attached process, or Poisson(arrival_rate) when none is set (null
/// for purely internal classes).
ArrivalPtr effective_arrival(const NetworkClass& c);

struct NetworkConfig {
  std::vector<NetworkClass> classes;
  std::size_t num_stations = 0;
  /// Per-station priority over classes (highest first); empty = FCFS at every
  /// station. When non-empty, each station's list must be a *permutation of
  /// exactly the classes served at that station*: a class omitted from its
  /// station's list would never be picked by the priority scan and its jobs
  /// would accumulate unboundedly — fake "instability". validate() rejects
  /// partial lists.
  std::vector<std::vector<std::size_t>> station_priority;

  void validate() const;
};

/// Snapshot series of total jobs in system, sampled at fixed intervals —
/// the raw material of the stability plot (experiment F6).
struct NetworkTrace {
  std::vector<double> times;
  std::vector<double> total_jobs;
  double mean_total = 0.0;       ///< time-average over the run
  double final_total = 0.0;
  /// Least-squares slope of total_jobs vs time — ~0 for stable systems,
  /// > 0 for divergence.
  double growth_rate = 0.0;
};

/// Run one replication. Deterministic in (config, horizon, samples, rng
/// state). The trace holds `samples` snapshots, at horizon·s/samples for
/// s = 1..samples; a snapshot at the time of a job event is taken before
/// it, except before the first arrival epoch of a class. Each snapshot
/// counts as one DES event.
///
/// Randomness is split into per-purpose substreams derived from one draw of
/// `rng` (per-class arrival stream, per-class service stream), so two
/// priority assignments replaying the same `rng` state see the *same*
/// external arrival epochs and the same k-th service requirement per class —
/// the synchronization that makes common-random-number policy comparisons
/// (experiment::run_paired) effective for stability studies.
NetworkTrace simulate_network(const NetworkConfig& config, double horizon,
                              std::size_t samples, Rng& rng);

/// Experiment-engine adapter: metric vector layout is
///   [mean_total, final_total, growth_rate].
std::size_t network_metric_count();

/// Uniform replication entry point: one simulate_network run, metrics
/// written into `out` (size network_metric_count()).
void run_replication(const NetworkConfig& config, double horizon,
                     std::size_t samples, Rng& rng, std::span<double> out);

/// The Lu–Kumar network with the destabilizing priorities (or FCFS).
NetworkConfig lu_kumar_network(double lambda, double m1, double m2, double m3,
                               double m4, bool bad_priority);

/// The Rybko–Stolyar network: two symmetric routes crossing two stations,
///   route A: class 0 @ station 0 -> class 1 @ station 1 -> exit,
///   route B: class 2 @ station 1 -> class 3 @ station 0 -> exit,
/// each fed by external rate `lambda`; first-stage means `m_in`, second-
/// stage (exit-class) means `m_out`. Prioritizing the exit classes (1 at
/// station 1, 3 at station 0) destabilizes the network whenever
/// 2 lambda m_out > 1 even though both stations satisfy
/// lambda (m_in + m_out) < 1 — the two-route cousin of Lu–Kumar. The
/// priority assignment is the policy arm (station_priority left empty).
NetworkConfig rybko_stolyar_network(double lambda, double m_in, double m_out);

/// Nominal per-station traffic intensities (ρ_A, ρ_B, ...) of a config.
// caller-audit: test-only(Scenarios.LuKumarIntensitiesSubcritical: checks
// that the registered networks are nominally stable at every station)
std::vector<double> station_intensities(const NetworkConfig& config);

}  // namespace stosched::queueing
