// mg1.hpp — multiclass M/G/1 queue simulation (survey §3).
//
// N job classes share one server: class j arrives Poisson(α_j), brings i.i.d.
// service from G_j, and costs c_j per unit time in the system. The module
// simulates the disciplines the survey's results speak to:
//   * nonpreemptive static priority (the cµ rule's setting [15]),
//   * preemptive-resume static priority (optimal under exponential laws),
//   * FCFS (the work-conserving baseline of the conservation laws [14]),
// optionally with Markovian (Bernoulli) feedback routing — Klimov's model
// [24] — under nonpreemptive priorities.
//
// Estimation: time-averaged number-in-system per class (warm-up discarded),
// per-visit waits, server utilization. The experiments validate these
// against Pollaczek–Khinchine and Cobham closed forms (mg1_analytic.hpp),
// so the simulator itself is under analytic test, not just eyeballed.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace stosched::queueing {

/// One job class of the multiclass queue.
struct ClassSpec {
  ClassSpec() = default;
  ClassSpec(double rate, DistPtr service_law, double cost = 1.0,
            ArrivalPtr arrival_process = nullptr)
      : arrival_rate(rate),
        service(std::move(service_law)),
        holding_cost(cost),
        arrival(std::move(arrival_process)) {}

  double arrival_rate = 0.0;  ///< Poisson rate α_j (ignored if `arrival` set)
  DistPtr service;            ///< service law G_j
  double holding_cost = 1.0;  ///< c_j per unit time in system
  /// Optional non-Poisson arrival process (renewal / MMPP). When
  /// set it *replaces* the Poisson(arrival_rate) default entirely:
  /// `arrival_rate` is ignored and `arrival->rate()` is the class's
  /// effective job rate. When null, arrivals are Poisson(arrival_rate) —
  /// the historical construction path, bit-identical to the pre-arrival-
  /// process simulators on a fixed seed.
  ArrivalPtr arrival;
};

/// Effective job arrival rate of a class: `arrival->rate()` when a process
/// is attached, `arrival_rate` otherwise.
double class_arrival_rate(const ClassSpec& c);

/// The per-class arrival process the simulators actually run: the attached
/// process, or Poisson(arrival_rate) when none is set (null if the class
/// has no external arrivals at all).
ArrivalPtr effective_arrival(const ClassSpec& c);

/// Traffic intensity ρ = Σ α_j E[S_j] (α_j the effective rate).
double traffic_intensity(const std::vector<ClassSpec>& classes);

enum class Discipline {
  kFcfs,
  kPriorityNonPreemptive,
  kPriorityPreemptiveResume,
};

/// Simulation controls.
struct SimOptions {
  double horizon = 2e5;  ///< measured time after warm-up
  double warmup = 2e4;   ///< discarded transient
  Discipline discipline = Discipline::kPriorityNonPreemptive;
  /// Priority list, highest first; required for priority disciplines.
  std::vector<std::size_t> priority;
  /// Optional Bernoulli feedback: feedback[j][k] = P(class j -> class k on
  /// service completion); row sums <= 1, deficit exits. Empty = no feedback.
  /// Only supported with the nonpreemptive discipline (Klimov's model).
  std::vector<std::vector<double>> feedback;
};

/// Klimov's routing rules: throws unless `feedback` is n x n with entries
/// >= 0 and row sums <= 1 (within 1e-9). Shared by SimOptions::feedback and
/// KlimovNetwork.
void validate_feedback(const std::vector<std::vector<double>>& feedback,
                       std::size_t n);

/// Per-class steady-state estimates.
struct ClassStats {
  double mean_in_system = 0.0;  ///< E[L_j], time average
  double mean_wait = 0.0;       ///< E[wait before first service], per visit
  double mean_sojourn = 0.0;    ///< E[time in class], per visit
  std::size_t completions = 0;  ///< service completions counted
  double throughput = 0.0;      ///< completions / horizon
};

struct SimResult {
  std::vector<ClassStats> per_class;
  double cost_rate = 0.0;     ///< Σ c_j E[L_j]
  double utilization = 0.0;   ///< fraction of time the server is busy
  double time_simulated = 0.0;
};

/// Run one replication. Deterministic in (classes, options, rng state).
///
/// Randomness is split into per-purpose substreams derived from one draw of
/// `rng` (per-class arrival stream, per-class service stream, feedback
/// stream). Two disciplines replaying the same `rng` state therefore see
/// the *same* arrival epochs and the same k-th service requirement per
/// class — the synchronization that makes common-random-number policy
/// comparisons (experiment::run_paired) effective.
SimResult simulate_mg1(const std::vector<ClassSpec>& classes,
                       const SimOptions& options, Rng& rng);

/// Experiment-engine adapter: metric vector layout is
///   [cost_rate, utilization,
///    then per class j: mean_in_system_j, mean_wait_j, throughput_j].
std::size_t mg1_metric_count(std::size_t num_classes);

/// Uniform replication entry point: one simulate_mg1 run, metrics written
/// into `out` (size mg1_metric_count(classes.size())).
void run_replication(const std::vector<ClassSpec>& classes,
                     const SimOptions& options, Rng& rng,
                     std::span<double> out);

/// Rebuild the SimResult summary fields from engine metric means (for
/// consumers of SimResult such as core::audit_conservation). Per-class
/// `completions` is not representable as a mean and is left zero.
SimResult mg1_result_from_metrics(const std::vector<ClassSpec>& classes,
                                  std::span<const double> metric_means);

}  // namespace stosched::queueing
