// model.hpp — stochastic online scheduling on parallel & unrelated machines.
//
// The survey's index-policy machinery is evaluated in closed queueing and
// bandit settings; the modern stochastic-online-scheduling literature
// (Megow–Uetz–Vredeveld; Jäger 2022; Antoniadis–Hoeksma–Schewior–Uetz 2025)
// instead studies jobs that *arrive over time* and must be assigned
// immediately and irrevocably to one of m machines, with only the size
// *distribution* known at arrival. This module is the workload model of
// that setting:
//
//   * `JobType`   — a class of arriving jobs: mix probability, weight, and a
//     base size law (any `dist::Distribution`);
//   * `Environment` — the machine set, as a speed matrix speed[i][t] > 0:
//     a type-t job of base size S runs for S / speed[i][t] on machine i.
//     Identical machines (all 1), uniformly related machines (rows constant
//     per machine) and unrelated machines (general matrix) are the three
//     classical environments; `identical_machines` builds the first and
//     `unrelated_machines` takes any speed matrix;
//   * `OnlineJob` / `OnlineInstance` — one realized sample path: arrival
//     epochs driven by any `dist::ArrivalProcess` (Poisson, renewal, bursty
//     MMPP, batch), a type per job, a realized base size, and one extra
//     independent *observed sample* per job (what a single-sample policy is
//     allowed to see instead of the law).
//
// Determinism contract: `generate_online_instance` draws through four
// dedicated Rng substreams (arrival gaps, types, realized sizes, observed
// samples). Two policy arms replaying the same substreams therefore face the
// *identical* realized instance — the synchronization that turns an online
// policy comparison into a common-random-number paired design, and that lets
// the offline lower bound be shared across arms.
#pragma once

#include <cstddef>
#include <vector>

#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace stosched::online {

/// One class of arriving jobs.
struct JobType {
  double prob = 1.0;    ///< mix probability (all types must sum to 1)
  double weight = 1.0;  ///< completion-time weight w_j of jobs of this type
  DistPtr size;         ///< base size law S (machine-independent)
};

/// Validate a type mix: nonempty, probabilities in [0,1] summing to 1,
/// positive weights, size laws present with positive finite means.
void validate_types(const std::vector<JobType>& types);

/// Mean base size of the type mix, Σ_t prob_t E[S_t].
double mean_size(const std::vector<JobType>& types);

/// The machine set: speed[i][t] > 0 is machine i's speed on type-t jobs, so
/// a base size S becomes processing time S / speed[i][t]. All rows must
/// have one entry per job type.
struct Environment {
  std::vector<std::vector<double>> speed;  ///< [machine][type]

  [[nodiscard]] std::size_t machines() const { return speed.size(); }
  void validate(std::size_t num_types) const;

  /// Realized processing time of a type-t job of base size `size` on i.
  [[nodiscard]] double proc_time(std::size_t machine, std::size_t type,
                                 double size) const {
    return size / speed[machine][type];
  }

  /// Total service capacity offered to the mix: Σ_i Σ_t prob_t speed[i][t]
  /// (jobs of mean size per unit time when every machine runs its mix
  /// share). The denominator of the nominal load.
  [[nodiscard]] double mix_capacity(const std::vector<JobType>& types) const;
};

/// m identical unit-speed machines.
Environment identical_machines(std::size_t m, std::size_t num_types);

/// General unrelated machines from an explicit (machine x type) speed matrix.
Environment unrelated_machines(std::vector<std::vector<double>> speed);

/// One realized arriving job.
struct OnlineJob {
  double release = 0.0;   ///< arrival epoch r_j
  std::size_t type = 0;   ///< job type index
  double weight = 1.0;    ///< w_j (copied from the type)
  double size = 1.0;      ///< realized base size (hidden from policies)
  /// One independent draw from the same size law — the only size
  /// information a single-sample policy sees. Drawn for every job from a
  /// dedicated substream so all arms observe the same sample.
  double sample = 1.0;
};

/// One sample path, sorted by release epoch.
using OnlineInstance = std::vector<OnlineJob>;

/// Generate the arrivals of [0, horizon): epochs from `arrival` (batch
/// processes fan out several simultaneous jobs per epoch), a type per job
/// from the mix, a realized size and an observed sample per job. Each of the
/// four draw purposes consumes only its own substream.
OnlineInstance generate_online_instance(const ArrivalProcess& arrival,
                                        const std::vector<JobType>& types,
                                        double horizon, Rng& arrival_rng,
                                        Rng& type_rng, Rng& size_rng,
                                        Rng& sample_rng);

}  // namespace stosched::online
