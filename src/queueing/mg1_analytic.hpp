// mg1_analytic.hpp — closed-form steady-state quantities for the multiclass
// M/G/1 queue (survey §3).
//
// These formulas serve two roles: (1) analytic ground truth for validating
// the simulator (tests assert the simulated means land inside confidence
// intervals around these values), and (2) noise-free evaluation of every
// static priority order in experiments T9/F4, which is how the cµ-rule's
// optimality is certified without Monte-Carlo ambiguity.
//
// Notation: α_j arrival rate, ρ_j = α_j E[S_j], ρ = Σ ρ_j (must be < 1),
// W0 = Σ_j α_j E[S_j^2] / 2 (mean residual work found by a Poisson arrival).
//
// α_j is always the class's *effective* rate (class_arrival_rate), so specs
// carrying an attached ArrivalProcess get consistent rates — but the
// formulas themselves are exact only for Poisson input (PASTA); for
// renewal/MMPP arrivals they are the rate-matched Poisson
// approximation, not ground truth.
#pragma once

#include <cstddef>
#include <vector>

#include "queueing/mg1.hpp"

namespace stosched::queueing {

/// Mean residual work W0 = Σ α_j E[S_j²] / 2.
double mean_residual_work(const std::vector<ClassSpec>& classes);

/// Pollaczek–Khinchine: FCFS mean wait (same for all classes)
///   W = W0 / (1 - ρ).
double pk_fcfs_wait(const std::vector<ClassSpec>& classes);

/// Cobham's formula: nonpreemptive static priority mean waits.
/// `priority` lists classes highest-first; returns W_j per class:
///   W_j = W0 / ((1 - σ_{j-}) (1 - σ_j)),
/// σ_j = Σ_{i at or above j's priority} ρ_i, σ_{j-} excludes j itself.
std::vector<double> cobham_waits(const std::vector<ClassSpec>& classes,
                                 const std::vector<std::size_t>& priority);

/// Preemptive-resume priority mean *sojourn* times (time in system):
///   T_j = [ E[S_j] (1 - σ_{j-}) + W0_j ] / ((1 - σ_{j-})(1 - σ_j)),
/// with W0_j counting residual work of classes at or above j only.
// caller-audit: test-only(Mg1Sim.PreemptiveResumeSojourns: the closed form
// that simulate_mg1's preemptive-resume discipline is checked against)
std::vector<double> preemptive_resume_sojourns(
    const std::vector<ClassSpec>& classes,
    const std::vector<std::size_t>& priority);

/// Expected number in system per class under nonpreemptive priorities
/// (Little: L_j = α_j (W_j + E[S_j])).
std::vector<double> cobham_numbers(const std::vector<ClassSpec>& classes,
                                   const std::vector<std::size_t>& priority);

/// Holding-cost rate Σ c_j L_j of a nonpreemptive static priority order.
double cobham_cost_rate(const std::vector<ClassSpec>& classes,
                        const std::vector<std::size_t>& priority);

/// The cµ priority order (highest c_j µ_j = c_j / E[S_j] first) — optimal
/// among nonpreemptive policies [15].
std::vector<std::size_t> cmu_order(const std::vector<ClassSpec>& classes);

/// Kleinrock's conservation law: for every work-conserving nonpreemptive
/// discipline, Σ_j ρ_j W_j = ρ W0 / (1 - ρ). Returns that invariant value.
double kleinrock_invariant(const std::vector<ClassSpec>& classes);

}  // namespace stosched::queueing
