// job.hpp — stochastic jobs and batch instances (survey §1).
//
// A job carries a holding-cost weight and a processing-time law. Batches are
// plain vectors; the instance generator mixes the workload families the
// experiments sweep over (exponential, IFR, DFR, two-point, uniform).
#pragma once

#include <cstddef>
#include <vector>

#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace stosched::batch {

/// One stochastic job: weight w_i (cost per unit time in system) and the
/// processing-time distribution G_i.
struct Job {
  double weight = 1.0;
  DistPtr processing;
};

using Batch = std::vector<Job>;

/// A scheduling order: job indices, first entry = first served / highest
/// priority.
using Order = std::vector<std::size_t>;

/// Generate a random batch of n jobs. Each job draws a processing mean from
/// U(0.5, 4), a family uniformly among exponential, Erlang (IFR), two-phase
/// hyperexponential (DFR), two-point (the counterexample family of [13]) and
/// uniform, and a weight from U(0.5, 3).
Batch random_batch(std::size_t n, Rng& rng);

/// Identity / sorted orders.
Order identity_order(std::size_t n);
/// Shortest expected processing time first.
Order sept_order(const Batch& jobs);
/// Longest expected processing time first.
Order lept_order(const Batch& jobs);
/// Smith / Rothkopf rule: nonincreasing w_i / E[P_i] (WSEPT). Optimal for
/// 1 machine, nonpreemptive, expected weighted flowtime [34,37].
Order wsept_order(const Batch& jobs);
/// Uniformly random permutation.
Order random_order(std::size_t n, Rng& rng);

}  // namespace stosched::batch
