// quickstart — the five-minute tour of libstosched.
//
// Pulls a small batch of stochastic jobs from the scenario registry, ranks
// them with the Smith/WSEPT index rule, computes the exact expected weighted
// flowtime, verifies it with the experiment engine (replications added until
// the CI is tight), and shows that the rule matches the exhaustive optimum —
// the survey's very first theorem, reproduced in ~40 lines.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "core/stosched.hpp"
#include "experiment/adapters.hpp"

int main() {
  using namespace stosched;

  // 1. The workload: four jobs with different cost weights and
  //    processing-time laws (only the means matter for sequencing), from
  //    the shared scenario catalogue.
  const batch::Batch& jobs =
      experiment::batch_scenario("quickstart-four-jobs").jobs;

  // 2. Rank with the WSEPT (Smith/Rothkopf) index rule.
  const core::IndexRule rule = core::wsept_rule(jobs);
  const batch::Order order = rule.priority_order();
  std::cout << "WSEPT order:";
  for (const auto j : order) std::cout << ' ' << j;
  std::cout << '\n';

  // 3. Exact objective and the exhaustive optimum.
  const double wsept = batch::exact_weighted_flowtime(jobs, order);
  double opt = 0.0;
  batch::best_order_exhaustive(jobs, &opt);
  std::cout << "E[sum w_j C_j] (WSEPT) = " << wsept << "\n"
            << "E[sum w_j C_j] (best of n! orders) = " << opt << '\n';

  // 4. Confirm with the experiment engine: parallel replications are added
  //    in batches until the 95% CI half-width is below 0.5% of the mean.
  experiment::EngineOptions eopt;
  eopt.seed = 7;
  eopt.rel_precision = 0.005;
  eopt.max_replications = 200000;
  const experiment::EngineResult sim =
      experiment::run_policy(experiment::batch_scenario("quickstart-four-jobs"),
                             order, eopt);
  const Estimate est = sim.estimate();
  std::cout << "simulated: " << est.value << " +/- " << est.half_width
            << " (95% CI, " << est.replications << " reps, "
            << (sim.converged ? "precision reached" : "cap hit") << ")\n";

  std::cout << (wsept <= opt + 1e-9 && est.covers(wsept)
                    ? "WSEPT is optimal, simulation agrees.\n"
                    : "unexpected mismatch!\n");
  return 0;
}
