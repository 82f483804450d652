// F4 — the achievable region of the multiclass M/G/1 is a polymatroid whose
// vertices are the priority rules [4, 14, 17, 36].
//
// Two-class instance: the series traces the performance segment between the
// two priority vertices (x_j = rho_j W_j), checks simulated vertices land on
// the analytic ones, mixtures stay inside the region, and the adaptive
// greedy algorithm on the region recovers the cµ order.
#include "bench_common.hpp"
#include "core/achievable_region.hpp"
#include "experiment/adapters.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::queueing;

int main() {
  Table table("F4: M/G/1 achievable region (2 classes) [4,14]");
  table.columns({"point", "x1 (rho1 W1)", "x2 (rho2 W2)", "x1+x2",
                 "inside region"});

  experiment::QueueScenario scenario =
      experiment::queue_scenario("f4-two-class");
  scenario.horizon = bench::smoke_scale(3e4, 6e3);
  scenario.warmup = bench::smoke_scale(3e3, 6e2);
  const std::vector<ClassSpec>& classes = scenario.classes;
  std::vector<char> full{1, 1};
  const double base = core::mg1_region_b(classes, full);

  const auto v12 = core::mg1_region_vertex(classes, {0, 1});
  const auto v21 = core::mg1_region_vertex(classes, {1, 0});

  bool all_inside = true;
  auto add_point = [&](const std::string& name, const std::vector<double>& x) {
    const bool inside = core::mg1_region_contains(classes, x, 0.05);
    all_inside = all_inside && inside;
    table.add_row({name, fmt(x[0]), fmt(x[1]), fmt(x[0] + x[1]),
                   inside ? "yes" : "NO"});
  };

  add_point("vertex (1>2) analytic", v12);
  add_point("vertex (2>1) analytic", v21);
  for (const double w : {0.25, 0.5, 0.75}) {
    std::vector<double> mix{w * v12[0] + (1 - w) * v21[0],
                            w * v12[1] + (1 - w) * v21[1]};
    add_point("mixture w=" + fmt(w, 2), mix);
  }

  // Simulated vertices, via the experiment engine: replications until the
  // per-class mean-wait CIs are tight (metrics 3 and 6 of the mg1 layout).
  experiment::EngineOptions eopt;
  eopt.seed = 20250916;
  bench::note_seed(eopt.seed);
  eopt.min_replications = 12;
  eopt.batch = 12;
  eopt.max_replications = bench::smoke_scale<std::size_t>(128, 48);
  eopt.rel_precision = bench::smoke_scale(0.015, 0.03);
  eopt.tracked = {3, 6};  // wait_0, wait_1
  bool sim_on_vertex = true;
  for (const auto& prio :
       std::vector<std::vector<std::size_t>>{{0, 1}, {1, 0}}) {
    const auto res = experiment::run_policy(
        scenario,
        experiment::QueuePolicy{"prio", Discipline::kPriorityNonPreemptive,
                                prio},
        eopt);
    std::vector<double> x(2);
    for (std::size_t j = 0; j < 2; ++j)
      x[j] = classes[j].arrival_rate * classes[j].service->mean() *
             res.metrics[2 + 3 * j + 1].mean();
    const auto& target = prio[0] == 0 ? v12 : v21;
    for (std::size_t j = 0; j < 2; ++j)
      sim_on_vertex =
          sim_on_vertex && std::abs(x[j] - target[j]) < 0.10 * target[j] + 0.02;
    add_point("vertex (" + std::to_string(prio[0] + 1) + " top) simulated", x);
  }

  // Adaptive greedy on the region data recovers cµ.
  std::vector<double> means, costs;
  for (const auto& c : classes) {
    means.push_back(c.service->mean());
    costs.push_back(c.holding_cost);
  }
  const auto ag = core::adaptive_greedy(
      2, [&](const std::vector<char>&) { return means; }, costs);
  const bool ag_matches = ag.priority == cmu_order(classes);

  table.note("base value b(N) = " + fmt(base) +
             "; every point's x1+x2 must equal it (work conservation)");
  table.verdict(all_inside, "all points lie in the polymatroid");
  table.verdict(sim_on_vertex, "simulated vertices match Cobham vertices");
  table.verdict(ag_matches, "adaptive greedy on the region recovers c-mu");
  return stosched::bench::finish(table);
}
