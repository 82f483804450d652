// T5 — outside the theorems' assumptions the simple rules fail: two-point
// processing times on two machines (Coffman–Hofri–Weiss family [13]).
//
// For each instance the table compares SEPT/LEPT (by mean) against the
// exhaustive optimum over list orders, all evaluated *exactly* on the
// realization lattice. Prediction: a strict gap appears on some instances —
// the counterexample the survey cites — while for exponential jobs (T3/T4)
// the same rules were exactly optimal.
//
// Instances come from the twopoint_scenario(i) generator, which draws
// instance i from a fixed family seed; a sequential-precision engine run
// cross-checks the exact SEPT value by simulation on every instance.
#include <string>

#include "batch/job.hpp"
#include "batch/parallel_machines.hpp"
#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::batch;

int main() {
  Table table("T5: two-point jobs on 2 machines — SEPT/LEPT lose optimality [13]");
  table.columns({"instance", "n", "SEPT flow", "SEPT flow (sim)", "OPT flow",
                 "flow gap", "LEPT mksp", "OPT mksp", "mksp gap"});

  int flow_gaps = 0, mksp_gaps = 0;
  bool sim_covers_exact = true;
  for (std::size_t inst = 0; inst < 8; ++inst) {
    const experiment::BatchScenario s = experiment::twopoint_scenario(inst);
    const std::size_t n = s.jobs.size();
    double opt_flow = 0.0, opt_mksp = 0.0;
    best_list_order_discrete(s.jobs, 2, false, &opt_flow);
    best_list_order_discrete(s.jobs, 2, true, &opt_mksp);
    const Order sept = sept_order(s.jobs);
    const double sept_flow =
        exact_list_policy_discrete(s.jobs, sept, 2).flowtime;
    const double lept_mksp =
        exact_list_policy_discrete(s.jobs, lept_order(s.jobs), 2).makespan;

    // Engine cross-check: simulated SEPT flowtime (unit weights, so the
    // weighted-flowtime metric IS the flowtime) against the exact lattice.
    experiment::EngineOptions eopt;
    eopt.seed = 77 + inst;
    eopt.min_replications = 64;
    eopt.batch = 256;
    eopt.max_replications = bench::smoke_scale<std::size_t>(8192, 256);
    eopt.rel_precision = bench::smoke_scale(0.01, 0.05);
    const auto sim = experiment::run_policy(s, sept, eopt);
    sim_covers_exact =
        sim_covers_exact && sim.estimate().covers(sept_flow);

    if (sept_flow > opt_flow * (1.0 + 1e-9)) ++flow_gaps;
    if (lept_mksp > opt_mksp * (1.0 + 1e-9)) ++mksp_gaps;

    table.add_row({std::string("#") + std::to_string(inst), std::to_string(n),
                   fmt(sept_flow),
                   fmt_ci(sim.metrics[0].mean(),
                          sim.metrics[0].ci_halfwidth()),
                   fmt(opt_flow), fmt_pct(sept_flow / opt_flow - 1.0),
                   fmt(lept_mksp), fmt(opt_mksp),
                   fmt_pct(lept_mksp / opt_mksp - 1.0)});
  }
  table.note("values exact over the 2^n realization lattice; optimum over n! list orders");
  table.note(std::string("engine sim CI covers the exact SEPT value on ") +
             (sim_covers_exact ? "every instance" : "SOME INSTANCES ONLY"));
  table.verdict(flow_gaps > 0,
                "SEPT strictly suboptimal for flowtime on some instance");
  table.verdict(mksp_gaps > 0,
                "LEPT strictly suboptimal for makespan on some instance");
  return stosched::bench::finish(table);
}
