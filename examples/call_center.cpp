// call_center — multiclass service system control (survey §3): a contact
// center with three caller classes of different urgency and handling times,
// served under the cµ rule vs FCFS, with the analytic Cobham/PK values as
// the audit trail, and a what-if sweep over staffing (M/M/m).
#include <iostream>

#include "core/stosched.hpp"

int main() {
  using namespace stosched;
  using namespace stosched::queueing;

  // Classes: platinum (urgent, short; 8/hr, 2-min handle), standard (5/hr,
  // 4-min handle), bulk callbacks (patient, long; 1.5/hr, 12-min, heavy
  // tail). Costs are $ per caller-hour of waiting; rho ≈ 0.27 + 0.33 +
  // 0.30 = 0.90. Horizon and warm-up are in hours.
  const experiment::QueueScenario& center =
      experiment::queue_scenario("call-center");
  const std::vector<ClassSpec>& classes = center.classes;
  std::cout << "single-agent utilization: " << traffic_intensity(classes)
            << "\n\n";

  const auto cmu = cmu_order(classes);
  Table single("call center, one agent: discipline comparison ($/hr)");
  single.columns({"discipline", "cost rate (sim)", "cost rate (analytic)",
                  "platinum wait (min)"});

  {
    SimOptions opt = center.options();
    opt.discipline = Discipline::kPriorityNonPreemptive;
    opt.priority = cmu;
    Rng rng(1);
    const auto res = simulate_mg1(classes, opt, rng);
    single.add_row({"c-mu priority", fmt(res.cost_rate),
                    fmt(cobham_cost_rate(classes, cmu)),
                    fmt(60.0 * res.per_class[0].mean_wait, 2)});
  }
  {
    SimOptions opt = center.options();
    opt.discipline = Discipline::kFcfs;
    Rng rng(2);
    const auto res = simulate_mg1(classes, opt, rng);
    // FCFS analytic: same PK wait for everyone.
    const double w = pk_fcfs_wait(classes);
    double analytic = 0.0;
    for (const auto& c : classes)
      analytic += c.holding_cost * c.arrival_rate * (w + c.service->mean());
    single.add_row({"FCFS", fmt(res.cost_rate), fmt(analytic),
                    fmt(60.0 * res.per_class[0].mean_wait, 2)});
  }
  single.print(std::cout);

  // Staffing sweep: M/M/m with the cµ priority.
  Table staffing("staffing what-if: cost rate vs number of agents");
  staffing.columns({"agents", "utilization", "cost rate", "platinum queue"});
  std::vector<ClassSpec> mm = classes;
  mm[2].service = exponential_dist(1.0 / mm[2].service->mean());  // M/M/m
  for (unsigned agents = 2; agents <= 5; ++agents) {
    Rng rng(10 + agents);
    const auto res = simulate_mmm(mm, agents, cmu, center.horizon,
                                  center.warmup, rng);
    staffing.add_row({std::to_string(agents), fmt_pct(res.utilization),
                      fmt(res.cost_rate),
                      fmt(res.mean_in_system[0], 3)});
  }
  staffing.note("diminishing returns: each extra agent buys less cost");
  staffing.print(std::cout);
  return 0;
}
