#include "queueing/mg1_analytic.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace stosched::queueing {

double mean_residual_work(const std::vector<ClassSpec>& classes) {
  double w0 = 0.0;
  for (const auto& c : classes)
    w0 += class_arrival_rate(c) * c.service->second_moment() / 2.0;
  return w0;
}

double pk_fcfs_wait(const std::vector<ClassSpec>& classes) {
  const double rho = traffic_intensity(classes);
  STOSCHED_REQUIRE(rho < 1.0, "queue must be stable (rho < 1)");
  return mean_residual_work(classes) / (1.0 - rho);
}

std::vector<double> cobham_waits(const std::vector<ClassSpec>& classes,
                                 const std::vector<std::size_t>& priority) {
  const std::size_t n = classes.size();
  require_permutation(priority, n);
  const double w0 = mean_residual_work(classes);
  std::vector<double> wait(n, 0.0);
  double sigma_above = 0.0;  // ρ of classes strictly above the current one
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t j = priority[pos];
    const double rho_j =
        class_arrival_rate(classes[j]) * classes[j].service->mean();
    const double sigma_j = sigma_above + rho_j;
    STOSCHED_REQUIRE(sigma_j < 1.0,
                     "classes at this priority level must be stable");
    wait[j] = w0 / ((1.0 - sigma_above) * (1.0 - sigma_j));
    sigma_above = sigma_j;
  }
  return wait;
}

std::vector<double> preemptive_resume_sojourns(
    const std::vector<ClassSpec>& classes,
    const std::vector<std::size_t>& priority) {
  const std::size_t n = classes.size();
  require_permutation(priority, n);
  std::vector<double> sojourn(n, 0.0);
  double sigma_above = 0.0;
  double w0_above_incl = 0.0;  // residual work of classes at or above j
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t j = priority[pos];
    const double rho_j =
        class_arrival_rate(classes[j]) * classes[j].service->mean();
    const double sigma_j = sigma_above + rho_j;
    STOSCHED_REQUIRE(sigma_j < 1.0,
                     "classes at this priority level must be stable");
    w0_above_incl +=
        class_arrival_rate(classes[j]) *
        classes[j].service->second_moment() / 2.0;
    // Conway/Takagi preemptive-resume sojourn:
    //   T_j = [ E[S_j] + W0_j / (1 - sigma_j) ] / (1 - sigma_{j-}),
    // with W0_j the residual work of classes at or above j.
    sojourn[j] = (classes[j].service->mean() +
                  w0_above_incl / (1.0 - sigma_j)) /
                 (1.0 - sigma_above);
    sigma_above = sigma_j;
  }
  return sojourn;
}

std::vector<double> cobham_numbers(const std::vector<ClassSpec>& classes,
                                   const std::vector<std::size_t>& priority) {
  const auto waits = cobham_waits(classes, priority);
  std::vector<double> numbers(classes.size(), 0.0);
  for (std::size_t j = 0; j < classes.size(); ++j)
    numbers[j] = class_arrival_rate(classes[j]) *
                 (waits[j] + classes[j].service->mean());
  return numbers;
}

double cobham_cost_rate(const std::vector<ClassSpec>& classes,
                        const std::vector<std::size_t>& priority) {
  const auto numbers = cobham_numbers(classes, priority);
  double cost = 0.0;
  for (std::size_t j = 0; j < classes.size(); ++j)
    cost += classes[j].holding_cost * numbers[j];
  return cost;
}

std::vector<std::size_t> cmu_order(const std::vector<ClassSpec>& classes) {
  std::vector<std::size_t> order(classes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return classes[a].holding_cost / classes[a].service->mean() >
                            classes[b].holding_cost / classes[b].service->mean();
                   });
  return order;
}

double kleinrock_invariant(const std::vector<ClassSpec>& classes) {
  const double rho = traffic_intensity(classes);
  STOSCHED_REQUIRE(rho < 1.0, "queue must be stable (rho < 1)");
  return rho * mean_residual_work(classes) / (1.0 - rho);
}

}  // namespace stosched::queueing
