// F2 — the Gittins index is computable in finitely many steps [19, 40]:
// three independent algorithms (largest-index / restart-in-state /
// retirement calibration) must agree. The table holds only deterministic
// columns, so it passes bench_compare.py --exact across thread counts;
// the algorithms' costs are timed in bench_micro_indices.
#include <algorithm>
#include <cmath>

#include "bandit/gittins.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::bandit;

int main() {
  Table table("F2: Gittins algorithms — agreement [40,47]");
  table.columns({"states", "max |VWB-restart|", "max |VWB-calib|"});

  Rng master(555);
  bool all_agree = true;
  for (const std::size_t n : {4u, 8u, 16u, 32u, 48u}) {
    Rng rng = master.stream(n);
    const MarkovProject p = random_project(n, rng);
    const double beta = 0.9;

    const auto a = gittins_largest_index(p, beta);
    const auto b = gittins_restart(p, beta);
    const auto c = gittins_calibration(p, beta);

    double dab = 0.0, dac = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      dab = std::max(dab, std::abs(a[s] - b[s]));
      dac = std::max(dac, std::abs(a[s] - c[s]));
    }
    all_agree = all_agree && dab < 1e-6 && dac < 1e-5;
    table.add_row({std::to_string(n), fmt(dab, 9), fmt(dac, 9)});
  }
  table.note("VWB = Varaiya-Walrand-Buyukkoc largest-index (exact linear algebra)");
  table.verdict(all_agree, "three independent algorithms agree to <=1e-5");
  return stosched::bench::finish(table);
}
