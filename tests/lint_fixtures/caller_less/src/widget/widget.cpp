#include "widget/widget.hpp"

#include <vector>

namespace stosched::widget {

// A call inside its own definition is not a caller.
double orphan(double x) { return x > 1.0 ? orphan(x / 2.0) : x; }
double used_by_bench(double x) { return x; }
double used_by_perfbench(double x) { return x; }
double used_by_example(double x) { return Box<double>{x}.get(); }
double used_in_src(double x) { return x; }
double oracle(double x) { return x; }
double missing_test(double x) { return x; }
double empty_reason(double x) { return x; }
double stale(double x) { return x; }
double weights(double x) { return x; }
double spread(double x) { return x; }

namespace {

// A local variable that shares a public function's name.
double total(int n) {
  std::vector<double> weights(n, 0.0);
  return static_cast<double>(weights.size());
}

}  // namespace

double Widget::operator()(double x) const { return used_in_src(x) + total(1); }

}  // namespace stosched::widget
