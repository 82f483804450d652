#include "widget/widget.hpp"

namespace fixture {

// A call inside its own definition is not a caller.
double orphan(double x) { return x > 1.0 ? orphan(x / 2.0) : x; }
double used_by_bench(double x) { return x; }
double used_by_perfbench(double x) { return x; }
double used_by_example(double x) { return x; }
double used_in_src(double x) { return x; }
double oracle(double x) { return x; }
double missing_test(double x) { return x; }
double empty_reason(double x) { return x; }

Widget::Widget() = default;
double Widget::operator()(double x) const { return used_in_src(x) + hidden(); }
double Widget::hidden() const { return 0.0; }

}  // namespace fixture
