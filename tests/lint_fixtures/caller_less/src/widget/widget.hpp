// Fixture: tools/reach_audit.py, which compiles and links this toy tree.
//
// Each function has the callers its name says. The audit must flag orphan
// (only a test calls it), Widget::rescale (only a test calls it) and its
// private helper Widget::half, which only rescale reaches, weights and
// spread (only a local variable and a data member share their names), and
// the annotations on missing_test, empty_reason and stale (bench/ calls
// it). It must stay quiet for everything else.
#pragma once

namespace stosched::widget {

double orphan(double x);
double used_by_bench(double x);
double used_by_perfbench(double x);
double used_by_example(double x);
double used_in_src(double x);
double weights(double x);
double spread(double x);

// caller-audit: test-only(Widget.OracleAgrees: reference for used_in_src)
double oracle(double x);

// caller-audit: test-only(Widget.NoSuchTest: names a test that is missing)
double missing_test(double x);

// caller-audit: test-only(Widget.OracleAgrees: )
double empty_reason(double x);

// caller-audit: test-only(Widget.OracleAgrees: a production caller exists)
double stale(double x);

class Widget {
 public:
  double operator()(double x) const;
  double scale(double x) const { return x * unit(); }
  double rescale(double x) const { return x * half(); }

 private:
  double unit() const { return 1.0; }
  double half() const { return 0.5; }
};

/// Production instantiates Box<double>; only a test instantiates holds(),
/// on Box<int>, so only a test binary defines it.
template <class T>
struct Box {
  T value{};
  T get() const { return value; }
  // caller-audit: test-only(Widget.OracleAgrees: observes the stored value)
  bool holds(T v) const { return value == v; }
};

}  // namespace stosched::widget
