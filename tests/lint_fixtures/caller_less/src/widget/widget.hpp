// Fixture: caller-less (tools/ast_audit.py).
//
// Public functions of a toy module. Each has the callers its name says; the
// rule must flag `orphan` (only a test and its own body call it) and the two
// broken annotations, and stay quiet for everything else.
#pragma once

namespace fixture {

double orphan(double x);  // BAD: no production caller
double used_by_bench(double x);
double used_by_perfbench(double x);
double used_by_example(double x);
double used_in_src(double x);

// caller-audit: test-only(Widget.OracleAgrees: reference for used_in_src)
double oracle(double x);

// caller-audit: test-only(Widget.NoSuchTest: names a test that is missing)
double missing_test(double x);  // BAD: the named test does not exist

// caller-audit: test-only(Widget.OracleAgrees: )
double empty_reason(double x);  // BAD: the annotation gives no reason

struct Widget {
  Widget();  // constructors, operators and overrides are not audited
  double operator()(double x) const;

 private:
  double hidden() const;  // private members are not audited
};

}  // namespace fixture
