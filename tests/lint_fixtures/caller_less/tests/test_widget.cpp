#include <gtest/gtest.h>

#include "widget/widget.hpp"

// A test calling a function is not a caller.
TEST(Widget, OracleAgrees) {
  EXPECT_EQ(fixture::oracle(1.0), fixture::used_in_src(1.0));
  EXPECT_EQ(fixture::orphan(1.0), 1.0);
}
