#include <gtest/gtest.h>

#include "widget/widget.hpp"

namespace stosched::widget {
namespace {

// A test calling a function is not a caller.
TEST(Widget, OracleAgrees) {
  EXPECT_EQ(oracle(1.0), used_in_src(1.0));
  EXPECT_EQ(orphan(1.0), 1.0);
  EXPECT_EQ(Widget{}.rescale(2.0), 1.0);
  EXPECT_TRUE(Box<int>{3}.holds(3));
}

}  // namespace
}  // namespace stosched::widget
