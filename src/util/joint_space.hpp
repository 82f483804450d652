// joint_space.hpp — the mixed-radix layout of a joint state space.
//
// The exact MDP and DP baselines enumerate products of small per-component
// state sets: project states, queue lengths, job levels, realization
// points. A joint state is a vector of digits, digit i in [0, radix[i]),
// and its code is the mixed-radix number with digit 0 least significant.
// Codes 0..size()-1 therefore cover the space with digit 0 changing
// fastest. This header is the only code that knows that layout.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched {

class JointSpace {
 public:
  /// `cap` is the caller's size guard: each radix r must leave the running
  /// product of the radices before it strictly below cap / r, or the
  /// constructor throws std::invalid_argument carrying `too_large`.
  JointSpace(std::vector<std::size_t> radix, std::size_t cap,
             const char* too_large)
      : radix_(std::move(radix)) {
    for (const std::size_t r : radix_) {
      STOSCHED_EXPECTS(r >= 1, "every digit needs a nonzero radix");
      STOSCHED_REQUIRE(size_ < cap / r, too_large);
      size_ *= r;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] std::size_t encode(
      std::span<const std::size_t> digits) const {
    STOSCHED_EXPECTS(digits.size() == radix_.size(), "one digit per radix");
    std::size_t code = 0;
    for (std::size_t i = radix_.size(); i-- > 0;) {
      STOSCHED_EXPECTS(digits[i] < radix_[i], "digit out of range");
      code = code * radix_[i] + digits[i];
    }
    return code;
  }

  void decode(std::size_t code, std::vector<std::size_t>& digits) const {
    STOSCHED_EXPECTS(code < size_, "code out of range");
    digits.resize(radix_.size());
    for (std::size_t i = 0; i < radix_.size(); ++i) {
      digits[i] = code % radix_[i];
      code /= radix_[i];
    }
  }

 private:
  std::vector<std::size_t> radix_;
  std::size_t size_ = 1;
};

}  // namespace stosched
