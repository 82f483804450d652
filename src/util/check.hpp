// check.hpp — error handling primitives used across libstosched.
//
// The library distinguishes two failure categories:
//   * contract violations by the caller (bad arguments, inconsistent model
//     definitions) -> throw std::invalid_argument / std::logic_error via
//     STOSCHED_REQUIRE, always on, cheap to test;
//   * internal invariant breaks (algorithm bugs) -> STOSCHED_ASSERT, throws
//     invariant_error. Numerical simulation bugs are notoriously silent, so
//     asserts stay on in every build type, Release included.
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace stosched {

/// Exception thrown when an internal invariant fails. Deriving from
/// std::logic_error keeps it catchable by generic handlers while remaining
/// distinguishable in tests.
class invariant_error : public std::logic_error {
 public:
  explicit invariant_error(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_require(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "requirement failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_assert(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw invariant_error(os.str());
}

}  // namespace detail
}  // namespace stosched

/// Validate a caller-supplied precondition; always enabled.
#define STOSCHED_REQUIRE(cond, msg)                                       \
  do {                                                                    \
    if (!(cond))                                                          \
      ::stosched::detail::throw_require(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

/// Validate an internal invariant; always enabled.
#define STOSCHED_ASSERT(cond, msg)                                       \
  do {                                                                   \
    if (!(cond))                                                         \
      ::stosched::detail::throw_assert(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

namespace stosched {

/// Throws std::invalid_argument unless `order` (a priority or list order)
/// is a permutation of 0..n-1: an out-of-range entry would index out of
/// bounds, a duplicate would leave another entry never served.
inline void require_permutation(const std::vector<std::size_t>& order,
                                std::size_t n) {
  STOSCHED_REQUIRE(order.size() == n, "order must list all n entries");
  std::vector<char> listed(n, 0);
  for (const std::size_t i : order) {
    STOSCHED_REQUIRE(i < n && !listed[i],
                     "order must be a permutation of 0..n-1");
    listed[i] = 1;
  }
}

}  // namespace stosched
