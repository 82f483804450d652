// Fixture: rng-laundering (tools/ast_audit.py).
//
// The entry point forwards its Rng& whole, which is allowed. But the helper
// it forwards TO draws on the caller's stream twice — directly, and by
// handing the stream to a distribution's sample() — laundering both draws
// through one call level. The rule follows every function with an Rng&
// parameter and flags both uses in the helper; tools/test_ast_audit.py
// asserts the two findings and that the forwarding stays clean.
#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace fixture {

double jitter_helper(const stosched::Distribution& law, stosched::Rng& rng) {
  return rng.uniform(0.0, 1.0)  // BAD: direct draw on a routed stream
         + law.sample(rng);     // BAD: the law draws on it too
}

double simulate_fixture(const stosched::Distribution& law,
                        stosched::Rng& rng) {
  return jitter_helper(law, rng);  // whole-argument forwarding: allowed
}

}  // namespace fixture
