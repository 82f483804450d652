// lint fixture: violates scenario-reader — a scenario registry with entries
// that nothing outside the tests looks up by name. The self-test copies it
// to src/experiment/scenario.cpp of a skeleton repo, next to a bench that
// reads only "read-entry". Never compiled.
#include "experiment/scenario.hpp"

namespace stosched::experiment {
namespace {

Registry<QueueScenario> build_queue_registry() {
  Registry<QueueScenario> reg;
  reg.add({"read-entry", "looked up by the skeleton's bench", {}, {}});
  reg.add({"unread-added", "registered by reg.add, never looked up", {}, {}});
  return reg;
}

Registry<NetworkScenario> build_network_registry() {
  Registry<NetworkScenario> reg;
  NetworkScenario s;
  s.name = "unread-named";  // registered through .name, never looked up
  reg.add(std::move(s));
  return reg;
}

}  // namespace

// Outside every build_*_registry body: a generated name is not an entry.
QueueScenario generated(int n) {
  QueueScenario s;
  s.name = "generated";
  return s;
}

}  // namespace stosched::experiment
