#include "des/event_queue.hpp"

#include "obs/metrics.hpp"

namespace stosched {

/// The process-wide processed-event tally is the obs registry counter
/// "events" (the bench JSON column). Queues flush their per-instance pop
/// counters here (event_queue.hpp), so the only atomic traffic is one add
/// per clear/destroy — never per event.
void add_process_events(std::uint64_t n) noexcept {
  static obs::Counter& events = obs::counter("events");
  events.add(n);
}

// Explicit instantiations of the arities exercised by the library and the
// micro-benchmark ablation; keeps template code out of every consumer TU.
template class DaryEventHeap<2>;
template class DaryEventHeap<4>;
template class DaryEventHeap<8>;

}  // namespace stosched
