// Deliberately-bad fixture for the hot-loop-clock rule: direct clock reads
// inside the DES hot path (src/des, src/queueing), which reads no clock at
// all; layer costs and spans come from perfbench.
#include <chrono>

#include <ctime>
#include <sys/time.h>

double simulate_timed_loop() {
  const auto t0 = std::chrono::steady_clock::now();
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  timeval tv;
  gettimeofday(&tv, nullptr);
  const auto t1 = std::chrono::high_resolution_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}
