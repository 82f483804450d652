// perfbench — time-to-result of the library's experiment calls.
//
//   perfbench --workload <queue-seq|queue-fixed|online-lp> --seed <n>
//             --mode <setup|measure|trace> [--seconds <s>] [--trace-out <f>]
//
// setup    builds the workload (scenarios, arms) once, then times
//          kSetupRepeats further builds of it and prints their median. The
//          OpenMP pool is not started, so no spinning worker competes with
//          the timed builds.
// measure  runs rounds of the workload's experiment calls in a closed loop
//          until --seconds have passed, then prints the end-to-end metrics
//          and every call's fingerprint as one JSON line.
// trace    runs the per-layer passes (see layers.cpp) and prints the
//          per-layer metrics as one JSON line; spans go to --trace-out.
//
// run.py drives these modes; see README.md.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/engine.hpp"
#include "workloads.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::string mode = "measure";
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--mode") a.mode = val;
    else if (key == "--trace-out") a.trace_out = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Start the OpenMP worker pool, as the first experiment call otherwise
/// would.
unsigned start_pool() {
#ifdef _OPENMP
#pragma omp parallel
  { [[maybe_unused]] volatile int touch = omp_get_thread_num(); }
#endif
  return stosched::experiment::engine_threads();
}

/// Workload builds timed in setup mode.
constexpr int kSetupRepeats = 1001;

/// Median time to build the workload's scenarios and arms: the set-up a
/// run does before its first experiment call, apart from exec, loading and
/// OpenMP pool start-up. Those time the kernel's loader and scheduler,
/// which drift with the host's load. The caller has built the workload
/// once already, so code and heap are faulted in.
double setup_ns(const std::string& name) {
  std::vector<double> ns;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t t0 = now_ns();
    const Workload w = make_workload(name);
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(ns);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

int measure(const Workload& w, const Args& a, unsigned threads) {
  std::vector<CallRecord> calls;
  std::vector<double> walls, reps_rates, event_rates;
  const std::uint64_t start = now_ns();
  for (std::size_t round = 0;
       round == 0 || (now_ns() - start) * 1e-9 < a.seconds; ++round) {
    const std::uint64_t seed = round_seed(a.seed, round);
    double wall = 0.0, merged = 0.0, events = 0.0;
    for (const Experiment& e : w.experiments) {
      calls.push_back(run_call(e, seed, /*replica=*/false));
      wall += calls.back().wall_s;
      merged += static_cast<double>(calls.back().merged);
      events += static_cast<double>(calls.back().events);
    }
    walls.push_back(wall);
    reps_rates.push_back(merged / wall);
    event_rates.push_back(events / wall);
  }
  std::string out = "{\"workload\": \"" + w.name + "\", \"threads\": " +
                    std::to_string(threads) + ", \"rounds\": " +
                    std::to_string(walls.size()) + ", \"metrics\": {" +
                    "\"wall_s\": " + num(median(walls)) +
                    ", \"reps_per_s\": " + num(median(reps_rates)) +
                    ", \"events_per_s\": " + num(median(event_rates)) +
                    ", \"peak_rss_mb\": " + num(peak_rss_mb()) +
                    "}, \"calls\": [";
  for (std::size_t i = 0; i < calls.size(); ++i)
    out += (i ? ", " : "") + call_json(calls[i]);
  out += "]}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const Workload w = make_workload(a.workload);
    if (a.mode == "setup") {
      std::cout << "{\"setup_ns\": " << num(setup_ns(a.workload)) << "}"
                << std::endl;
      return 0;
    }
    const unsigned threads = start_pool();
    if (a.mode == "measure") return measure(w, a, threads);
    if (a.mode == "trace") return run_traced(w, a.seed, a.trace_out);
    throw std::invalid_argument("unknown --mode " + a.mode);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << '\n';
    return 2;
  }
}
