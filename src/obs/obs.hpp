// obs.hpp — umbrella for the observability subsystem.
//
// One include gives a consumer the whole telemetry surface: the five
// process-wide instruments (counters and deterministic latency histograms)
// and run provenance — what bench JSON and perfbench read. Per-layer
// costs and Chrome-trace spans come from perfbench (`run.py --trace 1`),
// outside the library's loops.
#pragma once

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
