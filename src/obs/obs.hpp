// obs.hpp — umbrella for the observability subsystem.
//
// One include gives a consumer the whole telemetry surface: the metrics
// registry (counters / gauges / deterministic latency histograms), the
// compiled-out Chrome-trace macros, run provenance, the structured
// progress sink. The trace clock (obs::trace::now_ns) is the library's one
// wall clock; per-layer costs come from perfbench, not from in-loop timers.
#pragma once

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
