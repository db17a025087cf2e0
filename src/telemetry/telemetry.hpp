// Umbrella header + the compile-time telemetry switch.
//
// HT_TELEMETRY is a CMake option (default ON). When OFF, the build
// defines HT_TELEMETRY_ENABLED=0 and every instrumentation-only call
// site in the stack — histogram records, trace spans, mirror
// registration — is guarded with `if constexpr (telemetry::kEnabled)`,
// so the disabled path compiles to nothing: no branches, no loads, no
// allocation, and fig9 pkts/sec is bit-for-bit the un-instrumented
// engine. Counters that carry *system semantics* (drop/overflow audit
// counters, query bookkeeping) are NOT behind the switch: a drop report
// must stay honest in every build.
//
// The only runtime knob is the TraceRecorder, which is off unless a
// consumer turns it on; histograms always record when compiled in.
#pragma once

#ifndef HT_TELEMETRY_ENABLED
#define HT_TELEMETRY_ENABLED 1
#endif

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace ht::telemetry {

/// True when the build carries the instrumentation call sites.
inline constexpr bool kEnabled = HT_TELEMETRY_ENABLED != 0;

}  // namespace ht::telemetry
