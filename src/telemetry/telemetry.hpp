// Umbrella header for the telemetry layer.
//
// Instrumentation is always compiled in: histograms always record, and
// the one runtime switch is the TraceRecorder, which is off unless a
// consumer turns it on (TraceRecorder::set_enabled).
#pragma once

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace ht::telemetry {

/// Instrumentation is always built in; kept for provenance reports.
inline constexpr bool kEnabled = true;

}  // namespace ht::telemetry
