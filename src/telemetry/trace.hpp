// Tracing spans keyed off the simulation clock.
//
// A TraceRecorder is a fixed-capacity ring buffer of trace events
// (complete spans and instants) on named tracks. Recording is off by
// default — the hot path pays one bool check — and never allocates once
// the ring is sized (event names are short literals that fit SSO).
//
// The export format is Chrome's `trace_event` JSON, loadable in
// chrome://tracing and https://ui.perfetto.dev: one process per
// recorder, one thread ("track") per pipeline component, timestamps in
// microseconds derived from the simulated nanosecond clock. One
// compiled task therefore yields one coherent timeline: task phases on
// track 0, ingress/egress pipeline walks, wire serialization per port,
// and recirculation loops each on their own track (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ht::telemetry {

/// One Chrome trace_event record. `ph` is the event phase: 'X' =
/// complete span (ts + dur), 'i' = instant.
struct TraceEvent {
  std::string name;
  const char* category = "sim";
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t track = 0;
  char ph = 'X';
};

class TraceRecorder {
 public:
  /// Well-known tracks; ports use kTrackPortBase + port id.
  static constexpr std::uint32_t kTrackTask = 0;
  static constexpr std::uint32_t kTrackIngress = 1;
  static constexpr std::uint32_t kTrackEgress = 2;
  static constexpr std::uint32_t kTrackRecirc = 3;
  static constexpr std::uint32_t kTrackPortBase = 100;

  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  /// Recording switch. Off by default: per-packet span sites cost one
  /// load + branch until a consumer (ntapi_cli stats --trace, a test)
  /// turns the recorder on.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Record a complete span [ts_ns, ts_ns + dur_ns) on `track`.
  void complete(std::string name, std::uint64_t ts_ns, std::uint64_t dur_ns,
                std::uint32_t track, const char* category = "sim");
  /// Record an instant event at ts_ns.
  void instant(std::string name, std::uint64_t ts_ns, std::uint32_t track,
               const char* category = "sim");

  /// Human name for a track, emitted as thread_name metadata.
  void set_track_name(std::uint32_t track, std::string name);
  /// Process name (the task name), emitted as process_name metadata.
  void set_process_name(std::string name) { process_name_ = std::move(name); }

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring wrapped (the trace keeps the
  /// most recent `capacity` events).
  std::uint64_t overwritten() const { return overwritten_; }
  void clear();

  /// Serialize as Chrome trace JSON ({"traceEvents": [...]}) in
  /// chronological (ring) order. Deterministic for deterministic runs.
  void write_chrome_trace(std::ostream& os) const;
  std::string chrome_trace_json() const;

 private:
  void push(TraceEvent ev);

  bool enabled_ = false;
  std::size_t capacity_;
  std::vector<TraceEvent> events_;  ///< ring storage
  std::size_t head_ = 0;            ///< next write position once full
  bool full_ = false;
  std::uint64_t overwritten_ = 0;
  std::string process_name_ = "hypertester";
  std::map<std::uint32_t, std::string> track_names_;
};

}  // namespace ht::telemetry
