// Fast-path dispatch interface.
//
// The switch model (SwitchAsic) stays ignorant of how fused programs are
// built; it only asks "can you run this packet's pipeline pass?" and falls
// back to the interpreted walk on a false return. The concrete hook —
// fastpath::Engine — lives in src/rmt/fastpath/ and is bound per loaded
// task by HyperTester. Event structure (scheduling, counters, trace spans)
// stays in SwitchAsic either way, so the fused path cannot perturb the
// deterministic event order.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "rmt/phv.hpp"
#include "sim/time.hpp"

namespace ht::rmt {

class FastPathHooks {
 public:
  virtual ~FastPathHooks() = default;

  /// Run the ingress pipeline pass for `pkt` and fill `out` with the
  /// traffic-manager decision. Returns false when this packet class is not
  /// fused (caller must run the interpreted parse/apply/deparse pass).
  virtual bool try_ingress(const net::PacketPtr& pkt, IntrinsicMeta& out) = 0;

  /// Run the egress pipeline pass (editor + sent queries + deparse +
  /// checksum fix) for `pkt` leaving `egress_port`. Returns false when not
  /// fused.
  virtual bool try_egress(const net::PacketPtr& pkt, std::uint16_t egress_port,
                          sim::TimeNs now) = 0;

  /// Lap skeleton support (SwitchAsic, DESIGN.md §8). True when a copy of
  /// template `tid` arriving back from its recirculation channel at `now`
  /// would take an idle lap: its fused ingress pass would unicast it
  /// straight back to the channel and write no register cell. Reads only.
  virtual bool lap_idle(std::uint32_t tid, sim::TimeNs now) const = 0;

  /// When lap_idle(tid, now): book everything that ingress pass counts
  /// (table hits and misses, SALU executions, fused passes), set
  /// `loop_port` to the channel it unicasts to and return true. Otherwise
  /// change nothing and return false.
  virtual bool try_idle_lap(std::uint32_t tid, sim::TimeNs now, std::uint16_t& loop_port) = 0;
};

}  // namespace ht::rmt
