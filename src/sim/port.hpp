// Port: a full-duplex MAC with serialization-accurate transmission.
//
// A Port models one switch/NIC port. Transmission occupies the line for
// line_size()*8/rate ns per packet (including preamble/FCS/IPG), which is
// exactly the arithmetic behind every line-rate figure in the paper. The
// MAC keeps fractional-nanosecond credit so long runs do not accumulate
// rounding drift, and stamps hardware (MAC) timestamps on receive — the
// paper's most accurate delay-testing mode (Fig. 18 "HW").
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"

namespace ht::sim {

/// One packet on a cross-shard link direction, stamped with its arrival
/// time at the far port.
struct WireHandoff {
  net::PacketPtr pkt;
  TimeNs arrival = 0;
};

class Port {
 public:
  Port(EventQueue& ev, std::uint16_t id, double rate_gbps)
      : ev_(ev), id_(id), rate_gbps_(rate_gbps) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  std::uint16_t id() const { return id_; }
  double rate_gbps() const { return rate_gbps_; }
  /// The queue this port's delivery events run on — i.e. the receive side
  /// of the wire. A FaultInjector attaching to the *peer* schedules its
  /// perturbations here, so chaos always executes on the receiver's shard
  /// (shard-safe chaos, DESIGN.md §14).
  EventQueue& ev() { return ev_; }

  /// Attach the far end. `peer == this` makes a loopback port (used to
  /// extend recirculation capacity, §6.1).
  void connect(Port* peer, TimeNs propagation_ns = 0) {
    peer_ = peer;
    propagation_ns_ = propagation_ns;
  }
  Port* peer() const { return peer_; }

  /// Queue a packet for transmission. The TX start time respects the
  /// serialization of everything queued before it. When the egress queue
  /// is full the packet is tail-dropped, as a real MAC queue would.
  void send(net::PacketPtr pkt);
  /// send() with an explicit enqueue time >= the event clock: the switch
  /// egress tail emits packets a constant latency after the (fused) pass
  /// without paying a scheduled event for the offset.
  void send_at(TimeNs now_ns, net::PacketPtr pkt);

  std::uint64_t dropped_queue_full() const { return dropped_queue_full_; }

  /// Deliver a packet arriving from the wire (called by the peer's MAC).
  void deliver(net::PacketPtr pkt);
  /// The end of this port's wire: hand a packet that finished crossing it
  /// to `wire_hook` when one is set, else to `dst.deliver`. Runs at the
  /// arrival time on the receiving queue, on both the local and the
  /// cross-shard path.
  void finish_wire(net::PacketPtr pkt, Port& dst);

  /// Owner-device hook: invoked at packet arrival time.
  std::function<void(net::PacketPtr)> on_receive;
  /// Observation hook: invoked with (packet, first-bit TX time in ns).
  std::function<void(const net::Packet&, TimeNs)> on_transmit;
  /// Wire-path interposer (fault injection, sim/fault.hpp): when set,
  /// packets finishing serialization are handed to the hook instead of
  /// directly to `peer->deliver`, so a chaos link can drop/delay/corrupt
  /// them. Unset (the default) is a transparent wire.
  std::function<void(net::PacketPtr, Port& dst)> wire_hook;

  /// Cross-shard wiring (sim/shard.hpp): when set, serialized packets are
  /// appended to this outbox at send time — stamped with the exact arrival
  /// the intra-shard path would compute — instead of being delivered
  /// through a local event; the ShardGroup's epoch barrier schedules
  /// finish_wire at the stamped arrival on the *destination* shard's
  /// queue, so chaos state only ever mutates on the receiving thread
  /// (shard-safe chaos).
  void set_remote_out(std::vector<WireHandoff>* outbox) { remote_out_ = outbox; }
  bool cross_shard() const { return remote_out_ != nullptr; }

  /// Administrative link state — the crash-fault primitive (sim/fault.hpp
  /// CrashKind): an admin-down MAC neither transmits nor receives, and
  /// every packet offered in either direction while down is counted here
  /// and dropped. A tester crash admin-downs all its front-panel ports.
  void set_admin_up(bool up) { admin_up_ = up; }
  bool admin_up() const { return admin_up_; }
  std::uint64_t dropped_admin_down() const { return dropped_admin_down_; }

  /// MAC FCS verification: when enabled, deliver() drops frames whose
  /// checksums no longer verify (bit-flip corruption on the wire) and
  /// counts them — corruption is observable, never silently consumed.
  void set_verify_fcs(bool v) { verify_fcs_ = v; }
  std::uint64_t rx_fcs_drops() const { return rx_fcs_drops_; }

  // --- counters -----------------------------------------------------------
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  std::uint64_t dropped_no_peer() const { return dropped_no_peer_; }
  std::size_t tx_queue_depth() const { return tx_in_flight_; }
  std::uint64_t tx_line_bytes() const { return tx_line_bytes_; }
  std::uint64_t tx_completed_line_bytes() const { return tx_completed_line_bytes_; }
  /// MAC credit clock (fractional ns) — part of the snapshot state image:
  /// two runs in the same state must agree on it bit-exactly.
  double busy_until() const { return busy_until_; }

  /// Achieved TX throughput in Gbps over [0, now], counting full wire size
  /// (the convention used when a tester claims "line rate").
  double tx_line_rate_gbps() const;

  /// Owner-device telemetry: `wire_latency` observes send()->last-bit-arrival
  /// time (queue wait + serialization + propagation) per packet; `trace`
  /// records per-port TX spans on track kTrackPortBase + id. Both may be
  /// nullptr; the port never owns them.
  void set_telemetry(telemetry::Histogram* wire_latency, telemetry::TraceRecorder* trace) {
    wire_latency_ = wire_latency;
    trace_ = trace;
  }

 private:
  EventQueue& ev_;
  std::uint16_t id_;
  double rate_gbps_;
  Port* peer_ = nullptr;
  TimeNs propagation_ns_ = 0;
  std::vector<WireHandoff>* remote_out_ = nullptr;

  double busy_until_ = 0.0;  ///< fractional ns; next TX can start here
  std::size_t tx_in_flight_ = 0;
  static constexpr std::size_t kTxQueueCapacity = 16384;
  std::uint64_t dropped_queue_full_ = 0;

  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;       ///< frame bytes (excl. IPG/preamble)
  std::uint64_t tx_line_bytes_ = 0;  ///< incl. Ethernet overhead (enqueued)
  std::uint64_t tx_completed_line_bytes_ = 0;  ///< fully serialized onto the wire
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t dropped_no_peer_ = 0;
  bool verify_fcs_ = false;
  std::uint64_t rx_fcs_drops_ = 0;
  bool admin_up_ = true;
  std::uint64_t dropped_admin_down_ = 0;

  telemetry::Histogram* wire_latency_ = nullptr;
  telemetry::TraceRecorder* trace_ = nullptr;
};

}  // namespace ht::sim
