// SwitchAsic: the full switching-ASIC model.
//
// One instance is one Tofino-class device: front-panel ports, a
// programmable parser, ingress and egress match-action pipelines, a
// traffic manager with multicast engine, recirculation channels, a digest
// engine toward the switch CPU, register state, and resource accounting.
//
// Packet life cycle (all latencies from TimingModel):
//   port RX -> parse -> ingress pipeline -> [ingress_latency] ->
//   traffic manager (drop | unicast | mcast replicate) -> [tm delay] ->
//   parse -> egress pipeline -> deparse+checksums -> [egress_latency] ->
//   port TX | recirculation loop | CPU punt
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "rmt/digest.hpp"
#include "rmt/hashing.hpp"
#include "rmt/mcast.hpp"
#include "rmt/parser.hpp"
#include "rmt/pipeline.hpp"
#include "rmt/registers.hpp"
#include "rmt/resources.hpp"
#include "rmt/timing.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace ht::rmt {

class FastPathHooks;

struct AsicConfig {
  std::size_t num_ports = 32;
  double port_rate_gbps = 100.0;
  std::size_t num_recirc_channels = 1;
  int max_stages = 12;
  TimingModel timing;
  std::uint64_t seed = 1;
  DigestEngine::Config digest;
};

class SwitchAsic {
 public:
  /// Port-id space: front-panel ports are [0, num_ports); recirculation
  /// channels and the CPU port live high in the id space.
  static constexpr std::uint16_t kRecircPortBase = 0xF000;
  static constexpr std::uint16_t kCpuPort = 0xFFF0;

  SwitchAsic(sim::EventQueue& ev, AsicConfig cfg);

  // --- ports ---------------------------------------------------------------
  sim::Port& port(std::uint16_t i);
  std::size_t port_count() const { return ports_.size(); }
  bool is_recirc_port(std::uint16_t p) const {
    return p >= kRecircPortBase && p < kRecircPortBase + recirc_.size();
  }
  /// Admin gate over every recirculation channel (crash modeling,
  /// DESIGN.md §14): while down, a packet emitted to a recirc port is
  /// counted in recirc_admin_drops() and discarded, which kills the
  /// tester's self-sustaining loops the way process death would.
  void set_recirc_admin(bool up) { recirc_admin_up_ = up; }
  bool recirc_admin_up() const { return recirc_admin_up_; }
  std::uint64_t recirc_admin_drops() const { return recirc_admin_drops_; }
  std::size_t recirc_channel_count() const { return recirc_.size(); }
  double recirc_busy_until(std::size_t c) const { return recirc_[c].busy_until; }
  std::uint64_t recirc_loops(std::size_t c) const { return recirc_[c].loops; }

  // --- programmable blocks ---------------------------------------------------
  const Parser& parser() const { return parser_; }
  Pipeline& ingress() { return ingress_; }
  Pipeline& egress() { return egress_; }
  RegisterFile& registers() { return registers_; }
  DigestEngine& digests() { return digests_; }
  McastGroupTable& mcast() { return mcast_; }
  ResourceAccountant& resources() { return resources_; }
  sim::Rng& rng() { return rng_; }
  sim::EventQueue& events() { return ev_; }
  const TimingModel& timing() const { return cfg_.timing; }
  const AsicConfig& config() const { return cfg_; }

  /// Switch-CPU packet injection (template packets arrive over PCIe).
  void inject_from_cpu(net::PacketPtr pkt);
  /// Handler for packets the pipeline directs to the CPU port.
  void set_cpu_punt(std::function<void(net::PacketPtr)> fn) { cpu_punt_ = std::move(fn); }

  /// Drain all state installed by a previous task (pipelines, groups).
  void reset_program();

  /// Task-compiled fast path (src/rmt/fastpath/). When set, every pipeline
  /// pass is first offered to the hook; a false return runs the interpreted
  /// reference walk. Event scheduling, device counters, and trace spans
  /// stay in this class either way, so the fused path cannot perturb the
  /// deterministic event structure. Pass nullptr to detach.
  void set_fastpath(FastPathHooks* hooks) { fastpath_ = hooks; }

  /// Build an ActionContext around `phv` at the current simulation time.
  /// Public for the fast-path engine, which drives interpreted table
  /// actions (e.g. the store-maintenance pass) from outside the pipelines.
  ActionContext make_ctx(Phv& phv);

  /// Fault-injection hook (sim/fault.hpp layer): called on every packet
  /// entering ingress; returning true drops it before the parser, counted
  /// in `injected_drops`. Models ASIC-internal overruns (parser buffer,
  /// ingress MAU stall) that are invisible to the wire-level injector.
  void set_ingress_fault(std::function<bool(const net::Packet&)> fn) {
    ingress_fault_ = std::move(fn);
  }

  // --- telemetry -------------------------------------------------------------
  /// The device-wide metrics registry. Every component attached to this
  /// ASIC (ports, pipelines, HTPS/HTPR programs, controller, chaos links)
  /// registers its counters/gauges/histograms here, so one registry is the
  /// single source of truth for the whole tester instance.
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  /// Device trace recorder (Chrome trace_event export). Off by default;
  /// enable via trace().set_enabled(true) before running.
  telemetry::TraceRecorder& trace() { return trace_; }
  const telemetry::TraceRecorder& trace() const { return trace_; }

  // --- counters --------------------------------------------------------------
  std::uint64_t ingress_packets() const { return ingress_packets_; }
  std::uint64_t egress_packets() const { return egress_packets_; }
  std::uint64_t dropped_packets() const { return dropped_; }
  std::uint64_t recirculations() const { return recirculations_; }
  std::uint64_t replicas_created() const { return replicas_; }
  std::uint64_t injected_drops() const { return injected_drops_; }
  /// Idle recirculation laps the lap skeleton replayed without an event
  /// or a pipeline pass. A host fact like the slab statistics: it depends
  /// on the execution path, so it stays out of the registry and every
  /// digest.
  std::uint64_t elided_laps() const { return elided_laps_; }

 private:
  /// One packet headed for egress: a unicast packet or a multicast replica.
  struct EgressReplica {
    net::PacketPtr pkt;
    std::uint16_t port = 0;
    std::uint16_t rid = 0;
  };

  /// Replica waiting to be grouped by TM arrival tick (multicast fan-out).
  struct PendingReplica {
    sim::TimeNs tick = 0;
    EgressReplica r;
  };

  void enter_ingress(net::PacketPtr pkt);
  void to_traffic_manager(net::PacketPtr pkt, IntrinsicMeta im);
  /// Schedule egress for a replica alone on its TM tick (every unicast
  /// packet); the closure holds the replica inline, no vector.
  void schedule_egress(sim::TimeNs delay, EgressReplica r);
  /// The one egress leg. `reps` is every replica that shares one TM tick
  /// (a span of one for unicast or a lone replica): each replica's pass
  /// (fused, or parse/apply/deparse/checksum) runs in order, then one
  /// trace span, then emission of every replica. Emission runs inline at
  /// pass time + egress latency (the CPU punt keeps its own event).
  void run_egress(std::span<EgressReplica> reps);
  void emit(net::PacketPtr pkt, std::uint16_t eport, sim::TimeNs now_ns);
  /// The recirculation channel's timing for one copy sent at `now_ns`:
  /// serializer clock, loop counters, jitter draw from rng_ and trace
  /// span. Returns the arrival time back at ingress.
  sim::TimeNs recirc_lap(std::uint16_t eport, std::size_t bytes, sim::TimeNs now_ns);
  /// A copy arriving back from its recirculation channel.
  void recirc_arrive(net::PacketPtr pkt, std::uint16_t eport);

  // --- lap skeleton (DESIGN.md §8) ------------------------------------------
  // On the fused path, a template copy whose next arrival current registers
  // predict idle (the replicator would unicast it straight back and write
  // no register cell) is parked here instead of travelling through queue
  // events. Its pending event — arrival or recirculation egress — keeps the
  // exact (time, seq) key the real event would have had; one armed queue
  // event at the earliest key replays parked events in key order until the
  // queue's next real key or the run deadline. Idleness is re-tested
  // against live state at each replayed arrival: a busy arrival runs the
  // real handler right there, at its own key.
  /// One parked event. Trivially copyable: the copy itself waits in
  /// parked_pkts_[slot] and never moves while it laps.
  struct Lap {
    sim::EventQueue::Key key;
    std::uint32_t slot = 0;   ///< index into parked_pkts_
    std::uint32_t tid = 0;    ///< the copy's template
    std::uint32_t bytes = 0;  ///< its size
    std::uint16_t port = 0;   ///< the recirculation channel
  };
  /// Parked events in key order: the recirculation egresses, and each
  /// channel's arrivals. Keys come almost in order (egress keys exactly,
  /// one channel's arrivals up to the jitter), so an insert walks back a
  /// step or two from the tail.
  class LapQueue {
   public:
    bool empty() const { return size_ == 0; }
    const Lap& front() const { return buf_[head_]; }
    Lap pop() {
      const Lap out = buf_[head_];
      head_ = (head_ + 1) & mask_;
      --size_;
      return out;
    }
    void insert(const Lap& lap);

   private:
    std::vector<Lap> buf_;  ///< ring of mask_ + 1 (a power of two) entries
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  /// The real arrival event of a copy back from channel `eport`.
  void schedule_arrival(sim::TimeNs at, net::PacketPtr pkt, std::uint16_t eport);
  /// Whether a copy arriving at `lap.key.at` may be parked (fast path
  /// bound, no fault hook, not ahead of the armed event).
  bool parks(const Lap& lap) const;
  /// Park `lap` (copy already in its slot) as an arrival at `lap.key.at`,
  /// reserving its seq now, as schedule_arrival would have.
  void park(const Lap& lap);
  std::uint32_t park_slot(net::PacketPtr pkt);
  net::PacketPtr unpark_slot(std::uint32_t slot);
  /// The queue holding the earliest parked key, or nullptr.
  LapQueue* next_lap();
  void arm_laps();
  /// The armed event: replay parked events in key order.
  void run_laps();
  void replay_arrival(Lap lap);
  void replay_egress(Lap lap);

  struct RecircChannel {
    double busy_until = 0.0;
    std::uint64_t loops = 0;
    LapQueue parked;  ///< copies parked on their way back to ingress
  };
  bool recirc_admin_up_ = true;
  std::uint64_t recirc_admin_drops_ = 0;

  void register_device_metrics();

  sim::EventQueue& ev_;
  AsicConfig cfg_;
  /// Ingress latency plus the TM's unicast service time, and the egress
  /// latency, rounded once to event-time ns.
  sim::TimeNs unicast_delay_ns_;
  sim::TimeNs egress_delay_ns_;
  // Declared before ports/pipelines so the registry outlives every
  // component that holds histogram pointers into it.
  telemetry::MetricsRegistry metrics_;
  telemetry::TraceRecorder trace_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<sim::Port>> ports_;
  std::vector<RecircChannel> recirc_;
  Parser parser_;
  Pipeline ingress_;
  Pipeline egress_;
  RegisterFile registers_;
  DigestEngine digests_;
  McastGroupTable mcast_;
  ResourceAccountant resources_;
  /// Reused across to_traffic_manager calls so the multicast fan-out
  /// allocates nothing in steady state (singleton tick groups — the common
  /// case — never touch a heap-backed group at all).
  std::vector<PendingReplica> mcast_scratch_;
  FastPathHooks* fastpath_ = nullptr;
  std::function<void(net::PacketPtr)> cpu_punt_;
  std::function<bool(const net::Packet&)> ingress_fault_;

  // Device counters, mirrored into metrics_ by register_device_metrics.
  std::uint64_t ingress_packets_ = 0;
  std::uint64_t egress_packets_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recirculations_ = 0;
  std::uint64_t replicas_ = 0;
  std::uint64_t injected_drops_ = 0;

  LapQueue lap_egresses_;
  std::vector<net::PacketPtr> parked_pkts_;
  std::vector<std::uint32_t> free_slots_;
  bool laps_armed_ = false;
  bool laps_running_ = false;
  sim::TimeNs armed_at_ = 0;
  std::uint64_t elided_laps_ = 0;
};

}  // namespace ht::rmt
