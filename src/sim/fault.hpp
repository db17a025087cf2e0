// Fault injection for the simulated testbed (chaos links).
//
// A network tester is only trustworthy if it keeps measuring — and keeps
// its counters honest — when the network misbehaves. The FaultInjector
// wraps one direction of a Port's wire path and perturbs traffic with the
// classic link pathologies, every one of them counted and reproducible
// from a single seed:
//
//  * loss        — i.i.d. Bernoulli, or bursty Gilbert-Elliott (two-state
//                  Markov chain with per-state loss probability);
//  * reordering  — a random extra delay in [min, max] ns re-sequences
//                  packets within a bounded window;
//  * duplication — the wire delivers an extra copy of a packet;
//  * corruption  — random bit flips, which the receive path must then
//                  catch via net::checksum (FCS at the MAC, or per-query
//                  integrity checks in HTPR);
//  * link flaps  — scheduled down/up windows during which every packet on
//                  the link is dropped.
//
// Determinism contract: the injector draws from its own sim::Rng in a
// fixed per-packet order, and draws only for pathologies whose rate is
// non-zero. Two runs with identical seeds and identical traffic are
// bit-identical (pinned by tests/fault_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace ht::sim {

class Port;

/// i.i.d. packet loss.
struct BernoulliLossConfig {
  double rate = 0.0;  ///< per-packet loss probability in [0, 1]
};

/// Bursty loss: a two-state Markov chain (Gilbert-Elliott). The chain
/// advances once per packet; each state has its own loss probability.
/// Enabled when `p_good_to_bad > 0`.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;  ///< transition probability good -> bad
  double p_bad_to_good = 0.0;  ///< transition probability bad -> good
  double loss_good = 0.0;      ///< loss probability while in the good state
  double loss_bad = 1.0;       ///< loss probability while in the bad state
  bool enabled() const { return p_good_to_bad > 0.0; }
};

/// Bounded reordering: affected packets are held back by a random extra
/// delay, letting later packets overtake them.
struct ReorderConfig {
  double rate = 0.0;  ///< probability a packet is delayed
  TimeNs min_delay_ns = 0;
  TimeNs max_delay_ns = 0;
};

/// Duplication: the wire delivers the packet twice.
struct DuplicateConfig {
  double rate = 0.0;
};

/// Bit-flip corruption. The flip lands at a random bit of the frame; the
/// receive path is expected to catch it via net::checksum.
struct CorruptConfig {
  double rate = 0.0;
  unsigned max_bit_flips = 1;  ///< 1..N flips per affected packet
};

/// Scheduled link flaps: the link goes down at `first_down_at`, stays
/// down for `down_ns`, and repeats every `period_ns` for `count` cycles
/// (count == 1 by default; period ignored then).
struct LinkFlapConfig {
  TimeNs first_down_at = 0;
  TimeNs down_ns = 0;
  TimeNs period_ns = 0;
  unsigned count = 1;
  bool enabled() const { return down_ns > 0; }
};

/// The full chaos profile of one link direction. Plain data so NTAPI
/// tasks can declare it (ntapi::Task::set_chaos) and tests can sweep it.
struct FaultConfig {
  std::uint64_t seed = 0x5eed;
  BernoulliLossConfig loss;
  GilbertElliottConfig gilbert;
  ReorderConfig reorder;
  DuplicateConfig duplicate;
  CorruptConfig corrupt;
  LinkFlapConfig flap;

  bool any() const {
    return loss.rate > 0 || gilbert.enabled() || reorder.rate > 0 ||
           duplicate.rate > 0 || corrupt.rate > 0 || flap.enabled();
  }
};

/// Everything the injector did, counted. `delivered` counts packets
/// handed to the far end (duplicates included), so
/// offered == delivered - duplicated + lost + flap_drops.
struct FaultStats {
  std::uint64_t offered = 0;    ///< packets entering the injector
  std::uint64_t delivered = 0;  ///< packets handed to the destination
  std::uint64_t lost = 0;       ///< Bernoulli + Gilbert-Elliott losses
  std::uint64_t reordered = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t flap_drops = 0;  ///< dropped while the link was down
};

/// Wraps one direction of a link: every packet finishing serialization on
/// the attached Port passes through the injector before reaching the
/// peer. Attach one injector per direction for a full-duplex chaos link.
///
/// Shard safety: attach() rebinds the injector to the *receiving* port's
/// event queue (src.peer()->ev()). On an intra-shard link that is the same
/// queue; on a cross-shard link the ShardGroup drain schedules the hook
/// invocation at the stamped arrival time on the destination shard, so all
/// injector state (RNG, Gilbert chain, flap flag) mutates on exactly one
/// thread. Per-link FIFO order plus the per-injector RNG keeps the draw
/// sequence — and therefore every counter — identical across shard counts.
class FaultInjector {
 public:
  FaultInjector(EventQueue& ev, FaultConfig cfg);

  /// Interpose on `src`'s wire path (replaces any previous hook) and
  /// rebind to the receiving queue. The flap schedule, if any, is armed
  /// there on first attach. `src` must already be connected.
  void attach(Port& src);

  const FaultConfig& config() const { return cfg_; }
  const FaultStats& stats() const { return stats_; }
  bool link_up() const { return link_up_; }
  /// Gilbert-Elliott chain position — part of the snapshot state image.
  bool gilbert_bad() const { return gilbert_bad_; }
  /// Draw-stream state for snapshots (sim/snapshot.hpp).
  std::string rng_state_string() const { return rng_.state_string(); }

  /// Drop/keep decision plus perturbation for one packet headed to `dst`.
  /// Exposed for tests; attach() routes the Port wire hook here.
  void process(net::PacketPtr pkt, Port& dst);

 private:
  void arm_flaps();
  bool draw_loss();
  /// Flip 1..max_bit_flips random bits. Copies first when the packet is
  /// shared (template packets must never be corrupted in place).
  void corrupt_in_place(net::PacketPtr& pkt);

  EventQueue* ev_;  ///< rebound to the receiving queue at attach()
  FaultConfig cfg_;
  Rng rng_;
  FaultStats stats_;
  bool link_up_ = true;
  bool gilbert_bad_ = false;  ///< Gilbert-Elliott chain state
  bool flaps_armed_ = false;
};

/// Process-level fault vocabulary (DESIGN.md §14). Where the wire faults
/// above perturb packets, these perturb the *testbed* — whole testers,
/// switch state, the control plane — scheduled on the sim clock like any
/// other event, so crash experiments replay deterministically and the
/// Supervisor (core/supervisor.hpp) can be tested against a known script.
enum class CrashKind : std::uint8_t {
  /// Tester process dies: every front-panel port goes admin-down and stays
  /// down. Recovery requires supervisor action (restore or migrate).
  kTesterCrash,
  /// Crash plus volatile-state loss: the ASIC register file is wiped, as a
  /// real switch reboot wipes SRAM. Counters restart from zero.
  kSwitchReboot,
  /// Control-plane partition: switch-CPU RPCs see 100% loss for
  /// duration_ns, then heal. The data plane keeps forwarding.
  kControllerPartition,
  /// Transient freeze: ports admin-down for duration_ns, then back up on
  /// their own — a stall, not a death.
  kShardStall,
};

const char* to_string(CrashKind kind);

/// One scheduled process-level fault.
struct CrashEvent {
  CrashKind kind = CrashKind::kTesterCrash;
  TimeNs at_ns = 0;
  TimeNs duration_ns = 0;  ///< partition/stall window; ignored for crash/reboot
  std::size_t tester = 0;  ///< cluster index of the victim tester
};

/// A run's crash schedule, declared up front like FaultConfig so tests and
/// the CLI can sweep it from one seedable description.
struct CrashPlan {
  std::vector<CrashEvent> events;
  bool any() const { return !events.empty(); }
};

}  // namespace ht::sim
