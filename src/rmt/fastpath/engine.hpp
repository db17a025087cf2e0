// Task-compiled fast path: one specialized apply function per template
// class, built at install time.
//
// The interpreted walk pays, per packet: a parser pass (field extraction
// into a PHV), gateway evaluation + a hash lookup per keyed table,
// std::function action dispatch, a deparse pass, and a full checksum
// recompute. For a loaded task all of that is install-time constant per
// template class — the parse offsets, the gate verdicts, the matching
// entries, the editor program. Engine::bind() resolves them once:
//
//  - a *slot table* per template maps every FieldId to where it lives for
//    this class (absolute wire bit offset, scratch, or intrinsic
//    metadata), replacing parse + deparse with direct byte access;
//  - the pipeline walk collapses to a FusedProgram (rmt/pipeline.hpp):
//    precomputed hit/miss bookkeeping plus the shared action cores
//    (Sender::ingress_core/egress_core, Receiver::query_core) running on a
//    FastCtx instead of a PHV — the *same* template bodies the interpreted
//    path runs, so semantics agree by construction;
//  - templates whose egress never writes wire bytes get a precomputed
//    checksum byte-patch list instead of a per-replica recompute.
//
// Anything the planner (plan.hpp) or binder cannot prove safe falls back
// to the interpreted reference path — counted, never a correctness risk.
// tests/fastpath_diff_test.cpp holds both paths byte-identical over every
// symx conformance suite.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "htpr/receiver.hpp"
#include "htps/sender.hpp"
#include "net/bytes.hpp"
#include "net/fields.hpp"
#include "net/packet.hpp"
#include "rmt/asic.hpp"
#include "rmt/fastpath/plan.hpp"
#include "rmt/fastpath_hooks.hpp"
#include "rmt/pipeline.hpp"

namespace ht::rmt::fastpath {

/// Where one PHV field lives for a given template class.
struct FieldSlot {
  enum class Kind : std::uint8_t {
    kScratch,        ///< masked value in the per-packet scratch array
    kWire,           ///< direct bit range in the packet bytes
    kIngressPort,    ///< meta().ingress_port (parser intrinsic load)
    kIngressTstamp,  ///< meta().ingress_tstamp_ns
    kTemplateId,     ///< meta().template_id
    kPktLen,         ///< pkt->size()
    kEgressPort,     ///< the egress port of the current pass
  };
  Kind kind = Kind::kScratch;
  std::uint32_t bit = 0;   ///< kWire: absolute bit offset into the packet
  std::uint8_t width = 0;  ///< kWire: field width in bits
};

/// Per-template field resolution, built by parsing the template prototype
/// once at bind time. Valid for every packet of the class because replicas
/// are byte-clones of the prototype until the (fused) editor runs.
struct SlotTable {
  std::array<FieldSlot, net::kFieldCount> slots{};
};

/// Execution context for the shared action cores on the fast path. Reads
/// and writes resolve through the slot table straight to packet bytes (the
/// deparse is implicit) or to a zeroed scratch array (metadata fields —
/// matching an interpreted PHV where unloaded containers read 0).
struct FastCtx {
  net::Packet* pkt = nullptr;
  const SlotTable* slot_table = nullptr;
  RegisterFile* regs = nullptr;
  sim::Rng* rng_ptr = nullptr;
  sim::TimeNs now_ns = 0;
  std::uint16_t iport = 0;
  std::uint16_t eport = 0;
  IntrinsicMeta* intr = nullptr;  ///< ingress pass only
  /// Persistent per-template scratch (TemplateState::scratch): all-zero on
  /// entry, written slots recorded in `dirty` and re-zeroed by the engine
  /// after the pass — so each pass sees a fresh PHV without paying a
  /// kFieldCount-wide clear per packet.
  std::uint64_t* scratch = nullptr;
  static constexpr std::size_t kMaxDirty = 24;
  std::array<std::uint16_t, kMaxDirty> dirty;  // first dirty_n entries valid
  std::size_t dirty_n = 0;
  bool dirty_overflow = false;  ///< engine falls back to a full clear

  static std::size_t idx(net::FieldId id) { return static_cast<std::size_t>(id); }

  std::uint64_t get(net::FieldId id) const {
    const FieldSlot& s = slot_table->slots[idx(id)];
    switch (s.kind) {
      case FieldSlot::Kind::kWire:
        return net::read_bits(pkt->bytes(), s.bit, s.width);
      case FieldSlot::Kind::kScratch:
        return scratch[idx(id)];
      case FieldSlot::Kind::kIngressPort:
        return iport;
      case FieldSlot::Kind::kIngressTstamp:
        return pkt->meta().ingress_tstamp_ns;
      case FieldSlot::Kind::kTemplateId:
        return pkt->meta().template_id;
      case FieldSlot::Kind::kPktLen:
        return pkt->size();
      case FieldSlot::Kind::kEgressPort:
        return eport;
    }
    return 0;
  }

  void set(net::FieldId id, std::uint64_t v) {
    const FieldSlot& s = slot_table->slots[idx(id)];
    if (s.kind == FieldSlot::Kind::kWire) {
      // write_bits masks to the field width, exactly like Phv::set +
      // deparse writeback.
      net::write_bits(pkt->bytes(), s.bit, s.width, v);
    } else {
      // Binder guarantee: written fields are kWire or kScratch only.
      const std::size_t i = idx(id);
      scratch[i] = v & net::field_mask(id);
      if (dirty_n < kMaxDirty) {
        dirty[dirty_n++] = static_cast<std::uint16_t>(i);
      } else {
        dirty_overflow = true;
      }
    }
  }

  /// Re-zero every scratch slot this pass wrote, restoring the all-zero
  /// invariant for the next packet. Duplicate dirty entries are harmless.
  void clear_scratch() {
    if (dirty_overflow) {
      for (std::size_t i = 0; i < net::kFieldCount; ++i) scratch[i] = 0;
    } else {
      for (std::size_t k = 0; k < dirty_n; ++k) scratch[dirty[k]] = 0;
    }
  }

  sim::TimeNs now() const { return now_ns; }
  sim::Rng& rng() const { return *rng_ptr; }
  RegisterFile& registers() const { return *regs; }
  net::PacketMeta& meta() const { return pkt->meta(); }
  bool has_packet() const { return true; }
  /// Raw wire bytes (L7 response matching). Reachable only for received
  /// queries, which never fuse; sent queries with classify rules are a
  /// fusion blocker.
  const net::Packet* raw_packet() const { return pkt; }

  /// Unreachable by construction: sent queries that re-verify checksums
  /// are a fusion blocker (they must observe pre-deparse bytes).
  bool verify_checksums() const {
    throw std::logic_error("fastpath: verify_checksums on fused path");
  }

  /// Unreachable by construction: keyed counter-store aggregation is a
  /// fusion blocker (CounterStore needs a full ActionContext).
  template <class Store>
  std::uint64_t store_update(Store&, std::uint64_t) const {
    throw std::logic_error("fastpath: keyed store update on fused path");
  }

  void unicast(std::uint16_t port) const {
    intr->dest = Destination::kUnicast;
    intr->ucast_port = port;
  }
  void multicast(std::uint16_t group) const {
    intr->dest = Destination::kMulticast;
    intr->mcast_group = group;
  }
};

/// The bound fast path for one loaded task. Owned by HyperTester, attached
/// to the ASIC via SwitchAsic::set_fastpath().
class Engine final : public FastPathHooks {
 public:
  /// Specialize every fusable template of the installed program. Call once
  /// per load, after Sender::install() + Receiver::install() populated the
  /// pipelines. Tables without hints (or any construct the plan/binder
  /// rejects) leave their template on the interpreted path, counted in
  /// ht_fastpath_fallback_tasks_total.
  void bind(SwitchAsic& asic, htps::Sender& sender, htpr::Receiver& receiver,
            const FusedPlan& plan);

  bool try_ingress(const net::PacketPtr& pkt, IntrinsicMeta& out) override;
  bool try_egress(const net::PacketPtr& pkt, std::uint16_t egress_port,
                  sim::TimeNs now) override;
  bool lap_idle(std::uint32_t tid, sim::TimeNs now) const override;
  bool try_idle_lap(std::uint32_t tid, sim::TimeNs now, std::uint16_t& loop_port) override;

 private:
  struct CsumPatch {
    std::uint32_t offset = 0;
    std::uint8_t value = 0;
  };

  struct TemplateState {
    // What an idle lap reads comes first, on one cache line: the lap
    // skeleton tests and books laps at recirculation rate.
    bool fused = false;
    /// The recirculation channel the template loops through.
    std::uint16_t loop_port = 0;
    /// Store-maintenance table (interpreted apply on a scratch context —
    /// it only touches registers/FIFOs/digests); nullptr when absent.
    MatchActionTable* maintenance_tbl = nullptr;
    /// Recirculation-ingress program (the accelerator/replicator step).
    FusedProgram<FastCtx> ingress_prog;
    std::vector<std::string> blockers;
    SlotTable slots;
    /// Backing store for FastCtx::scratch: zeroed at bind, kept all-zero
    /// between passes via the dirty list (see FastCtx::clear_scratch).
    std::array<std::uint64_t, net::kFieldCount> scratch{};
    /// Front-port egress program (editor + sent queries).
    FusedProgram<FastCtx> egress_prog;
    /// True when some edit writes wire bytes — checksums must then be
    /// recomputed per replica; otherwise `patches` is applied.
    bool wire_writes = false;
    std::vector<CsumPatch> patches;
  };

  void bind_template(std::uint32_t tid, const TemplateFusion& verdict);

  SwitchAsic* asic_ = nullptr;
  htps::Sender* sender_ = nullptr;
  htpr::Receiver* receiver_ = nullptr;
  std::vector<TemplateState> tmpl_;
  /// Scratch PHV for the maintenance pass (the pass never reads it).
  Phv maintenance_phv_;
  std::size_t fallback_templates_ = 0;
  std::uint64_t fused_pkts_ = 0;
};

}  // namespace ht::rmt::fastpath
