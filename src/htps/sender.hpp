// HyperTester Packet Sender (HTPS, §5.1).
//
// Three components, laid out exactly as Fig. 2/3 of the paper:
//  - *accelerator*: template packets injected by the switch CPU are sent to
//    a recirculation port and loop forever, forming a stable packet source;
//  - *replicator*: on every loop, a register timer compares the packet's
//    arrival timestamp against the last departure time; when the interval
//    has elapsed the template is multicast to the test ports (the mcast
//    group also contains the recirculation port so the template keeps
//    looping); otherwise it is unicast back into the loop;
//  - *editor*: in the egress pipeline, replicas get their header fields
//    rewritten per the NTAPI `set` primitives — constants (already in the
//    template), value lists, arithmetic ranges, random distributions via
//    inverse-transform tables, or fields from a stateless-connection
//    trigger record.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "htps/inverse_transform.hpp"
#include "htps/template_packet.hpp"
#include "regfifo/register_fifo.hpp"
#include "rmt/asic.hpp"

namespace ht::htps {

/// One egress-side field modification (a compiled `set` primitive).
struct EditOp {
  enum class Kind { kList, kRange, kRandom, kFromTrigger, kFromMetadata, kRecordTimestamp };
  net::FieldId field = net::FieldId::kIpv4Dip;
  Kind kind = Kind::kList;
  // kList
  std::vector<std::uint64_t> values;
  // kRange: arithmetic progression start..end (inclusive) by step
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t step = 1;
  // kRandom
  InverseTransformTable distribution;
  // kFromTrigger: bridged trigger-record lane + additive offset
  std::size_t trigger_lane = 0;
  std::int64_t trigger_offset = 0;
  // kFromMetadata: copy an ASIC metadata field (e.g. the pipeline
  // timestamp for P4-level delay piggybacking, Fig 18 "SW") into the
  // header field, truncated to the destination width.
  net::FieldId meta_source = net::FieldId::kMetaIngressTstamp;
  // kRecordTimestamp (Fig 18's *state-based* delay testing): store the
  // egress timestamp into `state_register` at the index derived from
  // `field` (masked to the register size) instead of piggybacking it in
  // the packet. The register is created at install when absent.
  std::string state_register;
  std::size_t state_size = 1 << 16;
};

/// One phase of a CPS-style rate ramp: hold `interval_ns` between fires
/// for `duration_ns`, then advance. duration_ns == 0 means "hold forever"
/// and is only meaningful on the final step.
struct RampStep {
  std::uint64_t duration_ns = 0;
  std::uint64_t interval_ns = 0;
};

/// The interval in effect `elapsed` ns after the ramp was anchored.
inline std::uint64_t ramp_interval(const std::vector<RampStep>& ramp,
                                   std::uint64_t elapsed) {
  for (const RampStep& s : ramp) {
    if (s.duration_ns == 0 || elapsed < s.duration_ns) return s.interval_ns;
    elapsed -= s.duration_ns;
  }
  return ramp.back().interval_ns;
}

struct TemplateConfig {
  TemplateSpec spec;
  std::vector<std::uint16_t> egress_ports;

  enum class Mode { kTimer, kFifoTriggered };
  Mode mode = Mode::kTimer;

  /// kTimer: inter-departure interval in ns (0 = fire on every loop, i.e.
  /// line rate). Optionally re-drawn from a distribution after each fire
  /// ("random inter-departure time", §3.1).
  std::uint64_t interval_ns = 0;
  std::optional<InverseTransformTable> interval_dist;

  /// kTimer connection-per-second ramp: when non-empty the effective
  /// interval is a staircase over sim time, anchored at the template's
  /// first replicator pass (the anchor lives in the `htps.ramp_anchor`
  /// register so snapshots restore mid-ramp exactly). Overrides
  /// interval_ns/interval_dist.
  std::vector<RampStep> interval_ramp;

  /// Stop after this many fires (loop * stream length); 0 = unbounded.
  std::uint64_t fire_limit = 0;

  /// How many copies of the template the accelerator keeps in the
  /// recirculation loop. 0 = auto: fill the loop to capacity (shared
  /// equally among templates), which makes the replicator's timer
  /// granularity the minimal arrival interval (6.4ns for 64B, Fig 14).
  std::uint64_t loop_copies = 0;

  /// kFifoTriggered: the trigger FIFO fed by HTPR (§5.3).
  regfifo::RegisterFifo* trigger_fifo = nullptr;

  std::vector<EditOp> edits;
};

class Sender {
 public:
  static constexpr std::uint16_t kMcastGroupBase = 0x100;

  /// By default templates are amortized round-robin across every
  /// recirculation channel the ASIC provides — the §6.1 technique of
  /// configuring loopback ports to extend the accelerator capacity at the
  /// price of bandwidth/ports. Pass an explicit port to pin everything to
  /// one channel.
  explicit Sender(rmt::SwitchAsic& asic);
  Sender(rmt::SwitchAsic& asic, std::uint16_t recirc_port);

  /// Register a template; returns its template id. Must precede install().
  std::uint32_t add_template(TemplateConfig cfg);

  /// Build registers, mcast groups, and the sender/editor tables into the
  /// ASIC pipelines. Call once.
  void install();

  /// Inject every template packet from the switch CPU (starts the test).
  void start();

  std::size_t template_count() const { return templates_.size(); }
  const TemplateConfig& config(std::uint32_t tid) const { return templates_.at(tid); }

  /// Number of replication events (mcast fires) for a template so far.
  std::uint64_t fires(std::uint32_t tid) const;
  /// True when a bounded template (fire_limit > 0) has finished.
  bool done(std::uint32_t tid) const;

  /// Copies of template `tid` currently held in the recirculation loop.
  std::uint64_t loop_copies(std::uint32_t tid) const;

  /// The recirculation channel carrying template `tid`.
  std::uint16_t recirc_port_of(std::uint32_t tid) const;

  /// Shared action cores. The accelerator/replicator and editor semantics
  /// are written once as templates over a context concept
  /// (get/set/now/rng/registers/meta/unicast/multicast) and instantiated
  /// twice: with rmt::PhvActionCtx by the interpreted table actions and
  /// with fastpath::FastCtx by the task-compiled path — one body, two
  /// execution engines, semantic equality by construction.
  template <class Ctx>
  void ingress_core(std::uint32_t tid, Ctx& ctx);
  template <class Ctx>
  void egress_core(std::uint32_t tid, Ctx& ctx);

  /// True when ingress_core on a recirculating copy of `tid` at `now`
  /// would unicast it straight back to its channel and write no register
  /// cell: not accelerating, ramp anchored, timer not due or fire_limit
  /// reached, trigger FIFO empty. Mirrors ingress_core; the lap skeleton
  /// (rmt/asic.hpp) elides such laps.
  bool lap_idle(std::uint32_t tid, std::uint64_t now) const;
  /// Book the SALU executions ingress_core performs on an idle lap (each
  /// leaves its cell unchanged). Call only when lap_idle() holds.
  void book_idle_lap(std::uint32_t tid);

 private:
  void ingress_action(std::uint32_t tid, rmt::ActionContext& ctx);
  void egress_action(std::uint32_t tid, rmt::ActionContext& ctx);

  /// Mcast group that doubles a template back into the loop (acceleration).
  static constexpr std::uint16_t kAccelGroupBase = 0x4000;

  /// What a lap reads of its template, packed apart from the (large)
  /// TemplateConfig: the accelerator fill target, and the mode facts the
  /// lap skeleton's idle test needs at recirculation rate.
  struct LapFacts {
    std::uint64_t loop_target = 1;
    std::uint64_t fire_limit = 0;
    regfifo::RegisterFifo* trigger_fifo = nullptr;  ///< FIFO-triggered mode only
    const std::vector<RampStep>* ramp = nullptr;    ///< set when the interval ramps
  };
  std::vector<LapFacts> lap_facts_;

  rmt::SwitchAsic& asic_;
  /// Channels used for amortization; single entry when pinned.
  std::vector<std::uint16_t> recirc_ports_;
  std::vector<TemplateConfig> templates_;
  bool installed_ = false;

  rmt::RegisterArray* loop_count_ = nullptr;
  rmt::RegisterArray* last_tx_ = nullptr;
  rmt::RegisterArray* intervals_ = nullptr;
  rmt::RegisterArray* fires_ = nullptr;
  rmt::RegisterArray* pktid_ = nullptr;
  /// Ramp anchor time per template (0 = not yet anchored).
  rmt::RegisterArray* ramp_anchor_ = nullptr;
  /// Per-(template, edit-op) state registers, resolved at install: the
  /// sequence register of a kList/kRange edit, the timestamp register of a
  /// kRecordTimestamp edit.
  std::vector<std::vector<rmt::RegisterArray*>> edit_state_;

  /// Per-template send-rate telemetry (device registry cells, created at
  /// install): achieved inter-fire gap and |achieved - configured| timer
  /// error.
  std::vector<telemetry::Histogram*> fire_gap_hist_;
  std::vector<telemetry::Histogram*> timer_err_hist_;
};

// ---------------------------------------------------------------------------
// Shared action cores. Any behavior change here must keep the two
// instantiations equivalent — tests/fastpath_diff_test.cpp replays every
// conformance suite through both paths and asserts byte-identical results.

template <class Ctx>
void Sender::ingress_core(std::uint32_t tid, Ctx& ctx) {
  auto& cfg = templates_[tid];
  const auto iport = static_cast<std::uint16_t>(ctx.get(net::FieldId::kMetaIngressPort));

  // Accelerator: the first pass (from the CPU port) just enters the loop.
  if (iport == rmt::SwitchAsic::kCpuPort) {
    ctx.unicast(recirc_port_of(tid));
    return;
  }

  // Acceleration phase: double the template back into the loop until it
  // holds the target number of copies (copies = count + 1), saturating the
  // recirculation bandwidth at ~100Gbps (§5.1 "amplifying template
  // packets").
  const std::uint64_t target = lap_facts_[tid].loop_target;
  bool accelerating = false;
  loop_count_->execute(tid, [&](std::uint64_t& count) -> std::uint64_t {
    if (count + 1 < target) {
      ++count;
      accelerating = true;
    }
    return count;
  });
  if (accelerating) {
    ctx.multicast(static_cast<std::uint16_t>(kAccelGroupBase + tid));
    return;
  }

  bool fire = false;
  if (cfg.mode == TemplateConfig::Mode::kTimer) {
    if (cfg.fire_limit == 0 || fires_->read(tid) < cfg.fire_limit) {
      std::uint64_t interval = intervals_->read(tid);
      if (!cfg.interval_ramp.empty()) {
        // CPS ramp: the staircase is a function of time since the first
        // replicator pass, read through a register so restored runs
        // resume mid-ramp at the exact phase.
        const std::uint64_t anchor =
            ramp_anchor_->execute(tid, [&](std::uint64_t& a) -> std::uint64_t {
              if (a == 0) a = ctx.now();
              return a;
            });
        interval = ramp_interval(cfg.interval_ramp, ctx.now() - anchor);
      }
      // The replicator timer: fire when now - last_departure >= interval.
      std::uint64_t prev_tx = 0;
      fire = last_tx_->execute(tid, [&](std::uint64_t& last) -> std::uint64_t {
               if (ctx.now() - last >= interval) {
                 prev_tx = last;
                 last = ctx.now();
                 return 1;
               }
               return 0;
             }) != 0;
      // Skip the very first fire (prev_tx == 0 is "never fired", not a
      // real departure time): no gap exists yet.
      if (fire && prev_tx != 0) {
        const std::uint64_t gap = ctx.now() - prev_tx;
        fire_gap_hist_[tid]->record(gap);
        timer_err_hist_[tid]->record(gap >= interval ? gap - interval : interval - gap);
      }
      if (fire && cfg.interval_dist) {
        intervals_->write(
            tid, cfg.interval_dist->sample(static_cast<std::uint32_t>(ctx.rng().next_u64())));
      }
    }
  } else {
    // Stateless connection: fire once per pending trigger record.
    auto record = cfg.trigger_fifo->dequeue();
    if (record) {
      ctx.meta().bridged.assign(*record);
      fire = true;
    }
  }

  if (fire) {
    fires_->execute(tid, [](std::uint64_t& f) { return ++f; });
    ctx.multicast(static_cast<std::uint16_t>(kMcastGroupBase + tid));
  } else {
    ctx.unicast(recirc_port_of(tid));
  }
}

inline bool Sender::lap_idle(std::uint32_t tid, std::uint64_t now) const {
  const LapFacts& f = lap_facts_[tid];
  if (loop_count_->read(tid) + 1 < f.loop_target) return false;  // accelerating
  if (f.trigger_fifo != nullptr) return f.trigger_fifo->empty();
  if (f.fire_limit != 0 && fires_->read(tid) >= f.fire_limit) return true;
  std::uint64_t interval = intervals_->read(tid);
  if (f.ramp != nullptr) {
    const std::uint64_t anchor = ramp_anchor_->read(tid);
    if (anchor == 0) return false;  // this pass anchors the ramp
    interval = ramp_interval(*f.ramp, now - anchor);
  }
  return now - last_tx_->read(tid) < interval;
}

inline void Sender::book_idle_lap(std::uint32_t tid) {
  const LapFacts& f = lap_facts_[tid];
  const auto keep = [](std::uint64_t& cell) { return cell; };
  loop_count_->execute(tid, keep);
  if (f.trigger_fifo != nullptr) {
    (void)f.trigger_fifo->dequeue();  // empty: the gated front update only
    return;
  }
  if (f.fire_limit != 0 && fires_->read(tid) >= f.fire_limit) return;
  if (f.ramp != nullptr) ramp_anchor_->execute(tid, keep);
  last_tx_->execute(tid, keep);
}

template <class Ctx>
void Sender::egress_core(std::uint32_t tid, Ctx& ctx) {
  auto& cfg = templates_[tid];

  const std::uint64_t pktid = pktid_->execute(tid, [](std::uint64_t& v) { return v++; });
  ctx.set(net::FieldId::kMetaPacketId, pktid);

  for (std::size_t j = 0; j < cfg.edits.size(); ++j) {
    const EditOp& op = cfg.edits[j];
    switch (op.kind) {
      case EditOp::Kind::kList: {
        const std::uint64_t mod = op.values.size();
        const std::uint64_t idx = edit_state_[tid][j]->execute(0, [&](std::uint64_t& cur) {
          const std::uint64_t out = cur;
          cur = (cur + 1) % mod;
          return out;
        });
        ctx.set(op.field, op.values[idx]);
        break;
      }
      case EditOp::Kind::kRange: {
        const std::uint64_t out = edit_state_[tid][j]->execute(0, [&](std::uint64_t& cur) {
          const std::uint64_t v = cur;
          cur += op.step;
          if (cur > op.end) cur = op.start;
          return v;
        });
        ctx.set(op.field, out);
        break;
      }
      case EditOp::Kind::kRandom: {
        const auto r = static_cast<std::uint32_t>(ctx.rng().next_u64());
        ctx.set(net::FieldId::kMetaRng, r);
        ctx.set(op.field, op.distribution.sample(r));
        break;
      }
      case EditOp::Kind::kFromTrigger: {
        const auto& bridged = ctx.meta().bridged;
        if (op.trigger_lane < bridged.size()) {
          const auto base = static_cast<std::int64_t>(bridged[op.trigger_lane]);
          ctx.set(op.field, static_cast<std::uint64_t>(base + op.trigger_offset));
        }
        break;
      }
      case EditOp::Kind::kFromMetadata: {
        // The pipeline timestamp is written at egress time; other metadata
        // comes from the PHV. Values truncate to the field width.
        const std::uint64_t v = op.meta_source == net::FieldId::kMetaEgressTstamp
                                    ? ctx.now()
                                    : ctx.get(op.meta_source);
        ctx.set(op.field, v);
        break;
      }
      case EditOp::Kind::kRecordTimestamp: {
        rmt::RegisterArray& reg = *edit_state_[tid][j];
        reg.write(ctx.get(op.field) & (reg.size() - 1), ctx.now());
        break;
      }
    }
  }
  // The replica leaving the switch is a real test packet now.
  ctx.meta().is_template = false;
}

}  // namespace ht::htps
