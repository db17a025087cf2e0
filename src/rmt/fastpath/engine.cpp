#include "rmt/fastpath/engine.hpp"

#include "net/headers.hpp"

namespace ht::rmt::fastpath {

void Engine::bind(SwitchAsic& asic, htps::Sender& sender, htpr::Receiver& receiver,
                  const FusedPlan& plan) {
  asic_ = &asic;
  sender_ = &sender;
  receiver_ = &receiver;
  tmpl_.clear();
  tmpl_.resize(sender.template_count());
  fallback_templates_ = 0;

  for (std::uint32_t t = 0; t < tmpl_.size(); ++t) {
    const TemplateFusion verdict =
        t < plan.templates.size() ? plan.templates[t] : TemplateFusion{.template_id = t};
    bind_template(t, verdict);
  }

  // Fast-path observability: task- and packet-level counters on the
  // device registry, so `ntapi_cli stats` shows whether a run actually
  // took the fused path. A receive-only task (no templates) has no
  // per-packet walk to fuse; it counts as fused vacuously, mirroring
  // FusedPlan::all_fusable().
  auto& m = asic.metrics();
  m.mirror_counter("ht_fastpath_fused_pkts_total", [this] { return fused_pkts_; },
                   {.help = "pipeline passes executed by the fused fast path"});
  m.mirror_counter(
      "ht_fastpath_fused_tasks_total",
      [this] { return std::uint64_t{fallback_templates_ == 0 ? 1u : 0u}; },
      {.help = "loaded tasks whose every template runs the fused fast path"});
  m.mirror_counter(
      "ht_fastpath_fallback_tasks_total",
      [this] { return std::uint64_t{fallback_templates_ == 0 ? 0u : 1u}; },
      {.help = "loaded tasks with at least one template on the interpreted fallback path"});
}

void Engine::bind_template(std::uint32_t tid, const TemplateFusion& verdict) {
  TemplateState& ts = tmpl_[tid];
  ts.blockers = verdict.blockers;
  ts.loop_port = sender_->recirc_port_of(tid);
  const htps::TemplateConfig& cfg = sender_->config(tid);

  // Slot table: parse the template prototype once with the task's real
  // parser. Replicas are byte-clones of the prototype until the editor
  // runs, so the parse structure (header offsets, field homes) is an
  // install-time constant of the class.
  const auto proto = net::make_packet(cfg.spec.materialize());
  const Phv pphv = asic_->parser().parse(proto);
  const auto& reg = net::FieldRegistry::instance();
  for (std::size_t i = 0; i < net::kFieldCount; ++i) {
    const auto f = static_cast<net::FieldId>(i);
    const net::FieldInfo& fi = reg.info(f);
    FieldSlot& s = ts.slots.slots[i];
    if (fi.header == net::HeaderKind::kNone) {
      // Metadata: mirror exactly what Parser::parse loads from the
      // simulation layer; everything else reads 0 until written, like an
      // unloaded PHV container.
      switch (f) {
        case net::FieldId::kMetaIngressPort:
          s.kind = FieldSlot::Kind::kIngressPort;
          break;
        case net::FieldId::kMetaIngressTstamp:
          s.kind = FieldSlot::Kind::kIngressTstamp;
          break;
        case net::FieldId::kMetaTemplateId:
          s.kind = FieldSlot::Kind::kTemplateId;
          break;
        case net::FieldId::kPktLen:
          s.kind = FieldSlot::Kind::kPktLen;
          break;
        case net::FieldId::kMetaEgressPort:
          s.kind = FieldSlot::Kind::kEgressPort;
          break;
        default:
          s.kind = FieldSlot::Kind::kScratch;
          break;
      }
      continue;
    }
    const int off = pphv.header_offset[static_cast<std::size_t>(fi.header)];
    if (off >= 0 && pphv.header_valid(fi.header)) {
      s.kind = FieldSlot::Kind::kWire;
      s.bit = static_cast<std::uint32_t>(off) * 8 + fi.bit_offset;
      s.width = static_cast<std::uint8_t>(fi.bit_width);
    } else {
      // Field of an unparsed header: Phv::set would mark it modified but
      // the deparser skips it (no parse offset) — scratch matches that.
      s.kind = FieldSlot::Kind::kScratch;
    }
  }

  // Written-field sanity (defense in depth behind plan.cpp): every field
  // the editor writes must resolve to wire bytes or scratch.
  for (const htps::EditOp& op : cfg.edits) {
    if (op.kind == htps::EditOp::Kind::kRecordTimestamp) continue;  // writes a register
    const FieldSlot::Kind k = ts.slots.slots[FastCtx::idx(op.field)].kind;
    if (k == FieldSlot::Kind::kWire) {
      ts.wire_writes = true;
    } else if (k != FieldSlot::Kind::kScratch) {
      ts.blockers.push_back("edit writes intrinsic metadata field " +
                            std::string(net::field_name(op.field)));
    }
  }

  // Egress program: walk the installed pipeline in order, resolving each
  // table's gate and match for this class at bind time. Tables whose gate
  // is statically false for the class are dropped entirely — matching the
  // interpreted walk, which books nothing for gated-off tables.
  htps::Sender* snd = sender_;
  htpr::Receiver* rcv = receiver_;
  for (const PipelineNode& node : asic_->egress().nodes()) {
    const TableHints& h = node.table->hints();
    switch (h.role) {
      case TableHints::Role::kHtpsEditor: {
        // Gate (front port + template packet) holds for every packet the
        // fused egress accepts; the exact match on template id hits.
        FusedStep<FastCtx> st;
        st.table = node.table.get();
        st.hit = true;
        st.body = [snd, tid](FastCtx& c) { snd->egress_core(tid, c); };
        ts.egress_prog.steps.push_back(std::move(st));
        break;
      }
      case TableHints::Role::kHtprSent: {
        if (h.template_id != tid) break;  // gate statically false for this class
        // Empty-key table: the interpreted apply counts a miss and runs
        // the default action.
        FusedStep<FastCtx> st;
        st.table = node.table.get();
        st.hit = false;
        const std::size_t q = h.query_index;
        st.body = [rcv, q](FastCtx& c) { rcv->query_core(q, c); };
        ts.egress_prog.steps.push_back(std::move(st));
        break;
      }
      default:
        ts.blockers.push_back("unrecognized egress table '" + node.table->name() + "'");
        break;
    }
  }

  // Ingress program for recirculating template packets (the hot loop; the
  // one-time CPU arrival stays interpreted). Received-traffic queries gate
  // on front-panel ingress ports, statically false here.
  for (const PipelineNode& node : asic_->ingress().nodes()) {
    const TableHints& h = node.table->hints();
    switch (h.role) {
      case TableHints::Role::kHtpsSender: {
        FusedStep<FastCtx> st;
        st.table = node.table.get();
        st.hit = true;
        st.body = [snd, tid](FastCtx& c) { snd->ingress_core(tid, c); };
        ts.ingress_prog.steps.push_back(std::move(st));
        break;
      }
      case TableHints::Role::kHtprReceived:
        break;  // gate statically false on recirculation ports
      case TableHints::Role::kHtprMaintenance:
        // Runs after the sender step in pipeline order (Receiver installs
        // after Sender); executed interpreted on a scratch context because
        // CounterStore::maintenance_pass needs a full ActionContext.
        ts.maintenance_tbl = node.table.get();
        break;
      default:
        ts.blockers.push_back("unrecognized ingress table '" + node.table->name() + "'");
        break;
    }
  }

  // Checksum strategy: when no edit touches wire bytes, every front-port
  // replica carries prototype bytes, so the deparser's checksum fix
  // reduces to an install-time byte-patch list.
  if (ts.blockers.empty() && !ts.wire_writes) {
    const auto fixed = net::make_packet(cfg.spec.materialize());
    net::fix_checksums(*fixed);
    const auto a = proto->bytes();
    const auto b = fixed->bytes();
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] != b[i]) {
        ts.patches.push_back({static_cast<std::uint32_t>(i), b[i]});
      }
    }
  }

  if (ts.blockers.empty()) {
    ts.fused = true;
  } else {
    ++fallback_templates_;
  }
}

bool Engine::try_ingress(const net::PacketPtr& pkt, IntrinsicMeta& out) {
  const net::PacketMeta& m = pkt->meta();
  if (!m.is_template) return false;
  const std::uint32_t tid = m.template_id;
  if (tid >= tmpl_.size()) return false;
  TemplateState& ts = tmpl_[tid];
  if (!ts.fused) return false;
  const auto iport = static_cast<std::uint16_t>(m.ingress_port);
  if (!asic_->is_recirc_port(iport)) return false;  // CPU arrival: interpreted, once

  FastCtx c;
  c.pkt = pkt.get();
  c.slot_table = &ts.slots;
  c.regs = &asic_->registers();
  c.rng_ptr = &asic_->rng();
  c.now_ns = asic_->events().now();
  c.iport = iport;
  c.scratch = ts.scratch.data();
  out = IntrinsicMeta{};  // fresh-PHV default: drop unless the program says otherwise
  c.intr = &out;
  asic_->ingress().apply_fused(ts.ingress_prog, c);
  c.clear_scratch();
  if (ts.maintenance_tbl != nullptr) {
    ActionContext actx = asic_->make_ctx(maintenance_phv_);
    ts.maintenance_tbl->apply(actx);
  }
  ++fused_pkts_;
  return true;
}

bool Engine::try_egress(const net::PacketPtr& pkt, std::uint16_t egress_port,
                        sim::TimeNs now) {
  const net::PacketMeta& m = pkt->meta();
  if (!m.is_template) return false;
  const std::uint32_t tid = m.template_id;
  if (tid >= tmpl_.size()) return false;
  TemplateState& ts = tmpl_[tid];
  if (!ts.fused) return false;

  if (egress_port >= asic_->port_count()) {
    // Recirculation/CPU egress: every egress-side gate requires a
    // front-panel port, so the interpreted pass fires no table, writes no
    // byte, and skips the checksum engine — a statically-proven no-op.
    ++fused_pkts_;
    return true;
  }

  FastCtx c;
  c.pkt = pkt.get();
  c.slot_table = &ts.slots;
  c.regs = &asic_->registers();
  c.rng_ptr = &asic_->rng();
  c.now_ns = now;
  c.iport = static_cast<std::uint16_t>(m.ingress_port);
  c.eport = egress_port;
  c.scratch = ts.scratch.data();
  asic_->egress().apply_fused(ts.egress_prog, c);
  c.clear_scratch();
  if (ts.wire_writes) {
    net::fix_checksums(*pkt);
  } else {
    auto bytes = pkt->bytes();
    for (const CsumPatch& p : ts.patches) bytes[p.offset] = p.value;
  }
  ++fused_pkts_;
  return true;
}

bool Engine::lap_idle(std::uint32_t tid, sim::TimeNs now) const {
  if (tid >= tmpl_.size()) return false;
  const TemplateState& ts = tmpl_[tid];
  return ts.fused && sender_->lap_idle(tid, now) &&
         (ts.maintenance_tbl == nullptr || receiver_->maintenance_idle());
}

bool Engine::try_idle_lap(std::uint32_t tid, sim::TimeNs now, std::uint16_t& loop_port) {
  if (!lap_idle(tid, now)) return false;
  const TemplateState& ts = tmpl_[tid];
  // try_ingress's bookkeeping with the bodies replaced by what they do on
  // an idle lap: the replicator's SALU reads and, per store, one gated
  // dequeue of an empty KV FIFO.
  for (const auto& step : ts.ingress_prog.steps) step.table->count_apply(step.hit);
  sender_->book_idle_lap(tid);
  if (ts.maintenance_tbl != nullptr) {
    ts.maintenance_tbl->count_apply(false);  // empty key, no entries: a miss
    receiver_->book_idle_maintenance();
  }
  ++fused_pkts_;
  loop_port = ts.loop_port;
  return true;
}

}  // namespace ht::rmt::fastpath
