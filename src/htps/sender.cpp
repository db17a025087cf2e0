#include "htps/sender.hpp"

#include <memory>
#include <stdexcept>

#include "rmt/action_adapters.hpp"

namespace ht::htps {

Sender::Sender(rmt::SwitchAsic& asic) : asic_(asic) {
  for (std::size_t c = 0; c < asic.config().num_recirc_channels; ++c) {
    recirc_ports_.push_back(static_cast<std::uint16_t>(rmt::SwitchAsic::kRecircPortBase + c));
  }
}

Sender::Sender(rmt::SwitchAsic& asic, std::uint16_t recirc_port) : asic_(asic) {
  if (!asic_.is_recirc_port(recirc_port)) {
    throw std::invalid_argument("Sender: not a recirculation port");
  }
  recirc_ports_.push_back(recirc_port);
}

std::uint16_t Sender::recirc_port_of(std::uint32_t tid) const {
  return recirc_ports_[tid % recirc_ports_.size()];
}

std::uint32_t Sender::add_template(TemplateConfig cfg) {
  if (installed_) throw std::logic_error("Sender: add_template after install");
  if (cfg.egress_ports.empty() && cfg.mode == TemplateConfig::Mode::kTimer) {
    throw std::invalid_argument("Sender: template without egress ports");
  }
  if (cfg.mode == TemplateConfig::Mode::kFifoTriggered && cfg.trigger_fifo == nullptr) {
    throw std::invalid_argument("Sender: FIFO-triggered template without a FIFO");
  }
  const auto tid = static_cast<std::uint32_t>(templates_.size());
  cfg.spec.template_id = tid;
  templates_.push_back(std::move(cfg));
  return tid;
}

void Sender::install() {
  if (installed_) throw std::logic_error("Sender: double install");
  installed_ = true;
  const std::size_t n = templates_.size();
  auto& rf = asic_.registers();
  loop_count_ = &rf.create("htps.loop_count", std::max<std::size_t>(n, 1), 32);
  last_tx_ = &rf.create("htps.last_tx", std::max<std::size_t>(n, 1), 64);
  intervals_ = &rf.create("htps.interval", std::max<std::size_t>(n, 1), 64);
  fires_ = &rf.create("htps.fires", std::max<std::size_t>(n, 1), 64);
  pktid_ = &rf.create("htps.pktid", std::max<std::size_t>(n, 1), 32);
  ramp_anchor_ = &rf.create("htps.ramp_anchor", std::max<std::size_t>(n, 1), 64);

  // Per-edit-op state registers (value-list cursors / range accumulators,
  // and the shared timestamp register a kRecordTimestamp edit writes).
  edit_state_.resize(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    auto& cfg = templates_[t];
    intervals_->write(t, cfg.interval_ns);
    edit_state_[t].resize(cfg.edits.size(), nullptr);
    for (std::size_t j = 0; j < cfg.edits.size(); ++j) {
      const EditOp& op = cfg.edits[j];
      if (op.kind == EditOp::Kind::kList || op.kind == EditOp::Kind::kRange) {
        auto& reg = rf.create("htps.ed." + std::to_string(t) + "." + std::to_string(j), 1, 64);
        if (op.kind == EditOp::Kind::kRange) reg.write(0, op.start);
        edit_state_[t][j] = &reg;
      } else if (op.kind == EditOp::Kind::kRecordTimestamp) {
        edit_state_[t][j] = rf.contains(op.state_register)
                                ? &rf.get(op.state_register)
                                : &rf.create(op.state_register, op.state_size, 64);
      }
    }
    // Mcast group: the template's recirculation channel keeps it looping;
    // each egress port receives one replica per fire (rid = 1 + index).
    const std::uint16_t loop_port = recirc_port_of(t);
    std::vector<rmt::McastMember> members;
    members.push_back({loop_port, 0});
    for (std::size_t k = 0; k < cfg.egress_ports.size(); ++k) {
      members.push_back({cfg.egress_ports[k], static_cast<std::uint16_t>(k + 1)});
    }
    asic_.mcast().configure(static_cast<std::uint16_t>(kMcastGroupBase + t), std::move(members));
    // Acceleration group: two recirculation members double the template
    // back into the loop until the loop holds the target number of copies.
    asic_.mcast().configure(static_cast<std::uint16_t>(kAccelGroupBase + t),
                            {{loop_port, 0}, {loop_port, 0}});
  }

  // Send-rate telemetry: per-template fire counters join the device
  // registry as mirrors (the fires register stays authoritative), next to
  // the timer-accuracy histograms.
  fire_gap_hist_.clear();
  timer_err_hist_.clear();
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::string tn = std::to_string(t);
    asic_.metrics().mirror_counter(
        "ht_htps_fires_total", [this, t] { return fires(t); },
        {.labels = {{"template", tn}}, .help = "replication events (mcast fires)"});
    asic_.metrics().mirror_gauge(
        "ht_htps_loop_copies",
        [this, t] { return static_cast<std::int64_t>(loop_copies(t)); },
        {.labels = {{"template", tn}},
         .help = "template copies held in the recirculation loop"});
    fire_gap_hist_.push_back(&asic_.metrics().histogram(
        "ht_htps_fire_interval_ns",
        {.labels = {{"template", tn}},
         .help = "achieved inter-departure time between replication fires"}));
    timer_err_hist_.push_back(&asic_.metrics().histogram(
        "ht_htps_timer_error_ns",
        {.labels = {{"template", tn}},
         .help = "absolute error between achieved and configured inter-departure interval"}));
  }

  // Accelerator fill targets: the loop's capacity is RTT / min-arrival
  // interval (Fig 14b); shared equally among the templates on the same
  // channel (amortizing across loopback channels multiplies capacity,
  // §6.1) unless overridden.
  lap_facts_.resize(n);
  const std::size_t channels = recirc_ports_.size();
  for (std::uint32_t t = 0; t < n; ++t) {
    auto& cfg = templates_[t];
    LapFacts& f = lap_facts_[t];
    if (cfg.loop_copies > 0) {
      f.loop_target = cfg.loop_copies;
    } else {
      const std::uint64_t cap = asic_.timing().loop_fill_target(cfg.spec.pkt_len);
      const std::size_t sharers = (n + channels - 1) / channels;  // per channel
      f.loop_target = std::max<std::uint64_t>(1, cap / std::max<std::size_t>(sharers, 1));
    }
    f.fire_limit = cfg.fire_limit;
    if (cfg.mode == TemplateConfig::Mode::kFifoTriggered) f.trigger_fifo = cfg.trigger_fifo;
    if (!cfg.interval_ramp.empty()) f.ramp = &cfg.interval_ramp;
  }

  // Ingress: accelerator + replicator. Only CPU-injected or recirculating
  // packets take this path (the hardware analogue is an ingress-port
  // match).
  const std::uint16_t cpu_port = rmt::SwitchAsic::kCpuPort;
  auto& asic = asic_;
  auto& sender_tbl = asic_.ingress().add_table(
      "htps_sender", net::FieldId::kMetaTemplateId,
      std::max<std::size_t>(n, 1), [&asic, cpu_port](const rmt::Phv& phv) {
        const auto iport = static_cast<std::uint16_t>(phv.get(net::FieldId::kMetaIngressPort));
        return iport == cpu_port || asic.is_recirc_port(iport);
      });
  sender_tbl.set_hints({.role = rmt::TableHints::Role::kHtpsSender});
  for (std::uint32_t t = 0; t < n; ++t) {
    sender_tbl.add_entry(t, [this, t](rmt::ActionContext& ctx) { ingress_action(t, ctx); });
  }

  // Egress: editor. Runs only on replicas leaving a front-panel port.
  const std::size_t front_ports = asic_.port_count();
  auto& editor_tbl = asic_.egress().add_table(
      "htps_editor", net::FieldId::kMetaTemplateId,
      std::max<std::size_t>(n, 1), [front_ports](const rmt::Phv& phv) {
        return phv.get(net::FieldId::kMetaEgressPort) < front_ports &&
               phv.packet->meta().is_template;
      });
  editor_tbl.set_hints({.role = rmt::TableHints::Role::kHtpsEditor});
  for (std::uint32_t t = 0; t < n; ++t) {
    editor_tbl.add_entry(t, [this, t](rmt::ActionContext& ctx) { egress_action(t, ctx); });
  }

  // Structural resource declarations (Table 7 accounting).
  asic_.resources().add("htps.accelerator",
                        {.match_crossbar_bits = 19, .sram_kb = 41, .vliw_slots = 2,
                         .hash_bits = 8});
  for (std::uint32_t t = 0; t < n; ++t) {
    const bool timed = templates_[t].interval_ns > 0;
    rmt::ResourceUsage rep{.match_crossbar_bits = timed ? 75.0 : 10.0,
                           .sram_kb = timed ? 244.0 : 82.0,
                           .vliw_slots = timed ? 8.0 : 4.0,
                           .hash_bits = timed ? 24.0 : 8.0,
                           .salu = timed ? 1.0 : 0.0,
                           .gateway = timed ? 1.2 : 0.0};
    asic_.resources().add("htps.replicator", rep);
    for (const EditOp& op : templates_[t].edits) {
      rmt::ResourceUsage ed{.vliw_slots = 2.0};
      switch (op.kind) {
        case EditOp::Kind::kList:
          ed.sram_kb = 120.0 + static_cast<double>(op.values.size()) * 12.0 / 1024.0;
          ed.match_crossbar_bits = 56;
          break;
        case EditOp::Kind::kRange:
          ed.tcam_kb = 17.0;
          ed.sram_kb = 120.0;
          ed.match_crossbar_bits = 56;
          break;
        case EditOp::Kind::kRandom:
          ed.tcam_kb = 25.0 + static_cast<double>(op.distribution.bucket_count()) * 8.0 / 1024.0;
          ed.sram_kb = 120.0;
          ed.match_crossbar_bits = 56;
          ed.hash_bits = op.distribution.rng_bits();
          break;
        case EditOp::Kind::kFromTrigger:
          ed.match_crossbar_bits = 16;
          break;
        case EditOp::Kind::kFromMetadata:
          ed.match_crossbar_bits = 0;
          break;
        case EditOp::Kind::kRecordTimestamp:
          ed.sram_kb = static_cast<double>(op.state_size) * 8.0 / 1024.0;
          ed.match_crossbar_bits = 16;
          ed.salu = 1.0;
          break;
      }
      asic_.resources().add("htps.editor", ed);
    }
  }
}

void Sender::start() {
  if (!installed_) throw std::logic_error("Sender: start before install");
  for (auto& cfg : templates_) {
    auto pkt = net::make_packet(cfg.spec.materialize());
    asic_.inject_from_cpu(std::move(pkt));
  }
}

std::uint64_t Sender::fires(std::uint32_t tid) const { return fires_->read(tid); }

std::uint64_t Sender::loop_copies(std::uint32_t tid) const {
  return loop_count_->read(tid) + 1;
}

bool Sender::done(std::uint32_t tid) const {
  const auto& cfg = templates_.at(tid);
  return cfg.fire_limit > 0 && fires(tid) >= cfg.fire_limit;
}

void Sender::ingress_action(std::uint32_t tid, rmt::ActionContext& ctx) {
  rmt::PhvActionCtx a{ctx};
  ingress_core(tid, a);
}

void Sender::egress_action(std::uint32_t tid, rmt::ActionContext& ctx) {
  rmt::PhvActionCtx a{ctx};
  egress_core(tid, a);
}

}  // namespace ht::htps
