#include "rmt/asic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/headers.hpp"
#include "rmt/fastpath_hooks.hpp"

namespace ht::rmt {

SwitchAsic::SwitchAsic(sim::EventQueue& ev, AsicConfig cfg)
    : ev_(ev),
      cfg_(cfg),
      unicast_delay_ns_(static_cast<sim::TimeNs>(
          std::llround(cfg.timing.ingress_latency_ns + cfg.timing.tm_unicast_latency_ns))),
      egress_delay_ns_(static_cast<sim::TimeNs>(std::llround(cfg.timing.egress_latency_ns))),
      rng_(cfg.seed),
      parser_(Parser::default_graph()),
      ingress_("ingress", cfg.max_stages),
      egress_("egress", cfg.max_stages),
      digests_(ev, cfg.digest) {
  ports_.reserve(cfg_.num_ports);
  for (std::size_t i = 0; i < cfg_.num_ports; ++i) {
    auto p = std::make_unique<sim::Port>(ev_, static_cast<std::uint16_t>(i), cfg_.port_rate_gbps);
    p->on_receive = [this](net::PacketPtr pkt) { enter_ingress(std::move(pkt)); };
    ports_.push_back(std::move(p));
  }
  recirc_.resize(cfg_.num_recirc_channels);
  register_device_metrics();
}

void SwitchAsic::register_device_metrics() {
  // Registration order matters: metrics().drop_counters() reports in this
  // order, with the pipeline drops first and the per-port trio after the
  // device-wide counters.
  metrics_.mirror_counter("ht_asic_ingress_packets_total", [this] { return ingress_packets_; },
                          {.help = "packets entering the ingress pipeline"});
  metrics_.mirror_counter("ht_asic_egress_packets_total", [this] { return egress_packets_; },
                          {.help = "packets leaving the egress pipeline"});
  metrics_.mirror_counter(
      "ht_asic_pipeline_drops_total", [this] { return dropped_; },
      {.help = "packets dropped by pipeline verdict or an invalid egress port",
       .drop_source = "asic.pipeline_drops"});
  metrics_.mirror_counter(
      "ht_asic_injected_drops_total", [this] { return injected_drops_; },
      {.help = "packets dropped by the ASIC-internal fault hook before the parser",
       .drop_source = "asic.injected_drops"});
  metrics_.mirror_counter(
      "ht_asic_digest_drops_total", [this] { return digests_.dropped(); },
      {.help = "digest messages dropped on a full digest queue",
       .drop_source = "asic.digest_drops"});
  metrics_.mirror_counter("ht_asic_recirculations_total", [this] { return recirculations_; },
                          {.help = "packets looped through a recirculation channel"});
  metrics_.mirror_counter("ht_asic_replicas_total", [this] { return replicas_; },
                          {.help = "replicas created by the multicast engine"});
  for (std::size_t c = 0; c < recirc_.size(); ++c) {
    metrics_.mirror_counter(
        "ht_asic_recirc_loops_total", [this, c] { return recirc_[c].loops; },
        {.labels = {{"channel", std::to_string(c)}},
         .help = "loops through this recirculation channel"});
  }
  for (const auto& pp : ports_) {
    sim::Port* p = pp.get();
    const std::string n = std::to_string(p->id());
    const std::string prefix = "port" + n;
    metrics_.mirror_counter("ht_port_tx_packets_total", [p] { return p->tx_packets(); },
                            {.labels = {{"port", n}}, .help = "frames queued for transmission"});
    metrics_.mirror_counter("ht_port_rx_packets_total", [p] { return p->rx_packets(); },
                            {.labels = {{"port", n}}, .help = "frames delivered from the wire"});
    metrics_.mirror_gauge(
        "ht_tm_queue_depth",
        [p] { return static_cast<std::int64_t>(p->tx_queue_depth()); },
        {.labels = {{"port", n}}, .help = "frames in flight in the MAC egress queue"});
    metrics_.mirror_counter(
        "ht_port_queue_full_drops_total", [p] { return p->dropped_queue_full(); },
        {.labels = {{"port", n}}, .help = "frames tail-dropped on a full egress queue",
         .drop_source = prefix + ".queue_full"});
    metrics_.mirror_counter(
        "ht_port_no_peer_drops_total", [p] { return p->dropped_no_peer(); },
        {.labels = {{"port", n}}, .help = "frames sent with no wire attached",
         .drop_source = prefix + ".no_peer"});
    metrics_.mirror_counter(
        "ht_port_fcs_drops_total", [p] { return p->rx_fcs_drops(); },
        {.labels = {{"port", n}}, .help = "frames dropped by MAC FCS verification",
         .drop_source = prefix + ".fcs"});
    auto& h = metrics_.histogram(
        "ht_port_wire_latency_ns",
        {.labels = {{"port", n}},
         .help = "send() to last-bit-arrival per frame: queue wait + serialization + propagation"});
    p->set_telemetry(&h, &trace_);
    trace_.set_track_name(telemetry::TraceRecorder::kTrackPortBase + p->id(), "port" + n + " tx");
  }
  trace_.set_track_name(telemetry::TraceRecorder::kTrackTask, "task");
  trace_.set_track_name(telemetry::TraceRecorder::kTrackIngress, "ingress pipeline");
  trace_.set_track_name(telemetry::TraceRecorder::kTrackEgress, "egress pipeline");
  trace_.set_track_name(telemetry::TraceRecorder::kTrackRecirc, "recirculation");
}

sim::Port& SwitchAsic::port(std::uint16_t i) {
  if (i >= ports_.size()) throw std::out_of_range("SwitchAsic::port: " + std::to_string(i));
  return *ports_[i];
}

void SwitchAsic::inject_from_cpu(net::PacketPtr pkt) {
  pkt->meta().ingress_port = kCpuPort;
  const auto delay = static_cast<sim::TimeNs>(std::llround(cfg_.timing.pcie_injection_ns));
  ev_.schedule_in(delay, [this, pkt = std::move(pkt)]() mutable {
    pkt->meta().ingress_tstamp_ns = ev_.now();
    enter_ingress(std::move(pkt));
  });
}

void SwitchAsic::reset_program() {
  ingress_.clear();
  egress_.clear();
}

ActionContext SwitchAsic::make_ctx(Phv& phv) {
  return ActionContext{
      .phv = phv,
      .registers = registers_,
      .rng = rng_,
      .now = ev_.now(),
      .emit_digest =
          [this, &phv](std::uint32_t type, std::vector<std::uint64_t> values) {
            DigestMessage msg;
            msg.type = type;
            // Wire size: 8B record header plus 4B per value, matching the
            // digest formats used in the evaluation (16..256B messages).
            msg.byte_size = 8 + 4 * values.size();
            msg.values = std::move(values);
            (void)phv;
            digests_.emit(std::move(msg));
          },
  };
}

void SwitchAsic::enter_ingress(net::PacketPtr pkt) {
  if (ingress_fault_ && ingress_fault_(*pkt)) {
    ++injected_drops_;
    return;
  }
  ++ingress_packets_;
  if (trace_.enabled()) {
    trace_.complete("ingress", ev_.now(),
                    static_cast<std::uint64_t>(std::llround(cfg_.timing.ingress_latency_ns)),
                    telemetry::TraceRecorder::kTrackIngress);
  }
  if (fastpath_ != nullptr) {
    IntrinsicMeta im;
    if (fastpath_->try_ingress(pkt, im)) {
      // Fused pass: no Phv was built, so `pkt` is the only live reference
      // and the traffic manager may recycle it as the last replica.
      to_traffic_manager(std::move(pkt), im);
      return;
    }
  }
  Phv phv = parser_.parse(pkt);
  ActionContext ctx = make_ctx(phv);
  ingress_.apply(ctx);
  Parser::deparse(phv);
  to_traffic_manager(std::move(pkt), phv.intrinsic());
}

void SwitchAsic::schedule_egress(sim::TimeNs delay, EgressReplica r) {
  ev_.schedule_in(delay, [this, r = std::move(r)]() mutable { run_egress({&r, 1}); });
}

void SwitchAsic::to_traffic_manager(net::PacketPtr pkt, IntrinsicMeta im) {
  // The TM hop is folded into the scheduling delays (ingress latency +
  // TM/mcast service time) — one event per replica instead of two.
  const double ingress = cfg_.timing.ingress_latency_ns;
  switch (im.dest) {
    case Destination::kDrop:
      ++dropped_;
      return;
    case Destination::kUnicast:
      schedule_egress(unicast_delay_ns_, EgressReplica{std::move(pkt), im.ucast_port, 0});
      return;
    case Destination::kMulticast: {
      const auto& members = mcast_.members(im.mcast_group);
      if (members.empty()) return;
      const double mean = cfg_.timing.mcast_delay_ns(pkt->size());
      // Group replicas by TM arrival tick so each distinct tick costs one
      // event instead of one per replica. Jitter is still drawn per member
      // in member order (the rng sequence is part of the determinism
      // contract), and groups are scheduled in first-occurrence order, so
      // replicas execute in exactly the order the per-replica schedule
      // produced: same-tick replicas were already consecutive by sequence.
      // The scratch vector is a member so the whole fan-out allocates
      // nothing once warm; a heap-backed group is built only for the rare
      // multi-replica tick.
      auto& reps = mcast_scratch_;
      reps.clear();
      reps.reserve(members.size());
      for (std::size_t k = 0; k < members.size(); ++k) {
        const McastMember& m = members[k];
        // The last member can reuse the original buffer when no other
        // reference is alive (fused ingress) — the jitter draw order stays
        // exactly per-member-in-member-order either way.
        const bool reuse = k + 1 == members.size() && pkt.use_count() == 1;
        auto copy = reuse ? std::move(pkt) : net::make_packet(*pkt);
        copy->meta().replica_index = m.rid;
        const double d =
            ingress + TimingModel::jittered(rng_, mean, cfg_.timing.mcast_jitter_sigma_ns);
        ++replicas_;
        reps.push_back(PendingReplica{static_cast<sim::TimeNs>(std::llround(d)),
                                      EgressReplica{std::move(copy), m.port, m.rid}});
      }
      for (std::size_t i = 0; i < reps.size(); ++i) {
        if (reps[i].r.pkt == nullptr) continue;  // already in an earlier group
        const sim::TimeNs tick = reps[i].tick;
        std::size_t same = 0;
        for (std::size_t j = i + 1; j < reps.size(); ++j) {
          if (reps[j].r.pkt != nullptr && reps[j].tick == tick) ++same;
        }
        if (same == 0) {
          schedule_egress(tick, std::move(reps[i].r));
          continue;
        }
        std::vector<EgressReplica> group;
        group.reserve(same + 1);
        for (std::size_t j = i; j < reps.size(); ++j) {
          if (reps[j].r.pkt != nullptr && reps[j].tick == tick) {
            group.push_back(std::move(reps[j].r));
          }
        }
        ev_.schedule_in(tick, [this, group = std::move(group)]() mutable { run_egress(group); });
      }
      return;
    }
  }
}

void SwitchAsic::run_egress(std::span<EgressReplica> reps) {
  const sim::TimeNs now = ev_.now();
  // Every replica in a tick group is a clone of one template packet, so
  // either the whole group is fused or none of it is: probe the first
  // replica and hold the rest to the same verdict.
  const bool fused =
      fastpath_ != nullptr && fastpath_->try_egress(reps.front().pkt, reps.front().port, now);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EgressReplica& r = reps[i];
    if (fused) {
      if (i > 0 && !fastpath_->try_egress(r.pkt, r.port, now)) {
        throw std::logic_error("SwitchAsic: mixed fused/interpreted egress group");
      }
    } else {
      // Each replica parses its own clone (equal bytes, separate buffer)
      // and runs the whole walk before the next starts, so shared state
      // (register ops, digests, rng draws) is touched in exactly the
      // per-replica-event order.
      Phv phv = parser_.parse(r.pkt);
      phv.intrinsic().rid = r.rid;
      phv.set(net::FieldId::kMetaEgressPort, r.port);
      ActionContext ctx = make_ctx(phv);
      egress_.apply(ctx);
      phv.set(net::FieldId::kMetaEgressTstamp, now);
      Parser::deparse(phv);
      // The deparser's checksum engine only matters for packets that leave
      // the box; recirculating templates skip it (their headers are
      // untouched).
      if (r.port < ports_.size()) net::fix_checksums(*r.pkt);
    }
    ++egress_packets_;
  }
  const sim::TimeNs delay = egress_delay_ns_;
  if (trace_.enabled()) {
    trace_.complete("egress", now, static_cast<std::uint64_t>(delay),
                    telemetry::TraceRecorder::kTrackEgress);
  }
  // Emission waits until every replica's pass: a loop replica's
  // recirculation jitter and an egress random edit both draw from rng_, so
  // this order is part of the byte contract. The emission time is a
  // constant offset, so emit runs inline with an explicit `now` instead of
  // through its own scheduled event — every computed timestamp
  // (egress_tstamp, wire serialization, recirc arrival) is identical, one
  // event per replica cheaper.
  const sim::TimeNs at = now + delay;
  for (EgressReplica& r : reps) emit(std::move(r.pkt), r.port, at);
}

void SwitchAsic::emit(net::PacketPtr pkt, std::uint16_t eport, sim::TimeNs now_ns) {
  if (eport == kCpuPort) {
    // The CPU punt hands off to software that reads the event clock, so it
    // keeps its own event at the emission time instead of running early.
    ev_.schedule_at(now_ns, [this, pkt = std::move(pkt)]() mutable {
      if (cpu_punt_) cpu_punt_(std::move(pkt));
    });
    return;
  }
  if (is_recirc_port(eport)) {
    if (!recirc_admin_up_) {
      ++recirc_admin_drops_;
      return;
    }
    const net::PacketMeta& m = pkt->meta();
    const auto bytes = static_cast<std::uint32_t>(pkt->size());
    Lap lap{{recirc_lap(eport, bytes, now_ns), 0}, 0, m.template_id, bytes, eport};
    // Park the copy when current registers predict an idle arrival.
    if (m.is_template && parks(lap) && fastpath_->lap_idle(lap.tid, ev_.now())) {
      lap.slot = park_slot(std::move(pkt));
      park(lap);
      return;
    }
    schedule_arrival(lap.key.at, std::move(pkt), eport);
    return;
  }
  if (eport >= ports_.size()) {
    ++dropped_;
    return;
  }
  pkt->meta().egress_port = eport;
  pkt->meta().egress_tstamp_ns = now_ns;
  ports_[eport]->send_at(now_ns, std::move(pkt));
}

sim::TimeNs SwitchAsic::recirc_lap(std::uint16_t eport, std::size_t bytes,
                                   sim::TimeNs now_ns) {
  RecircChannel& ch = recirc_[eport - kRecircPortBase];
  const double now = static_cast<double>(now_ns);
  const double start = std::max(now, ch.busy_until);
  const double ser = cfg_.timing.recirc_serialization_ns(bytes);
  ch.busy_until = start + ser;
  ++ch.loops;
  ++recirculations_;
  const double arrive = start + ser +
                        TimingModel::jittered(rng_, cfg_.timing.recirc_fixed_ns,
                                              cfg_.timing.recirc_jitter_sigma_ns);
  if (trace_.enabled() && arrive >= now) {
    trace_.complete("recirc", now_ns, static_cast<std::uint64_t>(std::llround(arrive - now)),
                    telemetry::TraceRecorder::kTrackRecirc);
  }
  return static_cast<sim::TimeNs>(std::llround(arrive));
}

void SwitchAsic::recirc_arrive(net::PacketPtr pkt, std::uint16_t eport) {
  pkt->meta().ingress_port = eport;
  pkt->meta().ingress_tstamp_ns = ev_.now();
  enter_ingress(std::move(pkt));
}

void SwitchAsic::schedule_arrival(sim::TimeNs at, net::PacketPtr pkt, std::uint16_t eport) {
  ev_.schedule_at(at, [this, pkt = std::move(pkt), eport]() mutable {
    recirc_arrive(std::move(pkt), eport);
  });
}

bool SwitchAsic::parks(const Lap& lap) const {
  // Between replays the armed event must stay at the earliest parked key,
  // so a copy due before it travels as a real event for this lap.
  return fastpath_ != nullptr && !ingress_fault_ && !(laps_armed_ && lap.key.at < armed_at_);
}

void SwitchAsic::park(const Lap& lap) {
  recirc_[lap.port - kRecircPortBase].parked.insert(
      {{lap.key.at, ev_.reserve_seq()}, lap.slot, lap.tid, lap.bytes, lap.port});
  if (!laps_running_ && !laps_armed_) arm_laps();
}

std::uint32_t SwitchAsic::park_slot(net::PacketPtr pkt) {
  if (free_slots_.empty()) {
    parked_pkts_.push_back(std::move(pkt));
    return static_cast<std::uint32_t>(parked_pkts_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  parked_pkts_[slot] = std::move(pkt);
  return slot;
}

net::PacketPtr SwitchAsic::unpark_slot(std::uint32_t slot) {
  free_slots_.push_back(slot);
  return std::move(parked_pkts_[slot]);
}

void SwitchAsic::LapQueue::insert(const Lap& lap) {
  if (size_ > mask_ || buf_.empty()) {
    std::vector<Lap> grown(std::max<std::size_t>(64, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(grown);
    mask_ = buf_.size() - 1;
    head_ = 0;
  }
  std::size_t i = size_++;
  for (; i > 0 && lap.key < buf_[(head_ + i - 1) & mask_].key; --i) {
    buf_[(head_ + i) & mask_] = buf_[(head_ + i - 1) & mask_];
  }
  buf_[(head_ + i) & mask_] = lap;
}

SwitchAsic::LapQueue* SwitchAsic::next_lap() {
  LapQueue* next = lap_egresses_.empty() ? nullptr : &lap_egresses_;
  for (RecircChannel& ch : recirc_) {
    if (!ch.parked.empty() && (next == nullptr || ch.parked.front().key < next->front().key)) {
      next = &ch.parked;
    }
  }
  return next;
}

void SwitchAsic::arm_laps() {
  const sim::EventQueue::Key key = next_lap()->front().key;
  ev_.schedule_at_key(key, [this] { run_laps(); });
  laps_armed_ = true;
  armed_at_ = key.at;
}

void SwitchAsic::run_laps() {
  laps_armed_ = false;
  laps_running_ = true;

  try {
    // The queue counted the armed event itself: it is the first replayed
    // one, at the earliest parked key. Each later one books its own.
    bool first = true;
    for (LapQueue* q = next_lap(); q != nullptr; q = next_lap(), first = false) {
      if (!first) {
        const sim::EventQueue::Key key = q->front().key;
        if (!(key < ev_.peek_head())) break;
        ev_.account_executed(key.at);
      }
      const Lap lap = q->pop();
      if (q == &lap_egresses_) {
        replay_egress(lap);
      } else {
        replay_arrival(lap);
      }
    }
  } catch (...) {
    laps_running_ = false;
    if (next_lap() != nullptr) arm_laps();
    throw;
  }
  laps_running_ = false;
  if (next_lap() != nullptr) arm_laps();
}

void SwitchAsic::replay_arrival(Lap lap) {
  std::uint16_t loop_port = 0;
  if (ingress_fault_ || fastpath_ == nullptr ||
      !fastpath_->try_idle_lap(lap.tid, lap.key.at, loop_port)) {
    // Busy (or no longer elidable): the real arrival, at its own key.
    recirc_arrive(unpark_slot(lap.slot), lap.port);
    return;
  }
  // What enter_ingress and to_traffic_manager do for an idle lap, minus the
  // pass try_idle_lap booked: the egress event's seq is reserved here, as
  // schedule_egress would have taken it.
  ++ingress_packets_;
  ++elided_laps_;
  if (trace_.enabled()) {
    trace_.complete("ingress", lap.key.at,
                    static_cast<std::uint64_t>(std::llround(cfg_.timing.ingress_latency_ns)),
                    telemetry::TraceRecorder::kTrackIngress);
  }
  lap.key = {lap.key.at + unicast_delay_ns_, ev_.reserve_seq()};
  lap.port = loop_port;
  lap_egresses_.insert(lap);
}

void SwitchAsic::replay_egress(Lap lap) {
  const sim::TimeNs now = lap.key.at;
  if (fastpath_ == nullptr || !fastpath_->try_egress(parked_pkts_[lap.slot], lap.port, now)) {
    EgressReplica r{unpark_slot(lap.slot), lap.port, 0};
    run_egress({&r, 1});
    return;
  }
  // run_egress for one fused replica bound for a recirculation channel:
  // the pass only counted itself, so what remains is emit's recirculation
  // leg. The copy stays parked without a prediction: its arrival is
  // tested anyway.
  ++egress_packets_;
  if (trace_.enabled()) {
    trace_.complete("egress", now, static_cast<std::uint64_t>(egress_delay_ns_),
                    telemetry::TraceRecorder::kTrackEgress);
  }
  if (!recirc_admin_up_) {
    ++recirc_admin_drops_;
    unpark_slot(lap.slot);
    return;
  }
  lap.key.at = recirc_lap(lap.port, lap.bytes, now + egress_delay_ns_);
  if (parks(lap)) {
    park(lap);
    return;
  }
  schedule_arrival(lap.key.at, unpark_slot(lap.slot), lap.port);
}

}  // namespace ht::rmt
