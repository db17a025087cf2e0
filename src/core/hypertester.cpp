#include "core/hypertester.hpp"

#include <stdexcept>

#include "net/packet_pool.hpp"
#include "sim/snapshot.hpp"
#include "telemetry/export.hpp"

namespace ht {

HyperTester::HyperTester(TesterConfig cfg)
    : HyperTester(cfg, std::make_unique<sim::ShardGroup>(1)) {}

HyperTester::HyperTester(TesterConfig cfg, std::unique_ptr<sim::ShardGroup> owned)
    : HyperTester(cfg, owned->shard(0)) {
  owned_group_ = std::move(owned);
}

HyperTester::HyperTester(TesterConfig cfg, sim::Shard& shard)
    : home_(&shard),
      ev_(shard.ev()),
      asic_(ev_, cfg.asic),
      controller_(asic_),
      cfg_fastpath_(cfg.fastpath) {
  auto& m = asic_.metrics();
  controller_.register_metrics(m);
  // Always 0; registered only so pinned Prometheus text and digests keep their bytes.
  m.mirror_counter("ht_run_retries_total", [] { return std::uint64_t{0}; },
                   {.help = "stalled run slices retried with backoff"});
  m.mirror_counter("ht_run_failures_total", [] { return std::uint64_t{0}; },
                   {.help = "supervised runs that gave up (FailureReport emitted)"});
  m.mirror_counter("ht_crash_events_total", [this] { return crash_events_; },
                   {.help = "process-level faults applied to this tester"});
  m.mirror_gauge("ht_tester_crashed",
                 [this] { return static_cast<std::int64_t>(crashed_ ? 1 : 0); },
                 {.help = "1 while the tester is crashed (all ports admin-down)"});
}

void HyperTester::run_for(sim::TimeNs duration) {
  const sim::TimeNs start = ev_.now();
  home_->group().run_until(start + duration);
  if (asic_.trace().enabled()) {
    asic_.trace().complete("run_for", start, ev_.now() - start,
                           telemetry::TraceRecorder::kTrackTask);
  }
}

void HyperTester::load(const ntapi::Task& task) {
  if (compiled_) throw std::logic_error("HyperTester: a task is already loaded");
  // Everything load() allocates — template packets above all — must live
  // in the home shard's pool so later releases on the shard's worker
  // thread stay shard-local.
  net::PoolBinding bind(&home_->pool());
  ntapi::Compiler compiler(asic_.config());
  compiled_ = compiler.compile(task);
  compiled_->annotate_trace(asic_.trace(), ev_.now());

  sender_ = std::make_unique<htps::Sender>(asic_);
  receiver_ = std::make_unique<htpr::Receiver>(asic_);

  // Trigger FIFOs for stateless connections: create them first so both
  // sides can be wired.
  std::map<std::size_t, regfifo::RegisterFifo*> fifo_of_trigger;
  std::map<std::size_t, std::vector<htpr::TriggerExtract>> extracts_of_query;
  for (const auto& wiring : compiled_->fifos) {
    fifos_.push_back(std::make_unique<regfifo::RegisterFifo>(
        asic_.registers(), "trigfifo." + std::to_string(wiring.trigger_index), wiring.capacity,
        wiring.lanes.size()));
    regfifo::RegisterFifo* fifo = fifos_.back().get();
    fifo_of_trigger[wiring.trigger_index] = fifo;
    extracts_of_query[wiring.query_index].push_back({.fifo = fifo, .lanes = wiring.lanes});
  }
  for (const auto& f : fifos_) {
    const regfifo::RegisterFifo* fifo = f.get();
    asic_.metrics().mirror_counter(
        "ht_regfifo_overflows_total", [fifo] { return fifo->overflows(); },
        {.labels = {{"fifo", fifo->name()}},
         .help = "trigger records lost to a full register FIFO",
         .drop_source = fifo->name() + ".overflows"});
  }

  // HTPS: install templates (editor EditOps already reference lane
  // indexes computed by the compiler).
  for (std::size_t t = 0; t < compiled_->templates.size(); ++t) {
    htps::TemplateConfig cfg = compiled_->templates[t];
    const auto it = fifo_of_trigger.find(t);
    if (it != fifo_of_trigger.end()) cfg.trigger_fifo = it->second;
    sender_->add_template(std::move(cfg));
  }
  sender_->install();

  // HTPR: install queries; attach trigger extraction where wired. When the
  // chaos profile flips bits on the wire, received queries arm checksum
  // re-verification so corruption lands in a per-query counter instead of
  // the aggregate.
  const bool chaos_corrupts =
      compiled_->chaos && compiled_->chaos->config.corrupt.rate > 0.0;
  for (std::size_t q = 0; q < compiled_->queries.size(); ++q) {
    htpr::QueryConfig cfg = compiled_->queries[q].config;
    if (chaos_corrupts && cfg.source == htpr::QueryConfig::Source::kReceived) {
      cfg.integrity.verify_checksums = true;
    }
    const auto it = extracts_of_query.find(q);
    if (it != extracts_of_query.end()) {
      cfg.triggers.insert(cfg.triggers.end(), it->second.begin(), it->second.end());
    }
    receiver_->add_query(std::move(cfg));
  }
  receiver_->install();

  // Exact-key-matching entries + CPU-side eviction collection.
  for (std::size_t q = 0; q < compiled_->queries.size(); ++q) {
    const auto& cq = compiled_->queries[q];
    if (auto* store = receiver_->store(q)) {
      store->install_exact_entries(cq.exact_keys);
      const std::uint32_t type = cq.config.store.eviction_digest_type;
      controller_.subscribe(type, [this, type](const rmt::DigestMessage& msg) {
        if (msg.values.size() >= 2) evicted_[type][msg.values[0]] += msg.values[1];
      });
    }
  }

  // Feasibility: the program must fit the physical stages (§6.1).
  if (!asic_.ingress().place() || !asic_.egress().place()) {
    throw std::runtime_error(
        "task rejected: pipeline program does not fit the switching ASIC stages");
  }

  // Per-table occupancy/hit/miss metrics exist only after placement
  // assigned stages.
  asic_.ingress().register_metrics(asic_.metrics());
  asic_.egress().register_metrics(asic_.metrics());

  // Task-compiled fast path: specialize the per-packet walk per template
  // using the compiler's fusion plan. Templates the plan or binder could
  // not prove safe stay on the interpreted path (HT205 names why).
  if (cfg_fastpath_) {
    fastpath_ = std::make_unique<rmt::fastpath::Engine>();
    fastpath_->bind(asic_, *sender_, *receiver_, compiled_->fused);
    asic_.set_fastpath(fastpath_.get());
  }
}

void HyperTester::start() {
  if (!sender_) throw std::logic_error("HyperTester: no task loaded");
  net::PoolBinding bind(&home_->pool());
  apply_chaos();
  sender_->start();
}

void HyperTester::apply_chaos() {
  if (!chaos_links_.empty()) return;  // already attached
  if (!compiled_ || !compiled_->chaos || !compiled_->chaos->config.any()) return;
  const ntapi::ChaosSpec& spec = *compiled_->chaos;
  std::vector<std::uint16_t> ports = spec.ports;
  if (ports.empty()) {
    for (std::size_t p = 0; p < asic_.port_count(); ++p) {
      const auto pid = static_cast<std::uint16_t>(p);
      if (asic_.port(pid).peer() != nullptr) ports.push_back(pid);
    }
  }
  // One injector per direction, seeded from the profile seed so the whole
  // chaos run reproduces from a single number.
  const auto derived = [&spec](std::uint16_t port, unsigned dir) {
    return spec.config.seed ^ (0x9e3779b97f4a7c15ULL * (2ULL * port + dir + 1));
  };
  for (const std::uint16_t p : ports) {
    sim::Port& tx = asic_.port(p);
    sim::FaultConfig cfg = spec.config;
    cfg.seed = derived(p, 0);
    chaos_links_.push_back(
        {"port" + std::to_string(p) + ".tx", std::make_unique<sim::FaultInjector>(ev_, cfg)});
    chaos_links_.back().injector->attach(tx);
    if (sim::Port* peer = tx.peer(); peer != nullptr && peer != &tx) {
      cfg.seed = derived(p, 1);
      chaos_links_.push_back(
          {"port" + std::to_string(p) + ".rx", std::make_unique<sim::FaultInjector>(ev_, cfg)});
      chaos_links_.back().injector->attach(*peer);
    }
  }

  // Per-link fault stats join the registry: the drop-flavoured ones under
  // their legacy "<link>.fault_<kind>" audit source names, plus the
  // aggregate offered/delivered pair the throughput benches consume
  // instead of re-summing injector stats by hand.
  auto& m = asic_.metrics();
  for (const auto& link : chaos_links_) {
    const sim::FaultInjector* inj = link.injector.get();
    const std::vector<telemetry::Label> labels = {{"link", link.name}};
    m.mirror_counter("ht_chaos_lost_total", [inj] { return inj->stats().lost; },
                     {.labels = labels, .help = "Bernoulli + Gilbert-Elliott losses",
                      .drop_source = link.name + ".fault_lost"});
    m.mirror_counter("ht_chaos_flap_drops_total", [inj] { return inj->stats().flap_drops; },
                     {.labels = labels, .help = "packets dropped while the link was down",
                      .drop_source = link.name + ".fault_flap_drops"});
    m.mirror_counter("ht_chaos_corrupted_total", [inj] { return inj->stats().corrupted; },
                     {.labels = labels, .help = "packets bit-flipped on the wire",
                      .drop_source = link.name + ".fault_corrupted"});
    m.mirror_counter("ht_chaos_duplicated_total", [inj] { return inj->stats().duplicated; },
                     {.labels = labels, .help = "packets duplicated on the wire",
                      .drop_source = link.name + ".fault_duplicated"});
    m.mirror_counter("ht_chaos_reordered_total", [inj] { return inj->stats().reordered; },
                     {.labels = labels, .help = "packets delivered out of order",
                      .drop_source = link.name + ".fault_reordered"});
  }
  m.mirror_counter("ht_chaos_offered_total",
                   [this] {
                     std::uint64_t total = 0;
                     for (const auto& link : chaos_links_) total += link.injector->stats().offered;
                     return total;
                   },
                   {.help = "packets entering any chaos injector"});
  m.mirror_counter("ht_chaos_delivered_total",
                   [this] {
                     std::uint64_t total = 0;
                     for (const auto& link : chaos_links_)
                       total += link.injector->stats().delivered;
                     return total;
                   },
                   {.help = "packets the chaos injectors handed to their destination"});
}

std::uint64_t HyperTester::query_total(ntapi::QueryHandle q) const {
  return receiver_->keyless_total(q.index);
}

std::uint64_t HyperTester::query_matched(ntapi::QueryHandle q) const {
  return receiver_->matched(q.index);
}

std::uint64_t HyperTester::query_distinct(ntapi::QueryHandle q) const {
  const auto* store = receiver_->store(q.index);
  if (store == nullptr) throw std::logic_error("query_distinct on a keyless query");
  const auto type = compiled_->queries[q.index].config.store.eviction_digest_type;
  const auto it = evicted_.find(type);
  return store->distinct_count(it == evicted_.end() ? empty_evictions_ : it->second);
}

std::uint64_t HyperTester::query_value(ntapi::QueryHandle q,
                                       const std::vector<std::uint64_t>& key) const {
  const auto* store = receiver_->store(q.index);
  if (store == nullptr) throw std::logic_error("query_value on a keyless query");
  const auto type = compiled_->queries[q.index].config.store.eviction_digest_type;
  const auto it = evicted_.find(type);
  return store->total_for_key(key, it == evicted_.end() ? empty_evictions_ : it->second);
}

// --- run lifecycle: crash faults + snapshots (DESIGN.md §14) ---------------

void HyperTester::set_ports_admin(bool up, bool include_recirc) {
  for (std::size_t p = 0; p < asic_.port_count(); ++p) {
    asic_.port(static_cast<std::uint16_t>(p)).set_admin_up(up);
  }
  // On a crash, recirculation goes down too: a dead tester must stop its
  // own packet loops, not just its front-panel traffic. A stall keeps the
  // loops alive — they are how recirculation-driven templates resume.
  if (include_recirc) asic_.set_recirc_admin(up);
}

void HyperTester::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++crash_events_;
  set_ports_admin(false);
}

void HyperTester::reboot_switch() {
  crash();
  // Volatile-state loss: every register array — HTPS schedules, HTPR
  // aggregates, trigger FIFOs — reads zero afterwards, like SRAM after a
  // power cycle. CPU DRAM (evicted_) survives; it lives off-switch.
  auto& regs = asic_.registers();
  for (const auto& name : regs.names()) regs.get(name).fill(0);
}

void HyperTester::partition_controller(sim::TimeNs duration) {
  ++crash_events_;
  controller_.set_partitioned(true);
  ev_.schedule_in(duration, [this] { controller_.set_partitioned(false); });
}

void HyperTester::stall(sim::TimeNs duration) {
  ++crash_events_;
  set_ports_admin(false, /*include_recirc=*/false);
  ev_.schedule_in(duration, [this] {
    if (!crashed_) set_ports_admin(true, /*include_recirc=*/false);
  });
}

void HyperTester::apply_crash_plan(const sim::CrashPlan& plan, std::size_t self_index) {
  for (const sim::CrashEvent& e : plan.events) {
    if (e.tester != self_index) continue;
    const sim::TimeNs d = e.duration_ns;
    switch (e.kind) {
      case sim::CrashKind::kTesterCrash:
        ev_.schedule_at(e.at_ns, [this] { crash(); });
        break;
      case sim::CrashKind::kSwitchReboot:
        ev_.schedule_at(e.at_ns, [this] { reboot_switch(); });
        break;
      case sim::CrashKind::kControllerPartition:
        ev_.schedule_at(e.at_ns, [this, d] { partition_controller(d); });
        break;
      case sim::CrashKind::kShardStall:
        ev_.schedule_at(e.at_ns, [this, d] { stall(d); });
        break;
    }
  }
}

void HyperTester::write_state(sim::SnapshotWriter& w, const std::string& label) {
  const rmt::AsicConfig& cfg = asic_.config();
  w.begin_section(label + ".meta");
  w.str(compiled_ ? compiled_->name : "");
  w.u64(cfg.num_ports);
  w.u64(cfg.seed);
  w.u8(cfg_fastpath_ ? 1 : 0);
  w.u8(crashed_ ? 1 : 0);

  // Every register array, cell-exact, in sorted name order: this one
  // section covers all HTPS schedules, HTPR aggregates, FIFO contents, and
  // counter-store SRAM — registers are the only mutable data-plane state.
  w.begin_section(label + ".registers");
  auto& regs = asic_.registers();
  const std::vector<std::string> names = regs.names();
  w.u64(names.size());
  for (const std::string& name : names) {
    const rmt::RegisterArray& a = regs.get(name);
    w.str(name);
    w.u32(a.bit_width());
    w.u64(a.salu_executions());
    std::vector<std::uint64_t> cells(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) cells[i] = a.read(i);
    w.u64_vec(cells);
  }

  w.begin_section(label + ".ports");
  const auto write_port = [&w](sim::Port& p) {
    w.u64(p.tx_packets());
    w.u64(p.tx_bytes());
    w.u64(p.tx_line_bytes());
    w.u64(p.tx_completed_line_bytes());
    w.u64(p.rx_packets());
    w.u64(p.rx_bytes());
    w.u64(p.dropped_no_peer());
    w.u64(p.dropped_queue_full());
    w.u64(p.rx_fcs_drops());
    w.u64(p.dropped_admin_down());
    w.f64(p.busy_until());  // MAC credit clock, bit-exact
    w.u8(p.admin_up() ? 1 : 0);
  };
  w.u64(asic_.port_count());
  for (std::size_t p = 0; p < asic_.port_count(); ++p) {
    write_port(asic_.port(static_cast<std::uint16_t>(p)));
  }
  // Recirculation channels are not Ports; capture their serializer clocks
  // and loop counts (plus the admin gate) so a restored run resumes every
  // in-flight loop at the exact same phase.
  w.u64(asic_.recirc_channel_count());
  for (std::size_t c = 0; c < asic_.recirc_channel_count(); ++c) {
    w.f64(asic_.recirc_busy_until(c));
    w.u64(asic_.recirc_loops(c));
  }
  w.u8(asic_.recirc_admin_up() ? 1 : 0);
  w.u64(asic_.recirc_admin_drops());

  w.begin_section(label + ".asic");
  w.u64(asic_.ingress_packets());
  w.u64(asic_.egress_packets());
  w.u64(asic_.dropped_packets());
  w.u64(asic_.recirculations());
  w.u64(asic_.replicas_created());
  w.u64(asic_.injected_drops());

  w.begin_section(label + ".htps");
  w.u64(sender_ ? sender_->template_count() : 0);
  if (sender_) {
    for (std::size_t t = 0; t < sender_->template_count(); ++t) {
      const auto tid = static_cast<std::uint32_t>(t);
      w.u64(sender_->fires(tid));
      w.u8(sender_->done(tid) ? 1 : 0);
    }
  }

  w.begin_section(label + ".htpr");
  w.u64(receiver_ ? receiver_->query_count() : 0);
  if (receiver_) {
    for (std::size_t q = 0; q < receiver_->query_count(); ++q) {
      w.u64(receiver_->evaluated(q));
      w.u64(receiver_->matched(q));
      w.u64(receiver_->checksum_fails(q));
      w.u64(receiver_->out_of_window(q));
      const htpr::CounterStore* store = receiver_->store(q);
      if (store == nullptr) {
        w.u8(0);
        w.u64(receiver_->keyless_total(q));
      } else {
        w.u8(1);
        w.u64(store->updates());
        w.u64(store->exact_hits());
        w.u64(store->fifo_pushes());
        w.u64(store->cpu_evictions());
        w.u64_map(store->dump_fingerprints());
      }
    }
  }
  // CPU DRAM: evictions folded by the digest subscriptions. Survives a
  // switch reboot, so it is serialized apart from the register image.
  w.u64(evicted_.size());
  for (const auto& [type, counts] : evicted_) {
    w.u32(type);
    w.u64_map(counts);
  }

  w.begin_section(label + ".controller");
  w.u64(controller_.rpc_lost());
  w.u64(controller_.digest_count());
  w.u64_map(controller_.evicted_counters());

  // Every RNG stream owned by this tester: the ASIC's (MAC jitter, timing
  // noise) and one per chaos injector. Byte-exact stream positions are
  // what make "replay reproduces the run" more than a hope.
  w.begin_section(label + ".rng");
  w.str(asic_.rng().state_string());
  w.u64(chaos_links_.size());
  for (const auto& link : chaos_links_) {
    w.str(link.name);
    w.str(link.injector->rng_state_string());
    w.u8(link.injector->link_up() ? 1 : 0);
    w.u8(link.injector->gilbert_bad() ? 1 : 0);
    const sim::FaultStats& fs = link.injector->stats();
    w.u64(fs.offered);
    w.u64(fs.delivered);
    w.u64(fs.lost);
    w.u64(fs.reordered);
    w.u64(fs.duplicated);
    w.u64(fs.corrupted);
    w.u64(fs.flap_drops);
  }

  w.begin_section(label + ".telemetry");
  w.str(telemetry::to_prometheus(asic_.metrics()));
}

std::uint64_t HyperTester::state_digest() {
  sim::SnapshotWriter w;
  write_state(w, "t");
  return w.digest();
}

std::uint64_t HyperTester::trigger_fires(ntapi::TriggerHandle t) const {
  return sender_->fires(static_cast<std::uint32_t>(t.index));
}

bool HyperTester::trigger_done(ntapi::TriggerHandle t) const {
  return sender_->done(static_cast<std::uint32_t>(t.index));
}

}  // namespace ht
