// HyperTester: the public facade of the library.
//
// One instance is one programmable-switch tester (Fig 1): the switching
// ASIC model, the switch CPU, HTPS, HTPR, and the NTAPI compiler, wired
// together. Typical use:
//
//   ht::HyperTester tester;
//   // connect tester.asic().port(i) to your devices under test
//   ht::ntapi::Task task = ht::apps::throughput_test(...);
//   tester.load(task);
//   tester.start();
//   tester.run_for(ht::sim::seconds(1));
//   auto bytes = tester.query_total(q1);
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "htpr/receiver.hpp"
#include "htps/sender.hpp"
#include "ntapi/compiler.hpp"
#include "regfifo/register_fifo.hpp"
#include "rmt/asic.hpp"
#include "rmt/fastpath/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"
#include "switchcpu/controller.hpp"

namespace ht {

struct TesterConfig {
  rmt::AsicConfig asic;
  /// Run fusable templates on the task-compiled fast path (DESIGN.md §12).
  /// Off = every packet takes the interpreted reference walk; results are
  /// byte-identical either way (tests/fastpath_diff_test.cpp).
  bool fastpath = true;
};

class HyperTester {
 public:
  /// A standalone tester: the same tester as one placed on shard 0 of a
  /// private one-shard group that it owns (DESIGN.md §13).
  explicit HyperTester(TesterConfig cfg = {});
  /// Place the tester on a shard of an existing ShardGroup (used by
  /// TesterCluster, core/cluster.hpp). All of the tester's components run
  /// on that shard's queue and allocate from that shard's packet pool.
  HyperTester(TesterConfig cfg, sim::Shard& shard);

  // --- infrastructure access -------------------------------------------------
  sim::EventQueue& events() { return ev_; }
  /// The engine driving this tester: its own internal group (standalone)
  /// or the cluster's (placed). run_for advances it.
  sim::ShardGroup& shard_group() { return home_->group(); }
  const sim::ShardGroup& shard_group() const { return home_->group(); }
  rmt::SwitchAsic& asic() { return asic_; }
  switchcpu::Controller& controller() { return controller_; }
  htps::Sender& sender() { return *sender_; }
  htpr::Receiver& receiver() { return *receiver_; }
  const ntapi::CompiledTask& compiled() const { return compiled_.value(); }

  // --- telemetry -------------------------------------------------------------
  /// The tester-wide metrics registry (owned by the ASIC; every attached
  /// component registers there — DESIGN.md §10). Single source of truth
  /// for counters, gauges, latency histograms, and the drop audit trail
  /// (metrics().drop_counters()).
  telemetry::MetricsRegistry& metrics() { return asic_.metrics(); }
  const telemetry::MetricsRegistry& metrics() const { return asic_.metrics(); }
  /// Chrome-trace recorder; enable before run_for to capture a timeline.
  telemetry::TraceRecorder& trace() { return asic_.trace(); }
  const telemetry::TraceRecorder& trace() const { return asic_.trace(); }
  /// Snapshot of the registry in both exposition formats (Prometheus
  /// text + compact JSON).
  telemetry::Report telemetry_report() const { return telemetry::make_report(asic_.metrics()); }

  /// Compile the task and install it into the switch. Throws
  /// ntapi::CompileError on invalid tasks. One task per instance.
  void load(const ntapi::Task& task);

  /// Inject the template packets (start generating).
  void start();

  /// Advance the simulated testbed. Records a "run_for" span on the task
  /// track when tracing is enabled.
  void run_for(sim::TimeNs duration);

  // --- degradation handling --------------------------------------------------
  /// One fault injector attached to a link direction by the task's chaos
  /// profile. `name` identifies the direction ("port1.tx" = tester toward
  /// the peer, "port1.rx" = peer toward the tester).
  struct ChaosLink {
    std::string name;
    std::unique_ptr<sim::FaultInjector> injector;
  };
  const std::vector<ChaosLink>& chaos_links() const { return chaos_links_; }

  // --- run lifecycle: crash faults + snapshots (DESIGN.md §14) ---------------
  /// Tester process death: every front-panel and recirculation port goes
  /// admin-down and stays down. Counters freeze; only supervisor action
  /// (restore or migrate) resumes the measurement.
  void crash();
  /// Crash plus volatile-state loss: the switch reboots and its register
  /// file — every HTPS schedule, HTPR aggregate, trigger FIFO — is wiped
  /// to zero, as a real reboot wipes SRAM.
  void reboot_switch();
  /// Control-plane partition: switch-CPU read RPCs see 100% loss for
  /// `duration`, then the path heals. The data plane keeps forwarding.
  void partition_controller(sim::TimeNs duration);
  /// Transient stall: front-panel ports admin-down for `duration`, then
  /// back up on their own — unless a real crash landed in the meantime.
  /// Recirculation keeps spinning: the pipeline is alive, only the wire is
  /// frozen, so recirculation-driven templates resume after the window. (A
  /// crash, by contrast, kills the loops — they cannot survive the
  /// process.)
  void stall(sim::TimeNs duration);
  /// Schedule every event of `plan` whose `tester` field equals
  /// `self_index` on this tester's sim clock.
  void apply_crash_plan(const sim::CrashPlan& plan, std::size_t self_index = 0);
  bool crashed() const { return crashed_; }

  /// Serialize the tester's full replay-invariant state into `w` as one
  /// group of sections prefixed with `label` ("t0.registers", ...):
  /// meta, registers (cell-exact), ports, asic counters, htps, htpr
  /// (store fingerprints + CPU DRAM), controller, rng (ASIC + chaos
  /// streams), telemetry (Prometheus text). Restores are replay-based and
  /// *attest* against these bytes rather than applying them (§14).
  void write_state(sim::SnapshotWriter& w, const std::string& label);
  /// One-number FNV-1a fingerprint of write_state output.
  std::uint64_t state_digest();

  // --- results -----------------------------------------------------------------
  /// Keyless reduce total of a query (e.g. summed bytes).
  std::uint64_t query_total(ntapi::QueryHandle q) const;
  /// Packets that survived every operator of the query.
  std::uint64_t query_matched(ntapi::QueryHandle q) const;
  /// Distinct key count of a keyed distinct query.
  std::uint64_t query_distinct(ntapi::QueryHandle q) const;
  /// Per-key aggregate of a keyed reduce query (exact, §5.2).
  std::uint64_t query_value(ntapi::QueryHandle q,
                            const std::vector<std::uint64_t>& key) const;
  /// Replication events of a trigger so far.
  std::uint64_t trigger_fires(ntapi::TriggerHandle t) const;
  /// True when a bounded trigger has emitted its whole stream.
  bool trigger_done(ntapi::TriggerHandle t) const;

 private:
  HyperTester(TesterConfig cfg, std::unique_ptr<sim::ShardGroup> owned);
  void apply_chaos();
  void set_ports_admin(bool up, bool include_recirc = true);

  /// Present only for standalone testers; declared first so it outlives
  /// every component still holding pool-backed packets at destruction.
  std::unique_ptr<sim::ShardGroup> owned_group_;
  sim::Shard* home_;       ///< the shard all of this tester's events run on
  sim::EventQueue& ev_;    ///< home_->ev(), the queue components bind to
  rmt::SwitchAsic asic_;
  switchcpu::Controller controller_;
  std::unique_ptr<htps::Sender> sender_;
  std::unique_ptr<htpr::Receiver> receiver_;
  std::unique_ptr<rmt::fastpath::Engine> fastpath_;
  bool cfg_fastpath_ = true;
  std::vector<std::unique_ptr<regfifo::RegisterFifo>> fifos_;
  std::vector<ChaosLink> chaos_links_;
  std::optional<ntapi::CompiledTask> compiled_;
  /// CPU DRAM: evicted (canonical id -> count) per digest type.
  std::map<std::uint32_t, std::map<std::uint64_t, std::uint64_t>> evicted_;
  std::map<std::uint64_t, std::uint64_t> empty_evictions_;
  // --- run lifecycle ---------------------------------------------------------
  bool crashed_ = false;
  std::uint64_t crash_events_ = 0;
};

}  // namespace ht
