// Fast-path differential replay: every symx catalog task runs twice — once
// with the task-compiled fast path bound (TesterConfig::fastpath = true,
// the default) and once forced fully interpreted — under the *default*
// timing model (nonzero recirculation/mcast jitter), so the shared-RNG
// draw order itself is part of the contract. Both runs also replay the
// symbolic oracle's conformance injects on the receive side.
//
// The diff is exhaustive: every query counter, per-key counter-store
// fingerprint, trigger fire count, per-port replica byte stream with
// arrival timestamps, the drop audit trail, and the full Prometheus
// exposition text (modulo the ht_fastpath_* series, which only exist when
// the engine is bound). Any divergence is a fast-path correctness bug.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/symx/model.hpp"
#include "analysis/symx/oracle.hpp"
#include "apps/tasks.hpp"
#include "core/hypertester.hpp"
#include "dut/stateful/workload_server.hpp"
#include "sim/shard.hpp"
#include "sim/snapshot.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

using analysis::symx::Oracle;
using analysis::symx::TaskModel;

struct RunResult {
  std::vector<std::uint64_t> evaluated, matched, keyless, out_of_window, distinct;
  std::vector<std::map<std::uint64_t, std::uint64_t>> store_fingerprints;
  std::vector<std::uint64_t> fires;
  std::vector<std::vector<test::Arrival>> per_port;
  std::uint64_t drops = 0;
  std::string prometheus;  ///< exposition text minus ht_fastpath_* series
};

/// Drop the series only one of the two runs has (the engine registers its
/// counters when bound). Everything else must match byte-for-byte.
std::string strip_fastpath_series(const std::string& text) {
  std::istringstream in(text);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("ht_fastpath_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

RunResult run_catalog_task(const ntapi::Task& task, bool fastpath) {
  TesterConfig cfg;  // default timing: nonzero recirc/mcast jitter
  cfg.fastpath = fastpath;
  HyperTester tester(cfg);
  std::vector<std::unique_ptr<test::PortSink>> sinks;
  for (std::size_t p = 0; p < tester.asic().port_count(); ++p) {
    sinks.push_back(std::make_unique<test::PortSink>(
        tester.events(), static_cast<std::uint16_t>(1000 + p), cfg.asic.port_rate_gbps));
    sinks.back()->attach(tester.asic().port(static_cast<std::uint16_t>(p)));
  }
  tester.load(task);
  const auto& compiled = tester.compiled();

  // Receive side: the oracle's conformance injects (received-traffic
  // queries run interpreted either way; they must be untouched by the
  // engine being bound).
  TaskModel model(task, compiled, cfg.asic);
  Oracle oracle(model);
  for (const auto& c : oracle.injects()) {
    tester.asic().port(c.port).deliver(net::make_packet(net::Packet(c.bytes)));
  }

  // Send side: the fused hot loop (or the interpreted reference walk).
  tester.start();
  tester.run_for(sim::us(400));

  RunResult r;
  for (std::size_t q = 0; q < compiled.queries.size(); ++q) {
    r.evaluated.push_back(tester.receiver().evaluated(q));
    r.matched.push_back(tester.receiver().matched(q));
    r.keyless.push_back(tester.receiver().keyless_total(q));
    r.out_of_window.push_back(tester.receiver().out_of_window(q));
    if (const auto* store = tester.receiver().store(q)) {
      r.distinct.push_back(tester.query_distinct(ntapi::QueryHandle{q}));
      r.store_fingerprints.push_back(store->dump_fingerprints());
    } else {
      r.distinct.push_back(0);
      r.store_fingerprints.emplace_back();
    }
  }
  for (std::size_t t = 0; t < compiled.templates.size(); ++t) {
    r.fires.push_back(tester.trigger_fires(ntapi::TriggerHandle{t}));
  }
  for (const auto& sink : sinks) r.per_port.push_back(sink->arrivals());
  r.drops = tester.asic().dropped_packets();
  r.prometheus = strip_fastpath_series(tester.telemetry_report().prometheus);

  // Every catalog task is expected to fuse: the engine must report real
  // fused work, or the "diff" would be interpreted-vs-interpreted.
  // (Receive-only tasks fuse vacuously and run zero fused passes.)
  if (fastpath) {
    const std::string full = tester.telemetry_report().prometheus;
    EXPECT_NE(full.find("ht_fastpath_fused_tasks_total 1"), std::string::npos) << full;
    if (!compiled.templates.empty()) {
      EXPECT_EQ(full.find("ht_fastpath_fused_pkts_total 0\n"), std::string::npos);
    }
  }
  return r;
}

TEST(FastpathDiff, CatalogByteIdenticalAcrossPaths) {
  for (const auto& cc : test::catalog()) {
    SCOPED_TRACE(cc.name);
    const RunResult fused = run_catalog_task(cc.task, /*fastpath=*/true);
    const RunResult interp = run_catalog_task(cc.task, /*fastpath=*/false);

    EXPECT_EQ(fused.evaluated, interp.evaluated);
    EXPECT_EQ(fused.matched, interp.matched);
    EXPECT_EQ(fused.keyless, interp.keyless);
    EXPECT_EQ(fused.out_of_window, interp.out_of_window);
    EXPECT_EQ(fused.distinct, interp.distinct);
    EXPECT_EQ(fused.store_fingerprints, interp.store_fingerprints);
    EXPECT_EQ(fused.fires, interp.fires);
    EXPECT_EQ(fused.drops, interp.drops);

    ASSERT_EQ(fused.per_port.size(), interp.per_port.size());
    for (std::size_t p = 0; p < fused.per_port.size(); ++p) {
      SCOPED_TRACE("port " + std::to_string(p));
      ASSERT_EQ(fused.per_port[p].size(), interp.per_port[p].size());
      for (std::size_t i = 0; i < fused.per_port[p].size(); ++i) {
        EXPECT_EQ(fused.per_port[p][i].at, interp.per_port[p][i].at)
            << "arrival time of replica " << i;
        EXPECT_EQ(fused.per_port[p][i].bytes, interp.per_port[p][i].bytes)
            << "bytes of replica " << i;
      }
    }

    EXPECT_EQ(fused.prometheus, interp.prometheus);
  }
}

// ---------------------------------------------------------------------------
// Lap skeleton (DESIGN.md §8): on the fused path, idle recirculation laps
// are replayed at their exact (time, seq) keys without a queue event or a
// pipeline pass. Each testbed runs three ways:
//  * kElided — the default fused path;
//  * kUnelided — fused, with a pass-through ingress fault hook set, which
//    keeps every copy out of the skeleton (a lap is only elided when no
//    fault hook could see it) without changing anything else;
//  * kInterpreted — the reference walk.
// kElided must match kUnelided byte for byte, state_digest and the event
// count included, and kInterpreted on everything except the fast-path
// facts (the .meta flag and the ht_fastpath_* series).

enum class LapPath { kElided, kUnelided, kInterpreted };

struct LapRun {
  /// write_state sections, minus .meta and with .telemetry stripped of
  /// the ht_fastpath_* series.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t elided = 0;
  std::vector<test::Arrival> arrivals;  ///< frames reaching the DUT side
  std::uint64_t server_fingerprint = 0;
  /// (time, value) of every draw the tie probe took from the ASIC's RNG.
  std::vector<std::pair<sim::TimeNs, std::uint64_t>> probe;
};

TesterConfig lap_config(LapPath path, std::size_t recirc_channels) {
  TesterConfig cfg;  // default timing: nonzero recirc/mcast jitter
  cfg.asic.num_ports = 2;
  cfg.asic.num_recirc_channels = recirc_channels;
  cfg.fastpath = path != LapPath::kInterpreted;
  return cfg;
}

void hold_off_elision(HyperTester& tester, LapPath path) {
  if (path == LapPath::kUnelided) {
    tester.asic().set_ingress_fault([](const net::Packet&) { return false; });
  }
}

void collect_state(HyperTester& tester, LapRun& r) {
  sim::SnapshotWriter w;
  tester.write_state(w, "t");
  for (const auto& [name, bytes] : w.sections()) {
    if (name == "t.meta") continue;
    if (name == "t.telemetry") {
      const std::string text = strip_fastpath_series(tester.telemetry_report().prometheus);
      r.sections.emplace_back(name, std::vector<std::uint8_t>(text.begin(), text.end()));
      continue;
    }
    r.sections.emplace_back(name, bytes);
  }
  r.digest = tester.state_digest();
  r.events = tester.events().executed();
  r.elided = tester.asic().elided_laps();
}

/// An L7 task against a WorkloadServer on port 1, every frame the server
/// receives recorded with its arrival time.
LapRun run_l7_lap(const ntapi::Task& task, std::size_t recirc_channels, sim::TimeNs duration,
                  LapPath path) {
  HyperTester tester(lap_config(path, recirc_channels));
  hold_off_elision(tester, path);
  dut::stateful::WorkloadConfig wcfg;
  wcfg.num_ports = 1;
  wcfg.server_error_every = 3;
  wcfg.not_found_every = 5;
  wcfg.dns_nxdomain_every = 2;
  dut::stateful::WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  LapRun r;
  sim::Port& sp = server.port(0);
  sp.on_receive = [&r, &tester, serve = sp.on_receive](net::PacketPtr pkt) {
    const auto bytes = pkt->bytes();
    r.arrivals.push_back({tester.events().now(), {bytes.begin(), bytes.end()}});
    serve(std::move(pkt));
  };
  server.start();
  tester.load(task);
  tester.start();
  tester.run_for(duration);
  collect_state(tester, r);
  r.server_fingerprint = server.fingerprint();
  return r;
}

void expect_same_lap_run(const LapRun& elided, const LapRun& other, bool same_path) {
  ASSERT_EQ(elided.sections.size(), other.sections.size());
  for (std::size_t i = 0; i < elided.sections.size(); ++i) {
    EXPECT_EQ(elided.sections[i].first, other.sections[i].first);
    EXPECT_TRUE(elided.sections[i].second == other.sections[i].second)
        << "section " << elided.sections[i].first << " differs";
  }
  EXPECT_EQ(elided.arrivals, other.arrivals);
  EXPECT_EQ(elided.server_fingerprint, other.server_fingerprint);
  EXPECT_EQ(elided.probe, other.probe);
  EXPECT_EQ(elided.events, other.events);
  if (same_path) {
    EXPECT_EQ(elided.digest, other.digest);
  }
}

TEST(LapSkeleton, L7TasksMatchUnelidedAndInterpreted) {
  struct Case {
    std::string name;
    ntapi::Task task;
    std::size_t channels;
    sim::TimeNs duration;
  };
  std::vector<Case> cases;
  cases.push_back({"http_cps",
                   apps::http_cps(0x0C0C0C0C, 80, 0x0A000000, 256, {1}, {{20'000, 1'000}, {0, 400}})
                       .task,
                   2, sim::us(300)});
  cases.push_back({"http_rps",
                   apps::http_rps(0x0C0C0C0C, 80, 0x0B000000, 64, {1}, /*request_interval_ns=*/700,
                                  /*open_interval_ns=*/300)
                       .task,
                   3, sim::us(300)});
  cases.push_back(
      {"dns_rps", apps::dns_rps(0x0C0C0C0C, 0x0B100000, 64, {1}, /*interval_ns=*/900).task, 1,
       sim::us(300)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const LapRun elided = run_l7_lap(c.task, c.channels, c.duration, LapPath::kElided);
    const LapRun unelided = run_l7_lap(c.task, c.channels, c.duration, LapPath::kUnelided);
    const LapRun interp = run_l7_lap(c.task, c.channels, c.duration, LapPath::kInterpreted);
    EXPECT_GT(elided.elided, 1000u) << "the skeleton never engaged";
    EXPECT_EQ(unelided.elided, 0u);
    EXPECT_GT(elided.arrivals.size(), 10u);
    expect_same_lap_run(elided, unelided, /*same_path=*/true);
    expect_same_lap_run(elided, interp, /*same_path=*/false);
  }
}

/// Four timer templates sharing one recirculation channel — a constant
/// interval, a random inter-departure time, a CPS ramp and a fire_limit —
/// into port sinks, while tie probes draw from the ASIC's shared RNG
/// across a window. Probes scheduled before the run hold smaller seqs than
/// the replayed events they tie with; chains of probes that schedule
/// their successor 1..211 ns ahead hold seqs taken after or between the
/// replayed events' reservations. Running a replayed event on the wrong
/// side of a tied real one changes the draw sequence.
LapRun run_timer_lap(LapPath path) {
  using net::FieldId;
  ntapi::Task task("timers");
  const auto base = [](std::uint32_t dip) {
    return ntapi::Trigger()
        .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport,
              FieldId::kUdpSport},
             {dip, 0x0A000001, net::ipproto::kUdp, 2222, 1111})
        .set(FieldId::kPktLen, 96)
        .set(FieldId::kPort, ntapi::Value::array({0, 1}));
  };
  task.add_trigger(base(0x0A000002).set(FieldId::kInterval, 1'500));
  task.add_trigger(
      base(0x0A000003).set(FieldId::kInterval, ntapi::Value::random_normal(2'000, 400)));
  task.add_trigger(base(0x0A000004).interval_ramp({{15'000, 3'000}, {0, 800}}));
  task.add_trigger(base(0x0A000005).set(FieldId::kInterval, 700).set(FieldId::kLoop, 30));

  HyperTester tester(lap_config(path, 1));
  hold_off_elision(tester, path);
  std::vector<std::unique_ptr<test::PortSink>> sinks;
  for (std::uint16_t p = 0; p < 2; ++p) {
    sinks.push_back(std::make_unique<test::PortSink>(tester.events(),
                                                     static_cast<std::uint16_t>(1000 + p), 100.0));
    sinks.back()->attach(tester.asic().port(p));
  }
  tester.load(task);
  tester.start();

  LapRun r;
  sim::EventQueue& ev = tester.events();
  rmt::SwitchAsic& asic = tester.asic();
  constexpr sim::TimeNs kProbeFrom = sim::us(20);
  constexpr sim::TimeNs kProbeTo = sim::us(23);
  const auto draw = [&r, &ev, &asic] { r.probe.push_back({ev.now(), asic.rng().next_u64()}); };
  for (sim::TimeNs t = kProbeFrom; t < kProbeTo; t += 2) ev.schedule_at(t, draw);
  const std::vector<sim::TimeNs> steps = {1, 37, 97, 151, 211};
  std::vector<std::function<void()>> chains(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    chains[i] = [&chains, &ev, draw, step = steps[i], i] {
      draw();
      if (ev.now() + step < kProbeTo) ev.schedule_in(step, chains[i]);
    };
    ev.schedule_at(kProbeFrom + steps[i], chains[i]);
  }
  tester.run_for(sim::us(60));

  collect_state(tester, r);
  for (const auto& sink : sinks) {
    for (auto& a : sink->arrivals()) r.arrivals.push_back(std::move(a));
  }
  return r;
}

TEST(LapSkeleton, TimerTemplatesAndSameNsTiesMatchUnelidedAndInterpreted) {
  const LapRun elided = run_timer_lap(LapPath::kElided);
  const LapRun unelided = run_timer_lap(LapPath::kUnelided);
  const LapRun interp = run_timer_lap(LapPath::kInterpreted);
  EXPECT_GT(elided.elided, 1000u) << "the skeleton never engaged";
  EXPECT_EQ(unelided.elided, 0u);
  EXPECT_GT(elided.arrivals.size(), 50u);
  EXPECT_GT(elided.probe.size(), 4500u);
  expect_same_lap_run(elided, unelided, /*same_path=*/true);
  expect_same_lap_run(elided, interp, /*same_path=*/false);
}

/// The skeleton owns the parked copies: tearing a tester down, after a
/// clean run or after an epoch that threw, returns every one of them to
/// the shard's pool.
TEST(LapSkeleton, TeardownReleasesParkedCopies) {
  using net::FieldId;
  ntapi::Task task("timer");
  task.add_trigger(ntapi::Trigger()
                       .set({FieldId::kIpv4Dip, FieldId::kIpv4Proto},
                            {0x0A000002, net::ipproto::kUdp})
                       .set(FieldId::kInterval, 1'500)
                       .set(FieldId::kPort, ntapi::Value::array({0})));
  for (const bool throws : {false, true}) {
    SCOPED_TRACE(throws ? "throwing epoch" : "clean run");
    sim::ShardGroup group(1, 7);
    net::PacketPool& pool = group.shard(0).pool();
    {
      HyperTester tester(lap_config(LapPath::kElided, 1), group.shard(0));
      tester.load(task);
      tester.start();
      if (throws) {
        group.shard(0).ev().schedule_at(sim::us(30),
                                        [] { throw std::runtime_error("event failed"); });
        EXPECT_THROW(group.run_until(sim::us(60)), std::runtime_error);
      } else {
        group.run_until(sim::us(60));
      }
      EXPECT_GT(tester.asic().elided_laps(), 0u);
      EXPECT_GT(pool.stats().live, 0u);  // the copies parked in the skeleton
    }
    group.shard(0).ev().drop_pending();
    EXPECT_EQ(pool.stats().live, 0u);
  }
}

// The planner's blockers surface as HT205 warnings naming the construct,
// and the blocked template falls back (counted) instead of fusing.
TEST(FastpathDiff, UnfusableTemplateFallsBackWithHT205) {
  // A sent-traffic query aggregating into a keyed counter store is a
  // documented fusion blocker (CounterStore updates need the interpreted
  // ActionContext).
  using net::FieldId;
  ntapi::Task task("keyed-sent");
  const auto t = task.add_trigger(
      ntapi::Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport,
                FieldId::kUdpSport},
               {0x0A000002, 0x0A000001, net::ipproto::kUdp, 2222, 1111})
          .set({FieldId::kLoop, FieldId::kPktLen},
               {ntapi::Value::constant(0), ntapi::Value::constant(128)})
          .set(FieldId::kInterval, 1000)
          .set(FieldId::kPort, ntapi::Value::array({0})));
  task.add_query(
      ntapi::Query(t).map({FieldId::kUdpDport}, FieldId::kPktLen).reduce(ntapi::Reduce::kSum));

  const auto compiled = ntapi::Compiler(rmt::AsicConfig{}).compile(task);
  ASSERT_EQ(compiled.fused.templates.size(), 1u);
  EXPECT_FALSE(compiled.fused.templates[0].fusable());

  bool saw_ht205 = false;
  for (const auto& d : compiled.analysis.diagnostics) {
    if (d.code != "HT205") continue;
    saw_ht205 = true;
    EXPECT_NE(d.message.find("keyed counter store"), std::string::npos) << d.message;
  }
  EXPECT_TRUE(saw_ht205);

  // The runtime counts the fallback and still runs the task correctly.
  TesterConfig cfg;
  HyperTester tester(cfg);
  test::PortSink sink(tester.events(), 1000, cfg.asic.port_rate_gbps);
  sink.attach(tester.asic().port(0));
  tester.load(task);
  tester.start();
  tester.run_for(sim::us(50));
  const std::string text = tester.telemetry_report().prometheus;
  EXPECT_NE(text.find("ht_fastpath_fallback_tasks_total 1"), std::string::npos) << text;
  EXPECT_GT(sink.packets.size(), 0u);
}

}  // namespace
}  // namespace ht
