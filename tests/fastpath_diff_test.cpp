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
#include <string>
#include <vector>

#include "analysis/symx/model.hpp"
#include "analysis/symx/oracle.hpp"
#include "core/hypertester.hpp"
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
