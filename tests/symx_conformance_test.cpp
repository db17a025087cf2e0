// Symbolic-oracle conformance replay: for every catalog task, generate
// the ConformanceSuite (concrete inject packets + fully predicted counter
// state, expected editor replica bytes + care masks) and replay it through
// the interpreted RMT model, diffing actual vs expected exactly.
//
// Phase B (receive side): each inject case is delivered on its port at
// t=0, before the event loop runs — ingress processing is synchronous, so
// every query counter, per-key store value, distinct count, and drop
// counter is asserted after every single packet.
//
// Phase C (send side): the task starts and runs; captured front-panel
// replicas are demultiplexed per (template, port) and compared
// byte-for-byte under the oracle's care mask, then the sent-traffic query
// counters are checked against the oracle's replica-stream simulation.
//
// The accumulated rule coverage across the whole catalog must reach 90%,
// and every task must yield at least one feasible path (the CI gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "analysis/symx/model.hpp"
#include "analysis/symx/oracle.hpp"
#include "core/hypertester.hpp"
#include "net/headers.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

using analysis::symx::Oracle;
using analysis::symx::TaskModel;

struct CoverageTally {
  std::size_t rules_total = 0;
  std::size_t rules_exercised = 0;
  std::vector<std::string> per_task_json;
};

void run_task_conformance(const test::CatalogCase& cc, CoverageTally& tally) {
  SCOPED_TRACE(cc.name);

  // Deterministic testbed: no recirculation/mcast jitter, so replica
  // emission order is reproducible.
  TesterConfig cfg;
  cfg.asic.timing.recirc_jitter_sigma_ns = 0.0;
  cfg.asic.timing.mcast_jitter_sigma_ns = 0.0;
  HyperTester tester(cfg);
  std::vector<std::unique_ptr<test::PortSink>> sinks;
  for (std::size_t p = 0; p < tester.asic().port_count(); ++p) {
    sinks.push_back(std::make_unique<test::PortSink>(
        tester.events(), static_cast<std::uint16_t>(1000 + p), cfg.asic.port_rate_gbps));
    sinks.back()->attach(tester.asic().port(static_cast<std::uint16_t>(p)));
  }
  tester.load(cc.task);

  TaskModel model(cc.task, tester.compiled(), cfg.asic);
  Oracle oracle(model);
  const auto& compiled = tester.compiled();

  // CI gate: every catalog task must have at least one feasible path.
  ASSERT_GT(oracle.coverage().paths_feasible, 0u);

  // --- Phase B: inject every conformance packet, assert after each -----------
  for (const auto& c : oracle.injects()) {
    SCOPED_TRACE(c.path_id);
    tester.asic().port(c.port).deliver(net::make_packet(net::Packet(c.bytes)));

    for (std::size_t q = 0; q < compiled.queries.size(); ++q) {
      if (compiled.queries[q].config.source != htpr::QueryConfig::Source::kReceived) continue;
      EXPECT_EQ(tester.receiver().evaluated(q), c.totals[q].evaluated) << "query " << q;
      EXPECT_EQ(tester.receiver().matched(q), c.totals[q].matched) << "query " << q;
      EXPECT_EQ(tester.receiver().keyless_total(q), c.totals[q].keyless_total) << "query " << q;
      EXPECT_EQ(tester.receiver().out_of_window(q), c.totals[q].out_of_window) << "query " << q;
    }
    for (const auto& s : c.stores) {
      EXPECT_EQ(tester.query_value(ntapi::QueryHandle{s.query}, s.key), s.value)
          << "store of query " << s.query;
    }
    for (const auto& [q, n] : c.distinct) {
      EXPECT_EQ(tester.query_distinct(ntapi::QueryHandle{q}), n) << "distinct of query " << q;
    }
    EXPECT_EQ(tester.asic().dropped_packets(), c.drops_after);
  }

  // Snapshot the receive-side counters: phase C must not disturb them
  // (replicas leave through the front ports and never re-enter).
  std::vector<std::uint64_t> rx_matched(compiled.queries.size(), 0);
  for (std::size_t q = 0; q < compiled.queries.size(); ++q) {
    rx_matched[q] = tester.receiver().matched(q);
  }

  // --- Phase C: run the generators, replay the replica stream ----------------
  tester.start();
  tester.run_for(sim::us(400));

  for (std::size_t t = 0; t < compiled.templates.size(); ++t) {
    SCOPED_TRACE("template " + std::to_string(t));
    const auto& tpl = compiled.templates[t];
    const std::vector<std::vector<std::uint64_t>>* records = nullptr;
    for (std::size_t w = 0; w < compiled.fifos.size(); ++w) {
      if (compiled.fifos[w].trigger_index == t) records = &oracle.fifo_records(w);
    }

    std::uint64_t fires = tester.trigger_fires(ntapi::TriggerHandle{t});
    std::uint64_t compare_fires = std::min<std::uint64_t>(fires, 4);
    if (records != nullptr) {
      compare_fires = std::min<std::uint64_t>(compare_fires, records->size());
    }
    if (compare_fires == 0) continue;  // nothing to diff (e.g. no trigger records)

    const auto expected = oracle.replicas(t, compare_fires, records);

    // Demux the captured stream per port by template id; the j-th capture
    // of template t on a port is its j-th fire there.
    for (const auto port : tpl.egress_ports) {
      std::vector<const net::Packet*> got;
      for (const auto& pkt : sinks[port]->packets) {
        if (pkt->meta().template_id == t) got.push_back(&*pkt);
      }
      std::size_t exp_index = 0;
      for (const auto& exp : expected) {
        if (exp.port != port) continue;
        ASSERT_LT(exp_index, got.size())
            << "port " << port << " captured only " << got.size() << " replicas";
        const net::Packet& actual = *got[exp_index];
        ASSERT_EQ(actual.size(), exp.bytes.size());
        for (std::size_t b = 0; b < exp.bytes.size(); ++b) {
          if (exp.care[b] == 0) continue;
          ASSERT_EQ(actual.bytes()[b], exp.bytes[b])
              << "byte " << b << " of fire " << exp.fire << " on port " << port;
        }
        ++exp_index;
      }
      EXPECT_GT(exp_index, 0u);
    }
    oracle.mark_template_exercised(t, records != nullptr);
  }

  // Receive-side counters must be exactly where phase B left them.
  for (std::size_t q = 0; q < compiled.queries.size(); ++q) {
    if (compiled.queries[q].config.source != htpr::QueryConfig::Source::kReceived) continue;
    EXPECT_EQ(tester.receiver().matched(q), rx_matched[q]) << "query " << q;
  }

  // Sent-traffic queries: replay the oracle's replica-stream simulation
  // against the live counters. Counters driven by RNG/timestamp fields are
  // only bounds-checked (the *_exact flags drop for them).
  for (std::size_t q = 0; q < compiled.queries.size(); ++q) {
    if (compiled.queries[q].config.source != htpr::QueryConfig::Source::kSent) continue;
    const std::uint64_t evaluated = tester.receiver().evaluated(q);
    const auto st = oracle.sent_totals(q, evaluated);
    if (st.matched_exact) {
      EXPECT_EQ(tester.receiver().matched(q), st.matched) << "sent query " << q;
    } else {
      EXPECT_LE(tester.receiver().matched(q), evaluated) << "sent query " << q;
    }
    if (st.total_exact) {
      EXPECT_EQ(tester.receiver().keyless_total(q), st.keyless_total) << "sent query " << q;
    }
  }

  // --- Coverage ---------------------------------------------------------------
  const auto cov = oracle.coverage();
  tally.rules_total += cov.rules_total;
  tally.rules_exercised += cov.rules_exercised;
  tally.per_task_json.push_back(oracle.coverage_json(cc.name));
}

TEST(SymxConformance, CatalogReplayMatchesOracle) {
  CoverageTally tally;
  for (const auto& cc : test::catalog()) run_task_conformance(cc, tally);

  ASSERT_GT(tally.rules_total, 0u);
  const double ratio =
      static_cast<double>(tally.rules_exercised) / static_cast<double>(tally.rules_total);
  EXPECT_GE(ratio, 0.90) << tally.rules_exercised << "/" << tally.rules_total
                         << " rules exercised";

  // Per-task coverage JSON artifact (uploaded by CI).
  const char* dir = std::getenv("HT_SYMX_COVERAGE_DIR");
  const std::string path = (dir != nullptr ? std::string(dir) : std::string(".")) +
                           "/symx_coverage.json";
  std::ofstream out(path);
  if (out) {
    out << "[";
    for (std::size_t i = 0; i < tally.per_task_json.size(); ++i) {
      out << (i != 0 ? "," : "") << tally.per_task_json[i];
    }
    out << "]\n";
  }
}

// Every inject case's packet must parse back to the path's witness values
// on its own parse path — the suite is self-consistent even before replay.
TEST(SymxConformance, InjectPacketsCarryTheirWitnessValues) {
  for (const auto& cc : test::catalog()) {
    SCOPED_TRACE(cc.name);
    const rmt::AsicConfig asic;
    const auto compiled = ntapi::Compiler(asic).compile(cc.task);
    TaskModel model(cc.task, compiled, asic);
    Oracle oracle(model);
    for (const auto& c : oracle.injects()) {
      EXPECT_GE(c.bytes.size(), 14u) << c.path_id;  // at least an Ethernet header
      EXPECT_LT(c.port, asic.num_ports) << c.path_id;
    }
  }
}

}  // namespace
}  // namespace ht
