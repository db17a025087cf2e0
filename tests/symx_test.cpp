// Unit tests for the symbolic path oracle's building blocks: the
// interval/bit-constraint solver, parser path enumeration, the editor
// stream mirror, and oracle suite generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/symx/model.hpp"
#include "analysis/symx/oracle.hpp"
#include "analysis/symx/solver.hpp"
#include "apps/tasks.hpp"
#include "net/headers.hpp"
#include "ntapi/compiler.hpp"

namespace ht {
namespace {

using analysis::symx::Cube;
using analysis::symx::IntervalSet;
using net::FieldId;

// ---------------------------------------------------------------------------
// IntervalSet

TEST(IntervalSet, FromCmpCoversEveryComparison) {
  EXPECT_EQ(IntervalSet::from_cmp(htpr::Cmp::kEq, 5, 16).count(), 1u);
  EXPECT_TRUE(IntervalSet::from_cmp(htpr::Cmp::kEq, 5, 16).contains(5));
  EXPECT_FALSE(IntervalSet::from_cmp(htpr::Cmp::kNe, 5, 16).contains(5));
  EXPECT_EQ(IntervalSet::from_cmp(htpr::Cmp::kNe, 5, 16).count(), 65535u);
  EXPECT_EQ(IntervalSet::from_cmp(htpr::Cmp::kLt, 0, 16).count(), 0u);
  EXPECT_EQ(IntervalSet::from_cmp(htpr::Cmp::kLe, 0, 16).count(), 1u);
  EXPECT_EQ(IntervalSet::from_cmp(htpr::Cmp::kGt, 65535, 16).count(), 0u);
  EXPECT_EQ(IntervalSet::from_cmp(htpr::Cmp::kGe, 65535, 16).count(), 1u);
}

TEST(IntervalSet, UnionMergesAdjacentIntervals) {
  IntervalSet s = IntervalSet::range(0, 4);
  s.union_with(IntervalSet::range(5, 9));  // adjacent: must merge
  EXPECT_TRUE(IntervalSet::range(0, 9).subset_of(s));
  EXPECT_EQ(s.count(), 10u);
  s.union_with(IntervalSet::range(20, 30));
  EXPECT_FALSE(IntervalSet::range(0, 30).subset_of(s));
  EXPECT_EQ(s.count(), 21u);
}

TEST(IntervalSet, ComplementRoundTrips) {
  IntervalSet s = IntervalSet::range(10, 20);
  s.union_with(IntervalSet::range(40, 50));
  const IntervalSet c = s.complement(16);
  EXPECT_FALSE(c.contains(15));
  EXPECT_TRUE(c.contains(9));
  EXPECT_TRUE(c.contains(21));
  EXPECT_TRUE(c.contains(65535));
  IntervalSet back = c.complement(16);
  EXPECT_EQ(back.count(), s.count());
  EXPECT_TRUE(back.subset_of(s));
  EXPECT_TRUE(s.subset_of(back));
}

TEST(IntervalSet, SteppedExactBelowCapWidensAbove) {
  const IntervalSet small = IntervalSet::stepped(1000, 2000, 10);
  EXPECT_EQ(small.count(), 101u);  // one point per step
  EXPECT_TRUE(small.contains(1990));
  EXPECT_FALSE(small.contains(1995));  // in the hole between steps

  const IntervalSet big = IntervalSet::stepped(0, 1'000'000, 2, 4096);
  EXPECT_EQ(big.count(), 1'000'001u);  // widened to the hull
  EXPECT_TRUE(big.contains(3));
}

TEST(IntervalSet, ValueAtIndexesAcrossGaps) {
  IntervalSet s = IntervalSet::range(0, 2);
  s.union_with(IntervalSet::range(10, 11));
  EXPECT_EQ(s.value_at(0), 0u);
  EXPECT_EQ(s.value_at(2), 2u);
  EXPECT_EQ(s.value_at(3), 10u);
  EXPECT_EQ(s.value_at(4), 11u);
}

TEST(IntervalSet, SubsetOf) {
  const IntervalSet inner = IntervalSet::range(101, 65535);
  const IntervalSet outer = IntervalSet::range(51, 65535);
  EXPECT_TRUE(inner.subset_of(outer));
  EXPECT_FALSE(outer.subset_of(inner));
  EXPECT_TRUE(IntervalSet::none().subset_of(inner));
}

// ---------------------------------------------------------------------------
// Cube

TEST(Cube, MeetTracksFeasibility) {
  Cube c;
  EXPECT_TRUE(c.meet(FieldId::kTcpSport, IntervalSet::range(100, 200)));
  EXPECT_TRUE(c.meet(FieldId::kTcpSport, IntervalSet::range(150, 300)));
  EXPECT_EQ(c.get(FieldId::kTcpSport).min(), 150u);
  EXPECT_EQ(c.witness()[FieldId::kTcpSport], 150u);
  EXPECT_FALSE(c.meet(FieldId::kTcpSport, IntervalSet::range(400, 500)));
  EXPECT_FALSE(c.feasible());
}

TEST(Cube, UnconstrainedFieldIsFullDomain) {
  const Cube c;
  EXPECT_EQ(c.get(FieldId::kTcpDport).count(), 65536u);
}

// ---------------------------------------------------------------------------
// Parser path enumeration

TEST(SymxParser, DefaultGraphEnumeratesAllL4Paths) {
  const auto paths = analysis::symx::enumerate_parser_paths(rmt::Parser::default_graph());
  bool tcp = false, udp = false, icmp = false;
  for (const auto& p : paths) {
    for (const auto h : p.headers) {
      if (h == net::HeaderKind::kTcp) tcp = true;
      if (h == net::HeaderKind::kUdp) udp = true;
      if (h == net::HeaderKind::kIcmp) icmp = true;
    }
    EXPECT_TRUE(p.constraints.feasible());
  }
  EXPECT_TRUE(tcp);
  EXPECT_TRUE(udp);
  EXPECT_TRUE(icmp);
  // The TCP path must pin the selects that lead to it.
  for (const auto& p : paths) {
    if (std::find(p.headers.begin(), p.headers.end(), net::HeaderKind::kTcp) ==
        p.headers.end()) {
      continue;
    }
    const auto w = p.constraints.witness();
    EXPECT_EQ(w.at(FieldId::kIpv4Proto), net::ipproto::kTcp);
    EXPECT_EQ(w.at(FieldId::kEthType), net::ethertype::kIpv4);
  }
  // Every state of the graph lies on some walk from the entry.
  std::set<std::string> visited;
  for (const auto& p : paths) visited.insert(p.states.begin(), p.states.end());
  const rmt::Parser graph = rmt::Parser::default_graph();
  for (const auto& [name, state] : graph.states()) {
    EXPECT_EQ(visited.count(name), 1u) << "unreachable parser state " << name;
  }
}

// ---------------------------------------------------------------------------
// EditStream: the egress editor mirror

TEST(SymxEditStream, RangeAndListCursorsMirrorTheEditor) {
  auto app = apps::ip_scan(0x0A000000, 4, 80, {0}, 1000, 2);
  const auto compiled = ntapi::Compiler().compile(app.task);
  ASSERT_FALSE(compiled.templates.empty());
  analysis::symx::EditStream stream(compiled.templates[0]);
  // The scan sweeps ipv4.dip over 4 addresses and wraps.
  std::vector<std::uint64_t> dips;
  for (int i = 0; i < 6; ++i) {
    const auto step = stream.next();
    for (const auto& [field, v] : step.values) {
      if (field == FieldId::kIpv4Dip) dips.push_back(v);
    }
  }
  ASSERT_EQ(dips.size(), 6u);
  EXPECT_EQ(dips[0], 0x0A000000u);
  EXPECT_EQ(dips[1], 0x0A000001u);
  EXPECT_EQ(dips[4], dips[0]);  // wrapped
}

// ---------------------------------------------------------------------------
// Oracle suite generation (static half; replay lives in
// symx_conformance_test.cpp)

TEST(SymxOracle, ThroughputSuiteHasInjectsAndCoverage) {
  auto app = apps::throughput_test(1, 2, {0});
  const rmt::AsicConfig asic;
  const auto compiled = ntapi::Compiler(asic).compile(app.task);
  analysis::symx::TaskModel model(app.task, compiled, asic);
  analysis::symx::Oracle oracle(model);

  EXPECT_FALSE(oracle.injects().empty());
  const auto cov = oracle.coverage();
  EXPECT_GT(cov.paths_feasible, 0u);
  EXPECT_GT(cov.rules_total, 0u);

  const auto json = oracle.suite_json("throughput");
  EXPECT_NE(json.find("\"task\":\"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"injects\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
}

TEST(SymxOracle, InjectTotalsAreCumulative) {
  auto app = apps::port_bandwidth();
  const rmt::AsicConfig asic;
  const auto compiled = ntapi::Compiler(asic).compile(app.task);
  analysis::symx::TaskModel model(app.task, compiled, asic);
  analysis::symx::Oracle oracle(model);
  ASSERT_FALSE(oracle.injects().empty());
  std::uint64_t prev = 0;
  for (const auto& c : oracle.injects()) {
    std::uint64_t total = 0;
    for (const auto& t : c.totals) total += t.evaluated;
    EXPECT_GE(total, prev);
    prev = total;
    EXPECT_FALSE(c.bytes.empty());
  }
}

}  // namespace
}  // namespace ht
