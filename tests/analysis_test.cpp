// htlint: the static pipeline analyzer over compiled tasks.
//
// Two obligations, mirroring §6.1's "reject the mistaken testing tasks":
// every diagnostic must fire on a task crafted to contain its defect, and
// every example task the repo ships must stay diagnostic-free — the
// analyzer is only useful if it is quiet on correct programs.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "apps/tasks.hpp"
#include "net/headers.hpp"
#include "ntapi/compiler.hpp"

namespace ht {
namespace {

using analysis::Severity;
using net::FieldId;
using ntapi::Compiler;
using ntapi::Value;

bool has_code(const analysis::AnalysisReport& report, const std::string& code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

/// The codes of every diagnostic in the CompileError message.
std::string compile_error_of(const ntapi::Task& task,
                             rmt::AsicConfig asic = {}) {
  try {
    Compiler(asic).compile(task);
    return "";
  } catch (const ntapi::CompileError& e) {
    return e.what();
  }
}

// ---------------------------------------------------------------------------
// Silence on correct programs

TEST(Analysis, SilentOnEveryExampleTask) {
  using namespace apps;
  std::vector<ntapi::Task> tasks;
  tasks.push_back(throughput_test(1, 2, {0}).task);
  tasks.push_back(delay_test(1, 2, {0}, {1}).task);
  tasks.push_back(delay_test_state_based(1, 2, {0}, {1}).task);
  tasks.push_back(ip_scan(0x0A000000, 1024, 80, {0}).task);
  tasks.push_back(syn_flood(1, 80, {0, 1, 2, 3}).task);
  tasks.push_back(web_test(1, 80, 0x01010001, 64, {0}).task);
  tasks.push_back(udp_flood(1, 53, {0}).task);
  tasks.push_back(dns_amplification(1, 0x08080800, 32, {0}).task);
  tasks.push_back(loss_test(1, 2, {0}, {1}, 1000).task);
  tasks.push_back(port_bandwidth().task);
  tasks.push_back(ping_sweep(0x0A000000, 128, {0}).task);
  // The L7 tasks, shaped like the perfbench workloads.
  tasks.push_back(http_cps(0x0C0C0C0C, 80, 0x0A000000, 65536, {1, 2, 3, 4}, {{0, 200}}).task);
  tasks.push_back(http_rps(0x0C0C0C0C, 80, 0x0B000000, 16384, {1}, 100, 200).task);
  tasks.push_back(dns_rps(0x0C0C0C0C, 0x0B100000, 128, {1}).task);

  const Compiler compiler;
  for (const auto& task : tasks) {
    const auto compiled = compiler.compile(task);  // must not throw
    EXPECT_TRUE(compiled.analysis.diagnostics.empty())
        << task.name() << ": "
        << (compiled.analysis.diagnostics.empty()
                ? ""
                : analysis::format(compiled.analysis.diagnostics.front()));
    EXPECT_LE(compiled.analysis.stages_used, 12u) << task.name();
    const auto relint = compiler.lint(task);
    EXPECT_TRUE(relint.diagnostics.empty()) << task.name();
  }
}

// ---------------------------------------------------------------------------
// HT100: validation errors surfaced through the lint entry point

TEST(Analysis, LintSurfacesValidationErrorsAsHT100) {
  ntapi::Task bad("bad-width");
  bad.add_trigger(ntapi::Trigger()
                      .set(FieldId::kIpv4Dip, 1)
                      .set(FieldId::kTcpSport, Value::constant(1 << 20)));  // 16-bit field

  const auto report = Compiler().lint(bad);  // must not throw
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(has_code(report, "HT100"));
  for (const auto& d : report.diagnostics) EXPECT_EQ(d.code, "HT100");
}

// ---------------------------------------------------------------------------
// HT101: pipeline does not fit the ASIC

TEST(Analysis, StageOverflowIsHT101) {
  // web_test is the deepest shipped task; on a 3-stage ASIC its keyed
  // counter-store chains cannot be placed.
  auto app = apps::web_test(1, 80, 0x01010001, 64, {0});
  const auto msg = compile_error_of(app.task, rmt::AsicConfig{.max_stages = 3});
  EXPECT_NE(msg.find("HT101"), std::string::npos) << msg;
  EXPECT_NE(msg.find("match-action stages"), std::string::npos) << msg;

  const auto report = Compiler(rmt::AsicConfig{.max_stages = 3}).lint(app.task);
  EXPECT_TRUE(has_code(report, "HT101"));
}

TEST(Analysis, SingleOversizedTableIsHT101) {
  // A 2^20-bucket counter store wants an 8MB array — more SRAM than any
  // one stage owns, so no placement can ever succeed.
  ntapi::Task task("huge-store");
  task.add_query(ntapi::Query()
                     .map({FieldId::kIpv4Sip})
                     .distinct()
                     .store_shape(1 << 20, 16));
  const auto msg = compile_error_of(task);
  EXPECT_NE(msg.find("HT101"), std::string::npos) << msg;
  EXPECT_NE(msg.find("alone exceeds"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// HT102: SALU single-access discipline

TEST(Analysis, StateReadAfterWriteIsHT102) {
  // The trigger records its TX timestamp into delaystate.0 at egress; a
  // SENT-traffic query then reads the same register on the same packets —
  // one pipeline pass, two SALU accesses. (The shipped delay test reads
  // it from RECEIVED traffic, a different pass, and stays silent.)
  ntapi::Task task("raw");
  const auto probe = task.add_trigger(ntapi::Trigger()
                                          .set(FieldId::kIpv4Dip, 1)
                                          .set(FieldId::kIpv4Id, Value::range(0, 0xFFFF, 1))
                                          .record_timestamp(FieldId::kIpv4Id));
  task.add_query(ntapi::Query(probe)
                     .map_state_delay(probe, FieldId::kIpv4Id)
                     .reduce(ntapi::Reduce::kSum));
  const auto msg = compile_error_of(task);
  EXPECT_NE(msg.find("HT102"), std::string::npos) << msg;
  EXPECT_NE(msg.find("delaystate.0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("read after write"), std::string::npos) << msg;
}

TEST(Analysis, DoubleStateReadIsHT102) {
  // Two received-traffic queries both read trigger 0's timestamp state:
  // the same foreign packet traverses both map operators.
  ntapi::Task task("rr");
  const auto probe = task.add_trigger(ntapi::Trigger()
                                          .set(FieldId::kIpv4Dip, 1)
                                          .set(FieldId::kIpv4Id, Value::range(0, 0xFFFF, 1))
                                          .record_timestamp(FieldId::kIpv4Id));
  task.add_query(ntapi::Query()
                     .map_state_delay(probe, FieldId::kIpv4Id)
                     .reduce(ntapi::Reduce::kSum));
  task.add_query(ntapi::Query()
                     .map_state_delay(probe, FieldId::kIpv4Id)
                     .reduce(ntapi::Reduce::kMax));
  const auto msg = compile_error_of(task);
  EXPECT_NE(msg.find("HT102"), std::string::npos) << msg;
  EXPECT_NE(msg.find("accessed twice"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// HT103: parser coverage

TEST(Analysis, QueryFieldOffParsePathIsHT103) {
  // ICMP probes, but the query filters on a TCP field: no reachable
  // parser path extracts tcp.sport for this task's traffic.
  ntapi::Task task("icmp");
  task.add_trigger(ntapi::Trigger()
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kIcmp))
                       .set(FieldId::kIpv4Dip, 1)
                       .set(FieldId::kIcmpType, 8));
  task.add_query(ntapi::Query()
                     .filter(FieldId::kTcpSport, htpr::Cmp::kEq, 80)
                     .map_value(FieldId::kPktLen)
                     .reduce(ntapi::Reduce::kSum));
  const auto msg = compile_error_of(task);
  EXPECT_NE(msg.find("HT103"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tcp.sport"), std::string::npos) << msg;
}

TEST(Analysis, TimestampIndexOffParsePathIsHT103) {
  ntapi::Task task("badindex");
  task.add_trigger(ntapi::Trigger()
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kIcmp))
                       .set(FieldId::kIpv4Dip, 1)
                       .record_timestamp(FieldId::kTcpSeqNo));  // TCP field, ICMP stack
  const auto msg = compile_error_of(task);
  EXPECT_NE(msg.find("HT103"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// HT104: editor dependency order (compiler-artifact defect: the shipped
// compiler always appends record_timestamp edits last, so this is
// demonstrated on a hand-tampered artifact — exactly the compiler-bug
// class the analyzer exists to catch)

TEST(Analysis, RecordBeforeRewriteIsHT104) {
  ntapi::Task task("order");
  task.add_trigger(ntapi::Trigger()
                       .set(FieldId::kIpv4Dip, 1)
                       .set(FieldId::kIpv4Id, Value::range(0, 0xFFFF, 1))
                       .record_timestamp(FieldId::kIpv4Id));
  auto compiled = Compiler().compile(task);
  ASSERT_EQ(compiled.templates[0].edits.size(), 2u);
  // A buggy backend emitting the record before the field edit:
  std::swap(compiled.templates[0].edits[0], compiled.templates[0].edits[1]);

  analysis::Analyzer a;
  a.add_pass(std::make_unique<analysis::EditorOrderPass>());
  const auto report = a.run({task, compiled, rmt::AsicConfig{}});
  ASSERT_TRUE(has_code(report, "HT104"));
  EXPECT_NE(report.diagnostics[0].message.find("rewrites that field later"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// HT105: trigger-FIFO schema

TEST(Analysis, RecordLaneWiderThanFieldIsHT105) {
  // The responder echoes a 32-bit source address into a 16-bit TCP port.
  ntapi::Task task("narrow");
  const auto q = task.add_query(ntapi::Query().filter(FieldId::kIpv4Sip, htpr::Cmp::kNe, 0));
  task.add_trigger(ntapi::Trigger(q)
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
                       .set(FieldId::kTcpSport, ntapi::from_query(FieldId::kIpv4Sip)));
  const auto msg = compile_error_of(task);
  EXPECT_NE(msg.find("HT105"), std::string::npos) << msg;
  EXPECT_NE(msg.find("does not fit"), std::string::npos) << msg;
}

TEST(Analysis, TamperedFifoSchemaIsHT105) {
  // Well-formed task; then the record schema loses a lane (a de-sync bug
  // between the HTPR push program and the HTPS pop program).
  ntapi::Task task("desync");
  const auto q = task.add_query(ntapi::Query().filter(FieldId::kTcpFlags, htpr::Cmp::kEq, 0x12));
  task.add_trigger(ntapi::Trigger(q)
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
                       .set(FieldId::kIpv4Dip, ntapi::from_query(FieldId::kIpv4Sip)));
  auto compiled = Compiler().compile(task);
  ASSERT_EQ(compiled.fifos.size(), 1u);
  compiled.fifos[0].lanes.clear();

  analysis::Analyzer a;
  a.add_pass(std::make_unique<analysis::FifoSchemaPass>());
  const auto report = a.run({task, compiled, rmt::AsicConfig{}});
  ASSERT_TRUE(has_code(report, "HT105"));
  EXPECT_NE(report.diagnostics[0].message.find("schema out of sync"), std::string::npos);
}

// ---------------------------------------------------------------------------
// HT201/HT202: shadowed and dead filters (warnings: compile succeeds)

TEST(Analysis, ContradictoryFiltersAreHT201) {
  ntapi::Task task("shadow");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kTcpSport, htpr::Cmp::kGt, 100)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kLt, 50));
  const auto compiled = Compiler().compile(task);  // warnings only
  EXPECT_TRUE(has_code(compiled.analysis, "HT201"));
  EXPECT_FALSE(compiled.analysis.has_errors());
  ASSERT_FALSE(compiled.warnings.empty());
  EXPECT_NE(compiled.warnings.back().find("HT201"), std::string::npos);
}

TEST(Analysis, ContradictionAtTheFieldWidthIsHT201) {
  // ipv4.ttl is 8 bits wide: after `> 254` only 255 is left, and the
  // second filter excludes it.
  ntapi::Task task("ttl");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kIpv4Ttl, htpr::Cmp::kGt, 254)
                     .filter(FieldId::kIpv4Ttl, htpr::Cmp::kNe, 255));
  const auto compiled = Compiler().compile(task);
  ASSERT_EQ(compiled.analysis.diagnostics.size(), 1u);
  const auto& d = compiled.analysis.diagnostics[0];
  EXPECT_EQ(d.code, "HT201");
  EXPECT_EQ(d.where, "query[0]");
  EXPECT_FALSE(has_code(compiled.analysis, "HT301"));
}

TEST(Analysis, FilterOutsideTriggerSupportIsHT202) {
  ntapi::Task task("dead");
  const auto t = task.add_trigger(
      ntapi::Trigger().set(FieldId::kIpv4Dip, 1).set(FieldId::kTcpSport,
                                                     Value::range(1000, 2000, 1)));
  task.add_query(ntapi::Query(t).filter(FieldId::kTcpSport, htpr::Cmp::kEq, 5));
  const auto compiled = Compiler().compile(task);
  EXPECT_TRUE(has_code(compiled.analysis, "HT202"));
  EXPECT_FALSE(compiled.analysis.has_errors());
}

TEST(Analysis, FilterInsideRangeHoleIsHT202) {
  // range(1000, 2000, 10) steps over 1995: inside [lo, hi], never emitted.
  ntapi::Task task("hole");
  const auto t = task.add_trigger(
      ntapi::Trigger().set(FieldId::kIpv4Dip, 1).set(FieldId::kTcpSport,
                                                     Value::range(1000, 2000, 10)));
  task.add_query(ntapi::Query(t).filter(FieldId::kTcpSport, htpr::Cmp::kEq, 1995));
  const auto compiled = Compiler().compile(task);
  EXPECT_TRUE(has_code(compiled.analysis, "HT202"));

  // A value the range does emit stays silent.
  ntapi::Task ok("emitted");
  const auto t2 = ok.add_trigger(
      ntapi::Trigger().set(FieldId::kIpv4Dip, 1).set(FieldId::kTcpSport,
                                                     Value::range(1000, 2000, 10)));
  ok.add_query(ntapi::Query(t2).filter(FieldId::kTcpSport, htpr::Cmp::kEq, 1990));
  EXPECT_TRUE(Compiler().compile(ok).analysis.diagnostics.empty());
}

TEST(Analysis, HT202TextNamesTheSupportItChecked) {
  const auto ht202 = [](const ntapi::Task& task) {
    for (const auto& d : Compiler().compile(task).analysis.diagnostics) {
      if (d.code == "HT202") return analysis::format(d);
    }
    return std::string("no HT202");
  };
  // No trigger: the support is the field's whole 8-bit domain.
  ntapi::Task free_field("ttl");
  free_field.add_query(ntapi::Query().filter(FieldId::kIpv4Ttl, htpr::Cmp::kGt, 255));
  EXPECT_EQ(ht202(free_field),
            "HT202 warning query[0]: filter 'ipv4.ttl > 255' never matches: ipv4.ttl only "
            "takes values in [0, 255]");
  // A trigger that leaves the field unbound: the same domain text.
  ntapi::Task unbound("unbound");
  const auto u = unbound.add_trigger(ntapi::Trigger().set(FieldId::kIpv4Dip, 1));
  unbound.add_query(ntapi::Query(u).filter(FieldId::kIpv4Ttl, htpr::Cmp::kGt, 255));
  EXPECT_EQ(ht202(unbound),
            "HT202 warning query[0]: filter 'ipv4.ttl > 255' never matches: ipv4.ttl only "
            "takes values in [0, 255]");
  // A trigger binding the field: its generated range.
  ntapi::Task bound("bound");
  const auto b = bound.add_trigger(
      ntapi::Trigger().set(FieldId::kIpv4Dip, 1).set(FieldId::kIpv4Ttl, Value::range(10, 20, 1)));
  bound.add_query(ntapi::Query(b).filter(FieldId::kIpv4Ttl, htpr::Cmp::kGt, 30));
  EXPECT_EQ(ht202(bound),
            "HT202 warning query[0]: filter 'ipv4.ttl > 30' never matches the monitored "
            "trigger's traffic (ipv4.ttl is generated in [10, 20])");
}

// ---------------------------------------------------------------------------
// HT204: shadowed rules (a filter that can never reject)

TEST(Analysis, RedundantFilterIsHT204) {
  // The second filter's pass set contains everything the first lets
  // through: its reject rule is fully covered and can never hit.
  ntapi::Task task("redundant");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kTcpSport, htpr::Cmp::kGt, 100)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kGt, 50));
  const auto compiled = Compiler().compile(task);  // warnings only
  EXPECT_TRUE(has_code(compiled.analysis, "HT204"));
  EXPECT_FALSE(compiled.analysis.has_errors());
}

TEST(Analysis, ContradictionIsNotHT204) {
  // Contradictory filters are HT201's finding — the second filter rejects
  // *everything* reaching it, the opposite of a shadowed (never-reject)
  // rule.
  ntapi::Task task("contra");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kTcpSport, htpr::Cmp::kGt, 100)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kLt, 50));
  const auto compiled = Compiler().compile(task);
  EXPECT_TRUE(has_code(compiled.analysis, "HT201"));
  EXPECT_FALSE(has_code(compiled.analysis, "HT204"));
}

TEST(Analysis, DeadAndShadowedFilterLinesAreStable) {
  // One query raising HT201, HT202 and HT204 at once: the exact lines
  // ntapi_cli lint prints.
  ntapi::Task task("all-three");
  const auto t = task.add_trigger(
      ntapi::Trigger().set(FieldId::kIpv4Dip, 1).set(FieldId::kTcpSport,
                                                     Value::range(1000, 2000, 1)));
  task.add_query(ntapi::Query(t)
                     .filter(FieldId::kTcpDport, htpr::Cmp::kGt, 100)
                     .filter(FieldId::kTcpDport, htpr::Cmp::kGt, 50)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kEq, 5)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kGe, 1500)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kLt, 1200));
  const auto compiled = Compiler().compile(task);
  std::vector<std::string> lines;
  for (const auto& d : compiled.analysis.diagnostics) lines.push_back(analysis::format(d));
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "HT201 warning query[0]: filter 'tcp.sport < 1200' is shadowed by earlier "
                       "filters on 'tcp.sport' and can never match",
                       "HT202 warning query[0]: filter 'tcp.sport == 5' never matches the "
                       "monitored trigger's traffic (tcp.sport is generated in [1000, 2000])",
                       "HT204 warning query[0]: filter op[1] on tcp.dport is shadowed: every "
                       "packet the earlier filters admit already satisfies it",
                   }));
  EXPECT_EQ(compiled.warnings, lines);
}

// ---------------------------------------------------------------------------
// HT301/HT302: symbolic path coverage

TEST(Analysis, ParserConflictingFilterIsHT301) {
  // Individually satisfiable filters, but the UDP parse path pins
  // ipv4.proto = 17 — no packet reaches the match action. HT201 cannot
  // see this (the filters don't contradict each other), the symbolic
  // walk can.
  ntapi::Task task("deadpath");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kIpv4Proto, htpr::Cmp::kEq, 1)
                     .filter(FieldId::kUdpDport, htpr::Cmp::kEq, 53));
  const auto compiled = Compiler().compile(task);
  EXPECT_TRUE(has_code(compiled.analysis, "HT301"));
  EXPECT_FALSE(compiled.analysis.has_errors());
}

TEST(Analysis, HT301SuppressedWhenHT201Flagged) {
  ntapi::Task task("contra2");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kTcpSport, htpr::Cmp::kGt, 100)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kLt, 50));
  const auto compiled = Compiler().compile(task);
  EXPECT_TRUE(has_code(compiled.analysis, "HT201"));
  EXPECT_FALSE(has_code(compiled.analysis, "HT301"));
}

TEST(Analysis, ExactKeyOutsideKeySpaceIsHT302) {
  // Tampered artifact: an exact-key entry the filter chain makes
  // unreachable (kIpv4Sip is capped at 100, the entry says 200).
  ntapi::Task task("stale-key");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kIpv4Sip, htpr::Cmp::kLe, 100)
                     .map({FieldId::kIpv4Sip})
                     .distinct());
  auto compiled = Compiler().compile(task);
  compiled.queries[0].exact_keys = {{50}, {200}};

  analysis::Analyzer a;
  a.add_pass(std::make_unique<analysis::SymxCoveragePass>());
  const auto report = a.run({task, compiled, rmt::AsicConfig{}});
  ASSERT_TRUE(has_code(report, "HT302"));
  EXPECT_EQ(report.diagnostics.size(), 1u);  // entry {50} is reachable
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
}

// ---------------------------------------------------------------------------
// HT203: duplicate exact-match keys (compiler-artifact defect)

TEST(Analysis, DuplicateExactKeysAreHT203) {
  ntapi::Task task("dup");
  const auto t = task.add_trigger(ntapi::Trigger()
                                      .set(FieldId::kIpv4Dip, 1)
                                      .set(FieldId::kIpv4Sip, Value::range(1, 64, 1)));
  task.add_query(ntapi::Query(t).map({FieldId::kIpv4Sip}).distinct());
  auto compiled = Compiler().compile(task);
  compiled.queries[0].exact_keys = {{7}, {9}, {7}};  // buggy collision precompute

  analysis::Analyzer a;
  a.add_pass(std::make_unique<analysis::DeadEntryPass>());
  const auto report = a.run({task, compiled, rmt::AsicConfig{}});
  ASSERT_TRUE(has_code(report, "HT203"));
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
}

// ---------------------------------------------------------------------------
// Report plumbing

TEST(Analysis, FormatIsStable) {
  const analysis::Diagnostic d{Severity::kError, "HT102", "trigger[0]",
                               "register 'cuckoo_slots' accessed twice in stage 4", "hint"};
  EXPECT_EQ(analysis::format(d),
            "HT102 error trigger[0]: register 'cuckoo_slots' accessed twice in stage 4");
  const analysis::Diagnostic w{Severity::kWarning, "HT201", "query[1]", "shadowed", ""};
  EXPECT_EQ(analysis::format(w), "HT201 warning query[1]: shadowed");
}

TEST(Analysis, ReportSortsAndCounts) {
  analysis::AnalysisReport r;
  r.diagnostics.push_back({Severity::kWarning, "HT203", "query[0]", "b", ""});
  r.diagnostics.push_back({Severity::kError, "HT101", "pipeline", "a", ""});
  r.diagnostics.push_back({Severity::kError, "HT101", "pipeline", "A", ""});
  r.sort();
  EXPECT_EQ(r.diagnostics[0].message, "A");
  EXPECT_EQ(r.diagnostics[2].code, "HT203");
  EXPECT_EQ(r.error_count(), 2u);
  EXPECT_EQ(r.warning_count(), 1u);
  EXPECT_TRUE(r.has_errors());
}

TEST(Analysis, ReportSortsByPassIdFirst) {
  // Byte-stable ordering: the emitting pass is the primary key, so a pass
  // gaining a lexically-smaller code cannot reshuffle the whole report.
  analysis::AnalysisReport r;
  r.diagnostics.push_back({Severity::kWarning, "HT301", "query[0]", "late pass", "", 8});
  r.diagnostics.push_back({Severity::kWarning, "HT204", "query[1]", "mid pass", "", 7});
  r.diagnostics.push_back({Severity::kError, "HT101", "pipeline", "early pass", "", 1});
  r.sort();
  EXPECT_EQ(r.diagnostics[0].code, "HT101");
  EXPECT_EQ(r.diagnostics[1].code, "HT204");
  EXPECT_EQ(r.diagnostics[2].code, "HT301");
}

TEST(Analysis, RunStampsPassIds) {
  ntapi::Task task("contra3");
  task.add_query(ntapi::Query()
                     .filter(FieldId::kTcpSport, htpr::Cmp::kGt, 100)
                     .filter(FieldId::kTcpSport, htpr::Cmp::kLt, 50));
  const auto compiled = Compiler().compile(task);
  for (const auto& d : compiled.analysis.diagnostics) EXPECT_GT(d.pass_id, 0u);
}

TEST(Analysis, DefaultAnalyzerHasNinePasses) {
  EXPECT_EQ(analysis::Analyzer::with_default_passes().pass_count(), 9u);
}

}  // namespace
}  // namespace ht
