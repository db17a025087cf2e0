// Tests for the textual NTAPI front-end: lexer, parser, field aliasing,
// and end-to-end parse -> compile -> run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/hypertester.hpp"
#include "dut/capture.hpp"
#include "dut/stateful/workload_server.hpp"
#include "net/packet_builder.hpp"
#include "ntapi/compiler.hpp"
#include "ntapi/text/lexer.hpp"
#include "ntapi/text/parser.hpp"

namespace ht::ntapi::text {
namespace {

using net::FieldId;
namespace flag = net::tcpflag;

// --- lexer -------------------------------------------------------------------

TEST(Lexer, BasicTokens) {
  const auto toks = lex("T1 = trigger().set(dip, 10.0.0.1)");
  ASSERT_GE(toks.size(), 11u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "T1");
  EXPECT_EQ(toks[1].kind, TokKind::kEquals);
  EXPECT_EQ(toks[2].text, "trigger");
  EXPECT_EQ(toks[5].kind, TokKind::kDot);
  EXPECT_EQ(toks[6].text, "set");
  EXPECT_EQ(toks[8].text, "dip");
  EXPECT_EQ(toks[10].kind, TokKind::kIpAddr);
  EXPECT_EQ(toks[10].text, "10.0.0.1");
}

TEST(Lexer, TimeSuffixesNormalizeToNs) {
  const auto toks = lex("10us 5ms 1s 7ns 3K 2M");
  EXPECT_EQ(toks[0].number, 10'000u);
  EXPECT_EQ(toks[1].number, 5'000'000u);
  EXPECT_EQ(toks[2].number, 1'000'000'000u);
  EXPECT_EQ(toks[3].number, 7u);
  EXPECT_EQ(toks[4].number, 3'000u);
  EXPECT_EQ(toks[5].number, 2'000'000u);
}

TEST(Lexer, CommentsAndStrings) {
  const auto toks = lex("# a comment\npayload(\"GET index.html\") // trailing");
  EXPECT_EQ(toks[0].text, "payload");
  EXPECT_EQ(toks[2].kind, TokKind::kString);
  EXPECT_EQ(toks[2].text, "GET index.html");
  EXPECT_EQ(toks[4].kind, TokKind::kEnd);
}

TEST(Lexer, StringEscapesCarryAnHttpHead) {
  const auto toks = lex(R"(payload("GET / HTTP/1.1\r\n\r\n\t\0\q"))");
  ASSERT_EQ(toks[2].kind, TokKind::kString);
  EXPECT_EQ(toks[2].text, std::string("GET / HTTP/1.1\r\n\r\n\t\0q", 21));
}

TEST(Lexer, ComparisonOperators) {
  const auto toks = lex("== != < <= > >=");
  EXPECT_EQ(toks[0].kind, TokKind::kEqEq);
  EXPECT_EQ(toks[1].kind, TokKind::kNotEq);
  EXPECT_EQ(toks[2].kind, TokKind::kLess);
  EXPECT_EQ(toks[3].kind, TokKind::kLessEq);
  EXPECT_EQ(toks[4].kind, TokKind::kGreater);
  EXPECT_EQ(toks[5].kind, TokKind::kGreaterEq);
}

TEST(Lexer, DottedIdentifiersAndCharLiterals) {
  const auto toks = lex("tcp.flags Q1.seq_no 'N'");
  EXPECT_EQ(toks[0].text, "tcp.flags");
  EXPECT_EQ(toks[1].text, "Q1.seq_no");
  EXPECT_EQ(toks[2].text, "N");
}

TEST(Lexer, ErrorsCarryPosition) {
  try {
    lex("a = $");
    FAIL() << "expected LexError";
  } catch (const LexError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 5);
  }
  EXPECT_THROW(lex("\"unterminated"), LexError);
  EXPECT_THROW(lex("5xy"), LexError);
  EXPECT_THROW(lex("1.2.3"), LexError);
}

// --- field aliasing ------------------------------------------------------------

TEST(ResolveField, AliasesFollowProtocolContext) {
  EXPECT_EQ(resolve_field("dport", net::HeaderKind::kTcp), FieldId::kTcpDport);
  EXPECT_EQ(resolve_field("dport", net::HeaderKind::kUdp), FieldId::kUdpDport);
  EXPECT_EQ(resolve_field("sip", net::HeaderKind::kUdp), FieldId::kIpv4Sip);
  EXPECT_EQ(resolve_field("flag", net::HeaderKind::kTcp), FieldId::kTcpFlags);
  EXPECT_EQ(resolve_field("tcp.seq_no", net::HeaderKind::kUdp), FieldId::kTcpSeqNo);
  EXPECT_EQ(resolve_field("pkt_len", net::HeaderKind::kUdp), FieldId::kPktLen);
  EXPECT_EQ(resolve_field("bogus", net::HeaderKind::kUdp), std::nullopt);
}

// --- parser ----------------------------------------------------------------------

TEST(Parser, Table3ThroughputProgram) {
  // The paper's Table 3, almost verbatim.
  const auto prog = parse_ntapi(R"(
    T1 = trigger()
        .set([dip, sip, proto, dport, sport], [10.1.0.1, 10.0.0.1, udp, 1, 1])
        .set([loop, pkt_len], [0, 64])
    Q1 = query(T1).map(pkt_len).reduce(func = sum)
    Q2 = query().map(pkt_len).reduce(sum)
  )");
  EXPECT_EQ(prog.task.triggers().size(), 1u);
  EXPECT_EQ(prog.task.queries().size(), 2u);
  EXPECT_EQ(prog.task.ntapi_loc(), 9u);  // Table 5's throughput row

  const auto& t1 = prog.task.trigger(prog.trigger("T1"));
  const auto* dip = t1.find(FieldId::kIpv4Dip);
  ASSERT_NE(dip, nullptr);
  EXPECT_EQ(std::get<Value>(dip->source).initial_value(), net::ipv4_address("10.1.0.1"));
  // proto udp resolved the dport alias to udp.dport.
  EXPECT_NE(t1.find(FieldId::kUdpDport), nullptr);
  EXPECT_EQ(t1.find(FieldId::kTcpDport), nullptr);
}

TEST(Parser, TcpContextResolvesAliases) {
  const auto prog = parse_ntapi(R"(
    T1 = trigger().set([dip, proto, dport, flag, seq_no], [10.1.0.1, tcp, 80, SYN, 1])
  )");
  const auto& t1 = prog.task.trigger(prog.trigger("T1"));
  EXPECT_NE(t1.find(FieldId::kTcpDport), nullptr);
  const auto* f = t1.find(FieldId::kTcpFlags);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::get<Value>(f->source).initial_value(), flag::kSyn);
}

TEST(Parser, ValuesRangeRandomArrayFlagsums) {
  const auto prog = parse_ntapi(R"(
    T1 = trigger()
        .set(proto, tcp)
        .set(sip, range(1.1.0.1, 1.1.1.0, 1))
        .set(sport, random(U, 1024, 65535))
        .set(dport, [80, 81, 443])
        .set(flag, SYN+ACK)
        .set(interval, 10us)
  )");
  const auto& t1 = prog.task.trigger(prog.trigger("T1"));
  const auto* sip = t1.find(FieldId::kIpv4Sip);
  ASSERT_NE(sip, nullptr);
  const auto& range = std::get<RangeArray>(std::get<Value>(sip->source).get());
  EXPECT_EQ(range.start, net::ipv4_address("1.1.0.1"));
  EXPECT_EQ(range.end, net::ipv4_address("1.1.1.0"));
  const auto* sport = t1.find(FieldId::kTcpSport);
  ASSERT_NE(sport, nullptr);
  EXPECT_TRUE(std::get<Value>(sport->source).is_random());
  const auto* dport = t1.find(FieldId::kTcpDport);
  ASSERT_NE(dport, nullptr);
  EXPECT_EQ(std::get<ValueArray>(std::get<Value>(dport->source).get()).values.size(), 3u);
  const auto* fl = t1.find(FieldId::kTcpFlags);
  EXPECT_EQ(std::get<Value>(fl->source).initial_value(), flag::kSynAck);
  const auto* iv = t1.find(FieldId::kInterval);
  EXPECT_EQ(std::get<Value>(iv->source).initial_value(), 10'000u);
}

TEST(Parser, StatelessConnectionProgram) {
  // The web-testing handshake fragment of Table 4.
  const auto prog = parse_ntapi(R"(
    Q1 = query().filter(tcp_flag == SYN+ACK)
    T2 = trigger(Q1)
        .set(proto, tcp)
        .set(dip, Q1.sip).set(sip, Q1.dip)
        .set(dport, Q1.sport).set(sport, Q1.dport)
        .set(flag, ACK)
        .set(seq_no, Q1.ack_no)
        .set(ack_no, Q1.seq_no + 1)
  )");
  const auto& t2 = prog.task.trigger(prog.trigger("T2"));
  ASSERT_TRUE(t2.source_query().has_value());
  EXPECT_EQ(t2.source_query()->index, prog.query("Q1").index);
  const auto* ack = t2.find(FieldId::kTcpAckNo);
  ASSERT_NE(ack, nullptr);
  const auto& ref = std::get<QueryFieldRef>(ack->source);
  EXPECT_EQ(ref.field, FieldId::kTcpSeqNo);
  EXPECT_EQ(ref.offset, 1);
}

TEST(Parser, QueryOperators) {
  const auto prog = parse_ntapi(R"(
    Q1 = query().filter(tcp.flags == ACK).map([sip, dport]).reduce(count).filter(count < 5)
    Q2 = query().map([sip]).distinct().store(65536, 16).monitor_ports([1, 2])
  )");
  const auto& q1 = prog.task.query(prog.query("Q1"));
  ASSERT_EQ(q1.steps().size(), 4u);
  EXPECT_TRUE(std::holds_alternative<QFilter>(q1.steps()[0]));
  const auto& result_filter = std::get<QFilter>(q1.steps()[3]);
  EXPECT_TRUE(result_filter.on_result);
  EXPECT_EQ(result_filter.cmp, htpr::Cmp::kLt);
  EXPECT_EQ(result_filter.value, 5u);
  const auto& q2 = prog.task.query(prog.query("Q2"));
  EXPECT_EQ(q2.store_buckets(), 65536u);
  EXPECT_EQ(q2.ports(), (std::vector<std::uint16_t>{1, 2}));
}

TEST(Parser, PayloadAndMetaTimestamps) {
  const auto prog = parse_ntapi(R"(
    T1 = trigger().set(proto, tcp).set(seq_no, now.egress).payload("GET index.html")
  )");
  const auto& t1 = prog.task.trigger(prog.trigger("T1"));
  EXPECT_EQ(t1.payload_bytes(), "GET index.html");
  const auto* seq = t1.find(FieldId::kTcpSeqNo);
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(std::get<MetaFieldRef>(seq->source).field, FieldId::kMetaEgressTstamp);
}

TEST(Parser, ErrorsAreInformative) {
  EXPECT_THROW(parse_ntapi("T1 = widget()"), ParseError);
  EXPECT_THROW(parse_ntapi("T1 = trigger().frobnicate(1)"), ParseError);
  EXPECT_THROW(parse_ntapi("T1 = trigger().set(nosuchfield, 1)"), ParseError);
  EXPECT_THROW(parse_ntapi("T1 = trigger(Q9)"), ParseError);  // undefined query
  EXPECT_THROW(parse_ntapi("Q1 = query(T9)"), ParseError);    // undefined trigger
  EXPECT_THROW(parse_ntapi("Q1 = query().reduce(median)"), ParseError);
  EXPECT_THROW(parse_ntapi("T1 = trigger().set([a, b], [1])"), ParseError);  // arity
  EXPECT_THROW(parse_ntapi("Q1 = query().filter(sip ~ 3)"), LexError);
  try {
    parse_ntapi("T1 = trigger()\nT2 = frobnicate()");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, ParsedProgramCompilesAndRuns) {
  // End to end: text -> Task -> compile -> simulated run -> results.
  auto prog = parse_ntapi(R"(
    T1 = trigger()
        .set([dip, sip, proto, dport, sport], [10.1.0.1, 10.0.0.1, udp, 7, 7])
        .set(pkt_len, 128)
        .set(interval, 1us)
        .set(port, 1)
    Q1 = query(T1).map(pkt_len).reduce(sum)
  )");
  HyperTester tester;
  dut::Capture sink(tester.events(), 100, 100.0);
  sink.set_count_only(true);
  sink.attach(tester.asic().port(1));
  tester.load(prog.task);
  tester.start();
  tester.run_for(sim::ms(5));
  // ~5000 packets of 128B at 1Mpps.
  EXPECT_NEAR(static_cast<double>(tester.query_total(prog.query("Q1"))), 128.0 * 5000,
              128.0 * 100);
  EXPECT_EQ(tester.query_total(prog.query("Q1")), sink.bytes());
}

TEST(Parser, FullWebTestingScriptAgainstServer) {
  // Table 4 as the shipped script, driven against the HTTP server model:
  // every connection it opens completes its handshake, its requests (an
  // HTTP/1.1 head spelled with \r\n escapes) get answered, and each client
  // acknowledges its five-segment page and closes.
  const auto path =
      std::filesystem::path(HT_SOURCE_DIR) / "examples" / "scripts" / "web_testing.nt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto prog = parse_ntapi(buf.str(), "web_testing.nt");

  HyperTester tester;
  dut::stateful::WorkloadConfig wcfg;
  wcfg.response_bytes = 6000;
  wcfg.tcb.capacity = 1 << 12;
  dut::stateful::WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();
  tester.load(prog.task);
  tester.start();
  tester.run_for(sim::ms(20));
  EXPECT_GT(server.syns_received(), 100u);
  // Each stage trails the one before it by at most the connection still in
  // flight at the cut: a client's SYN, request and FIN reach the server
  // within a few microseconds of each other, and T1 opens one every 10 us.
  EXPECT_LE(server.handshakes_completed(), server.syns_received());
  EXPECT_LE(server.syns_received() - server.handshakes_completed(), 1u);
  EXPECT_EQ(server.requests_served(), server.responses_2xx());
  // T3 fires once per SYN+ACK.
  EXPECT_LE(server.handshakes_completed() - server.requests_served(), 1u);
  // T4 acknowledges the first four segments and T5's FIN closes the
  // connection once the fifth arrives.
  const std::uint64_t pages = tester.trigger_fires(prog.trigger("T5"));
  EXPECT_GE(tester.trigger_fires(prog.trigger("T4")), 4 * pages);
  EXPECT_LE(tester.trigger_fires(prog.trigger("T4")), 4 * server.requests_served());
  EXPECT_LE(server.connections_closed(), pages);
  EXPECT_LE(server.requests_served() - server.connections_closed(), 1u);
  EXPECT_GT(tester.query_total(prog.query("Q5")), 0u);
}

TEST(Parser, AllShippedScriptsParseAndCompile) {
  // Regression guard: every .nt script under examples/scripts must parse
  // and compile against a 32-port switch.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(HT_SOURCE_DIR) / "examples" / "scripts";
  ASSERT_TRUE(fs::exists(dir)) << dir;
  std::size_t scripts = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".nt") continue;
    ++scripts;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const auto prog = parse_ntapi(buf.str(), entry.path().filename().string());
    ntapi::Compiler compiler(rmt::AsicConfig{.num_ports = 32});
    EXPECT_NO_THROW(compiler.compile(prog.task));
  }
  EXPECT_GE(scripts, 5u);
}

}  // namespace
}  // namespace ht::ntapi::text
