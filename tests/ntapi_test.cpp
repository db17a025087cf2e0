// Tests for the NTAPI layer: values, task builders, validation,
// header-space enumeration, compilation, and the P4 backend.
#include <gtest/gtest.h>

#include "apps/tasks.hpp"
#include "ntapi/compiler.hpp"
#include "ntapi/header_space.hpp"
#include "ntapi/p4gen.hpp"
#include "ntapi/validation.hpp"

namespace ht::ntapi {
namespace {

using net::FieldId;
namespace flag = net::tcpflag;

TEST(Value, StreamLengthsAndBounds) {
  EXPECT_EQ(Value::constant(5).stream_length(), 1u);
  EXPECT_EQ(Value::array({1, 2, 3}).stream_length(), 3u);
  EXPECT_EQ(Value::range(10, 20, 2).stream_length(), 6u);
  EXPECT_EQ(Value::random_uniform(0, 100).stream_length(), 1u);
  EXPECT_EQ(Value::range(10, 20, 2).min_value(), 10u);
  EXPECT_EQ(Value::range(10, 20, 2).max_value(), 20u);
  EXPECT_EQ(Value::range(10, 21, 2).max_value(), 20u);  // last step fits
  EXPECT_EQ(Value::array({7, 3, 9}).min_value(), 3u);
  EXPECT_EQ(Value::array({7, 3, 9}).initial_value(), 7u);
}

TEST(Value, EnumerationRespectsCap) {
  std::vector<std::uint64_t> out;
  EXPECT_TRUE(Value::range(0, 9, 1).enumerate(out, 10));
  EXPECT_EQ(out.size(), 10u);
  out.clear();
  EXPECT_FALSE(Value::range(0, 10, 1).enumerate(out, 10));
}

TEST(Value, RandomSupportIsEnumerable) {
  // Random values land on inverse-transform bucket values.
  std::vector<std::uint64_t> out;
  EXPECT_TRUE(Value::random_uniform(100, 200).enumerate(out, 1000));
  EXPECT_FALSE(out.empty());
  for (const auto v : out) {
    EXPECT_GE(v, 100u);
    EXPECT_LE(v, 200u);
  }
}

TEST(Value, RandomBoundsComeFromDistribution) {
  const Value v = Value::random_normal(1000, 10);
  EXPECT_GT(v.min_value(), 900u);
  EXPECT_LT(v.max_value(), 1100u);
}

TEST(TaskBuilder, LocCountsStatements) {
  // Table 3's throughput test: trigger + 2 sets + 2x(query + map + reduce).
  Task task("t");
  auto t1 = task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport,
                FieldId::kUdpSport},
               {1, 2, net::ipproto::kUdp, 1, 1})
          .set({FieldId::kLoop, FieldId::kPktLen}, {Value::constant(0), Value::constant(64)}));
  task.add_query(Query(t1).map_value(FieldId::kPktLen).reduce(Reduce::kSum));
  task.add_query(Query().map_value(FieldId::kPktLen).reduce(Reduce::kSum));
  EXPECT_EQ(task.ntapi_loc(), 9u);  // matches Table 5's throughput row
}

TEST(TaskBuilder, LaterSetOverrides) {
  Trigger t;
  t.set(FieldId::kUdpDport, 80).set(FieldId::kUdpDport, 443);
  const auto* b = t.find(FieldId::kUdpDport);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(std::get<Value>(b->source).initial_value(), 443u);
}

TEST(Validation, AcceptsAllLibraryApps) {
  const rmt::AsicConfig cfg{.num_ports = 32};
  EXPECT_TRUE(validate(apps::throughput_test(1, 2, {0}).task, cfg).empty());
  EXPECT_TRUE(validate(apps::delay_test(1, 2, {0}, {1}).task, cfg).empty());
  EXPECT_TRUE(validate(apps::ip_scan(0x0A000000, 256, 80, {0}).task, cfg).empty());
  EXPECT_TRUE(validate(apps::syn_flood(1, 80, {0, 1}).task, cfg).empty());
  EXPECT_TRUE(validate(apps::web_test(1, 80, 0x01010001, 16, {0}).task, cfg).empty());
  EXPECT_TRUE(validate(apps::udp_flood(1, 53, {0}).task, cfg).empty());
  EXPECT_TRUE(validate(apps::dns_amplification(1, 0x08080800, 16, {0}).task, cfg).empty());
  EXPECT_TRUE(validate(apps::loss_test(1, 2, {0}, {1}, 100).task, cfg).empty());
  EXPECT_TRUE(validate(apps::port_bandwidth().task, cfg).empty());
  EXPECT_TRUE(validate(apps::ping_sweep(0x0A000000, 64, {0}).task, cfg).empty());
}

TEST(Validation, RejectsOversizedFieldValue) {
  // The paper's example: a TCP port larger than 65535.
  Task task("bad");
  task.add_trigger(Trigger().set(FieldId::kTcpDport, 70000));
  const auto errors = validate(task, {});
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("exceeds width"), std::string::npos);
}

TEST(Validation, RandomValueIsCheckedAgainstItsEmittedBuckets) {
  // random_normal(240, 4) emits inverse-transform buckets in [228, 252];
  // its analytic tail (mean + 6 sigma = 264) is not on the wire.
  const Value ok_ttl = Value::random_normal(240, 4);
  std::vector<std::uint64_t> buckets;
  ASSERT_TRUE(ok_ttl.enumerate(buckets, 1024));
  EXPECT_GE(buckets.front(), 228u);
  EXPECT_LE(buckets.back(), 252u);
  Task task("ttl");
  task.add_trigger(Trigger()
                       .set({FieldId::kIpv4Dip, FieldId::kIpv4Proto},
                            {0x0A000002, net::ipproto::kUdp})
                       .set(FieldId::kIpv4Ttl, ok_ttl)
                       .set(FieldId::kInterval, 1000)
                       .set(FieldId::kPort, Value::array({0})));
  EXPECT_TRUE(validate(task, {}).empty());
  EXPECT_NO_THROW(Compiler().compile(task));

  // Buckets past 255 are still rejected, with the usual message.
  const Value bad_ttl = Value::random_normal(254, 4);
  Task bad("ttl-bad");
  bad.add_trigger(Trigger()
                      .set({FieldId::kIpv4Dip, FieldId::kIpv4Proto},
                           {0x0A000002, net::ipproto::kUdp})
                      .set(FieldId::kIpv4Ttl, bad_ttl)
                      .set(FieldId::kInterval, 1000)
                      .set(FieldId::kPort, Value::array({0})));
  const auto errors = validate(bad, {});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].message,
            "value " + bad_ttl.to_string() + " exceeds width of ipv4.ttl (max 255)");
}

TEST(Validation, RejectsOversizedFilterConstant) {
  // A filter constant is checked against the field width like a set
  // value; a result filter compares the reduce result and is exempt.
  Task task("bad");
  task.add_query(Query().filter(FieldId::kTcpDport, htpr::Cmp::kEq, 70000));
  const auto errors = validate(task, {});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].where, "query[0]");
  EXPECT_EQ(errors[0].message, "value 70000 exceeds width of tcp.dport (max 65535)");

  Task ok("ok");
  ok.add_query(Query()
                   .filter(FieldId::kTcpDport, htpr::Cmp::kEq, 65535)
                   .map({FieldId::kIpv4Sip})
                   .reduce(Reduce::kCount)
                   .filter_result(htpr::Cmp::kGe, 70000));
  EXPECT_TRUE(validate(ok, {}).empty());
}

TEST(Validation, RejectsFieldOutsideStack) {
  Task task("bad");
  task.add_trigger(Trigger()
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kUdp))
                       .set(FieldId::kTcpDport, 80));  // TCP field on a UDP template
  EXPECT_FALSE(validate(task, {}).empty());
}

TEST(Validation, RejectsBadRangesAndRandoms) {
  Task t1("bad1"), t2("bad2"), t3("bad3");
  t1.add_trigger(Trigger().set(FieldId::kIpv4Dip, Value::range(10, 5, 1)));
  t2.add_trigger(Trigger().set(FieldId::kIpv4Dip, Value(RangeArray{0, 10, 0})));
  t3.add_trigger(Trigger().set(FieldId::kIpv4Dip, Value::random_uniform(10, 5)));
  EXPECT_FALSE(validate(t1, {}).empty());
  EXPECT_FALSE(validate(t2, {}).empty());
  EXPECT_FALSE(validate(t3, {}).empty());
}

TEST(Validation, RejectsBadPortsAndIntervals) {
  const rmt::AsicConfig cfg{.num_ports = 4};
  Task t1("p");
  t1.add_trigger(Trigger().set(FieldId::kPort, 9));  // beyond the panel
  EXPECT_FALSE(validate(t1, cfg).empty());
  Task t2("i");
  t2.add_trigger(Trigger().set(FieldId::kInterval, Value::array({1, 2})));
  EXPECT_FALSE(validate(t2, cfg).empty());
  Task t3("l");
  t3.add_trigger(Trigger().set(FieldId::kLoop, Value::range(0, 3, 1)));
  EXPECT_FALSE(validate(t3, cfg).empty());
}

TEST(Validation, RejectsBrokenWiring) {
  Task t1("w1");
  t1.add_trigger(Trigger(QueryHandle{5}));  // nonexistent query
  EXPECT_FALSE(validate(t1, {}).empty());

  Task t2("w2");
  t2.add_trigger(Trigger().set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip)));
  EXPECT_FALSE(validate(t2, {}).empty());  // Q.field without a source query

  Task t3("w3");
  t3.add_query(Query(TriggerHandle{7}));  // nonexistent trigger
  EXPECT_FALSE(validate(t3, {}).empty());
}

TEST(Validation, RejectsBadQueryPrograms) {
  Task t1("q1");
  t1.add_query(Query().filter_result(htpr::Cmp::kLt, 5));  // result filter before reduce
  EXPECT_FALSE(validate(t1, {}).empty());

  Task t2("q2");
  t2.add_query(Query().map({}).reduce(Reduce::kSum).reduce(Reduce::kSum));
  EXPECT_FALSE(validate(t2, {}).empty());

  Task t3("q3");
  t3.add_query(Query().map({FieldId::kIpv4Sip}).distinct().store_shape(1000, 16));
  EXPECT_FALSE(validate(t3, {}).empty());  // non-power-of-two buckets
}

TEST(Validation, OversizedValuesInEveryValueShape) {
  // Width checking must look at the whole support, not just the first
  // element: lists, ranges and random bounds can all overflow the field.
  Task t1("list");
  t1.add_trigger(Trigger().set(FieldId::kTcpSport, Value::array({80, 443, 70000})));
  Task t2("range");
  t2.add_trigger(Trigger().set(FieldId::kIpv4Ttl, Value::range(200, 300, 1)));  // 8-bit field
  Task t3("random");
  t3.add_trigger(Trigger().set(FieldId::kTcpSport, Value::random_uniform(0, 1 << 17)));
  for (const auto* t : {&t1, &t2, &t3}) {
    const auto errors = validate(*t, {});
    ASSERT_FALSE(errors.empty()) << t->name();
    EXPECT_NE(errors[0].message.find("exceeds width"), std::string::npos) << t->name();
  }
}

TEST(Validation, UnknownQueryHandleInFifoWiring) {
  // A query-based trigger names a query that does not exist: the FIFO
  // wiring has no producer side.
  Task task("dangling");
  task.add_query(Query().filter(FieldId::kTcpFlags, htpr::Cmp::kEq, 0x12));
  task.add_trigger(Trigger(QueryHandle{3})
                       .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip)));
  const auto errors = validate(task, {});
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].where, "trigger[0]");
  EXPECT_NE(errors[0].message.find("nonexistent query"), std::string::npos);
}

TEST(Validation, FifoWiringNeedsReceivedTrafficDriver) {
  // Stateless connections react to *received* packets; a sent-traffic
  // query cannot drive a trigger FIFO.
  Task task("sentdriver");
  const auto t0 = task.add_trigger(Trigger().set(FieldId::kIpv4Dip, 1));
  const auto q = task.add_query(Query(t0).filter(FieldId::kIpv4Sip, htpr::Cmp::kNe, 0));
  task.add_trigger(Trigger(q).set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip)));
  const auto errors = validate(task, {});
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("received-traffic"), std::string::npos);
}

TEST(Validation, OperatorSequencesHtprRejects) {
  // distinct() with no preceding keyed map: nothing to deduplicate on.
  Task t1("nokey");
  t1.add_query(Query().distinct());
  ASSERT_FALSE(validate(t1, {}).empty());
  EXPECT_NE(validate(t1, {})[0].message.find("distinct requires"), std::string::npos);

  // Two aggregations (reduce + distinct) in one program: the counter
  // store holds one running aggregate per key.
  Task t2("twoagg");
  t2.add_query(Query().map({FieldId::kIpv4Sip}).distinct().reduce(Reduce::kSum));
  ASSERT_FALSE(validate(t2, {}).empty());
  EXPECT_NE(validate(t2, {})[0].message.find("multiple aggregations"), std::string::npos);

  // filter_result() before any aggregation: there is no result yet.
  Task t3("early");
  t3.add_query(Query()
                   .filter_result(htpr::Cmp::kGe, 3)
                   .map({FieldId::kIpv4Sip})
                   .reduce(Reduce::kCount));
  ASSERT_FALSE(validate(t3, {}).empty());
  EXPECT_NE(validate(t3, {})[0].message.find("result filter before"), std::string::npos);
}

TEST(Validation, AccumulatesEveryErrorBeforeRejecting) {
  // §6.1: the task is rejected with *all* mistakes attached, not just the
  // first — one edit-compile round trip, not one per mistake.
  Task task("many");
  task.add_trigger(Trigger()
                       .set(FieldId::kTcpDport, 70000)              // too wide
                       .set(FieldId::kLoop, Value::range(0, 3, 1))  // non-constant loop
                       .set(FieldId::kMetaIngressTstamp, 1));       // metadata is read-only
  task.add_query(Query().distinct());                               // no keyed map
  const auto errors = validate(task, {});
  EXPECT_GE(errors.size(), 4u);

  try {
    Compiler().compile(task);
    FAIL() << "compile must throw";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.errors().size(), errors.size());
  }
}

TEST(Validation, InferL4) {
  EXPECT_EQ(infer_l4(Trigger().set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))),
            net::HeaderKind::kTcp);
  EXPECT_EQ(infer_l4(Trigger().set(FieldId::kTcpFlags, flag::kSyn)), net::HeaderKind::kTcp);
  EXPECT_EQ(infer_l4(Trigger().set(FieldId::kIcmpType, 8)), net::HeaderKind::kIcmp);
  EXPECT_EQ(infer_l4(Trigger()), net::HeaderKind::kUdp);
}

TEST(HeaderSpace, SentSpaceIsCartesianProduct) {
  Task task("hs");
  auto t = task.add_trigger(Trigger()
                                .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kUdp))
                                .set(FieldId::kIpv4Dip, Value::range(10, 12, 1))
                                .set(FieldId::kUdpDport, Value::array({80, 81})));
  auto q = task.add_query(Query(t).map({FieldId::kIpv4Dip, FieldId::kUdpDport}).distinct());
  std::vector<htps::TemplateSpec> specs = {Compiler::build_template_spec(task, 0)};
  const auto space = enumerate_key_space(task, task.query(q),
                                         {FieldId::kIpv4Dip, FieldId::kUdpDport}, specs);
  EXPECT_TRUE(space.exact);
  EXPECT_EQ(space.keys.size(), 6u);  // 3 addresses x 2 ports
}

TEST(HeaderSpace, ReceivedSpaceIsReversed) {
  // Responses to a scan carry the scanned addresses as *source*.
  Task task("hs2");
  task.add_trigger(Trigger()
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
                       .set(FieldId::kIpv4Dip, Value::range(100, 109, 1)));
  auto q = task.add_query(Query().map({FieldId::kIpv4Sip}).distinct());
  std::vector<htps::TemplateSpec> specs = {Compiler::build_template_spec(task, 0)};
  const auto space = enumerate_key_space(task, task.query(q), {FieldId::kIpv4Sip}, specs);
  EXPECT_TRUE(space.exact);
  EXPECT_EQ(space.keys.size(), 10u);
  EXPECT_EQ(space.keys.front()[0], 100u);
}

TEST(HeaderSpace, ReversedFieldMapping) {
  EXPECT_EQ(reversed_field(FieldId::kIpv4Sip), FieldId::kIpv4Dip);
  EXPECT_EQ(reversed_field(FieldId::kTcpDport), FieldId::kTcpSport);
  EXPECT_EQ(reversed_field(FieldId::kIpv4Ttl), FieldId::kIpv4Ttl);
}

TEST(Compiler, ThroughputTaskShape) {
  auto app = apps::throughput_test(0x02020202, 0x01010101, {1, 2}, 128, 1000);
  Compiler compiler(rmt::AsicConfig{.num_ports = 4});
  const auto compiled = compiler.compile(app.task);
  ASSERT_EQ(compiled.templates.size(), 1u);
  const auto& tpl = compiled.templates[0];
  EXPECT_EQ(tpl.spec.pkt_len, 128u);
  EXPECT_EQ(tpl.interval_ns, 1000u);
  EXPECT_EQ(tpl.egress_ports, (std::vector<std::uint16_t>{1, 2}));
  EXPECT_EQ(tpl.spec.l4, net::HeaderKind::kUdp);
  ASSERT_EQ(compiled.queries.size(), 2u);
  EXPECT_EQ(compiled.queries[0].config.source, htpr::QueryConfig::Source::kSent);
  EXPECT_EQ(compiled.queries[1].config.source, htpr::QueryConfig::Source::kReceived);
  EXPECT_TRUE(compiled.fifos.empty());
}

TEST(Compiler, RejectsInvalidTask) {
  Task task("bad");
  task.add_trigger(Trigger().set(FieldId::kTcpDport, 70000));
  Compiler compiler;
  EXPECT_THROW(compiler.compile(task), CompileError);
  try {
    compiler.compile(task);
  } catch (const CompileError& e) {
    EXPECT_FALSE(e.errors().empty());
    EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos);
  }
}

TEST(Compiler, WebTestWiring) {
  auto app = apps::web_test(0x05050505, 80, 0x01010001, 64, {0});
  Compiler compiler(rmt::AsicConfig{.num_ports = 4});
  const auto compiled = compiler.compile(app.task);
  EXPECT_EQ(compiled.templates.size(), 6u);
  EXPECT_EQ(compiled.queries.size(), 5u);
  EXPECT_EQ(compiled.fifos.size(), 5u);  // all but the SYN trigger are query-based
  // Query-based triggers compile to FIFO mode with FromTrigger edits.
  const auto& ack_tpl = compiled.templates[app.t_ack.index];
  EXPECT_EQ(ack_tpl.mode, htps::TemplateConfig::Mode::kFifoTriggered);
  bool has_from_trigger = false;
  for (const auto& e : ack_tpl.edits) {
    has_from_trigger |= e.kind == htps::EditOp::Kind::kFromTrigger;
  }
  EXPECT_TRUE(has_from_trigger);
}

TEST(Compiler, LoopBoundBecomesFireLimit) {
  auto app = apps::ip_scan(0x0A000000, 100, 80, {0}, 1000, 3);
  Compiler compiler;
  const auto compiled = compiler.compile(app.task);
  EXPECT_EQ(compiled.templates[0].fire_limit, 300u);  // loop(3) x range(100)
}

TEST(Compiler, ExactKeysPrecomputedForKeyedQueries) {
  // A scan over 50K addresses with a small (1K-bucket) store: fingerprint
  // collisions are certain and must be resolved by exact entries.
  Task task("scan");
  task.add_trigger(Trigger()
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
                       .set(FieldId::kTcpFlags, Value::constant(flag::kSyn))
                       .set(FieldId::kIpv4Dip, Value::range(0x0A000000, 0x0A000000 + 49'999, 1)));
  auto q = task.add_query(Query()
                              .filter(FieldId::kTcpFlags, htpr::Cmp::kEq, flag::kSynAck)
                              .map({FieldId::kIpv4Sip})
                              .distinct()
                              .store_shape(1 << 10, 16));
  Compiler compiler;
  const auto compiled = compiler.compile(task);
  const auto& cq = compiled.queries[q.index];
  EXPECT_TRUE(cq.false_positive_free);
  EXPECT_EQ(cq.key_space_size, 50'000u);
  EXPECT_GT(cq.exact_keys.size(), 0u);
  EXPECT_LT(cq.exact_keys.size(), 2'000u);
}

TEST(Compiler, UnboundedSpacesAreFlagged) {
  // A keyed query over a field driven by received data is not enumerable.
  Task task("open");
  auto q0 = task.add_query(Query().filter(FieldId::kTcpFlags, htpr::Cmp::kEq, flag::kSynAck));
  task.add_trigger(Trigger(q0)
                       .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
                       .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp)));
  task.add_query(Query().map({FieldId::kIpv4Sip}).reduce(Reduce::kCount));
  Compiler compiler;
  const auto compiled = compiler.compile(task);
  EXPECT_FALSE(compiled.queries[1].false_positive_free);
  EXPECT_FALSE(compiled.warnings.empty());
}

TEST(P4Gen, StructureAndCounting) {
  auto app = apps::throughput_test(1, 2, {0});
  Compiler compiler;
  const auto compiled = compiler.compile(app.task);
  EXPECT_NE(compiled.p4_source.find("parser start"), std::string::npos);
  EXPECT_NE(compiled.p4_source.find("control ingress"), std::string::npos);
  EXPECT_NE(compiled.p4_source.find("t_sender_0"), std::string::npos);
  // Table 5's shape: P4 is several times larger than NTAPI.
  EXPECT_GT(compiled.p4_loc, 4 * compiled.ntapi_loc);
  EXPECT_GT(compiled.p4_loc, 40u);
  EXPECT_LT(compiled.p4_loc, 500u);
  // Counting excludes boilerplate and comments.
  EXPECT_LT(compiled.p4_loc, count_p4_loc(compiled.p4_source) + 1);
  EXPECT_EQ(count_p4_loc("// only comments\n\n"), 0u);
}

TEST(P4Gen, GrowsWithTaskComplexity) {
  Compiler compiler;
  const auto simple = compiler.compile(apps::syn_flood(1, 80, {0}).task);
  const auto complex = compiler.compile(apps::web_test(1, 80, 0x01010001, 16, {0}).task);
  EXPECT_GT(complex.p4_loc, simple.p4_loc);
}

}  // namespace
}  // namespace ht::ntapi
