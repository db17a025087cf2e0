// Unit tests for the RMT ASIC substrate: parser, tables, registers,
// pipelines, traffic manager, recirculation, digests, resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "rmt/asic.hpp"
#include "rmt/hashing.hpp"
#include "sim/stats.hpp"
#include "testutil.hpp"

namespace ht::rmt {
namespace {

using net::FieldId;

Phv parse_udp(std::uint16_t sport = 10, std::uint16_t dport = 20) {
  auto pkt = net::make_packet(net::make_udp_packet(0x01010101, 0x02020202, sport,
                                                                dport, 64));
  return Parser::default_graph().parse(pkt);
}

TEST(Parser, ExtractsCanonicalStack) {
  const Phv phv = parse_udp(1234, 80);
  EXPECT_TRUE(phv.header_valid(net::HeaderKind::kEthernet));
  EXPECT_TRUE(phv.header_valid(net::HeaderKind::kIpv4));
  EXPECT_TRUE(phv.header_valid(net::HeaderKind::kUdp));
  EXPECT_FALSE(phv.header_valid(net::HeaderKind::kTcp));
  EXPECT_EQ(phv.get(FieldId::kUdpSport), 1234u);
  EXPECT_EQ(phv.get(FieldId::kUdpDport), 80u);
  EXPECT_EQ(phv.get(FieldId::kIpv4Sip), 0x01010101u);
  EXPECT_EQ(phv.get(FieldId::kPktLen), 64u);
}

TEST(Parser, StopsOnTruncatedPacket) {
  auto pkt = net::make_packet(16);  // Ethernet only, no room for IPv4
  net::set_field(*pkt, FieldId::kEthType, net::ethertype::kIpv4);
  const Phv phv = Parser::default_graph().parse(pkt);
  EXPECT_TRUE(phv.header_valid(net::HeaderKind::kEthernet));
  EXPECT_FALSE(phv.header_valid(net::HeaderKind::kIpv4));
}

TEST(Parser, DeparseWritesFieldsBack) {
  auto pkt = net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64));
  Phv phv = Parser::default_graph().parse(pkt);
  phv.set(FieldId::kUdpDport, 9999);
  phv.set(FieldId::kIpv4Ttl, 7);
  Parser::deparse(phv);
  EXPECT_EQ(net::get_field(*pkt, FieldId::kUdpDport), 9999u);
  EXPECT_EQ(net::get_field(*pkt, FieldId::kIpv4Ttl), 7u);
}

TEST(Parser, CustomGraphUnknownEtherTypeAccepts) {
  auto pkt = net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64));
  net::set_field(*pkt, FieldId::kEthType, 0x88B5);  // experimental
  const Phv phv = Parser::default_graph().parse(pkt);
  EXPECT_TRUE(phv.header_valid(net::HeaderKind::kEthernet));
  EXPECT_FALSE(phv.header_valid(net::HeaderKind::kIpv4));
}

// A frame whose every byte is nonzero and distinct-ish (so each field,
// aligned or not, reads a nonzero value), steered by the given ethertype
// and IPv4 protocol.
net::PacketPtr patterned_frame(std::size_t size, std::uint64_t ethtype, std::uint64_t proto) {
  auto pkt = net::make_packet(size);
  auto bytes = pkt->bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  net::set_field(*pkt, FieldId::kEthType, ethtype);
  if (size >= net::kEthernetBytes + net::kIpv4Bytes) {
    net::set_field(*pkt, FieldId::kIpv4Proto, proto);
  }
  pkt->meta().ingress_port = 3;
  pkt->meta().ingress_tstamp_ns = 123456789;
  pkt->meta().template_id = 42;
  return pkt;
}

// The value a parser that extracts every header field into the PHV would
// hold: the field's bits at its header's parse offset when that header
// parsed, 0 when it did not. `canonical` graphs place headers where
// net::get_field expects them, so that helper serves as the independent
// reference there.
std::uint64_t eager_value(const Phv& phv, const net::Packet& pkt, FieldId f, bool canonical) {
  const auto& fi = net::FieldRegistry::instance().info(f);
  switch (f) {
    case FieldId::kMetaIngressPort:
      return pkt.meta().ingress_port;
    case FieldId::kMetaIngressTstamp:
      return pkt.meta().ingress_tstamp_ns;
    case FieldId::kMetaTemplateId:
      return pkt.meta().template_id;
    case FieldId::kPktLen:
      return pkt.size();
    default:
      break;
  }
  if (fi.header == net::HeaderKind::kNone || !phv.header_valid(fi.header)) return 0;
  if (canonical) return net::get_field(pkt, f);
  const int off = phv.header_offset[static_cast<std::size_t>(fi.header)];
  return net::read_bits(pkt.bytes(), static_cast<std::size_t>(off) * 8 + fi.bit_offset,
                        fi.bit_width);
}

// Checks every FieldId of one parse, then that `set` values win over the
// packet bytes and that deparse writes back exactly the set wire fields.
void expect_lazy_matches_eager(const Parser& parser, const net::PacketPtr& pkt, bool canonical,
                               const std::string& what) {
  SCOPED_TRACE(what);
  const net::Packet before = *pkt;
  Phv phv = parser.parse(pkt);
  for (std::size_t i = 0; i < net::kFieldCount; ++i) {
    const auto f = static_cast<FieldId>(i);
    EXPECT_EQ(phv.get(f), eager_value(phv, before, f, canonical)) << net::field_name(f);
  }
  Parser::deparse(phv);
  EXPECT_TRUE(std::ranges::equal(pkt->bytes(), before.bytes())) << "unmodified deparse";

  // Write every header field (parsed or not) with a value past its width.
  net::Packet want = before;
  const auto& reg = net::FieldRegistry::instance();
  for (std::size_t i = 0; i < net::kFieldCount; ++i) {
    const auto f = static_cast<FieldId>(i);
    const auto& fi = reg.info(f);
    if (fi.header == net::HeaderKind::kNone) continue;
    const std::uint64_t v = 0xA5A5A5A5A5A5A5A5ull ^ i;
    phv.set(f, v);
    EXPECT_EQ(phv.get(f), v & net::field_mask(f)) << net::field_name(f);
    if (!phv.header_valid(fi.header)) continue;
    const int off = phv.header_offset[static_cast<std::size_t>(fi.header)];
    net::write_bits(want.bytes(), static_cast<std::size_t>(off) * 8 + fi.bit_offset, fi.bit_width,
                    v & net::field_mask(f));
  }
  Parser::deparse(phv);
  EXPECT_TRUE(std::ranges::equal(pkt->bytes(), want.bytes())) << "modified deparse";
}

TEST(Parser, LazyReadsEqualEagerExtraction) {
  const Parser parser = Parser::default_graph();
  const std::size_t l4_at = net::kEthernetBytes + net::kIpv4Bytes;
  const struct {
    const char* name;
    std::uint64_t proto;
    std::size_t l4_bytes;
  } l4s[] = {{"tcp", net::ipproto::kTcp, net::kTcpBytes},
             {"udp", net::ipproto::kUdp, net::kUdpBytes},
             {"icmp", net::ipproto::kIcmp, net::kIcmpBytes},
             {"nvp", net::ipproto::kNvp, net::kNvpBytes},
             {"unknown-proto", 99, 0}};
  for (const auto& l4 : l4s) {
    expect_lazy_matches_eager(parser, patterned_frame(96, net::ethertype::kIpv4, l4.proto), true,
                              l4.name);
    if (l4.l4_bytes == 0) continue;
    // Truncated one byte inside the L4 header: Ethernet and IPv4 parse.
    expect_lazy_matches_eager(
        parser, patterned_frame(l4_at + l4.l4_bytes - 1, net::ethertype::kIpv4, l4.proto), true,
        std::string(l4.name) + " truncated in L4");
  }
  expect_lazy_matches_eager(parser, patterned_frame(96, 0x86DD, net::ipproto::kTcp), true,
                            "non-IPv4 ethertype");
  expect_lazy_matches_eager(parser, patterned_frame(l4_at - 1, net::ethertype::kIpv4, 0), true,
                            "truncated in IPv4");
  auto runt = net::make_packet(net::kEthernetBytes - 1, 0x5A);
  expect_lazy_matches_eager(parser, runt, true, "truncated in Ethernet");

  // A custom graph that puts headers off their canonical offsets:
  // Ethernet, then NVP straight after it, then a UDP header inside NVP.
  Parser custom;
  custom.add_state({.name = "start",
                    .extract = net::HeaderKind::kEthernet,
                    .select = FieldId::kEthType,
                    .transitions = {{0x88B5, "nvp"}},
                    .default_next = ""});
  custom.add_state({.name = "nvp",
                    .extract = net::HeaderKind::kNvp,
                    .select = FieldId::kNvpMsgType,
                    .transitions = {{7, "inner_udp"}},
                    .default_next = ""});
  custom.add_state({.name = "inner_udp", .extract = net::HeaderKind::kUdp});
  custom.set_entry("start");
  auto framed = patterned_frame(64, 0x88B5, 0);
  net::write_bits(framed->bytes(), net::kEthernetBytes * 8, 8, 7);  // nvp.msg_type
  const Phv phv = custom.parse(framed);
  EXPECT_EQ(phv.header_offset[static_cast<std::size_t>(net::HeaderKind::kNvp)], 14);
  EXPECT_EQ(phv.header_offset[static_cast<std::size_t>(net::HeaderKind::kUdp)], 26);
  expect_lazy_matches_eager(custom, framed, false, "custom graph");
  auto other_type = patterned_frame(64, 0x88B5, 0);
  net::write_bits(other_type->bytes(), net::kEthernetBytes * 8, 8, 8);
  expect_lazy_matches_eager(custom, other_type, false, "custom graph, no inner udp");
}

TEST(HashUnit, DeterministicAndSeeded) {
  const HashUnit h1(0), h2(0), h3(99);
  const std::vector<std::uint8_t> data = {1, 2, 3, 4};
  EXPECT_EQ(h1.crc32(data), h2.crc32(data));
  EXPECT_NE(h1.crc32(data), h3.crc32(data));
}

TEST(HashUnit, FieldHashTruncates) {
  const HashUnit h(0);
  const std::vector<std::uint64_t> values = {0x01020304, 80};
  const std::vector<net::FieldId> fields = {FieldId::kIpv4Sip, FieldId::kTcpDport};
  const auto h16 = h.hash_fields(values, fields, 16);
  const auto h32 = h.hash_fields(values, fields, 32);
  EXPECT_LT(h16, 1u << 16);
  EXPECT_EQ(h16, h32 & 0xFFFFu);
}

TEST(RegisterArray, SaluAtomicity) {
  RegisterArray reg("r", 4, 32);
  const auto out = reg.execute(2, [](std::uint64_t& c) {
    c += 5;
    return c * 2;
  });
  EXPECT_EQ(out, 10u);
  EXPECT_EQ(reg.read(2), 5u);
  EXPECT_EQ(reg.salu_executions(), 1u);
}

TEST(RegisterArray, WidthMasking) {
  RegisterArray reg("r", 1, 8);
  reg.write(0, 0x1FF);
  EXPECT_EQ(reg.read(0), 0xFFu);
}

TEST(RegisterArray, OutOfRangeThrows) {
  RegisterArray reg("r", 2, 32);
  EXPECT_THROW(reg.read(2), std::out_of_range);
  EXPECT_THROW(reg.write(5, 1), std::out_of_range);
}

TEST(RegisterFile, NamedCreateGetDuplicates) {
  RegisterFile rf;
  rf.create("a", 8);
  EXPECT_TRUE(rf.contains("a"));
  EXPECT_EQ(rf.get("a").size(), 8u);
  EXPECT_THROW(rf.create("a", 4), std::invalid_argument);
  EXPECT_THROW(rf.get("b"), std::out_of_range);
}

TEST(Table, ExactMatchHitAndMiss) {
  MatchActionTable t("t", FieldId::kUdpDport, 16);
  bool hit = false;
  t.add_entry(80, [&](ActionContext&) { hit = true; });
  Phv phv = parse_udp(10, 80);
  RegisterFile rf;
  sim::Rng rng;
  ActionContext ctx{phv, rf, rng, 0, nullptr};
  EXPECT_TRUE(t.apply(ctx));
  EXPECT_TRUE(hit);
  Phv miss_phv = parse_udp(10, 81);
  ActionContext miss_ctx{miss_phv, rf, rng, 0, nullptr};
  EXPECT_FALSE(t.apply(miss_ctx));
  EXPECT_EQ(t.hits(), 1u);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(Table, DefaultActionRunsOnMiss) {
  MatchActionTable t("t", FieldId::kUdpDport, 4);
  bool fallback = false;
  t.set_default([&](ActionContext&) { fallback = true; });
  Phv phv = parse_udp();
  RegisterFile rf;
  sim::Rng rng;
  ActionContext ctx{phv, rf, rng, 0, nullptr};
  EXPECT_FALSE(t.apply(ctx));
  EXPECT_TRUE(fallback);
}

TEST(Mcast, GroupTableConfigureAndRemove) {
  McastGroupTable mc;
  EXPECT_FALSE(mc.contains(3));
  EXPECT_THROW(mc.members(3), std::out_of_range);
  mc.configure(3, {{1, 1}, {2, 2}});
  EXPECT_TRUE(mc.contains(3));
  EXPECT_EQ(mc.members(3).size(), 2u);
  mc.configure(3, {{5, 1}});  // reconfigure replaces
  EXPECT_EQ(mc.members(3).size(), 1u);
  EXPECT_EQ(mc.members(3)[0].port, 5);
  mc.remove(3);
  EXPECT_FALSE(mc.contains(3));
}

TEST(Asic, ResetProgramClearsPipelines) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  asic.ingress().add_table("a", {}, 4);
  asic.egress().add_table("b", {}, 4);
  EXPECT_EQ(asic.ingress().table_count(), 1u);
  asic.reset_program();
  EXPECT_EQ(asic.ingress().table_count(), 0u);
  EXPECT_EQ(asic.egress().table_count(), 0u);
}

TEST(Timing, ModelInvariants) {
  const TimingModel tm;
  // RTT grows monotonically with size; capacity shrinks.
  double prev_rtt = 0;
  std::uint64_t prev_cap = ~0ull;
  for (const std::size_t s : {64u, 128u, 512u, 1500u}) {
    EXPECT_GT(tm.recirc_rtt_ns(s), prev_rtt);
    EXPECT_LE(tm.accelerator_capacity(s), prev_cap);
    prev_rtt = tm.recirc_rtt_ns(s);
    prev_cap = tm.accelerator_capacity(s);
  }
  // The firing path is slower than the idle loop (mcast vs unicast TM).
  EXPECT_GT(tm.firing_rtt_ns(64), tm.recirc_rtt_ns(64));
  EXPECT_GT(tm.loop_fill_target(64), tm.accelerator_capacity(64));
  // Mcast delay interpolates Fig 15a's endpoints.
  EXPECT_NEAR(tm.mcast_delay_ns(64), 389.0, 0.1);
  EXPECT_NEAR(tm.mcast_delay_ns(1280), 454.0, 0.5);
}

TEST(Table, CapacityAndDuplicateEnforced) {
  MatchActionTable t("t", FieldId::kUdpDport, 1);
  t.add_entry(1, nullptr);
  EXPECT_THROW(t.add_entry(2, nullptr), std::length_error);
  MatchActionTable t2("t2", FieldId::kUdpDport, 8);
  t2.add_entry(1, nullptr);
  EXPECT_THROW(t2.add_entry(1, nullptr), std::invalid_argument);
  MatchActionTable keyless("k", {}, 8);
  EXPECT_THROW(keyless.add_entry(1, nullptr), std::logic_error);
}

TEST(Pipeline, GatewaySkipsTable) {
  Pipeline p("ingress", 12);
  int runs = 0;
  auto& t = p.add_table("t", {}, 4, [](const Phv& phv) {
    return phv.get(FieldId::kUdpDport) == 80;
  });
  t.set_default([&](ActionContext&) { ++runs; });
  Phv yes = parse_udp(1, 80);
  Phv no = parse_udp(1, 81);
  RegisterFile rf;
  sim::Rng rng;
  ActionContext cy{yes, rf, rng, 0, nullptr};
  ActionContext cn{no, rf, rng, 0, nullptr};
  p.apply(cy);
  p.apply(cn);
  EXPECT_EQ(runs, 1);
}

TEST(Pipeline, PlacementRejectsOversizedPrograms) {
  Pipeline p("ingress", 3);
  for (int i = 0; i < 3; ++i) p.add_table("t" + std::to_string(i), {}, 4);
  EXPECT_TRUE(p.place());
  EXPECT_EQ(p.stages_used(), 3);
  p.add_table("overflow", {}, 4);
  EXPECT_FALSE(p.place());
}

TEST(Resources, NormalizationAgainstSwitchP4) {
  ResourceUsage u;
  u.sram_kb = switch_p4_baseline().sram_kb / 10.0;
  const NormalizedUsage n = normalize(u);
  EXPECT_NEAR(n.sram_pct, 10.0, 1e-9);
  EXPECT_EQ(n.tcam_pct, 0.0);
}

TEST(Resources, AccountantAggregates) {
  ResourceAccountant acc;
  acc.add("a", {.sram_kb = 1.0});
  acc.add("a", {.sram_kb = 2.0});
  acc.add("b", {.tcam_kb = 3.0});
  EXPECT_DOUBLE_EQ(acc.component("a").sram_kb, 3.0);
  EXPECT_DOUBLE_EQ(acc.total().tcam_kb, 3.0);
}

// --- full-ASIC flows -------------------------------------------------------

TEST(Asic, UnicastForwardsWithPipelineLatency) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 4, .port_rate_gbps = 100.0});
  // Program: everything arriving on port 0 goes out port 1.
  auto& t = tb.asic.ingress().add_table("fwd", {}, 4);
  t.set_default([](ActionContext& ctx) {
    ctx.phv.intrinsic().dest = Destination::kUnicast;
    ctx.phv.intrinsic().ucast_port = 1;
  });
  tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  tb.ev.run_until(sim::us(100));
  ASSERT_EQ(tb.sinks[1]->packets.size(), 1u);
  EXPECT_EQ(tb.asic.ingress_packets(), 1u);
  EXPECT_EQ(tb.asic.egress_packets(), 1u);
  // Latency through the box: serialization + ingress + TM + egress + out.
  EXPECT_GT(tb.sinks[1]->arrival_times[0], 300u);
}

TEST(Asic, DropByDefault) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  tb.ev.run_until(sim::us(10));
  EXPECT_EQ(tb.asic.dropped_packets(), 1u);
  EXPECT_TRUE(tb.sinks[1]->packets.empty());
}

TEST(Asic, MulticastReplicatesToMembers) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 4});
  tb.asic.mcast().configure(7, {{1, 1}, {2, 2}, {3, 3}});
  auto& t = tb.asic.ingress().add_table("mc", {}, 4);
  t.set_default([](ActionContext& ctx) {
    ctx.phv.intrinsic().dest = Destination::kMulticast;
    ctx.phv.intrinsic().mcast_group = 7;
  });
  tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  tb.ev.run_until(sim::us(100));
  EXPECT_EQ(tb.sinks[1]->packets.size(), 1u);
  EXPECT_EQ(tb.sinks[2]->packets.size(), 1u);
  EXPECT_EQ(tb.sinks[3]->packets.size(), 1u);
  EXPECT_EQ(tb.asic.replicas_created(), 3u);
  // Replicas are independent copies.
  EXPECT_NE(tb.sinks[1]->packets[0].get(), tb.sinks[2]->packets[0].get());
}

TEST(Asic, McastDelayMatchesCalibration) {
  // Fig 15a: ~389ns mcast delay for 64B with RMSE < 4.5ns.
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  tb.asic.mcast().configure(1, {{1, 1}});
  auto& t = tb.asic.ingress().add_table("mc", {}, 4);
  t.set_default([](ActionContext& ctx) {
    ctx.phv.intrinsic().dest = Destination::kMulticast;
    ctx.phv.intrinsic().mcast_group = 1;
  });
  const auto& tm = tb.asic.timing();
  EXPECT_NEAR(tm.mcast_delay_ns(64), 389.0, 0.5);
  EXPECT_NEAR(tm.mcast_delay_ns(1280), 454.0, 1.0);
}

TEST(Asic, RecirculationLoopRttMatchesFig14) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  // Count loop arrivals of the template packet.
  std::vector<sim::TimeNs> arrivals;
  auto& t = asic.ingress().add_table("loop", {}, 4);
  t.set_default([&](ActionContext& ctx) {
    if (ctx.phv.get(net::FieldId::kMetaIngressPort) != rmt::SwitchAsic::kCpuPort) {
      arrivals.push_back(ctx.now);
    }
    ctx.phv.intrinsic().dest = Destination::kUnicast;
    ctx.phv.intrinsic().ucast_port = rmt::SwitchAsic::kRecircPortBase;
  });
  auto pkt = net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64));
  asic.inject_from_cpu(pkt);
  ev.run_until(sim::ms(1));
  ASSERT_GT(arrivals.size(), 1000u);
  const auto deltas = sim::inter_departure_times(
      std::vector<std::uint64_t>(arrivals.begin(), arrivals.end()));
  const auto m = sim::compute_error_metrics(deltas, asic.timing().recirc_rtt_ns(64));
  // Mean RTT ~570ns (Fig 14a), jitter RMSE below 5ns.
  EXPECT_NEAR(asic.timing().recirc_rtt_ns(64), 570.0, 2.0);
  EXPECT_LT(m.rmse, 5.0);
  EXPECT_LT(m.mae, 5.0);
}

TEST(Asic, AcceleratorCapacityMatchesFig14b) {
  const TimingModel tm;
  EXPECT_EQ(tm.accelerator_capacity(64), 89u);
  EXPECT_NEAR(tm.min_arrival_interval_ns(64), 6.4, 1e-9);
  // Capacity shrinks as template packets grow (Fig 14b shape).
  EXPECT_LT(tm.accelerator_capacity(1500), tm.accelerator_capacity(64));
}

TEST(Asic, CpuPuntAndInjection) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  auto& t = asic.ingress().add_table("tocpu", {}, 4);
  t.set_default([](ActionContext& ctx) {
    ctx.phv.intrinsic().dest = Destination::kUnicast;
    ctx.phv.intrinsic().ucast_port = rmt::SwitchAsic::kCpuPort;
  });
  net::PacketPtr punted;
  asic.set_cpu_punt([&](net::PacketPtr p) { punted = std::move(p); });
  asic.inject_from_cpu(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  ev.run_until(sim::us(100));
  ASSERT_TRUE(punted);
  EXPECT_EQ(punted->meta().ingress_port, rmt::SwitchAsic::kCpuPort);
}

TEST(Asic, DigestEngineDeliversInOrderWithServiceTime) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  std::vector<std::uint32_t> types;
  asic.digests().set_receiver([&](const DigestMessage& m) { types.push_back(m.type); });
  asic.digests().emit({.type = 1, .values = {42}, .byte_size = 16});
  asic.digests().emit({.type = 2, .values = {43}, .byte_size = 16});
  ev.run_until(sim::seconds(1));
  EXPECT_EQ(types, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(asic.digests().delivered(), 2u);
}

TEST(Asic, EgressRewritesAndChecksumsFixed) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  auto& ti = tb.asic.ingress().add_table("fwd", {}, 4);
  ti.set_default([](ActionContext& ctx) {
    ctx.phv.intrinsic().dest = Destination::kUnicast;
    ctx.phv.intrinsic().ucast_port = 1;
  });
  auto& te = tb.asic.egress().add_table("rewrite", {}, 4);
  te.set_default([](ActionContext& ctx) {
    ctx.phv.set(FieldId::kUdpDport, 5555);
  });
  tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  tb.ev.run_until(sim::us(100));
  ASSERT_EQ(tb.sinks[1]->packets.size(), 1u);
  const auto& pkt = *tb.sinks[1]->packets[0];
  EXPECT_EQ(net::get_field(pkt, FieldId::kUdpDport), 5555u);
  EXPECT_TRUE(net::verify_checksums(pkt));
}

}  // namespace
}  // namespace ht::rmt
