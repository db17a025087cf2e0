// Tests for the devices under test: forwarder, the HTTP server model as
// the web test's server, scan targets, capture and its pcap dump.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "dut/capture.hpp"
#include "dut/forwarder.hpp"
#include "dut/scan_targets.hpp"
#include "dut/stateful/http_model.hpp"
#include "dut/stateful/workload_server.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace ht::dut {
namespace {

using net::FieldId;
namespace flag = net::tcpflag;

TEST(Forwarder, ForwardsWithConfiguredDelay) {
  sim::EventQueue ev;
  Forwarder fwd(ev, {.num_ports = 2, .forward_delay_ns = 1'000.0});
  Capture a(ev, 10, 100.0), b(ev, 11, 100.0);
  a.attach(fwd.port(0));
  b.attach(fwd.port(1));
  a.port().send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  ev.run_until(sim::us(100));
  ASSERT_EQ(b.count(), 1u);
  EXPECT_EQ(fwd.forwarded(), 1u);
  // serialization (~7ns) + delay 1000 + serialization out (~7ns).
  EXPECT_NEAR(static_cast<double>(b.arrival_times()[0]), 1014.0, 5.0);
}

TEST(Forwarder, LossRateIsRespected) {
  sim::EventQueue ev;
  Forwarder fwd(ev, {.num_ports = 2, .forward_delay_ns = 10, .loss_rate = 0.5, .seed = 3});
  Capture a(ev, 10, 100.0), b(ev, 11, 100.0);
  b.set_count_only(true);
  a.attach(fwd.port(0));
  b.attach(fwd.port(1));
  for (int i = 0; i < 2000; ++i) {
    a.port().send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  }
  ev.run_until(sim::ms(10));
  EXPECT_NEAR(static_cast<double>(b.counted()), 1000.0, 80.0);
  EXPECT_EQ(fwd.forwarded() + fwd.lost(), 2000u);
}

TEST(Forwarder, CustomRoutes) {
  sim::EventQueue ev;
  Forwarder fwd(ev, {.num_ports = 4, .forward_delay_ns = 10});
  fwd.set_route(0, 3);
  Capture a(ev, 10, 100.0), d(ev, 13, 100.0);
  a.attach(fwd.port(0));
  d.attach(fwd.port(3));
  a.port().send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  ev.run_until(sim::us(10));
  EXPECT_EQ(d.count(), 1u);
}

// --- WorkloadServer as the §5.4 web-test server ---------------------------

constexpr std::uint32_t kClient = 0x01010101, kServer = 0x05050505;
constexpr std::string_view kRequest = "GET / HTTP/1.1\r\n\r\n";

net::PacketPtr client_segment(std::uint16_t sport, std::uint64_t flags, std::uint32_t seq,
                              std::uint32_t ack = 0, std::string_view payload = {}) {
  net::PacketBuilder b(net::HeaderKind::kTcp);
  b.set(FieldId::kIpv4Sip, kClient);
  b.set(FieldId::kIpv4Dip, kServer);
  b.set(FieldId::kTcpSport, sport);
  b.set(FieldId::kTcpDport, 80);
  b.set(FieldId::kTcpFlags, flags);
  b.set(FieldId::kTcpSeqNo, seq);
  b.set(FieldId::kTcpAckNo, ack);
  if (!payload.empty()) b.payload(payload);
  return net::make_packet(b.build());
}

std::size_t tcp_payload_len(const net::Packet& pkt) {
  return static_cast<std::size_t>(net::get_field(pkt, FieldId::kIpv4TotalLen)) - 40;
}

stateful::WorkloadConfig page_server(std::size_t response_bytes) {
  stateful::WorkloadConfig cfg;
  cfg.response_bytes = response_bytes;
  cfg.tcb.capacity = 1 << 10;
  cfg.tcb.hash_shards = 16;
  return cfg;
}

/// SYN, handshake ACK and a request on `sport`; returns the server's ISN.
std::uint32_t open_and_request(sim::EventQueue& ev, Capture& client, std::uint16_t sport,
                               std::string_view request) {
  const std::size_t before = client.count();
  client.port().send(client_segment(sport, flag::kSyn, 10));
  ev.run_until(ev.now() + sim::us(50));
  EXPECT_EQ(client.count(), before + 1);
  const auto& synack = *client.packets().back();
  EXPECT_EQ(net::get_field(synack, FieldId::kTcpFlags), flag::kSynAck);
  EXPECT_EQ(net::get_field(synack, FieldId::kTcpAckNo), 11u);
  EXPECT_TRUE(net::verify_checksums(synack));
  const auto isn = static_cast<std::uint32_t>(net::get_field(synack, FieldId::kTcpSeqNo));
  client.port().send(client_segment(sport, flag::kAck, 11, isn + 1));
  client.port().send(client_segment(sport, flag::kPshAck, 11, isn + 1, request));
  ev.run_until(ev.now() + sim::us(100));
  return isn;
}

TEST(WorkloadServer, ServesPageLongerThanOneMssAsContiguousPshSegments) {
  sim::EventQueue ev;
  stateful::WorkloadServer server(ev, page_server(3'000));
  Capture client(ev, 10, 100.0);
  client.attach(server.port(0));

  const std::uint32_t isn = open_and_request(ev, client, 1024, kRequest);
  EXPECT_EQ(server.handshakes_completed(), 1u);
  EXPECT_EQ(server.requests_served(), 1u);

  // Head plus 3000-byte body: 1460 + 1460 + the rest.
  const std::size_t response = stateful::http_response(200, 3'000, true).size();
  ASSERT_EQ(client.count(), 1u + 3u);
  std::size_t offset = 0;
  for (std::size_t i = 1; i < client.count(); ++i) {
    SCOPED_TRACE(i);
    const auto& seg = *client.packets()[i];
    EXPECT_EQ(net::get_field(seg, FieldId::kTcpFlags), flag::kPshAck);
    EXPECT_EQ(net::get_field(seg, FieldId::kTcpSeqNo),
              static_cast<std::uint32_t>(isn + 1 + offset));
    EXPECT_EQ(net::get_field(seg, FieldId::kTcpAckNo), 11u + kRequest.size());
    EXPECT_TRUE(net::verify_checksums(seg));
    EXPECT_LE(tcp_payload_len(seg), 1460u);
    offset += tcp_payload_len(seg);
  }
  EXPECT_EQ(tcp_payload_len(*client.packets()[1]), 1460u);
  EXPECT_EQ(offset, response);
}

TEST(WorkloadServer, ClosesOnClientFinAndFinsOnlyTheLastSegment) {
  sim::EventQueue ev;
  stateful::WorkloadServer server(ev, page_server(3'000));
  Capture client(ev, 10, 100.0);
  client.attach(server.port(0));

  // Client-initiated close: FIN -> FIN+ACK, the TCB is gone.
  const std::uint32_t isn = open_and_request(ev, client, 1024, kRequest);
  client.port().send(client_segment(1024, flag::kFin, 11 + kRequest.size(), isn + 1));
  ev.run_until(ev.now() + sim::us(100));
  EXPECT_EQ(server.connections_closed(), 1u);
  EXPECT_EQ(server.tcb().size(), 0u);
  const auto& finack = *client.packets().back();
  EXPECT_EQ(net::get_field(finack, FieldId::kTcpFlags), flag::kFinAck);
  EXPECT_EQ(net::get_field(finack, FieldId::kTcpSeqNo), isn + 1);

  // Server-initiated close: a `Connection: close` request gets its page
  // with FIN on the last segment only.
  const std::size_t before = client.count();
  open_and_request(ev, client, 1025, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(client.count(), before + 1 + 3);
  for (std::size_t i = before + 1; i + 1 < client.count(); ++i) {
    EXPECT_EQ(net::get_field(*client.packets()[i], FieldId::kTcpFlags), flag::kPshAck) << i;
  }
  EXPECT_EQ(net::get_field(*client.packets().back(), FieldId::kTcpFlags),
            flag::kPshAck | flag::kFin);
}

TEST(WorkloadServer, IgnoresWrongPortAndUnknownConnections) {
  sim::EventQueue ev;
  stateful::WorkloadServer server(ev, page_server(64));
  Capture client(ev, 10, 100.0);
  client.attach(server.port(0));
  client.port().send(
      net::make_packet(net::make_tcp_packet(kClient, kServer, 1024, 8080, flag::kSyn)));
  client.port().send(client_segment(1024, flag::kAck, 1));
  client.port().send(client_segment(1025, flag::kPshAck, 1, 1, kRequest));
  client.port().send(client_segment(1026, flag::kFin, 1));
  ev.run_until(sim::us(100));
  EXPECT_EQ(client.count(), 0u);
  EXPECT_EQ(server.syns_received(), 0u);
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_EQ(server.tcb().size(), 0u);
}

TEST(ScanTargets, LivenessIsDeterministicAndFractional) {
  sim::EventQueue ev;
  ScanTargets t(ev, {.subnet = 0x0A000000, .alive_fraction = 0.3});
  const auto alive = t.alive_in_range(0x0A000000, 0x0A000000 + 9999);
  EXPECT_NEAR(static_cast<double>(alive), 3000.0, 150.0);
  // Determinism.
  ScanTargets t2(ev, {.subnet = 0x0A000000, .alive_fraction = 0.3});
  EXPECT_EQ(t2.alive_in_range(0x0A000000, 0x0A000000 + 9999), alive);
  // Outside the subnet: dead.
  EXPECT_FALSE(t.is_alive(0x0B000001));
}

TEST(ScanTargets, RespondsPerProtocol) {
  sim::EventQueue ev;
  ScanTargets t(ev, {.subnet = 0x0A000000, .alive_fraction = 1.0, .open_port = 80});
  Capture scanner(ev, 10, 100.0);
  scanner.attach(t.port());

  // SYN to the open port -> SYN+ACK.
  scanner.port().send(net::make_packet(
      net::make_tcp_packet(1, 0x0A000005, 1024, 80, flag::kSyn, 77)));
  // SYN to a closed port -> RST.
  scanner.port().send(net::make_packet(
      net::make_tcp_packet(1, 0x0A000005, 1024, 81, flag::kSyn, 78)));
  ev.run_until(sim::us(100));
  ASSERT_EQ(scanner.count(), 2u);
  EXPECT_EQ(net::get_field(*scanner.packets()[0], FieldId::kTcpFlags), flag::kSynAck);
  EXPECT_EQ(net::get_field(*scanner.packets()[0], FieldId::kTcpAckNo), 78u);
  EXPECT_EQ(net::get_field(*scanner.packets()[1], FieldId::kTcpFlags) & flag::kRst, flag::kRst);
  EXPECT_EQ(t.synacks_sent(), 1u);
  EXPECT_EQ(t.rsts_sent(), 1u);

  // ICMP echo -> reply with matching id/seq.
  net::Packet echo = net::PacketBuilder(net::HeaderKind::kIcmp, 64)
                         .set(FieldId::kIpv4Sip, 1)
                         .set(FieldId::kIpv4Dip, 0x0A000009)
                         .set(FieldId::kIcmpType, 8)
                         .set(FieldId::kIcmpId, 42)
                         .set(FieldId::kIcmpSeq, 7)
                         .build();
  scanner.port().send(net::make_packet(std::move(echo)));
  ev.run_until(sim::us(200));
  ASSERT_EQ(scanner.count(), 3u);
  const auto& reply = *scanner.packets()[2];
  EXPECT_EQ(net::get_field(reply, FieldId::kIcmpType), 0u);
  EXPECT_EQ(net::get_field(reply, FieldId::kIcmpId), 42u);
  EXPECT_EQ(net::get_field(reply, FieldId::kIcmpSeq), 7u);
  EXPECT_EQ(t.echo_replies_sent(), 1u);
}

TEST(ScanTargets, DeadHostsSilent) {
  sim::EventQueue ev;
  ScanTargets t(ev, {.subnet = 0x0A000000, .alive_fraction = 0.0});
  Capture scanner(ev, 10, 100.0);
  scanner.attach(t.port());
  scanner.port().send(net::make_packet(
      net::make_tcp_packet(1, 0x0A000005, 1024, 80, flag::kSyn)));
  ev.run_until(sim::us(100));
  EXPECT_EQ(scanner.count(), 0u);
  EXPECT_EQ(t.probes_received(), 1u);
}

TEST(Capture, RecordsAndClears) {
  sim::EventQueue ev;
  Capture a(ev, 0, 100.0), b(ev, 1, 100.0);
  a.port().connect(&b.port());
  b.port().connect(&a.port());
  bool hook_ran = false;
  b.on_packet = [&](const net::Packet&, sim::TimeNs) { hook_ran = true; };
  a.port().send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 99)));
  ev.run_until(sim::us(10));
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.bytes(), 99u);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

TEST(CaptureDump, WritesInspectablePcap) {
  sim::EventQueue ev;
  Capture a(ev, 0, 100.0), b(ev, 1, 100.0);
  a.port().connect(&b.port());
  b.port().connect(&a.port());
  for (int i = 0; i < 7; ++i) {
    a.port().send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 100)));
  }
  ev.run_until(sim::us(100));
  const std::string path =
      (std::filesystem::temp_directory_path() / "ht_capture_dump.pcap").string();
  EXPECT_EQ(b.dump_pcap(path), 7u);
  EXPECT_EQ(std::filesystem::file_size(path), 24u + 7 * (16u + 100u));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ht::dut
