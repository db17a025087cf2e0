// Unit tests for the net substrate: byte helpers, field registry, headers,
// checksums, packet builder, pcap.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "net/bytes.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "net/pcap.hpp"

namespace ht::net {
namespace {

TEST(Bytes, BigEndianRoundTrip) {
  std::vector<std::uint8_t> buf(16, 0);
  write_be(buf, 3, 4, 0xDEADBEEF);
  EXPECT_EQ(read_be(buf, 3, 4), 0xDEADBEEFu);
  EXPECT_EQ(buf[3], 0xDE);
  EXPECT_EQ(buf[6], 0xEF);
}

TEST(Bytes, BitFieldRoundTrip) {
  std::vector<std::uint8_t> buf(8, 0);
  write_bits(buf, 4, 4, 0x5);   // ipv4.ihl position
  write_bits(buf, 0, 4, 0x4);   // ipv4.version position
  EXPECT_EQ(buf[0], 0x45);
  EXPECT_EQ(read_bits(buf, 0, 4), 0x4u);
  EXPECT_EQ(read_bits(buf, 4, 4), 0x5u);
}

TEST(Bytes, BitFieldUnaligned) {
  std::vector<std::uint8_t> buf(8, 0xFF);
  write_bits(buf, 3, 13, 0);
  EXPECT_EQ(read_bits(buf, 3, 13), 0u);
  EXPECT_EQ(read_bits(buf, 0, 3), 0x7u);  // untouched leading bits
}

TEST(Bytes, LowMask) {
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(16), 0xFFFFu);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(FieldRegistry, LookupByName) {
  const auto& reg = FieldRegistry::instance();
  EXPECT_EQ(reg.by_name("tcp.dport"), FieldId::kTcpDport);
  EXPECT_EQ(reg.by_name("ipv4.sip"), FieldId::kIpv4Sip);
  EXPECT_EQ(reg.by_name("no.such.field"), std::nullopt);
}

TEST(FieldRegistry, WidthsAndHeaders) {
  EXPECT_EQ(field_width(FieldId::kIpv4Sip), 32);
  EXPECT_EQ(field_width(FieldId::kTcpFlags), 6);
  EXPECT_EQ(field_width(FieldId::kEthDst), 48);
  EXPECT_EQ(field_header(FieldId::kUdpDport), HeaderKind::kUdp);
  EXPECT_EQ(field_header(FieldId::kPktLen), HeaderKind::kNone);
}

TEST(FieldRegistry, ControlAndMetadataClassification) {
  EXPECT_TRUE(is_control_field(FieldId::kInterval));
  EXPECT_TRUE(is_control_field(FieldId::kLoop));
  EXPECT_FALSE(is_control_field(FieldId::kTcpDport));
  EXPECT_TRUE(is_metadata_field(FieldId::kMetaIngressTstamp));
  EXPECT_FALSE(is_metadata_field(FieldId::kIpv4Dip));
  EXPECT_TRUE(is_header_field(FieldId::kIcmpSeq));
  EXPECT_FALSE(is_header_field(FieldId::kPort));
}

TEST(FieldRegistry, MaxValue) {
  const auto& reg = FieldRegistry::instance();
  EXPECT_EQ(reg.max_value(FieldId::kTcpDport), 65535u);
  EXPECT_EQ(reg.max_value(FieldId::kIpv4Ttl), 255u);
}

TEST(Checksum, Rfc1071Example) {
  // Canonical example: sum of {0x0001, 0xf203, 0xf4f5, 0xf6f7}.
  const std::vector<std::uint8_t> bytes = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(bytes), static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(Checksum, OddLength) {
  ChecksumAccumulator acc;
  const std::vector<std::uint8_t> a = {0x01};
  const std::vector<std::uint8_t> b = {0x02, 0x03, 0x04};
  acc.add(a);
  acc.add(b);
  ChecksumAccumulator whole;
  const std::vector<std::uint8_t> all = {0x01, 0x02, 0x03, 0x04};
  whole.add(all);
  EXPECT_EQ(acc.finish(), whole.finish());
}

TEST(PacketBuilder, UdpPacketIsValid) {
  const Packet pkt = make_udp_packet(ipv4_address("10.0.0.1"), ipv4_address("10.0.0.2"), 1111,
                                     2222, 64);
  EXPECT_EQ(pkt.size(), 64u);
  EXPECT_EQ(get_field(pkt, FieldId::kIpv4Version), 4u);
  EXPECT_EQ(get_field(pkt, FieldId::kIpv4Proto), ipproto::kUdp);
  EXPECT_EQ(get_field(pkt, FieldId::kUdpSport), 1111u);
  EXPECT_EQ(get_field(pkt, FieldId::kUdpDport), 2222u);
  EXPECT_EQ(get_field(pkt, FieldId::kIpv4TotalLen), 50u);
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(PacketBuilder, TcpPacketIsValid) {
  const Packet pkt = make_tcp_packet(ipv4_address("1.1.0.1"), ipv4_address("2.2.0.2"), 1024, 80,
                                     tcpflag::kSyn, 1, 0, 64);
  EXPECT_EQ(get_field(pkt, FieldId::kTcpFlags), tcpflag::kSyn);
  EXPECT_EQ(get_field(pkt, FieldId::kTcpSeqNo), 1u);
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(PacketBuilder, CorruptionBreaksChecksum) {
  Packet pkt = make_tcp_packet(1, 2, 3, 4, tcpflag::kAck);
  pkt.bytes()[20] ^= 0xFF;  // flip a byte inside the IPv4 header
  EXPECT_FALSE(verify_checksums(pkt));
}

TEST(PacketBuilder, PayloadRoundTrip) {
  const Packet pkt =
      PacketBuilder(HeaderKind::kTcp, 64).payload("GET index.html").build();
  const auto payload_off = min_packet_size(HeaderKind::kTcp);
  const std::string got(reinterpret_cast<const char*>(pkt.bytes().data()) + payload_off, 14);
  EXPECT_EQ(got, "GET index.html");
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(PacketBuilder, UdpZeroChecksumStaysZero) {
  Packet pkt = make_udp_packet(1, 2, 3, 4);
  set_field(pkt, FieldId::kUdpChecksum, 0);
  fix_checksums(pkt);
  // fix_checksums re-computes: zero means "unused" and must be preserved.
  EXPECT_EQ(get_field(pkt, FieldId::kUdpChecksum), 0u);
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(Ipv4Address, ParseAndFormat) {
  EXPECT_EQ(ipv4_address("1.2.3.4"), 0x01020304u);
  EXPECT_EQ(ipv4_to_string(0xC0A80101), "192.168.1.1");
  EXPECT_THROW(ipv4_address("1.2.3"), std::invalid_argument);
  EXPECT_THROW(ipv4_address("1.2.3.999"), std::invalid_argument);
  EXPECT_THROW(ipv4_address("1.2.3.4.5"), std::invalid_argument);
}

TEST(Packet, WireAndLineSizes) {
  const Packet pkt(64, 0);
  EXPECT_EQ(pkt.wire_size(), 68u);
  EXPECT_EQ(pkt.line_size(), 88u);  // 64 + preamble 8 + FCS 4 + IPG 12
}

TEST(Pcap, WritesParsableFile) {
  const std::string path = "/tmp/ht_pcap_test.pcap";
  {
    PcapWriter w(path);
    w.write(make_udp_packet(1, 2, 3, 4), 1'000'000);
    w.write(make_udp_packet(1, 2, 3, 5, 128), 2'000'000);
    EXPECT_EQ(w.packets_written(), 2u);
  }
  const auto size = std::filesystem::file_size(path);
  EXPECT_EQ(size, 24u + 2 * 16u + 64u + 128u);
  std::remove(path.c_str());
}

TEST(L4Kind, Detection) {
  EXPECT_EQ(l4_kind(make_udp_packet(1, 2, 3, 4)), HeaderKind::kUdp);
  EXPECT_EQ(l4_kind(make_tcp_packet(1, 2, 3, 4, 0)), HeaderKind::kTcp);
  Packet junk(64, 0);
  EXPECT_EQ(l4_kind(junk), std::nullopt);
}

}  // namespace
}  // namespace ht::net
