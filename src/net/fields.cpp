#include "net/fields.hpp"

#include <stdexcept>
#include <unordered_map>

#include "net/bytes.hpp"

namespace ht::net {

namespace {

constexpr FieldInfo kInfos[] = {
    // Ethernet (14 bytes)
    {FieldId::kEthDst, "eth.dst", HeaderKind::kEthernet, 0, 48},
    {FieldId::kEthSrc, "eth.src", HeaderKind::kEthernet, 48, 48},
    {FieldId::kEthType, "eth.type", HeaderKind::kEthernet, 96, 16},
    // IPv4 (20 bytes, no options in the default graph)
    {FieldId::kIpv4Version, "ipv4.version", HeaderKind::kIpv4, 0, 4},
    {FieldId::kIpv4Ihl, "ipv4.ihl", HeaderKind::kIpv4, 4, 4},
    {FieldId::kIpv4Dscp, "ipv4.dscp", HeaderKind::kIpv4, 8, 6},
    {FieldId::kIpv4Ecn, "ipv4.ecn", HeaderKind::kIpv4, 14, 2},
    {FieldId::kIpv4TotalLen, "ipv4.total_len", HeaderKind::kIpv4, 16, 16},
    {FieldId::kIpv4Id, "ipv4.id", HeaderKind::kIpv4, 32, 16},
    {FieldId::kIpv4Flags, "ipv4.flags", HeaderKind::kIpv4, 48, 3},
    {FieldId::kIpv4FragOff, "ipv4.frag_off", HeaderKind::kIpv4, 51, 13},
    {FieldId::kIpv4Ttl, "ipv4.ttl", HeaderKind::kIpv4, 64, 8},
    {FieldId::kIpv4Proto, "ipv4.proto", HeaderKind::kIpv4, 72, 8},
    {FieldId::kIpv4Checksum, "ipv4.checksum", HeaderKind::kIpv4, 80, 16},
    {FieldId::kIpv4Sip, "ipv4.sip", HeaderKind::kIpv4, 96, 32},
    {FieldId::kIpv4Dip, "ipv4.dip", HeaderKind::kIpv4, 128, 32},
    // TCP (20 bytes, no options)
    {FieldId::kTcpSport, "tcp.sport", HeaderKind::kTcp, 0, 16},
    {FieldId::kTcpDport, "tcp.dport", HeaderKind::kTcp, 16, 16},
    {FieldId::kTcpSeqNo, "tcp.seq_no", HeaderKind::kTcp, 32, 32},
    {FieldId::kTcpAckNo, "tcp.ack_no", HeaderKind::kTcp, 64, 32},
    {FieldId::kTcpDataOff, "tcp.data_off", HeaderKind::kTcp, 96, 4},
    {FieldId::kTcpFlags, "tcp.flags", HeaderKind::kTcp, 106, 6},
    {FieldId::kTcpWindow, "tcp.window", HeaderKind::kTcp, 112, 16},
    {FieldId::kTcpChecksum, "tcp.checksum", HeaderKind::kTcp, 128, 16},
    {FieldId::kTcpUrgent, "tcp.urgent", HeaderKind::kTcp, 144, 16},
    // UDP (8 bytes)
    {FieldId::kUdpSport, "udp.sport", HeaderKind::kUdp, 0, 16},
    {FieldId::kUdpDport, "udp.dport", HeaderKind::kUdp, 16, 16},
    {FieldId::kUdpLen, "udp.len", HeaderKind::kUdp, 32, 16},
    {FieldId::kUdpChecksum, "udp.checksum", HeaderKind::kUdp, 48, 16},
    // ICMP (8 bytes echo format)
    {FieldId::kIcmpType, "icmp.type", HeaderKind::kIcmp, 0, 8},
    {FieldId::kIcmpCode, "icmp.code", HeaderKind::kIcmp, 8, 8},
    {FieldId::kIcmpChecksum, "icmp.checksum", HeaderKind::kIcmp, 16, 16},
    {FieldId::kIcmpId, "icmp.id", HeaderKind::kIcmp, 32, 16},
    {FieldId::kIcmpSeq, "icmp.seq", HeaderKind::kIcmp, 48, 16},
    // NVP (12 bytes): type, flags, session, sequence, nonce.
    {FieldId::kNvpMsgType, "nvp.msg_type", HeaderKind::kNvp, 0, 8},
    {FieldId::kNvpFlags, "nvp.flags", HeaderKind::kNvp, 8, 8},
    {FieldId::kNvpSessionId, "nvp.session_id", HeaderKind::kNvp, 16, 32},
    {FieldId::kNvpSeq, "nvp.seq", HeaderKind::kNvp, 48, 32},
    {FieldId::kNvpNonce, "nvp.nonce", HeaderKind::kNvp, 80, 16},
    // Control fields (Table 1). Widths are chosen to bound NTAPI values.
    {FieldId::kPktLen, "pkt_len", HeaderKind::kNone, 0, 16},
    {FieldId::kInterval, "interval", HeaderKind::kNone, 0, 48},
    {FieldId::kPort, "port", HeaderKind::kNone, 0, 16},
    {FieldId::kLoop, "loop", HeaderKind::kNone, 0, 32},
    {FieldId::kPayload, "payload", HeaderKind::kNone, 0, 64},
    // Metadata
    {FieldId::kMetaIngressPort, "meta.ingress_port", HeaderKind::kNone, 0, 16},
    {FieldId::kMetaEgressPort, "meta.egress_port", HeaderKind::kNone, 0, 16},
    {FieldId::kMetaIngressTstamp, "meta.ingress_tstamp", HeaderKind::kNone, 0, 48},
    {FieldId::kMetaEgressTstamp, "meta.egress_tstamp", HeaderKind::kNone, 0, 48},
    {FieldId::kMetaPacketId, "meta.packet_id", HeaderKind::kNone, 0, 32},
    {FieldId::kMetaRng, "meta.rng", HeaderKind::kNone, 0, 32},
    {FieldId::kMetaDigest, "meta.digest", HeaderKind::kNone, 0, 32},
    {FieldId::kMetaTemplateId, "meta.template_id", HeaderKind::kNone, 0, 16},
};

static_assert(std::size(kInfos) == kFieldCount, "field table out of sync with FieldId");

}  // namespace

FieldRegistry::FieldRegistry() {
  infos_.assign(std::begin(kInfos), std::end(kInfos));
}

const FieldRegistry& FieldRegistry::instance() {
  static const FieldRegistry registry;
  return registry;
}

const FieldInfo& FieldRegistry::info(FieldId id) const {
  const auto index = static_cast<std::size_t>(id);
  if (index >= infos_.size()) throw std::out_of_range("FieldRegistry::info: bad FieldId");
  return infos_[index];
}

std::optional<FieldId> FieldRegistry::by_name(std::string_view name) const {
  static const std::unordered_map<std::string_view, FieldId> index = [] {
    std::unordered_map<std::string_view, FieldId> m;
    for (const auto& fi : kInfos) m.emplace(fi.name, fi.id);
    return m;
  }();
  const auto it = index.find(name);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

std::uint64_t FieldRegistry::max_value(FieldId id) const { return low_mask(info(id).bit_width); }

bool is_control_field(FieldId id) {
  switch (id) {
    case FieldId::kPktLen:
    case FieldId::kInterval:
    case FieldId::kPort:
    case FieldId::kLoop:
    case FieldId::kPayload:
      return true;
    default:
      return false;
  }
}

bool is_metadata_field(FieldId id) {
  return static_cast<std::uint16_t>(id) >= static_cast<std::uint16_t>(FieldId::kMetaIngressPort) &&
         id != FieldId::kCount;
}

bool is_header_field(FieldId id) {
  return field_header(id) != HeaderKind::kNone;
}

}  // namespace ht::net
