// Central field model shared by the whole system.
//
// NTAPI statements, the RMT parser/deparser, the HTPS editor, and HTPR
// queries all refer to packet header fields through `FieldId`. Each field
// carries a dotted name ("ipv4.sip"), a bit width, and — for on-wire fields
// — the header it belongs to and its bit offset inside that header. Control
// fields (Table 1 of the paper: pkt_len, interval, port, loop, payload) and
// per-packet metadata have no wire position.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ht::net {

/// Protocol headers understood by the default parse graph. The RMT parser
/// is programmable, so user-defined headers can be registered at runtime;
/// these are the built-ins every testing task in the paper uses.
enum class HeaderKind : std::uint8_t {
  kEthernet,
  kIpv4,
  kTcp,
  kUdp,
  kIcmp,
  /// NVP ("new versioned protocol"): a custom L4 protocol (IP proto 253,
  /// the RFC 3692 experimental number) used to demonstrate the paper's
  /// §2.3 claim — HyperTester tests *new protocols*, including responsive
  /// generation, because the parser and NTAPI are protocol-independent.
  kNvp,
  kNone,  ///< control/metadata fields
};

/// Identifiers for every field NTAPI can touch. Order matters only in that
/// the numeric value indexes the PHV array.
enum class FieldId : std::uint16_t {
  // Ethernet
  kEthDst,
  kEthSrc,
  kEthType,
  // IPv4
  kIpv4Version,
  kIpv4Ihl,
  kIpv4Dscp,
  kIpv4Ecn,
  kIpv4TotalLen,
  kIpv4Id,
  kIpv4Flags,
  kIpv4FragOff,
  kIpv4Ttl,
  kIpv4Proto,
  kIpv4Checksum,
  kIpv4Sip,
  kIpv4Dip,
  // TCP
  kTcpSport,
  kTcpDport,
  kTcpSeqNo,
  kTcpAckNo,
  kTcpDataOff,
  kTcpFlags,
  kTcpWindow,
  kTcpChecksum,
  kTcpUrgent,
  // UDP
  kUdpSport,
  kUdpDport,
  kUdpLen,
  kUdpChecksum,
  // ICMP
  kIcmpType,
  kIcmpCode,
  kIcmpChecksum,
  kIcmpId,
  kIcmpSeq,
  // NVP (custom protocol, 12 bytes)
  kNvpMsgType,
  kNvpFlags,
  kNvpSessionId,
  kNvpSeq,
  kNvpNonce,
  // Control fields (Table 1)
  kPktLen,    ///< generated packet length in bytes
  kInterval,  ///< inter-departure interval in ns
  kPort,      ///< injection port
  kLoop,      ///< number of injection loops (0 = forever)
  kPayload,   ///< payload constant (handled by switch CPU, not the PHV)
  // Per-packet metadata (populated by the ASIC)
  kMetaIngressPort,
  kMetaEgressPort,
  kMetaIngressTstamp,  ///< ns MAC timestamp on arrival
  kMetaEgressTstamp,   ///< ns timestamp at egress deparser
  kMetaPacketId,       ///< replica sequence number maintained by the editor
  kMetaRng,            ///< output of the uniform RNG primitive
  kMetaDigest,         ///< hash digest computed by HTPR
  kMetaTemplateId,     ///< which template packet a replica came from
  kCount,              ///< sentinel: number of field ids
};

constexpr std::size_t kFieldCount = static_cast<std::size_t>(FieldId::kCount);

/// Static description of one field.
struct FieldInfo {
  FieldId id;
  std::string_view name;  ///< dotted NTAPI name, e.g. "tcp.dport"
  HeaderKind header;
  std::uint16_t bit_offset;  ///< offset inside the header (wire fields only)
  std::uint16_t bit_width;
};

/// Immutable registry of all built-in fields.
class FieldRegistry {
 public:
  static const FieldRegistry& instance();

  const FieldInfo& info(FieldId id) const;
  /// Look up by dotted name; nullopt when unknown.
  std::optional<FieldId> by_name(std::string_view name) const;
  /// Maximum representable value of a field (all-ones of its width).
  std::uint64_t max_value(FieldId id) const;

 private:
  FieldRegistry();
  std::vector<FieldInfo> infos_;
};

/// Convenience accessors used pervasively.
inline std::string_view field_name(FieldId id) {
  return FieldRegistry::instance().info(id).name;
}
inline std::uint16_t field_width(FieldId id) {
  return FieldRegistry::instance().info(id).bit_width;
}
/// Width mask of a field (all-ones of its bit width), served from a flat
/// table built once so per-packet paths (Phv::set on every action write)
/// skip the registry's cross-TU lookup.
inline std::uint64_t field_mask(FieldId id) {
  static const std::array<std::uint64_t, kFieldCount> masks = [] {
    std::array<std::uint64_t, kFieldCount> m{};
    const auto& reg = FieldRegistry::instance();
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      const std::uint16_t w = reg.info(static_cast<FieldId>(i)).bit_width;
      m[i] = w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
    }
    return m;
  }();
  return masks[static_cast<std::size_t>(id)];
}
inline HeaderKind field_header(FieldId id) {
  return FieldRegistry::instance().info(id).header;
}

/// True for the Table-1 control fields that steer generation rather than
/// ending up in a header.
bool is_control_field(FieldId id);
/// True for ASIC-populated metadata fields.
bool is_metadata_field(FieldId id);
/// True for fields with a wire position.
bool is_header_field(FieldId id);

/// TCP flag bits, used throughout the stateless-connection machinery.
namespace tcpflag {
constexpr std::uint64_t kFin = 0x01;
constexpr std::uint64_t kSyn = 0x02;
constexpr std::uint64_t kRst = 0x04;
constexpr std::uint64_t kPsh = 0x08;
constexpr std::uint64_t kAck = 0x10;
constexpr std::uint64_t kUrg = 0x20;
constexpr std::uint64_t kSynAck = kSyn | kAck;
constexpr std::uint64_t kPshAck = kPsh | kAck;
constexpr std::uint64_t kFinAck = kFin | kAck;
}  // namespace tcpflag

/// IPv4 protocol numbers.
namespace ipproto {
constexpr std::uint64_t kIcmp = 1;
constexpr std::uint64_t kTcp = 6;
constexpr std::uint64_t kUdp = 17;
constexpr std::uint64_t kNvp = 253;  ///< RFC 3692 experimental
}  // namespace ipproto

/// EtherTypes.
namespace ethertype {
constexpr std::uint64_t kIpv4 = 0x0800;
constexpr std::uint64_t kArp = 0x0806;
}  // namespace ethertype

}  // namespace ht::net
