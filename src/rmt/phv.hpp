// PHV: the packet header vector flowing through the match-action pipeline.
//
// The parser extracts header fields into the PHV; tables match and actions
// rewrite PHV containers; the deparser writes valid headers back into the
// raw packet. Intrinsic metadata carries the destination decision consumed
// by the traffic manager.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <vector>

#include "net/bytes.hpp"
#include "net/fields.hpp"
#include "net/packet.hpp"

namespace ht::rmt {

/// Where the traffic manager should send the packet after ingress.
enum class Destination : std::uint8_t {
  kDrop,
  kUnicast,
  kMulticast,
};

struct IntrinsicMeta {
  Destination dest = Destination::kDrop;
  std::uint16_t ucast_port = 0;
  std::uint16_t mcast_group = 0;
  std::uint16_t rid = 0;  ///< replication id assigned by the mcast engine
};

class Phv {
 public:
  std::uint64_t get(net::FieldId id) const { return values_[index(id)]; }
  /// Action-side write: masks to field width and marks the container
  /// dirty so the deparser writes it back.
  void set(net::FieldId id, std::uint64_t value) {
    values_[index(id)] = value & net::field_mask(id);
    valid_.set(index(id));
    modified_.set(index(id));
  }
  /// Parser-side load: populates the container without dirtying it (the
  /// deparser only needs to write fields an action changed).
  void load(net::FieldId id, std::uint64_t value) {
    values_[index(id)] = value;
    valid_.set(index(id));
  }
  bool valid(net::FieldId id) const { return valid_.test(index(id)); }
  bool modified(net::FieldId id) const { return modified_.test(index(id)); }
  /// Modified containers as a bit mask (bit = FieldId value); the deparser
  /// walks set bits instead of scanning every field of every header.
  std::uint64_t modified_mask() const {
    static_assert(net::kFieldCount <= 64, "modified_mask needs one word");
    return modified_.to_ullong();
  }

  bool header_valid(net::HeaderKind h) const {
    return header_valid_.test(static_cast<std::size_t>(h));
  }
  void set_header_valid(net::HeaderKind h, bool v = true) {
    header_valid_.set(static_cast<std::size_t>(h), v);
  }

  IntrinsicMeta& intrinsic() { return intrinsic_; }
  const IntrinsicMeta& intrinsic() const { return intrinsic_; }

  /// The raw packet underneath (payload bytes, simulation metadata).
  net::PacketPtr packet;

  /// Byte offset of each parsed header within the raw packet, recorded by
  /// the parser so the deparser can write fields back. -1 when not parsed.
  std::array<int, static_cast<std::size_t>(net::HeaderKind::kNone)> header_offset{};

  Phv() { header_offset.fill(-1); }

 private:
  static std::size_t index(net::FieldId id) { return static_cast<std::size_t>(id); }
  std::array<std::uint64_t, net::kFieldCount> values_{};
  std::bitset<net::kFieldCount> valid_;
  std::bitset<net::kFieldCount> modified_;
  std::bitset<static_cast<std::size_t>(net::HeaderKind::kNone)> header_valid_;
  IntrinsicMeta intrinsic_;
};

}  // namespace ht::rmt
