// PHV: the packet header vector flowing through the match-action pipeline.
//
// The PHV is a write-back overlay on its raw packet. The parser records
// where each header starts and whether it parsed, and loads only the
// intrinsic metadata; a header field's container is never filled from the
// wire. Reading a container that was loaded or `set` returns that value;
// any other container reads its header's parse-time bytes (0 when that
// header did not parse, or for a metadata field nobody loaded). The
// deparser writes back only `set` containers, so the overlay is exact as
// long as the packet's bytes do not change between parse and deparse —
// actions change the PHV only through `set`. Intrinsic metadata carries
// the destination decision consumed by the traffic manager.
#pragma once

#include <array>
#include <bit>
#include <bitset>
#include <cstdint>

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
  std::uint64_t get(net::FieldId id) const {
    const std::size_t i = index(id);
    return containers_.filled(i) ? containers_[i] : wire_value(i);
  }
  /// Action-side write: masks to field width and marks the container
  /// dirty so the deparser writes it back.
  void set(net::FieldId id, std::uint64_t value) {
    const std::size_t i = index(id);
    containers_.fill(i, value & net::field_mask(id));
    modified_ |= std::uint64_t{1} << i;
  }
  /// Parser-side load (intrinsic metadata): populates the container
  /// without dirtying it.
  void load(net::FieldId id, std::uint64_t value) { containers_.fill(index(id), value); }
  /// Modified containers as a bit mask (bit = FieldId value); the deparser
  /// walks set bits instead of scanning every field of every header.
  std::uint64_t modified_mask() const { return modified_; }

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
  /// the parser; unwritten containers read, and the deparser writes, at
  /// these offsets. -1 when not parsed.
  std::array<int, static_cast<std::size_t>(net::HeaderKind::kNone)> header_offset{};

  Phv() { header_offset.fill(-1); }

 private:
  static_assert(net::kFieldCount <= 64, "container masks need one word");
  static std::size_t index(net::FieldId id) { return static_cast<std::size_t>(id); }

  /// Where a field lives inside its header, flattened from the
  /// FieldRegistry once so a lazy read never goes through registry lookups.
  struct WireField {
    std::uint8_t header;  ///< HeaderKind; kNone for fields with no wire home
    std::uint16_t bit_offset;
    std::uint16_t bit_width;
  };
  static const std::array<WireField, net::kFieldCount>& wire_fields() {
    static const std::array<WireField, net::kFieldCount> table = [] {
      std::array<WireField, net::kFieldCount> t{};
      const auto& reg = net::FieldRegistry::instance();
      for (std::size_t i = 0; i < net::kFieldCount; ++i) {
        const auto& fi = reg.info(static_cast<net::FieldId>(i));
        t[i] = {static_cast<std::uint8_t>(fi.header), fi.bit_offset, fi.bit_width};
      }
      return t;
    }();
    return table;
  }

  /// An unwritten container: its field's bits at the header's parse
  /// offset, 0 when the header did not parse or the field has no wire home.
  std::uint64_t wire_value(std::size_t i) const {
    const WireField& w = wire_fields()[i];
    if (w.header >= header_offset.size()) return 0;
    const int off = header_offset[w.header];
    if (off < 0) return 0;
    return net::read_bits(packet->bytes(), static_cast<std::size_t>(off) * 8 + w.bit_offset,
                          w.bit_width);
  }

  /// The containers that were loaded or set, with their values. The rest
  /// are never filled (a parse zero-fills nothing), so a copy copies only
  /// the filled ones.
  class Containers {
   public:
    Containers() = default;
    Containers(const Containers& o) : filled_(o.filled_) { copy_values(o); }
    Containers& operator=(const Containers& o) {
      filled_ = o.filled_;
      copy_values(o);
      return *this;
    }
    bool filled(std::size_t i) const { return (filled_ >> i & 1) != 0; }
    std::uint64_t operator[](std::size_t i) const { return values_[i]; }
    void fill(std::size_t i, std::uint64_t v) {
      values_[i] = v;
      filled_ |= std::uint64_t{1} << i;
    }

   private:
    void copy_values(const Containers& o) {
      for (std::uint64_t m = filled_; m != 0; m &= m - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(m));
        values_[i] = o.values_[i];
      }
    }
    std::uint64_t filled_ = 0;
    std::array<std::uint64_t, net::kFieldCount> values_;
  };

  Containers containers_;
  std::uint64_t modified_ = 0;  ///< containers `set` (written back by deparse)
  std::bitset<static_cast<std::size_t>(net::HeaderKind::kNone)> header_valid_;
  IntrinsicMeta intrinsic_;
};

}  // namespace ht::rmt
