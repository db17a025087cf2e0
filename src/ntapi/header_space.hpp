// Global header-space extraction (§5.2 "compiling packet stream queries").
//
// HyperTester's false-positive precomputation needs every key tuple a
// query can observe. For sent-traffic queries that is the cartesian
// product of the monitored trigger's per-field value supports. For
// received-traffic queries the space is the triggers' space with the
// direction reversed (responses mirror requests: sip <-> dip,
// sport <-> dport), which covers scans, handshakes and echo protocols.
// Spaces beyond the cap are reported as inexact — the compiler then warns
// that the query is not guaranteed false-positive-free.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "htps/template_packet.hpp"
#include "ntapi/task.hpp"

namespace ht::ntapi {

/// A ternary cube over a fixed 128-bit key: `mask` marks the cared-about
/// bits, `value` their required values (don't-care bits of `value` are
/// kept at zero). This is the bit-vector half of the header-space algebra
/// the symbolic path oracle (src/analysis/symx/) solves over — wide
/// enough for the concatenation of every key tuple the compiler emits
/// (e.g. sip+dip+sport+dport = 96 bits).
class KeyBits {
 public:
  static constexpr unsigned kBits = 128;
  static constexpr unsigned kWordBits = 64;

  /// Constrain `width` bits starting at `offset` (LSB-first across the two
  /// words; a field may span the word boundary) to equal `value`.
  /// `width == 0` is a no-op, so zero-width fields compose harmlessly.
  void set_bits(unsigned offset, unsigned width, std::uint64_t value);
  /// Read `width` bits starting at `offset` out of the value plane.
  std::uint64_t get_bits(unsigned offset, unsigned width) const;
  /// Read the same span out of the mask plane (which bits are cared).
  std::uint64_t get_mask(unsigned offset, unsigned width) const;

  unsigned cared_count() const;
  bool is_full() const { return cared_count() == kBits; }
  /// The complement of a cube (as a set of keys) is empty exactly when
  /// the cube is the whole space: no bit is cared about.
  bool complement_empty() const { return cared_count() == 0; }

  /// Cube intersection: nullopt when the two cubes disagree on a bit both
  /// care about (empty intersection); otherwise the meet of both.
  static std::optional<KeyBits> intersect(const KeyBits& a, const KeyBits& b);
  /// True iff every key satisfying `other` also satisfies `*this`
  /// (this cube's set covers the other's).
  bool covers(const KeyBits& other) const;

  friend bool operator==(const KeyBits& a, const KeyBits& b) {
    return a.value_ == b.value_ && a.mask_ == b.mask_;
  }

  const std::array<std::uint64_t, 2>& value_words() const { return value_; }

 private:
  std::array<std::uint64_t, 2> value_{};
  std::array<std::uint64_t, 2> mask_{};
};

struct KeySpace {
  std::vector<std::vector<std::uint64_t>> keys;
  bool exact = true;  ///< false when enumeration hit the cap
};

/// Enumerate the key space of `query` over the given key fields.
/// `templates` holds the compiled template spec of each trigger (for
/// default field values of unset fields).
KeySpace enumerate_key_space(const Task& task, const Query& query,
                             const std::vector<net::FieldId>& key_fields,
                             const std::vector<htps::TemplateSpec>& templates,
                             std::size_t cap = 4'000'000);

/// The response-direction twin of a field (sip <-> dip, sport <-> dport);
/// fields without a direction map to themselves.
net::FieldId reversed_field(net::FieldId field);

}  // namespace ht::ntapi
