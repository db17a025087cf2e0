// Packet: the unit moving through the simulated testbed.
//
// A Packet owns its raw bytes plus simulation metadata (ports, timestamps,
// template bookkeeping). The RMT pipeline does not mutate the raw bytes
// directly — it parses into a PHV, edits fields there, and the deparser
// writes back — but devices outside the switch (servers, baseline testers)
// work with Packet directly.
//
// Packets are handed around through PacketPtr, an intrusive refcounted
// handle. Refcounts are deliberately non-atomic: the simulator is
// single-threaded (one EventQueue drives everything), and the per-packet
// cost of atomic refcounting is exactly the kind of overhead the line-rate
// figures cannot afford. Packets normally come from a PacketPool
// (net/packet_pool.hpp) so the hot path never touches the heap after
// warm-up; a pool-less Packet allocated with `new` is also supported and
// simply deleted when its last reference drops.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace ht::net {

class PacketPool;

/// Ingress-to-egress bridged metadata words (Tofino bridge header) with a
/// small inline buffer: the stateless-connection path bridges 0–2 words per
/// packet (a trigger record, §5.3), so the common case must not allocate.
/// Records longer than the inline capacity spill to a heap vector.
class BridgedWords {
 public:
  static constexpr std::size_t kInlineCapacity = 4;

  BridgedWords() = default;
  BridgedWords(std::initializer_list<std::uint64_t> init) {
    for (const std::uint64_t v : init) push_back(v);
  }
  BridgedWords(const BridgedWords&) = default;
  BridgedWords& operator=(const BridgedWords&) = default;
  BridgedWords(BridgedWords&& other) noexcept
      : size_(other.size_), inline_(other.inline_), overflow_(std::move(other.overflow_)) {
    other.size_ = 0;
  }
  BridgedWords& operator=(BridgedWords&& other) noexcept {
    size_ = other.size_;
    inline_ = other.inline_;
    overflow_ = std::move(other.overflow_);
    other.size_ = 0;
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool spilled() const { return size_ > kInlineCapacity; }

  std::uint64_t operator[](std::size_t i) const { return data()[i]; }
  std::uint64_t& operator[](std::size_t i) { return data()[i]; }

  void push_back(std::uint64_t v) {
    if (size_ < kInlineCapacity) {
      inline_[size_++] = v;
      return;
    }
    // Spill: move the inline words into the overflow vector once, then grow
    // there. assign() (not a capacity check) so a reused, previously spilled
    // buffer never exposes stale words.
    if (size_ == kInlineCapacity) overflow_.assign(inline_.begin(), inline_.end());
    overflow_.push_back(v);
    ++size_;
  }

  void assign(std::span<const std::uint64_t> values) {
    clear();
    for (const std::uint64_t v : values) push_back(v);
  }

  /// Drops the words; keeps any spill capacity for reuse.
  void clear() { size_ = 0; }

  const std::uint64_t* begin() const { return data(); }
  const std::uint64_t* end() const { return data() + size_; }

  friend bool operator==(const BridgedWords& a, const BridgedWords& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  const std::uint64_t* data() const {
    return size_ <= kInlineCapacity ? inline_.data() : overflow_.data();
  }
  std::uint64_t* data() {
    return size_ <= kInlineCapacity ? inline_.data() : overflow_.data();
  }

  std::size_t size_ = 0;
  std::array<std::uint64_t, kInlineCapacity> inline_{};
  std::vector<std::uint64_t> overflow_;
};

/// Simulation-side metadata travelling with a packet.
struct PacketMeta {
  std::uint16_t ingress_port = 0;
  std::uint16_t egress_port = 0;
  std::uint64_t ingress_tstamp_ns = 0;  ///< MAC timestamp on arrival
  std::uint64_t egress_tstamp_ns = 0;   ///< timestamp at egress
  std::uint32_t template_id = 0;        ///< which template this replica came from
  std::uint32_t replica_index = 0;      ///< index assigned by the mcast engine
  bool is_template = false;             ///< true while circulating in the accelerator
  /// Ingress-to-egress bridged metadata (Tofino bridge header). The
  /// stateless-connection path pops a trigger record at ingress and the
  /// egress editor consumes it from here (§5.3).
  BridgedWords bridged;
};

class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::uint8_t> data) : data_(std::move(data)) {}
  Packet(std::size_t size, std::uint8_t fill) : data_(size, fill) {}

  // Copies and moves transfer payload + metadata but never the refcount or
  // pool identity: those belong to the storage slot, not the contents.
  Packet(const Packet& other) : data_(other.data_), meta_(other.meta_) {}
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      data_ = other.data_;
      meta_ = other.meta_;
    }
    return *this;
  }
  Packet(Packet&& other) noexcept
      : data_(std::move(other.data_)), meta_(std::move(other.meta_)) {}
  Packet& operator=(Packet&& other) noexcept {
    data_ = std::move(other.data_);
    meta_ = std::move(other.meta_);
    return *this;
  }

  std::span<const std::uint8_t> bytes() const { return data_; }
  std::span<std::uint8_t> bytes() { return data_; }
  std::size_t size() const { return data_.size(); }
  void resize(std::size_t size, std::uint8_t fill = 0) { data_.resize(size, fill); }

  const PacketMeta& meta() const { return meta_; }
  PacketMeta& meta() { return meta_; }

  /// Size on the wire including Ethernet overhead (preamble 8B + FCS 4B +
  /// inter-packet gap 12B) — what line-rate arithmetic must use.
  static constexpr std::size_t kWireOverhead = 24;
  std::size_t wire_size() const { return data_.size() + 4; }            ///< frame + FCS
  std::size_t line_size() const { return data_.size() + kWireOverhead; }  ///< incl. IPG

  /// The pool this packet's storage returns to when the last reference
  /// drops (nullptr for plain heap packets). The cross-shard handoff path
  /// uses this to decide between stealing and copying: a packet may only
  /// be freed on the thread owning its home pool.
  PacketPool* home_pool() const { return pool_; }

 private:
  friend class PacketPtr;
  friend class PacketPool;

  std::vector<std::uint8_t> data_;
  PacketMeta meta_;
  std::uint32_t refs_ = 0;         ///< intrusive count; non-atomic by design
  PacketPool* pool_ = nullptr;     ///< home pool, or null for plain heap
};

/// Intrusive refcounted handle to a Packet. 8 bytes (half a shared_ptr), so
/// event closures capturing one stay inside the event slab's inline buffer.
/// When the last reference drops, a pooled packet returns to its home pool
/// for reuse; a pool-less packet is deleted.
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  PacketPtr(const PacketPtr& other) : p_(other.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  PacketPtr(PacketPtr&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
  PacketPtr& operator=(const PacketPtr& other) {
    PacketPtr copy(other);
    std::swap(p_, copy.p_);
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~PacketPtr() { release(); }

  /// Adopt a heap packet with no outstanding references (refcount becomes 1).
  static PacketPtr adopt(Packet* p) { return PacketPtr(p); }

  Packet* get() const { return p_; }
  Packet& operator*() const { return *p_; }
  Packet* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  void reset() {
    release();
    p_ = nullptr;
  }

  std::uint32_t use_count() const { return p_ != nullptr ? p_->refs_ : 0; }

  friend bool operator==(const PacketPtr& a, const PacketPtr& b) { return a.p_ == b.p_; }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) { return a.p_ == nullptr; }

 private:
  explicit PacketPtr(Packet* p) : p_(p) {
    if (p_ != nullptr) ++p_->refs_;
  }
  void release() {
    if (p_ != nullptr && --p_->refs_ == 0) dispose(p_);
  }
  /// Out-of-line slow path (needs the PacketPool definition).
  static void dispose(Packet* p);

  Packet* p_ = nullptr;
};

/// Allocate a packet of `size` bytes from the default pool.
PacketPtr make_packet(std::size_t size, std::uint8_t fill = 0);
/// Pool-backed copy of an existing packet (bytes + metadata) — what the
/// mcast engine uses per replica.
PacketPtr make_packet(const Packet& proto);
/// Pool-backed adoption of a by-value packet (e.g. a PacketBuilder result).
PacketPtr make_packet(Packet&& proto);

}  // namespace ht::net
