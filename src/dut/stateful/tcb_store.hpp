// Million-connection TCB store (DESIGN.md §15).
//
// The stateful workload engine keeps one transmission control block per
// simulated connection in an open-addressed, slab-backed hash table sized
// for >= 1M concurrent entries. The table is *hash-sharded*: the key hash
// selects one of `hash_shards` fixed-size slot regions and the probe
// sequence stays inside that region, so a region is one contiguous slab
// walk (cache-friendly, and a natural unit for the incremental idle sweep).
//
// Design points, all pinned by tests/l7_test.cpp:
//  * One 64-byte Tcb per slot; the full 64-bit key hash is stored so probe
//    misses are resolved without key compares in the common case.
//  * Linear probing with tombstones: erase marks kTombstone, probes walk
//    through tombstones and stop at kFree; insert reuses the first
//    tombstone seen on its probe path.
//  * Listen backlog: embryonic entries (kSynRcvd/kTlsHandshake) are capped
//    by `listen_backlog`; SYNs past the cap are counted and dropped,
//    modelling an exhausted accept queue under SYN flood.
//  * SYN cookies: when enabled the server encodes hash(key, secret,
//    time-bucket) into its ISN instead of inserting an embryonic entry;
//    the final ACK revalidates the cookie (current or previous bucket) and
//    inserts the connection directly in kEstablished.
//  * Idle-timeout eviction rides the sim timer wheel: the owner schedules
//    sweep() periodically; each call walks a bounded batch of slots from a
//    persistent cursor and evicts entries idle past the timeout, so the
//    sweep cost is amortized and never stalls the event loop.
//  * fingerprint() folds every occupied slot in slot order (FNV-1a64), the
//    anchor for the cross-shard byte-identical determinism suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dut/stateful/http_model.hpp"

namespace ht::dut::stateful {

enum class TcbState : std::uint8_t {
  kFree = 0,       ///< slot never used (probe terminator)
  kSynRcvd,        ///< SYN seen, SYN-ACK sent, waiting for the final ACK
  kTlsHandshake,   ///< TCP established on the TLS port, flights outstanding
  kEstablished,    ///< ready to serve requests
  kFinWait,        ///< FIN seen, FIN-ACK sent, waiting for the last ACK
  kTombstone,      ///< erased slot (probe pass-through, insert reuse)
};

/// Number of live states (kFree..kFinWait); kTombstone is bookkeeping.
inline constexpr std::size_t kTcbStateCount = 6;

/// Connection identity from the server's point of view. The local address
/// is fixed per device, so (peer ip, peer port, local port) is the key —
/// local port distinguishes the HTTP / TLS / DNS listeners.
struct TcbKey {
  std::uint32_t peer_ip = 0;
  std::uint16_t peer_port = 0;
  std::uint16_t local_port = 0;
  bool operator==(const TcbKey&) const = default;
};

/// One connection, padded to a cache line. Timestamps are coarse
/// microsecond ticks of the sim clock (u32 wraps after ~71 minutes,
/// far beyond any testbed window).
struct Tcb {
  std::uint64_t hash = 0;       ///< full key hash (valid when occupied)
  TcbKey key;
  std::uint32_t our_seq = 0;    ///< server ISN (deterministic, key-derived)
  std::uint32_t peer_seq = 0;   ///< last in-order peer sequence number
  std::uint32_t created_us = 0;
  std::uint32_t last_active_us = 0;
  std::uint32_t requests = 0;   ///< HTTP requests served on this connection
  std::uint16_t flights_remaining = 0;  ///< TLS model countdown
  TcbState state = TcbState::kFree;
  HttpParseState http;          ///< incremental request-parser state
};
static_assert(sizeof(Tcb) <= 64, "Tcb must stay within one cache line");

struct TcbConfig {
  std::size_t capacity = std::size_t{1} << 21;  ///< total slots, power of two
  std::size_t hash_shards = 64;                 ///< power of two, <= capacity
  std::size_t listen_backlog = std::size_t{1} << 16;
  bool syn_cookies = false;
  std::uint64_t idle_timeout_ns = 0;            ///< 0 disables idle eviction
  std::uint64_t sweep_period_ns = 10'000'000;   ///< owner reschedules sweep()
  std::size_t sweep_batch = 4096;               ///< slots examined per sweep()
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;   ///< hash + cookie secret
};

struct TcbStats {
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  std::uint64_t overflow_drops = 0;   ///< insert failed: table full
  std::uint64_t backlog_drops = 0;    ///< insert failed: embryonic cap
  std::uint64_t evicted_idle = 0;
  std::uint64_t cookies_sent = 0;
  std::uint64_t cookies_accepted = 0;
  std::uint64_t cookies_rejected = 0;
  std::uint64_t high_water = 0;       ///< max simultaneously occupied
};

class TcbStore {
 public:
  explicit TcbStore(TcbConfig cfg);

  const TcbConfig& config() const { return cfg_; }
  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return occupied_; }
  std::size_t count(TcbState s) const {
    return state_count_[static_cast<std::size_t>(s)];
  }
  /// Embryonic entries (kSynRcvd + kTlsHandshake), the backlog gauge.
  std::size_t embryonic() const;
  const TcbStats& stats() const { return stats_; }

  /// Find the live entry for `key`, or nullptr.
  Tcb* lookup(const TcbKey& key);

  /// Insert a fresh entry in `state`. Returns nullptr (and counts the
  /// reason) when the region is full or the embryonic cap is hit. The
  /// caller must not insert a key that is already present.
  Tcb* insert(const TcbKey& key, TcbState state, std::uint32_t now_us);

  /// State transition maintaining the per-state gauges.
  void set_state(Tcb& tcb, TcbState next);
  void touch(Tcb& tcb, std::uint32_t now_us) { tcb.last_active_us = now_us; }
  void erase(Tcb& tcb);

  /// Deterministic server ISN for `key` (stable across retransmits).
  std::uint32_t initial_seq(const TcbKey& key) const;

  /// SYN-cookie ISN for a SYN carrying `peer_seq` at sim time `now_ns`.
  std::uint32_t cookie(const TcbKey& key, std::uint32_t peer_seq,
                       std::uint64_t now_ns);
  /// Validate the cookie echoed in the final ACK (ack-1) against the
  /// current and previous time buckets. Counts accept/reject.
  bool cookie_valid(const TcbKey& key, std::uint32_t peer_seq,
                    std::uint32_t cookie_isn, std::uint64_t now_ns);

  /// One incremental idle sweep: examine `sweep_batch` slots from the
  /// persistent cursor, evict entries idle >= idle_timeout. Returns the
  /// number evicted. No-op when idle_timeout_ns == 0.
  std::size_t sweep(std::uint32_t now_us);

  /// FNV-1a64 over every occupied slot in slot order (key, state, seqs,
  /// activity, request count) folded with the counter block — the
  /// determinism anchor compared across shard counts.
  std::uint64_t fingerprint() const;

 private:
  std::uint64_t hash_key(const TcbKey& key) const;
  /// Probe region [region_base, region_base + region_slots) for `key`.
  Tcb* find_slot(const TcbKey& key, std::uint64_t h);

  TcbConfig cfg_;
  std::vector<Tcb> slots_;
  std::size_t region_slots_ = 0;   ///< capacity / hash_shards
  std::size_t occupied_ = 0;       ///< live entries (excludes tombstones)
  std::size_t sweep_cursor_ = 0;
  std::size_t state_count_[kTcbStateCount] = {};
  TcbStats stats_;
};

}  // namespace ht::dut::stateful
