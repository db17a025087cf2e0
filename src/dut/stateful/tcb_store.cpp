#include "dut/stateful/tcb_store.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ht::dut::stateful {

namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// splitmix64 finalizer: the avalanche mix used across the repo for
/// decorrelated seeds; here it spreads the packed key over the table.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t pack_key(const TcbKey& key) {
  return (static_cast<std::uint64_t>(key.peer_ip) << 32) |
         (static_cast<std::uint64_t>(key.peer_port) << 16) |
         static_cast<std::uint64_t>(key.local_port);
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (i * 8)) & 0xFF)) * kFnvPrime;
  }
  return h;
}

/// Cookie time buckets: 2^26 ns ≈ 67 ms. A handshake RTT is microseconds
/// in the testbed, so validating against the current and previous bucket
/// leaves generous slack while still expiring stale cookies.
constexpr unsigned kCookieBucketShift = 26;

}  // namespace

TcbStore::TcbStore(TcbConfig cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0 || !std::has_single_bit(cfg_.capacity)) {
    throw std::invalid_argument("TcbStore: capacity must be a power of two");
  }
  if (cfg_.hash_shards == 0 || !std::has_single_bit(cfg_.hash_shards) ||
      cfg_.hash_shards > cfg_.capacity) {
    throw std::invalid_argument(
        "TcbStore: hash_shards must be a power of two <= capacity");
  }
  slots_.resize(cfg_.capacity);
  region_slots_ = cfg_.capacity / cfg_.hash_shards;
}

std::size_t TcbStore::embryonic() const {
  return count(TcbState::kSynRcvd) + count(TcbState::kTlsHandshake);
}

std::uint64_t TcbStore::hash_key(const TcbKey& key) const {
  std::uint64_t h = mix64(pack_key(key) ^ cfg_.seed);
  // Hash zero doubles as "never written"; steer clear of it.
  return h == 0 ? 1 : h;
}

Tcb* TcbStore::find_slot(const TcbKey& key, std::uint64_t h) {
  const std::size_t region = (h & (cfg_.hash_shards - 1)) * region_slots_;
  const std::size_t start = (h >> 32) & (region_slots_ - 1);
  for (std::size_t i = 0; i < region_slots_; ++i) {
    Tcb& slot = slots_[region + ((start + i) & (region_slots_ - 1))];
    if (slot.state == TcbState::kFree) return nullptr;
    if (slot.state != TcbState::kTombstone && slot.hash == h && slot.key == key) {
      return &slot;
    }
  }
  return nullptr;
}

Tcb* TcbStore::lookup(const TcbKey& key) { return find_slot(key, hash_key(key)); }

Tcb* TcbStore::insert(const TcbKey& key, TcbState state, std::uint32_t now_us) {
  // The accept-queue model: only not-yet-accepted (kSynRcvd) entries
  // count against the backlog; a TLS handshake happens post-accept.
  if (state == TcbState::kSynRcvd &&
      count(TcbState::kSynRcvd) >= cfg_.listen_backlog) {
    ++stats_.backlog_drops;
    return nullptr;
  }
  const std::uint64_t h = hash_key(key);
  const std::size_t region = (h & (cfg_.hash_shards - 1)) * region_slots_;
  const std::size_t start = (h >> 32) & (region_slots_ - 1);
  Tcb* reuse = nullptr;
  for (std::size_t i = 0; i < region_slots_; ++i) {
    Tcb& slot = slots_[region + ((start + i) & (region_slots_ - 1))];
    if (slot.state == TcbState::kTombstone) {
      if (reuse == nullptr) reuse = &slot;
      continue;
    }
    if (slot.state == TcbState::kFree) {
      if (reuse == nullptr) reuse = &slot;
      break;
    }
  }
  if (reuse == nullptr) {
    ++stats_.overflow_drops;
    return nullptr;
  }
  *reuse = Tcb{};
  reuse->hash = h;
  reuse->key = key;
  reuse->our_seq = initial_seq(key);
  reuse->created_us = now_us;
  reuse->last_active_us = now_us;
  reuse->state = state;
  ++state_count_[static_cast<std::size_t>(state)];
  ++occupied_;
  ++stats_.inserted;
  stats_.high_water = std::max<std::uint64_t>(stats_.high_water, occupied_);
  return reuse;
}

void TcbStore::set_state(Tcb& tcb, TcbState next) {
  --state_count_[static_cast<std::size_t>(tcb.state)];
  tcb.state = next;
  ++state_count_[static_cast<std::size_t>(next)];
}

void TcbStore::erase(Tcb& tcb) {
  --state_count_[static_cast<std::size_t>(tcb.state)];
  tcb.state = TcbState::kTombstone;
  tcb.hash = 0;
  --occupied_;
  ++stats_.erased;
}

std::uint32_t TcbStore::initial_seq(const TcbKey& key) const {
  return static_cast<std::uint32_t>(mix64(pack_key(key) ^ ~cfg_.seed));
}

std::uint32_t TcbStore::cookie(const TcbKey& key, std::uint32_t peer_seq,
                               std::uint64_t now_ns) {
  ++stats_.cookies_sent;
  const std::uint64_t bucket = now_ns >> kCookieBucketShift;
  return static_cast<std::uint32_t>(
      mix64(pack_key(key) ^ cfg_.seed ^ (bucket * 0x9E3779B97F4A7C15ull)) ^
      peer_seq);
}

bool TcbStore::cookie_valid(const TcbKey& key, std::uint32_t peer_seq,
                            std::uint32_t cookie_isn, std::uint64_t now_ns) {
  const std::uint64_t bucket = now_ns >> kCookieBucketShift;
  const int tries = bucket == 0 ? 1 : 2;
  for (int i = 0; i < tries; ++i) {
    const std::uint64_t b = bucket - static_cast<std::uint64_t>(i);
    const std::uint32_t want = static_cast<std::uint32_t>(
        mix64(pack_key(key) ^ cfg_.seed ^ (b * 0x9E3779B97F4A7C15ull)) ^
        peer_seq);
    if (want == cookie_isn) {
      ++stats_.cookies_accepted;
      return true;
    }
  }
  ++stats_.cookies_rejected;
  return false;
}

std::size_t TcbStore::sweep(std::uint32_t now_us) {
  if (cfg_.idle_timeout_ns == 0 || occupied_ == 0) return 0;
  const std::uint32_t timeout_us =
      static_cast<std::uint32_t>(cfg_.idle_timeout_ns / 1000);
  std::size_t evicted = 0;
  const std::size_t batch = std::min(cfg_.sweep_batch, slots_.size());
  for (std::size_t i = 0; i < batch; ++i) {
    Tcb& slot = slots_[sweep_cursor_];
    sweep_cursor_ = (sweep_cursor_ + 1) & (slots_.size() - 1);
    if (slot.state == TcbState::kFree || slot.state == TcbState::kTombstone) {
      continue;
    }
    if (now_us - slot.last_active_us >= timeout_us) {
      erase(slot);
      ++stats_.evicted_idle;
      ++evicted;
    }
  }
  return evicted;
}

std::uint64_t TcbStore::fingerprint() const {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Tcb& slot = slots_[i];
    if (slot.state == TcbState::kFree || slot.state == TcbState::kTombstone) {
      continue;
    }
    h = fnv_u64(h, i);
    h = fnv_u64(h, pack_key(slot.key));
    h = fnv_u64(h, static_cast<std::uint64_t>(slot.state));
    h = fnv_u64(h, (static_cast<std::uint64_t>(slot.our_seq) << 32) | slot.peer_seq);
    h = fnv_u64(h, (static_cast<std::uint64_t>(slot.created_us) << 32) |
                       slot.last_active_us);
    h = fnv_u64(h, (static_cast<std::uint64_t>(slot.requests) << 16) |
                       slot.flights_remaining);
  }
  h = fnv_u64(h, stats_.inserted);
  h = fnv_u64(h, stats_.erased);
  h = fnv_u64(h, stats_.overflow_drops);
  h = fnv_u64(h, stats_.backlog_drops);
  h = fnv_u64(h, stats_.evicted_idle);
  h = fnv_u64(h, stats_.cookies_sent);
  h = fnv_u64(h, stats_.cookies_accepted);
  h = fnv_u64(h, stats_.cookies_rejected);
  h = fnv_u64(h, stats_.high_water);
  return h;
}

}  // namespace ht::dut::stateful
