// The false-positive-free counter store (§5.2, Fig 4 and Fig 5).
//
// HyperTester replaces Sonata's sketches with a counter-based structure:
// per-flow (fingerprint, counter) pairs in register arrays. Three layers
// cooperate:
//
//  1. *Exact-key-matching table*: because HyperTester generates the test
//     traffic itself, the global header space is enumerable, so every
//     fingerprint collision can be precomputed. One key of each colliding
//     pair is installed in an exact-match table with a dedicated counter —
//     removing false positives entirely.
//  2. *Partial-key cuckoo arrays*: the remaining keys use 2-way cuckoo
//     hashing over a power-of-two bucket array. Bucket2 is derived from
//     bucket1 and the fingerprint (i2 = i1 xor h(fp)), the cuckoo-filter
//     construction, so displaced entries can keep moving knowing only
//     their fingerprint.
//  3. *KV FIFO + recirculation*: the data plane cannot perform multi-step
//     cuckoo moves inline; displaced pairs are pushed into a register FIFO
//     and recirculating template packets pop one pair per pass, performing
//     one cuckoo move each. Entries that bounce too long — and old entries
//     displaced out of their alternate bucket — are evicted to the switch
//     CPU via generate_digest and merged in DRAM.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "regfifo/register_fifo.hpp"
#include "rmt/asic.hpp"
#include "rmt/hashing.hpp"

namespace ht::htpr {

/// Hash parameters shared between the runtime store and the offline
/// false-positive analysis — both must agree bit-for-bit.
struct CounterHashParams {
  std::vector<net::FieldId> key_fields;
  unsigned digest_bits = 16;   ///< fingerprint width (Fig 17: 16 or 32)
  std::size_t buckets = 1024;  ///< total buckets, power of two
  std::uint32_t fp_seed = 0x9E3779B9;
  std::uint32_t bucket_seed = 0x85EBCA6B;
  std::uint32_t alt_seed = 0xC2B2AE35;

  /// Fingerprint of a key; never zero (zero marks an empty slot).
  std::uint64_t fingerprint(std::span<const std::uint64_t> key) const;
  std::size_t bucket1(std::span<const std::uint64_t> key) const;
  /// The cuckoo-filter alternate bucket: involutive in the bucket index.
  std::size_t alt_bucket(std::size_t bucket, std::uint64_t fp) const;

  /// Canonical flow identity. For a fixed fingerprint the bucket sets
  /// {b, alt(b, fp)} form orbits of an involution, so two keys' bucket
  /// sets are either equal or disjoint — (min bucket, fp) therefore
  /// identifies an entry uniquely wherever it currently lives, and is what
  /// eviction digests carry to the CPU.
  std::uint64_t canonical_id(std::size_t bucket, std::uint64_t fp) const {
    const std::size_t other = alt_bucket(bucket, fp);
    return (static_cast<std::uint64_t>(std::min(bucket, other)) << 32) | fp;
  }
};

/// How an update mutates the counter.
enum class UpdateFunc : std::uint8_t { kSum, kCount, kMax, kMin, kDistinct };

struct CounterStoreConfig {
  std::string name = "store";
  CounterHashParams hash;
  std::size_t fifo_capacity = 256;
  std::size_t exact_capacity = 8192;
  std::size_t max_bounces = 16;  ///< cuckoo moves before eviction to CPU
  std::uint32_t eviction_digest_type = 100;
  UpdateFunc func = UpdateFunc::kSum;
};

class CounterStore {
 public:
  CounterStore(rmt::SwitchAsic& asic, CounterStoreConfig cfg);

  const CounterStoreConfig& config() const { return cfg_; }

  /// Install exact-match entries for the colliding keys computed offline
  /// by the NTAPI compiler (see false_positive.hpp). Must be called before
  /// traffic flows.
  void install_exact_entries(const std::vector<std::vector<std::uint64_t>>& keys);

  /// Per-packet update: extract the key from the PHV, update the matching
  /// counter by `increment`, and return the post-update counter value.
  /// This is the data-plane fast path invoked from a query action.
  std::uint64_t update(rmt::ActionContext& ctx, std::uint64_t increment);

  /// One cuckoo-move pass, driven by a recirculating template packet
  /// (Fig 5): pops at most one KV pair from the FIFO and places or
  /// displaces it. No-op when the FIFO is empty.
  void maintenance_pass(rmt::ActionContext& ctx);
  /// maintenance_pass over an empty KV FIFO: the gated dequeue finds
  /// nothing and books its SALU execution. Throws if the FIFO was not
  /// empty.
  void idle_maintenance_pass();

  // --- control-plane readback ------------------------------------------------
  /// Total for one key across exact counters, both cuckoo buckets, FIFO
  /// residue, and the CPU-side eviction map.
  std::uint64_t total_for_key(std::span<const std::uint64_t> key,
                              const std::map<std::uint64_t, std::uint64_t>& cpu_evicted) const;
  /// Number of distinct keys currently accounted (for `distinct`).
  std::uint64_t distinct_count(const std::map<std::uint64_t, std::uint64_t>& cpu_evicted) const;
  /// Dump all in-ASIC (fingerprint -> counter) pairs (cuckoo + FIFO).
  std::map<std::uint64_t, std::uint64_t> dump_fingerprints() const;

  // --- statistics ------------------------------------------------------------
  std::uint64_t updates() const { return updates_; }
  std::uint64_t exact_hits() const { return exact_hits_; }
  std::uint64_t fifo_pushes() const { return fifo_pushes_; }
  std::uint64_t cpu_evictions() const { return cpu_evictions_; }
  std::size_t occupied_buckets() const;
  const regfifo::RegisterFifo& fifo() const { return fifo_; }

 private:
  std::vector<std::uint64_t> extract_key(const rmt::Phv& phv) const;
  std::uint64_t apply_func(std::uint64_t current, std::uint64_t increment, bool fresh) const;
  void evict_to_cpu(rmt::ActionContext& ctx, std::size_t bucket, std::uint64_t fp,
                    std::uint64_t count);
  static std::string pack_key(std::span<const std::uint64_t> key);

  rmt::SwitchAsic& asic_;
  CounterStoreConfig cfg_;
  rmt::HashUnit fp_hash_;

  /// Models the exact-key-matching table: packed original key -> index
  /// into the exact counter register array.
  std::unordered_map<std::string, std::size_t> exact_index_;
  rmt::RegisterArray* exact_ctrs_;
  rmt::RegisterArray* slots_fp_;
  rmt::RegisterArray* slots_cnt_;
  regfifo::RegisterFifo fifo_;

  std::uint64_t updates_ = 0;
  std::uint64_t exact_hits_ = 0;
  std::uint64_t fifo_pushes_ = 0;
  std::uint64_t cpu_evictions_ = 0;
};

}  // namespace ht::htpr
