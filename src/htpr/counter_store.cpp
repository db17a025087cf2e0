#include "htpr/counter_store.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace ht::htpr {

namespace {
bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

std::uint64_t CounterHashParams::fingerprint(std::span<const std::uint64_t> key) const {
  const rmt::HashUnit h(fp_seed);
  const std::uint64_t fp =
      h.hash_fields(key, key_fields, digest_bits >= 32 ? 32u : digest_bits);
  return fp == 0 ? 1 : fp;  // zero marks an empty slot
}

std::size_t CounterHashParams::bucket1(std::span<const std::uint64_t> key) const {
  const rmt::HashUnit h(bucket_seed);
  return h.hash_fields(key, key_fields, 32) & (buckets - 1);
}

std::size_t CounterHashParams::alt_bucket(std::size_t bucket, std::uint64_t fp) const {
  const rmt::HashUnit h(alt_seed);
  const std::uint64_t fp_copy = fp;
  const net::FieldId fake_field[] = {net::FieldId::kMetaDigest};  // 32-bit input lane
  const std::uint32_t mix = h.hash_fields({&fp_copy, 1}, fake_field, 32);
  return (bucket ^ mix) & (buckets - 1);
}

CounterStore::CounterStore(rmt::SwitchAsic& asic, CounterStoreConfig cfg)
    : asic_(asic),
      cfg_(std::move(cfg)),
      fp_hash_(cfg_.hash.fp_seed),
      fifo_(asic.registers(), cfg_.name + ".kvfifo", cfg_.fifo_capacity, 4) {
  if (!is_power_of_two(cfg_.hash.buckets)) {
    throw std::invalid_argument("CounterStore " + cfg_.name + ": buckets must be a power of two");
  }
  if (cfg_.hash.key_fields.empty()) {
    throw std::invalid_argument("CounterStore " + cfg_.name + ": empty key");
  }
  if (cfg_.hash.digest_bits != 16 && cfg_.hash.digest_bits != 32) {
    throw std::invalid_argument("CounterStore " + cfg_.name + ": digest must be 16 or 32 bits");
  }
  auto& rf = asic_.registers();
  exact_ctrs_ = &rf.create(cfg_.name + ".exact", cfg_.exact_capacity, 64);
  slots_fp_ = &rf.create(cfg_.name + ".fp", cfg_.hash.buckets, 32);
  slots_cnt_ = &rf.create(cfg_.name + ".cnt", cfg_.hash.buckets, 64);

  // Resource declaration: exact table (SRAM), two logical cuckoo arrays
  // (SALU + SRAM), the FIFO counters, hash generators.
  double key_bits = 0;
  for (const auto f : cfg_.hash.key_fields) key_bits += net::field_width(f);
  // The key feeds the exact-match table, both cuckoo probes and the FIFO
  // stage; SALUs: two cuckoo arrays + two FIFO counters (+ the exact and
  // value-update ALUs for aggregating functions).
  const bool aggregates = cfg_.func != UpdateFunc::kDistinct;
  asic_.resources().add(
      cfg_.name,
      {.match_crossbar_bits = key_bits * 4,
       .sram_kb = (static_cast<double>(cfg_.exact_capacity) * (key_bits + 64) +
                   static_cast<double>(cfg_.hash.buckets) * (cfg_.hash.digest_bits + 64) +
                   static_cast<double>(cfg_.fifo_capacity) * 4 * 64) /
                  8.0 / 1024.0,
       .vliw_slots = 6,
       .hash_bits = (key_bits + cfg_.hash.digest_bits) * 2,
       .salu = aggregates ? 8.0 : 6.0,
       .gateway = 2});
}

std::string CounterStore::pack_key(std::span<const std::uint64_t> key) {
  std::string out;
  out.reserve(key.size() * 8);
  for (const std::uint64_t v : key) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
  return out;
}

void CounterStore::install_exact_entries(const std::vector<std::vector<std::uint64_t>>& keys) {
  if (exact_index_.size() + keys.size() > cfg_.exact_capacity) {
    throw std::length_error("CounterStore " + cfg_.name + ": exact table capacity exceeded");
  }
  for (const auto& key : keys) {
    if (key.size() != cfg_.hash.key_fields.size()) {
      throw std::invalid_argument("CounterStore: exact key arity mismatch");
    }
    exact_index_.emplace(pack_key(key), exact_index_.size());
  }
}

std::vector<std::uint64_t> CounterStore::extract_key(const rmt::Phv& phv) const {
  std::vector<std::uint64_t> key;
  key.reserve(cfg_.hash.key_fields.size());
  for (const auto f : cfg_.hash.key_fields) key.push_back(phv.get(f));
  return key;
}

std::uint64_t CounterStore::apply_func(std::uint64_t current, std::uint64_t increment,
                                       bool fresh) const {
  switch (cfg_.func) {
    case UpdateFunc::kSum:
      return current + increment;
    case UpdateFunc::kCount:
      return current + 1;
    case UpdateFunc::kMax:
      return fresh ? increment : std::max(current, increment);
    case UpdateFunc::kMin:
      return fresh ? increment : std::min(current, increment);
    case UpdateFunc::kDistinct:
      return 1;
  }
  return current;
}

void CounterStore::evict_to_cpu(rmt::ActionContext& ctx, std::size_t bucket, std::uint64_t fp,
                                std::uint64_t count) {
  ++cpu_evictions_;
  if (ctx.emit_digest) {
    ctx.emit_digest(cfg_.eviction_digest_type, {cfg_.hash.canonical_id(bucket, fp), count});
  }
}

std::uint64_t CounterStore::update(rmt::ActionContext& ctx, std::uint64_t increment) {
  ++updates_;
  const auto key = extract_key(ctx.phv);

  // 1. Exact-key matching resolves precomputed collisions (Fig 4).
  const auto it = exact_index_.find(pack_key(key));
  if (it != exact_index_.end()) {
    ++exact_hits_;
    return exact_ctrs_->execute(it->second, [&](std::uint64_t& c) {
      c = apply_func(c, increment, c == 0);
      return c;
    });
  }

  // 2. Cuckoo probe: bucket1, then the fingerprint-derived alternate.
  const std::uint64_t fp = cfg_.hash.fingerprint(key);
  const std::size_t b1 = cfg_.hash.bucket1(key);
  const std::size_t b2 = cfg_.hash.alt_bucket(b1, fp);
  for (const std::size_t b : {b1, b2}) {
    const std::uint64_t slot_fp = slots_fp_->read(b);
    if (slot_fp == 0) {
      slots_fp_->write(b, fp);
      const std::uint64_t v = apply_func(0, increment, true);
      slots_cnt_->write(b, v);
      return v;
    }
    if (slot_fp == fp) {
      return slots_cnt_->execute(b, [&](std::uint64_t& c) {
        c = apply_func(c, increment, false);
        return c;
      });
    }
  }

  // 3. Both buckets taken by other flows: stage in the KV FIFO for the
  //    recirculation-driven cuckoo insertion (Fig 5).
  ++fifo_pushes_;
  const std::uint64_t initial = apply_func(0, increment, true);
  if (!fifo_.enqueue({fp, initial, b1, 0})) {
    // FIFO overflow (§6.1 limitation): report straight to the CPU.
    evict_to_cpu(ctx, b1, fp, initial);
  }
  return initial;
}

void CounterStore::maintenance_pass(rmt::ActionContext& ctx) {
  const auto rec = fifo_.dequeue();
  if (!rec) return;
  const std::uint64_t fp = (*rec)[0];
  const std::uint64_t cnt = (*rec)[1];
  const std::size_t bucket = static_cast<std::size_t>((*rec)[2]) & (cfg_.hash.buckets - 1);
  const std::uint64_t bounce = (*rec)[3];

  const std::uint64_t slot_fp = slots_fp_->read(bucket);
  if (slot_fp == 0) {
    slots_fp_->write(bucket, fp);
    slots_cnt_->write(bucket, cnt);
    return;
  }
  if (slot_fp == fp) {
    // Same flow already landed (e.g. a later packet inserted it): merge.
    slots_cnt_->execute(bucket, [&](std::uint64_t& c) {
      switch (cfg_.func) {
        case UpdateFunc::kMax:
          c = std::max(c, cnt);
          break;
        case UpdateFunc::kMin:
          c = std::min(c, cnt);
          break;
        case UpdateFunc::kDistinct:
          c = 1;
          break;
        default:
          c += cnt;
      }
      return c;
    });
    return;
  }

  // Displace the occupant (Fig 5b): the new pair takes the bucket, the old
  // pair moves toward its alternate bucket — or to the CPU when it has
  // bounced too long (the "old KV pair" eviction).
  const std::uint64_t old_cnt = slots_cnt_->read(bucket);
  slots_fp_->write(bucket, fp);
  slots_cnt_->write(bucket, cnt);
  if (bounce + 1 > cfg_.max_bounces) {
    evict_to_cpu(ctx, bucket, slot_fp, old_cnt);
    return;
  }
  const std::size_t alt = cfg_.hash.alt_bucket(bucket, slot_fp);
  if (!fifo_.enqueue({slot_fp, old_cnt, alt, bounce + 1})) {
    evict_to_cpu(ctx, bucket, slot_fp, old_cnt);
  }
}

void CounterStore::idle_maintenance_pass() {
  if (fifo_.dequeue()) throw std::logic_error("CounterStore: idle maintenance on a busy FIFO");
}

std::uint64_t CounterStore::total_for_key(
    std::span<const std::uint64_t> key,
    const std::map<std::uint64_t, std::uint64_t>& cpu_evicted) const {
  const std::vector<std::uint64_t> key_vec(key.begin(), key.end());
  const auto it = exact_index_.find(pack_key(key_vec));
  if (it != exact_index_.end()) return exact_ctrs_->read(it->second);

  std::uint64_t total = 0;
  const std::uint64_t fp = cfg_.hash.fingerprint(key);
  const std::size_t b1 = cfg_.hash.bucket1(key);
  const std::size_t b2 = cfg_.hash.alt_bucket(b1, fp);
  total += slots_fp_->read(b1) == fp ? slots_cnt_->read(b1) : 0;
  if (b2 != b1) total += slots_fp_->read(b2) == fp ? slots_cnt_->read(b2) : 0;
  const std::uint64_t id = cfg_.hash.canonical_id(b1, fp);
  for (const auto& rec : fifo_.snapshot()) {
    if (rec[0] == fp &&
        cfg_.hash.canonical_id(static_cast<std::size_t>(rec[2]) & (cfg_.hash.buckets - 1),
                               rec[0]) == id) {
      total += rec[1];
    }
  }
  const auto ev = cpu_evicted.find(id);
  if (ev != cpu_evicted.end()) total += ev->second;
  return total;
}

std::uint64_t CounterStore::distinct_count(
    const std::map<std::uint64_t, std::uint64_t>& cpu_evicted) const {
  std::set<std::uint64_t> ids;
  for (std::size_t b = 0; b < cfg_.hash.buckets; ++b) {
    const std::uint64_t fp = slots_fp_->read(b);
    if (fp != 0) ids.insert(cfg_.hash.canonical_id(b, fp));
  }
  for (const auto& rec : fifo_.snapshot()) {
    ids.insert(cfg_.hash.canonical_id(static_cast<std::size_t>(rec[2]) & (cfg_.hash.buckets - 1),
                                      rec[0]));
  }
  for (const auto& [id, _] : cpu_evicted) ids.insert(id);
  std::uint64_t exact_seen = 0;
  for (std::size_t i = 0; i < exact_index_.size(); ++i) {
    if (exact_ctrs_->read(i) != 0) ++exact_seen;
  }
  return ids.size() + exact_seen;
}

std::map<std::uint64_t, std::uint64_t> CounterStore::dump_fingerprints() const {
  std::map<std::uint64_t, std::uint64_t> out;  // keyed by canonical id
  for (std::size_t b = 0; b < cfg_.hash.buckets; ++b) {
    const std::uint64_t fp = slots_fp_->read(b);
    if (fp != 0) out[cfg_.hash.canonical_id(b, fp)] += slots_cnt_->read(b);
  }
  for (const auto& rec : fifo_.snapshot()) {
    out[cfg_.hash.canonical_id(static_cast<std::size_t>(rec[2]) & (cfg_.hash.buckets - 1),
                               rec[0])] += rec[1];
  }
  return out;
}

std::size_t CounterStore::occupied_buckets() const {
  std::size_t n = 0;
  for (std::size_t b = 0; b < cfg_.hash.buckets; ++b) {
    if (slots_fp_->read(b) != 0) ++n;
  }
  return n;
}

}  // namespace ht::htpr
