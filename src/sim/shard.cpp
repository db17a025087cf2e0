#include "sim/shard.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/snapshot.hpp"

namespace ht::sim {

namespace {

/// Polls of a barrier word before the waiter parks in std::atomic::wait,
/// about 6 us of `pause` on a current Xeon. A short epoch on a host with a
/// core per shard ends inside the spin, so nobody pays a futex round trip;
/// on an oversubscribed host (8 shards on 4 cores) a longer spin only keeps
/// the shard being waited for off its core.
constexpr unsigned kSpinIterations = 256;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin-then-park until `done(word)` holds; returns the value that
/// satisfied it. Every load is acquire, so the waiter sees whatever the
/// thread that stored that value wrote before its release.
template <class Done>
std::uint32_t await(const std::atomic<std::uint32_t>& word, Done done) {
  std::uint32_t v = word.load(std::memory_order_acquire);
  for (unsigned i = 0; !done(v) && i < kSpinIterations; ++i) {
    cpu_relax();
    v = word.load(std::memory_order_acquire);
  }
  while (!done(v)) {
    word.wait(v, std::memory_order_acquire);
    v = word.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

Shard::~Shard() {
  // Pending events hold packet references (in-flight deliveries,
  // recirculation loops); a testbed discarded mid-run — e.g. replaced by
  // the Supervisor during a restore — tears down with plenty of them.
  // Drop those first so they release into the still-live pool and don't
  // force the leak path below.
  ev_.drop_pending();
  if (pool_->stats().live != 0) {
    // Packets are still checked out (e.g. held by a sink that outlives the
    // group). Leak the pool so their eventual release never sees a dangling
    // home pool — same contract as net::default_packet_pool.
    (void)pool_.release();
  }
}

ShardGroup::ShardGroup(std::size_t shards, std::uint64_t run_seed) : run_seed_(run_seed) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(*this, i, run_seed_));
  }
}

ShardGroup::~ShardGroup() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardGroup::connect(Port& a, std::size_t shard_a, Port& b, std::size_t shard_b,
                         TimeNs propagation_ns) {
  if (shard_a >= shards_.size() || shard_b >= shards_.size()) {
    throw std::out_of_range("sim::ShardGroup::connect: shard index out of range");
  }
  a.connect(&b, propagation_ns);
  b.connect(&a, propagation_ns);
  if (shard_a == shard_b) return;  // intra-shard wire: plain local link

  const auto add_dir = [this, propagation_ns](Port& src, Port& dst, Shard& dst_shard) {
    auto dir = std::make_unique<CrossDir>();
    dir->src_port = &src;
    dir->dst_port = &dst;
    dir->dst_shard = &dst_shard;
    src.set_remote_out(&dir->outbox);
    // Conservative per-direction lookahead: any packet sent at time t
    // arrives at >= t + floor(min serialization) + propagation, where the
    // minimum serialization is an empty frame's wire overhead at the
    // source line rate. floor() (not round) keeps the bound sound against
    // the llround in Port::send_at.
    const double min_ser = serialization_ns(net::Packet::kWireOverhead, src.rate_gbps());
    const TimeNs dir_lookahead =
        propagation_ns + std::max<TimeNs>(1, static_cast<TimeNs>(min_ser));
    lookahead_ = lookahead_ == 0 ? dir_lookahead : std::min(lookahead_, dir_lookahead);
    links_.push_back(std::move(dir));
  };
  add_dir(a, b, *shards_[shard_b]);
  add_dir(b, a, *shards_[shard_a]);
}

std::uint64_t ShardGroup::run_until(TimeNs deadline) {
  ensure_workers();
  std::uint64_t executed = 0;
  for (;;) {
    TimeNs target = deadline;
    if (!links_.empty() && epoch_now_ < deadline) {
      target = std::min(deadline, epoch_now_ + lookahead_);
    }
    executed += run_shards_until(target);
    epoch_now_ = std::max(epoch_now_, target);
    ++stats_.epochs;
    // Barrier: every worker has published its epoch and waits for the next
    // generation, so the drain below — which reads the outboxes and touches
    // both shards' pools and the destination queues — is race-free by
    // phase separation. The barrier is the only cross-shard handoff.
    const std::size_t due = drain_outboxes(deadline);
    // Handoffs stamped at or before the deadline still need event time on
    // their destination shard; rerun until the edge is quiet. Each rerun's
    // sends arrive at least 1 ns later, so this terminates.
    if (epoch_now_ >= deadline && due == 0) break;
  }
  return executed;
}

std::uint64_t ShardGroup::total_executed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->ev().executed();
  return n;
}

ShardGroup::SyncStats ShardGroup::sync_stats() const { return stats_; }

EventQueue::SlabStats ShardGroup::aggregate_slab_stats() const {
  EventQueue::SlabStats out;
  for (const auto& s : shards_) {
    const EventQueue::SlabStats& ss = s->ev().slab_stats();
    out.hits += ss.hits;
    out.misses += ss.misses;
    out.live += ss.live;
    out.high_water += ss.high_water;
    out.heap_closures += ss.heap_closures;
  }
  return out;
}

net::PacketPool::Stats ShardGroup::aggregate_pool_stats() const {
  net::PacketPool::Stats out;
  for (const auto& s : shards_) {
    const net::PacketPool::Stats& ps = s->pool().stats();
    out.hits += ps.hits;
    out.misses += ps.misses;
    out.released += ps.released;
    out.live += ps.live;
    out.high_water += ps.high_water;
  }
  return out;
}

void ShardGroup::ensure_workers() {
  if (!slots_.empty()) return;
  slots_.resize(shards_.size());
  workers_.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

std::uint64_t ShardGroup::run_shards_until(TimeNs target) {
  target_ = target;
  pending_workers_.store(static_cast<std::uint32_t>(workers_.size()), std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  {
    net::PoolBinding bind(&shards_[0]->pool());
    run_epoch(0, target);
  }
  await(pending_workers_, [](std::uint32_t left) { return left == 0; });

  std::uint64_t executed = 0;
  for (const EpochSlot& slot : slots_) {
    if (slot.error) std::rethrow_exception(slot.error);  // lowest index first
    executed += slot.executed;
  }
  return executed;
}

void ShardGroup::run_epoch(std::size_t shard_idx, TimeNs target) {
  EpochSlot& slot = slots_[shard_idx];
  slot = {};  // a caught error must not be rethrown by a later epoch
  try {
    slot.executed = shards_[shard_idx]->ev().run_until(target);
  } catch (...) {
    // Parked, not propagated: the barrier must complete before anyone
    // unwinds through objects the other shards are still using.
    slot.error = std::current_exception();
  }
}

void ShardGroup::worker_main(std::size_t shard_idx) {
  // Every allocation made while this shard executes — template replicas,
  // DUT responses, fastpath clones — lands in the shard's private pool.
  net::PoolBinding bind(&shards_[shard_idx]->pool());
  std::uint32_t seen = 0;  // workers start before the first epoch's bump
  for (;;) {
    seen = await(generation_, [seen](std::uint32_t gen) { return gen != seen; });
    if (stop_) return;
    run_epoch(shard_idx, target_);
    if (pending_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_workers_.notify_one();
    }
  }
}

std::size_t ShardGroup::drain_outboxes(TimeNs deadline) {
  std::size_t due = 0;
  for (const auto& dir : links_) {
    Port* src = dir->src_port;
    Port* dst = dir->dst_port;
    Shard* dst_shard = dir->dst_shard;
    for (WireHandoff& h : dir->outbox) {
      ++stats_.handoffs;
      ++stats_.handoffs_copied;
      if (h.arrival <= deadline) ++due;
      // Copy into the destination pool, so the destination thread releases
      // only its own storage; clear() below drops the source reference
      // while the source pool is quiescent.
      net::PacketPtr local = dst_shard->pool().acquire_copy(*h.pkt);
      // The intra-shard delivery event's tail: a chaos hook on the sending
      // port runs at the stamped arrival on the DESTINATION queue, so all
      // injector state lives on the receiving thread (hooks are only set
      // during setup, so reading src->wire_hook there is race-free).
      dst_shard->ev().schedule_at(h.arrival, [src, dst, p = std::move(local)]() mutable {
        src->finish_wire(std::move(p), *dst);
      });
    }
    dir->outbox.clear();
  }
  return due;
}

void ShardGroup::write_state(SnapshotWriter& w) const {
  w.begin_section("engine");
  w.u64(shards_.size());
  w.u64(run_seed_);
  w.u64(static_cast<std::uint64_t>(lookahead_));
  w.u64(static_cast<std::uint64_t>(epoch_now_));
  // Per-shard: clock, executed-event count, and RNG stream. Pending-event
  // counts are deliberately NOT serialized: externally scheduled events
  // (a crash plan, a supervisor timer) change them without changing the
  // simulated state, so they are not replay-invariant.
  for (const auto& s : shards_) {
    w.u64(static_cast<std::uint64_t>(s->ev().now()));
    w.u64(s->ev().executed());
    w.str(s->rng().state_string());
  }
}

}  // namespace ht::sim
