// Sharded simulation engine: shard-per-worker discrete-event execution
// with conservative link-lookahead synchronization (DESIGN.md §13).
//
// A Shard is one self-contained simulation domain: its own EventQueue
// (timer wheel + event slab), its own Rng stream (splitmix64 fanout of
// the group's run seed), and its own PacketPool. Components constructed
// against a shard's queue — a whole HyperTester, a DUT endpoint — share
// NOTHING mutable with components on other shards; the only cross-shard
// edges are links (sim::Port wire paths). Each link direction is a plain
// outbox (a vector of sim::WireHandoff) that the sending shard appends to
// during an epoch and the barrier empties.
//
// The ShardGroup runs shard 0 on the calling thread and every other shard
// on its own std::thread worker, in epochs of conservative lookahead
// L = min over cross-shard link directions of (propagation + minimum
// serialization time). Any packet sent during the epoch [T, T+L) arrives
// at >= T+L, so within an epoch every shard can execute independently; at
// the epoch barrier the calling thread drains all outboxes in fixed link
// order and schedules the deliveries on the destination queues. That
// drain order — and the per-shard (time, seq) order inside each queue —
// makes results byte-identical run-to-run AND across worker interleavings.
//
// Determinism contract (pinned by tests/determinism_test.cpp): for a
// fixed component placement and run seed, all observable results —
// counters, store fingerprints, replica bytes, arrival timestamps,
// Prometheus text — are byte-identical across shard counts {1, 2, 4, 8}
// and across repeated runs. The contract holds because (a) arrival
// timestamps are computed identically on the intra-shard and outbox
// paths, (b) per-link FIFO order is preserved, and (c) components placed
// together share no state, so their same-timestamp interleaving is
// unobservable. Randomness consumed by components is keyed to the
// component (each ASIC/controller/injector owns its Rng), never to the
// shard, so co-residency does not change any stream.
//
// A group of size 1 runs the same epoch loop with no workers: it has no
// cross-shard links, so each run_until call is one epoch on the calling
// thread with nothing to drain. A standalone HyperTester is exactly such a
// group, so it runs the code path a placed tester runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "net/packet_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace ht::sim {

class ShardGroup;
class SnapshotWriter;

/// One simulation domain: event queue + RNG stream + packet pool.
class Shard {
 public:
  Shard(ShardGroup& group, std::size_t id, std::uint64_t run_seed)
      : group_(group),
        id_(id),
        rng_(Rng::for_stream(run_seed, id)),
        pool_(std::make_unique<net::PacketPool>()) {}
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::size_t id() const { return id_; }
  ShardGroup& group() { return group_; }
  EventQueue& ev() { return ev_; }
  const EventQueue& ev() const { return ev_; }
  /// Shard-local randomness, decorrelated from every other shard's stream
  /// via the splitmix64 seed fanout (sim::Rng::for_stream). Components
  /// that must stay placement-invariant own their Rng instead.
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }
  net::PacketPool& pool() { return *pool_; }
  const net::PacketPool& pool() const { return *pool_; }

 private:
  ShardGroup& group_;
  std::size_t id_;
  EventQueue ev_;
  Rng rng_;
  /// Leaked at destruction if packets are still checked out (same
  /// philosophy as net::default_packet_pool: a late release must never
  /// see a dangling home pool).
  std::unique_ptr<net::PacketPool> pool_;
};

/// Scheduler for a fixed set of shards; owns the cross-shard links.
class ShardGroup {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x5eed5eed5eed5eedull;
  /// Propagation assumed for a cross-shard link when the caller gives
  /// none: ~100 m of fiber. Generous lookahead keeps epochs long; a
  /// same-rack 0 ns cable still works, it just synchronizes more often.
  static constexpr TimeNs kDefaultCrossPropagationNs = 500;

  explicit ShardGroup(std::size_t shards, std::uint64_t run_seed = kDefaultSeed);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  std::size_t size() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return *shards_[i]; }
  const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// Wire two ports full duplex, like Port::connect on both ends. When
  /// the ports live on different shards the wire becomes a cross-shard
  /// edge: each direction gets an outbox, and the link's
  /// propagation + minimum serialization time joins the conservative
  /// lookahead (the epoch length). A chaos wire hook on a cross-shard
  /// direction is supported: the barrier drain schedules the hook
  /// invocation at the stamped arrival time on the destination shard's
  /// queue, so injector state mutates only on the receiving thread and
  /// the per-link FIFO keeps its draw order identical to the intra-shard
  /// path (the shard-count determinism contract extends to chaos links).
  void connect(Port& a, std::size_t shard_a, Port& b, std::size_t shard_b,
               TimeNs propagation_ns = kDefaultCrossPropagationNs);

  /// Conservative lookahead: the epoch length while cross-shard links
  /// exist (min over link directions of propagation + min serialization,
  /// never below 1 ns). Groups with no cross-shard links run a single
  /// epoch per run_until call.
  TimeNs lookahead() const { return lookahead_; }

  /// The group epoch clock: every shard's queue has run to at least this
  /// time. With size() == 1 this tracks the queue's own clock.
  TimeNs now() const { return epoch_now_; }

  /// Advance every shard to `deadline` (epoch loop + outbox drains).
  /// Returns the number of events executed across all shards. With
  /// size() == 1, one epoch: EventQueue::run_until on the calling thread.
  /// Multi-shard groups must be driven through this call only — do not
  /// advance an individual shard's queue directly. If events throw, every
  /// shard still finishes the epoch and the lowest-index shard's exception
  /// is rethrown here. A one-shard group then resumes after the failed
  /// event on the next call; a multi-shard group is only fit for
  /// destruction.
  std::uint64_t run_until(TimeNs deadline);

  /// Sum of events executed across all shards since construction.
  std::uint64_t total_executed() const;

  struct SyncStats {
    std::uint64_t epochs = 0;            ///< barrier rounds completed
    std::uint64_t handoffs = 0;          ///< packets that crossed a shard boundary
    std::uint64_t handoffs_copied = 0;   ///< copied into the destination pool (== handoffs)
    std::uint64_t backpressure = 0;      ///< always 0: an outbox grows instead of overflowing
  };
  SyncStats sync_stats() const;

  /// Engine facts summed across every shard; they never enter a digest or
  /// the Prometheus text. high_water is the sum of per-shard peaks (an
  /// upper bound on the true simultaneous peak).
  EventQueue::SlabStats aggregate_slab_stats() const;
  net::PacketPool::Stats aggregate_pool_stats() const;

  /// Serialize the engine-level replay-invariant state (shard count, run
  /// seed, lookahead, per-shard clock/executed/pending and RNG stream)
  /// into `w` as one "engine" section. Epoch/handoff/pool statistics are
  /// deliberately excluded: they depend on how the run was sliced into
  /// run_until calls, not on the simulated state (DESIGN.md §14).
  void write_state(SnapshotWriter& w) const;

 private:
  /// One direction of a cross-shard link.
  struct CrossDir {
    std::vector<WireHandoff> outbox;  ///< appended to by the source shard only
    Port* src_port = nullptr;  ///< its finish_wire ends the delivery
    Port* dst_port = nullptr;
    Shard* dst_shard = nullptr;
  };

  /// Size the epoch slots and start the size() - 1 workers (shards
  /// 1..size()-1) on first use.
  void ensure_workers();
  void worker_main(std::size_t shard_idx);
  /// One epoch: publish `target`, run shard 0 on the calling thread, wait
  /// for the workers. Returns events executed; rethrows the lowest-index
  /// shard's exception once every shard is done.
  std::uint64_t run_shards_until(TimeNs target);
  /// One shard's share of an epoch, its exception parked in its slot.
  void run_epoch(std::size_t shard_idx, TimeNs target);
  /// Drain all outboxes in link order, FIFO within each; returns the
  /// number of handoffs whose arrival is <= `deadline` (i.e. that still
  /// need event time).
  std::size_t drain_outboxes(TimeNs deadline);

  std::uint64_t run_seed_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Declared after shards_: destroyed first, so packets still buffered in
  /// an outbox (a run that threw mid-epoch) release into live pools.
  std::vector<std::unique_ptr<CrossDir>> links_;
  TimeNs lookahead_ = 0;
  TimeNs epoch_now_ = 0;
  SyncStats stats_;

  // --- epoch barrier (with no workers when size() == 1) ------------------
  // The caller writes target_ (and stop_), then bumps generation_ with
  // release order; a worker acquires the new generation before reading
  // them. Each worker publishes its epoch (queue, pool, outboxes, slot) by
  // decrementing pending_workers_ with acq_rel order; the caller acquires
  // zero before it reads the slots and drains the outboxes. Both sides
  // spin briefly, then park in std::atomic::wait.
  /// Per-shard epoch result, written by the shard's own thread.
  struct alignas(64) EpochSlot {
    std::uint64_t executed = 0;
    std::exception_ptr error;
  };
  std::vector<std::thread> workers_;
  std::vector<EpochSlot> slots_;
  TimeNs target_ = 0;
  bool stop_ = false;
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  alignas(64) std::atomic<std::uint32_t> pending_workers_{0};
};

}  // namespace ht::sim
