// Discrete-event engine.
//
// The queue orders (time, sequence, closure) triples; sequence numbers make
// same-timestamp events run in FIFO schedule order, which keeps every
// experiment bit-for-bit reproducible run-to-run. That contract is pinned by
// tests/determinism_test.cpp and must survive any storage change.
//
// Storage is built for the workload the testbed actually generates — a few
// self-rescheduling periodic sources (rate-control ticks, recirculation
// loops, port TX completions) plus short per-packet causal chains, nearly
// all within a few microseconds of `now`:
//
//  * Event nodes come from a slab: fixed-size nodes carved from chunks and
//    recycled through a freelist, with the callable stored inline in the
//    node (48 bytes, comfortably above libstdc++'s 16-byte std::function
//    SBO). Steady-state scheduling therefore allocates nothing; oversized
//    closures fall back to one heap allocation and are counted.
//  * Pending nodes live in a hierarchical timer wheel: 4 levels x 1024
//    slots, 10 bits per level (level 0 = 1ns buckets covering ~1µs, so the
//    typical packet delays of 100..600ns insert directly into level 0 with
//    no cascade; level 3 = 2^30ns buckets covering ~18min). Insert and pop
//    are O(1) amortized; events beyond the 2^40ns horizon wait in a small
//    min-heap and are swept into the wheel when the clock reaches their
//    epoch. Same-bucket
//    events are re-sorted by sequence when the bucket is drained, which
//    restores exact (time, sequence) order even after cascades.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace ht::sim {

class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  TimeNs now() const { return now_; }
  std::size_t pending() const { return pending_; }
  std::uint64_t executed() const { return executed_; }

  /// An event's position in the total execution order.
  struct Key {
    TimeNs at = 0;
    std::uint64_t seq = 0;
    bool operator<(const Key& o) const { return at != o.at ? at < o.at : seq < o.seq; }
  };

  /// Schedule `fn` at absolute time `at` (>= now; earlier times are clamped
  /// to now so causality is never violated).
  template <typename F>
  void schedule_at(TimeNs at, F&& fn) {
    if (at < now_) at = now_;
    schedule_at_key({at, next_seq_++}, std::forward<F>(fn));
  }

  // --- explicit keys -------------------------------------------------------
  // A component that replays some of its events itself (the recirculation
  // lap skeleton, rmt/asic.hpp) keeps each replayed event at the exact key
  // its real schedule_at call would have given it: it reserves the sequence
  // number when that call would have run, runs the event when the queue
  // would have reached that key, and books it in executed().

  /// Take the sequence number the next schedule_at call would have used.
  std::uint64_t reserve_seq() { return next_seq_++; }
  /// Schedule `fn` at `key`, whose seq came from reserve_seq() and whose
  /// time is >= now(); it runs exactly where an event scheduled with that
  /// seq would have run.
  template <typename F>
  void schedule_at_key(Key key, F&& fn) {
    Node* n = alloc_node();
    n->at = key.at;
    n->seq = key.seq;
    bind(*n, std::forward<F>(fn));
    enqueue(n);
  }
  /// A key no later than the one the running run_until()/step() call
  /// would execute next: the earliest pending event's when it lies in the
  /// wheel's current 1024 ns block (else that block's end), capped at the
  /// first key past the call's deadline (run_until) or at the current
  /// event (step). Everything before it may run inside the current event.
  Key peek_head() {
    if (!head_valid_) {
      head_ = scan_head();
      head_valid_ = true;
    }
    return head_ < limit_ ? head_ : limit_;
  }
  /// Book one event that ran at `at` outside the queue: advances the clock
  /// to `at` and counts it in executed().
  void account_executed(TimeNs at) {
    now_ = at;
    ++executed_;
  }
  /// Schedule `fn` `delay` ns from now.
  template <typename F>
  void schedule_in(TimeNs delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run pending events in (time, sequence) order while the next event's
  /// timestamp is <= `deadline`. Clock-advance contract, pinned by
  /// sim_test.cpp: after the call, now() == deadline whenever deadline >=
  /// the entry clock (the queue draining early still advances the clock all
  /// the way to the deadline); a deadline already in the past runs nothing
  /// and leaves now() unchanged — the clock never moves backward. Returns
  /// the number of events executed (account_executed() ones included).
  std::uint64_t run_until(TimeNs deadline);
  /// Run everything (use with care: self-rescheduling components never
  /// drain; prefer run_until).
  std::uint64_t run_all();
  /// Execute exactly one event if any is pending; returns false when empty.
  bool step();

  /// Destroy every pending event without running it, releasing whatever
  /// the closures hold (packet references, component pointers). The queue
  /// stays valid and empty. Shard teardown calls this before deciding
  /// whether the shard's packet pool can be destroyed — a discarded
  /// mid-run testbed must not count event-held packets as checked out.
  void drop_pending();

  /// Slab instrumentation (hit/miss/high-water), summed per group by
  /// ShardGroup::aggregate_slab_stats.
  struct SlabStats {
    std::uint64_t hits = 0;           ///< nodes served from the freelist
    std::uint64_t misses = 0;         ///< nodes carved fresh from a chunk
    std::uint64_t live = 0;           ///< nodes currently pending
    std::uint64_t high_water = 0;     ///< max simultaneously pending
    std::uint64_t heap_closures = 0;  ///< callables too big for inline storage
  };
  const SlabStats& slab_stats() const { return slab_stats_; }

 private:
  struct Node {
    static constexpr std::size_t kInlineBytes = 48;

    TimeNs at = 0;
    std::uint64_t seq = 0;
    Node* next = nullptr;
    /// Runs the stored callable; must free the node (via q.free_node)
    /// BEFORE invoking so self-rescheduling handlers reuse it immediately.
    void (*invoke)(EventQueue& q, Node* n) = nullptr;
    /// Destroys the stored callable without running it (queue teardown).
    void (*drop)(Node* n) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };

  static constexpr unsigned kLevelBits = 10;
  static constexpr std::size_t kSlots = std::size_t{1} << kLevelBits;  // 1024
  static constexpr unsigned kLevels = 4;   // horizon: 2^40 ns ≈ 18 min
  static constexpr unsigned kHorizonBits = kLevelBits * kLevels;
  static constexpr std::size_t kChunkNodes = 256;

  template <typename F>
  void bind(Node& n, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= Node::kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(n.storage)) Fn(std::forward<F>(fn));
      n.invoke = [](EventQueue& q, Node* node) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(node->storage));
        Fn local(std::move(*f));
        f->~Fn();
        q.free_node(node);
        local();
      };
      n.drop = [](Node* node) {
        std::launder(reinterpret_cast<Fn*>(node->storage))->~Fn();
      };
    } else {
      ++slab_stats_.heap_closures;
      ::new (static_cast<void*>(n.storage)) Fn*(new Fn(std::forward<F>(fn)));
      n.invoke = [](EventQueue& q, Node* node) {
        std::unique_ptr<Fn> f(*std::launder(reinterpret_cast<Fn**>(node->storage)));
        q.free_node(node);
        (*f)();
      };
      n.drop = [](Node* node) {
        delete *std::launder(reinterpret_cast<Fn**>(node->storage));
      };
    }
  }

  Node* alloc_node();
  void free_node(Node* n);
  /// peek_head's uncapped bound, found without moving any node.
  Key scan_head() const;
  void enqueue(Node* n);
  void wheel_insert(Node* n);
  /// Move the earliest pending bucket (all nodes sharing the minimal
  /// timestamp <= deadline) onto the ready list, sorted by sequence.
  /// Returns false (without committing any cursor advance past `deadline`)
  /// when nothing is due by the deadline.
  bool take_next_bucket(TimeNs deadline);
  void load_ready(unsigned slot);
  void exec_front();

  // --- timer wheel -------------------------------------------------------
  std::array<std::array<Node*, kSlots>, kLevels> wheel_{};
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> bits_{};
  /// Wheel reference time: cursor_ <= now_ and cursor_ <= every pending
  /// timestamp in the wheel. Slot positions are derived from timestamps
  /// relative to cursor_'s block at each level.
  TimeNs cursor_ = 0;
  /// Events past the wheel horizon (rare: multi-second arm times), min-heap
  /// keyed by timestamp.
  std::vector<Node*> overflow_;

  // --- ready list: the bucket currently being drained, in seq order ------
  Node* ready_head_ = nullptr;
  Node* ready_tail_ = nullptr;
  std::vector<Node*> scratch_;  ///< reused for bucket sorting

  // --- slab --------------------------------------------------------------
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_list_ = nullptr;
  Node* chunk_next_ = nullptr;        ///< bump pointer into the newest chunk
  std::size_t chunk_remaining_ = 0;
  SlabStats slab_stats_;

  /// peek_head() cache: scan_head() while head_valid_. enqueue lowers
  /// it; popping the head invalidates it.
  Key head_{};
  bool head_valid_ = false;
  /// Keys at or past this one are beyond the running call's deadline.
  Key limit_{};

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace ht::sim
