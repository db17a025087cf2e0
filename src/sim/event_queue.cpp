#include "sim/event_queue.hpp"

#include <algorithm>

namespace ht::sim {

namespace {

// The overflow heap is ordered by timestamp only: sequence ties are
// restored by the bucket sort when an epoch is swept into the wheel.

/// First set bit at index >= `from`, or -1.
template <std::size_t Words>
int find_set_bit(const std::array<std::uint64_t, Words>& bm, unsigned from) {
  unsigned word = from >> 6;
  std::uint64_t w = bm[word] & (~std::uint64_t{0} << (from & 63u));
  for (;;) {
    if (w != 0) {
      return static_cast<int>(word * 64 + static_cast<unsigned>(std::countr_zero(w)));
    }
    if (++word >= bm.size()) return -1;
    w = bm[word];
  }
}

/// Later than every real key: the head of an empty queue.
constexpr EventQueue::Key kNone{~TimeNs{0}, ~std::uint64_t{0}};

}  // namespace

EventQueue::~EventQueue() { drop_pending(); }

void EventQueue::drop_pending() {
  const auto drop_list = [this](Node*& head) {
    Node* n = head;
    while (n != nullptr) {
      Node* next = n->next;
      n->drop(n);
      free_node(n);
      n = next;
    }
    head = nullptr;
  };
  drop_list(ready_head_);
  ready_tail_ = nullptr;
  for (auto& level : wheel_) {
    for (Node*& head : level) drop_list(head);
  }
  for (auto& level : bits_) level.fill(0);
  for (Node* n : overflow_) {
    n->drop(n);
    free_node(n);
  }
  overflow_.clear();
  pending_ = 0;
  head_valid_ = false;
}

EventQueue::Node* EventQueue::alloc_node() {
  Node* n = nullptr;
  if (free_list_ != nullptr) {
    n = free_list_;
    free_list_ = n->next;
    ++slab_stats_.hits;
  } else {
    if (chunk_remaining_ == 0) {
      chunks_.emplace_back(new Node[kChunkNodes]);
      chunk_next_ = chunks_.back().get();
      chunk_remaining_ = kChunkNodes;
    }
    n = chunk_next_++;
    --chunk_remaining_;
    ++slab_stats_.misses;
  }
  ++slab_stats_.live;
  if (slab_stats_.live > slab_stats_.high_water) slab_stats_.high_water = slab_stats_.live;
  return n;
}

void EventQueue::free_node(Node* n) {
  --slab_stats_.live;
  n->next = free_list_;
  free_list_ = n;
}

void EventQueue::enqueue(Node* n) {
  ++pending_;
  const Key key{n->at, n->seq};
  if (head_valid_ && key < head_) head_ = key;
  // A bucket currently draining at this exact timestamp: insert in place.
  // A fresh sequence is larger than every node already in the ready list,
  // so it appends; only a reserved key (schedule_at_key) can land inside.
  if (ready_head_ != nullptr && n->at == ready_tail_->at) {
    if (n->seq > ready_tail_->seq) {
      n->next = nullptr;
      ready_tail_->next = n;
      ready_tail_ = n;
      return;
    }
    Node** link = &ready_head_;
    while ((*link)->seq < n->seq) link = &(*link)->next;
    n->next = *link;
    *link = n;
    return;
  }
  wheel_insert(n);
}

EventQueue::Key EventQueue::scan_head() const {
  if (ready_head_ != nullptr) return {ready_head_->at, ready_head_->seq};
  if (pending_ == 0) return kNone;
  // take_next_bucket's level-0 search: a slot at or after the cursor holds
  // events of exactly one timestamp, the earliest pending.
  const TimeNs cursor = std::max(cursor_, now_);
  const int s = find_set_bit(bits_[0], static_cast<unsigned>(cursor & (kSlots - 1)));
  if (s < 0) {
    // Every other pending event lies past the cursor's level-0 block:
    // its end is a lower bound, found without cascading anything.
    return {(cursor | TimeNs{kSlots - 1}) + 1, 0};
  }
  Key k = kNone;
  for (const Node* n = wheel_[0][static_cast<std::size_t>(s)]; n != nullptr; n = n->next) {
    const Key nk{n->at, n->seq};
    if (nk < k) k = nk;
  }
  return k;
}



void EventQueue::wheel_insert(Node* n) {
  const TimeNs at = n->at;
  for (unsigned level = 0; level < kLevels; ++level) {
    // A node belongs to the finest level whose parent block it shares with
    // the cursor: there its slot index resolves the timestamp exactly
    // enough to never fire early.
    const unsigned parent_shift = kLevelBits * (level + 1);
    if ((at >> parent_shift) == (cursor_ >> parent_shift)) {
      const unsigned shift = kLevelBits * level;
      const auto slot = static_cast<std::size_t>((at >> shift) & (kSlots - 1));
      n->next = wheel_[level][slot];
      wheel_[level][slot] = n;
      bits_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63u);
      return;
    }
  }
  n->next = nullptr;
  overflow_.push_back(n);
  std::push_heap(overflow_.begin(), overflow_.end(),
                 [](const Node* a, const Node* b) { return a->at > b->at; });
}

void EventQueue::load_ready(unsigned slot) {
  Node* list = wheel_[0][slot];
  wheel_[0][slot] = nullptr;
  bits_[0][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63u));
  if (list->next == nullptr) {  // common case: a single event in the bucket
    ready_head_ = ready_tail_ = list;
    return;
  }
  // Prepend-on-insert plus cascading scrambled the bucket; one sort by
  // sequence restores the exact FIFO schedule order.
  scratch_.clear();
  for (Node* n = list; n != nullptr; n = n->next) scratch_.push_back(n);
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Node* a, const Node* b) { return a->seq < b->seq; });
  for (std::size_t i = 0; i + 1 < scratch_.size(); ++i) scratch_[i]->next = scratch_[i + 1];
  scratch_.back()->next = nullptr;
  ready_head_ = scratch_.front();
  ready_tail_ = scratch_.back();
}

bool EventQueue::take_next_bucket(TimeNs deadline) {
  if (pending_ == 0) return false;
  // Every pending timestamp is >= now_ (run_until only advances the clock
  // past events it has executed), so the cursor may catch up for free.
  if (cursor_ < now_) cursor_ = now_;
  for (;;) {
    // Level 0: if the cursor's level-0 block holds an event, the earliest
    // such slot is the next bucket overall.
    {
      const unsigned from = static_cast<unsigned>(cursor_ & (kSlots - 1));
      const int s = find_set_bit(bits_[0], from);
      if (s >= 0) {
        const TimeNs t = (cursor_ & ~TimeNs{kSlots - 1}) + static_cast<TimeNs>(s);
        if (t > deadline) return false;
        cursor_ = t;
        load_ready(static_cast<unsigned>(s));
        return true;
      }
    }
    // Upper levels: cascade the next occupied slot down one level and
    // rescan. The cursor never advances past `deadline`'s block, so a
    // false return leaves every later insert correctly placed.
    bool cascaded = false;
    for (unsigned level = 1; level < kLevels; ++level) {
      const unsigned shift = kLevelBits * level;
      const unsigned idx = static_cast<unsigned>((cursor_ >> shift) & (kSlots - 1));
      const int j = find_set_bit(bits_[level], idx);
      if (j < 0) continue;
      const TimeNs span = TimeNs{1} << (shift + kLevelBits);
      const TimeNs block_base =
          (cursor_ & ~(span - 1)) | (static_cast<TimeNs>(j) << shift);
      if (block_base > deadline) return false;
      if (cursor_ < block_base) cursor_ = block_base;
      Node* list = wheel_[level][static_cast<std::size_t>(j)];
      wheel_[level][static_cast<std::size_t>(j)] = nullptr;
      bits_[level][static_cast<unsigned>(j) >> 6] &=
          ~(std::uint64_t{1} << (static_cast<unsigned>(j) & 63u));
      while (list != nullptr) {
        Node* next = list->next;
        wheel_insert(list);  // lands strictly below `level` → loop terminates
        list = next;
      }
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    // Wheel fully empty: sweep the next horizon-sized epoch in from the
    // overflow heap and rescan.
    if (overflow_.empty()) return false;
    if (overflow_.front()->at > deadline) return false;
    const TimeNs epoch = overflow_.front()->at >> kHorizonBits;
    cursor_ = overflow_.front()->at;
    const auto later = [](const Node* a, const Node* b) { return a->at > b->at; };
    while (!overflow_.empty() && (overflow_.front()->at >> kHorizonBits) == epoch) {
      std::pop_heap(overflow_.begin(), overflow_.end(), later);
      Node* n = overflow_.back();
      overflow_.pop_back();
      wheel_insert(n);
    }
  }
}

void EventQueue::exec_front() {
  Node* n = ready_head_;
  ready_head_ = n->next;
  if (ready_head_ == nullptr) ready_tail_ = nullptr;
  now_ = n->at;
  --pending_;
  ++executed_;
  head_valid_ = false;
  n->invoke(*this, n);  // frees the node before running the callable
}

bool EventQueue::step() {
  limit_ = {};  // exactly one event: nothing else may run inside it
  if (ready_head_ == nullptr && !take_next_bucket(~TimeNs{0})) return false;
  exec_front();
  return true;
}

std::uint64_t EventQueue::run_until(TimeNs deadline) {
  const std::uint64_t start = executed_;
  limit_ = {deadline, ~std::uint64_t{0}};
  for (;;) {
    if (ready_head_ != nullptr) {
      // A bucket can survive a previous call that stopped mid-drain; honor
      // the deadline before executing its remainder.
      if (ready_head_->at > deadline) break;
    } else if (!take_next_bucket(deadline)) {
      break;
    }
    exec_front();
  }
  if (now_ < deadline) now_ = deadline;
  return executed_ - start;
}

std::uint64_t EventQueue::run_all() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace ht::sim
