// Register FIFO (§6.1 of the paper).
//
// HyperTester needs FIFOs twice: the KV FIFO of the cuckoo counter store
// (§5.2) and the trigger FIFO between HTPR and HTPS (§5.3). Switching ASIC
// has no queue primitive, so the paper builds one from register arrays:
//  - a 32-bit *front* counter and a 32-bit *rear* counter, each supporting
//    `read` (returns value) and `update` (increments and returns the new
//    value), where the rear update is conditioned on the front value so
//    dequeues can never underflow;
//  - one storage register array per record lane.
//
// The paper notes the implementation cannot guarantee freedom from
// overflow; we reproduce that behaviour faithfully — an enqueue beyond
// capacity is dropped and counted, exactly what the hardware would do.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rmt/registers.hpp"

namespace ht::regfifo {

/// A fixed-capacity FIFO of fixed-arity records built on RegisterArrays.
class RegisterFifo {
 public:
  /// Creates `lanes` storage arrays plus front/rear counters inside `rf`,
  /// all named under `name`. Capacity must be a power of two (hardware
  /// index masking).
  RegisterFifo(rmt::RegisterFile& rf, const std::string& name, std::size_t capacity,
               std::size_t lanes);

  std::size_t capacity() const { return capacity_; }
  std::size_t lanes() const { return lanes_; }
  const std::string& name() const { return name_; }

  /// Occupancy derived from the two counters (front <= rear always holds).
  std::size_t size() const {
    // 32-bit counters wrap together, so modular subtraction is safe as long
    // as occupancy stays below 2^32 — guaranteed by the capacity check.
    const auto front = static_cast<std::uint32_t>(front_->read(0));
    const auto rear = static_cast<std::uint32_t>(rear_->read(0));
    return static_cast<std::uint32_t>(rear - front);
  }
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity_; }

  /// Enqueue one record (`record.size() == lanes`). Returns false and
  /// counts an overflow when the queue is full — the §6.1 limitation.
  bool enqueue(const std::vector<std::uint64_t>& record);

  /// Dequeue; nullopt when empty (underflow-free by construction: the
  /// front update is gated on front < rear).
  std::optional<std::vector<std::uint64_t>> dequeue();

  /// Control-plane view of the queued records, front to back (the CPU can
  /// always read the underlying registers).
  std::vector<std::vector<std::uint64_t>> snapshot() const;

  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t dequeued() const { return dequeued_; }
  std::uint64_t overflows() const { return overflows_; }

 private:
  std::string name_;
  std::size_t capacity_;
  std::size_t lanes_;
  rmt::RegisterArray* front_;
  rmt::RegisterArray* rear_;
  std::vector<rmt::RegisterArray*> storage_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dequeued_ = 0;
  std::uint64_t overflows_ = 0;
};

}  // namespace ht::regfifo
