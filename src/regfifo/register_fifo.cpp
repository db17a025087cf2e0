#include "regfifo/register_fifo.hpp"

#include <stdexcept>

namespace ht::regfifo {

namespace {
bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

RegisterFifo::RegisterFifo(rmt::RegisterFile& rf, const std::string& name, std::size_t capacity,
                           std::size_t lanes)
    : name_(name), capacity_(capacity), lanes_(lanes) {
  if (!is_power_of_two(capacity)) {
    throw std::invalid_argument("RegisterFifo " + name + ": capacity must be a power of two");
  }
  if (lanes == 0) throw std::invalid_argument("RegisterFifo " + name + ": need >= 1 lane");
  front_ = &rf.create(name + ".front", 1, 32);
  rear_ = &rf.create(name + ".rear", 1, 32);
  storage_.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    storage_.push_back(&rf.create(name + ".lane" + std::to_string(l), capacity, 64));
  }
}

bool RegisterFifo::enqueue(const std::vector<std::uint64_t>& record) {
  if (record.size() != lanes_) {
    throw std::invalid_argument("RegisterFifo: record arity mismatch");
  }
  if (full()) {
    ++overflows_;
    return false;
  }
  // `update` on the rear counter: increment and return the slot index.
  const std::uint64_t slot =
      rear_->execute(0, [](std::uint64_t& rear) { return rear++; }) & (capacity_ - 1);
  for (std::size_t l = 0; l < lanes_; ++l) storage_[l]->write(slot, record[l]);
  ++enqueued_;
  return true;
}

std::vector<std::vector<std::uint64_t>> RegisterFifo::snapshot() const {
  std::vector<std::vector<std::uint64_t>> out;
  const std::uint32_t front = static_cast<std::uint32_t>(front_->read(0));
  const std::size_t n = size();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (front + i) & (capacity_ - 1);
    std::vector<std::uint64_t> rec(lanes_);
    for (std::size_t l = 0; l < lanes_; ++l) rec[l] = storage_[l]->read(slot);
    out.push_back(std::move(rec));
  }
  return out;
}

std::optional<std::vector<std::uint64_t>> RegisterFifo::dequeue() {
  const std::uint32_t rear = static_cast<std::uint32_t>(rear_->read(0));
  // Front `update` gated on front != rear: the §6.1 underflow guard.
  bool ok = false;
  const std::uint64_t slot = front_->execute(0, [&](std::uint64_t& front) {
    if (static_cast<std::uint32_t>(front) == rear) return std::uint64_t{0};
    ok = true;
    return front++;
  }) & (capacity_ - 1);
  if (!ok) return std::nullopt;
  std::vector<std::uint64_t> record(lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) record[l] = storage_[l]->read(slot);
  ++dequeued_;
  return record;
}

}  // namespace ht::regfifo
