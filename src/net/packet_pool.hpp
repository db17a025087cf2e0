// PacketPool: freelist recycling for Packet storage.
//
// Every packet the testbed creates per send — template replicas, baseline
// tester frames, DUT responses — used to be a fresh make_shared<Packet>
// (control block + byte vector + bridged vector: three allocations). The
// pool keeps released Packet objects, byte-buffer capacity included, on a
// freelist so steady-state traffic recycles storage instead of hitting the
// allocator. PacketPtr's last-reference drop routes a pooled packet back
// here automatically.
//
// Single-threaded by design, like the event queue that drives all users.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace ht::net {

class PacketPool {
 public:
  /// Hit/miss/high-water instrumentation, summed per group by
  /// sim::ShardGroup::aggregate_pool_stats.
  struct Stats {
    std::uint64_t hits = 0;        ///< acquisitions served from the freelist
    std::uint64_t misses = 0;      ///< acquisitions that had to allocate
    std::uint64_t released = 0;    ///< packets recycled for reuse
    std::uint64_t live = 0;        ///< currently checked-out packets
    std::uint64_t high_water = 0;  ///< max simultaneously checked out
  };

  PacketPool() = default;
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Fresh packet of `size` bytes, every byte set to `fill`; meta default.
  PacketPtr acquire(std::size_t size, std::uint8_t fill = 0);
  /// Pooled copy of `proto` (bytes + meta). Copying into a recycled buffer
  /// reuses its capacity, which is why the mcast engine clones this way.
  PacketPtr acquire_copy(const Packet& proto);

  const Stats& stats() const { return stats_; }
  std::size_t free_count() const { return free_.size(); }

 private:
  friend class PacketPtr;

  Packet* take();
  void recycle(Packet* p);

  std::vector<Packet*> free_;
  Stats stats_;
};

/// Process-wide pool backing make_packet() when no thread binding is
/// active. Intentionally leaked (never destroyed) so packets held in
/// static-storage containers at exit never see a dangling home pool; the
/// OS reclaims the memory.
PacketPool& default_packet_pool();

/// The pool make_packet() allocates from on the calling thread: the
/// thread-bound pool when a PoolBinding is active, else the process-wide
/// default. The sharded engine (sim/shard.hpp) binds each shard's private
/// pool around the shard's event execution, so every allocation a
/// component makes while its shard runs is shard-local — no cross-thread
/// freelist sharing, no atomic refcounts needed.
PacketPool& current_packet_pool();

/// RAII thread binding for current_packet_pool(). Nestable; restores the
/// previous binding on destruction. Binding nullptr restores the default.
class PoolBinding {
 public:
  explicit PoolBinding(PacketPool* pool);
  ~PoolBinding();
  PoolBinding(const PoolBinding&) = delete;
  PoolBinding& operator=(const PoolBinding&) = delete;

 private:
  PacketPool* prev_;
};

}  // namespace ht::net
