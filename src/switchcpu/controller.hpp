// Switch CPU: the control plane of the ASIC.
//
// The controller plays three roles from the paper:
//  1. configuration — installing table entries, mcast groups, and register
//     presets produced by the NTAPI compiler;
//  2. pull-mode statistic collection — reading data-plane counters over the
//     control-plane API, either one RPC per counter or batched (Fig 16b);
//  3. push-mode collection — receiving generate_digest records (Fig 16a)
//     and folding evicted counter-store entries into CPU DRAM.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "rmt/asic.hpp"

namespace ht::switchcpu {

/// Latency model of the control-plane counter API, calibrated to Fig 16b:
/// batched reads fetch 65536 counters in < 0.2s; one-by-one reads pay a
/// full RPC each and are an order of magnitude slower.
struct PullModel {
  double rpc_ns = 45'000.0;          ///< one synchronous read
  double batch_setup_ns = 500'000.0; ///< DMA/bulk-read setup
  double batch_per_entry_ns = 3'000.0;

  double one_by_one_ns(std::size_t n) const { return rpc_ns * static_cast<double>(n); }
  double batched_ns(std::size_t n) const {
    return batch_setup_ns + batch_per_entry_ns * static_cast<double>(n);
  }
};

class Controller {
 public:
  explicit Controller(rmt::SwitchAsic& asic);

  rmt::SwitchAsic& asic() { return asic_; }

  // --- pull mode -----------------------------------------------------------
  /// Read a whole register array. `batched` selects the bulk API, otherwise
  /// every counter pays one RPC. The result is delivered through `done`
  /// after the modeled latency (Fig 16b).
  void read_counters(const std::string& reg, bool batched,
                     std::function<void(std::vector<std::uint64_t>)> done);

  // --- push mode -----------------------------------------------------------
  /// Digest messages are counted and handed to the subscribers of their
  /// type, not stored. Type ids are assigned by the compiler; evicted
  /// counter-store records are folded into `evicted_counters()` keyed by
  /// the digest's first value.
  std::uint64_t digest_count() const { return digest_count_; }

  /// CPU-DRAM aggregation of evicted (fingerprint, count) pairs.
  void set_eviction_digest_type(std::uint32_t type) { eviction_type_ = type; }
  const std::map<std::uint64_t, std::uint64_t>& evicted_counters() const { return evicted_; }

  /// Extra subscriber for digest types (e.g. the stateless-connection
  /// monitor queries that report to the CPU).
  void subscribe(std::uint32_t type, std::function<void(const rmt::DigestMessage&)> fn);

  // --- fault injection -------------------------------------------------------
  /// Cut the switch CPU off from the ASIC's counter API: while partitioned,
  /// the `done` callback of a read_counters() call never fires, modeling a
  /// hung RPC over PCIe (HyperTester::partition_controller).
  void set_partitioned(bool partitioned) { partitioned_ = partitioned; }
  /// Read RPCs swallowed by a partition.
  std::uint64_t rpc_lost() const { return rpc_lost_; }

  // --- telemetry -------------------------------------------------------------
  /// Mirror the controller's counters into `reg` ("controller.rpc_lost"
  /// joins the drop audit trail). A method rather than ctor-side
  /// registration so tests that attach extra controllers to one ASIC do
  /// not register duplicates; HyperTester calls it once.
  void register_metrics(telemetry::MetricsRegistry& reg);

 private:
  void on_digest(const rmt::DigestMessage& msg);

  rmt::SwitchAsic& asic_;
  PullModel pull_model_;
  bool partitioned_ = false;
  std::uint64_t rpc_lost_ = 0;
  std::unordered_map<std::uint32_t, std::vector<std::function<void(const rmt::DigestMessage&)>>>
      subscribers_;
  std::map<std::uint64_t, std::uint64_t> evicted_;
  std::uint32_t eviction_type_ = 0xFFFFFFFF;
  std::uint64_t digest_count_ = 0;
};

}  // namespace ht::switchcpu
