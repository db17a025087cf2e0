// TesterCluster: several HyperTester instances sharing one sharded engine.
//
// The multi-tester scaling story of DESIGN.md §13: a cluster owns a
// ShardGroup and places each tester (ASIC + CPU + HTPS + HTPR) on a
// chosen shard. Testers on different shards execute on different worker
// threads; they may only interact through links wired with
// shards().connect(), which also covers links between a tester and a
// standalone device under test. Typical use (bench/fig10):
//
//   ht::TesterCluster cluster({.shards = 8, .seed = 42});
//   for (int i = 0; i < 8; ++i) {
//     auto& t = cluster.add_tester({}, /*shard=*/i % cluster.shards().size());
//     // build a DUT on the same or another shard, then:
//     cluster.shards().connect(t.asic().port(0), i, dut_port, j);
//     t.load(task); t.start();
//   }
//   cluster.run_for(ht::sim::seconds(1));
//
// Results are byte-identical across shard counts and placements for a
// fixed seed (tests/determinism_test.cpp pins this across {1, 2, 4, 8}).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/hypertester.hpp"
#include "sim/shard.hpp"

namespace ht {

struct ClusterConfig {
  /// Worker shards. 1 = everything co-resident on the calling thread.
  std::size_t shards = 1;
  /// Run seed fanned out (splitmix64) into per-shard RNG streams.
  std::uint64_t seed = sim::ShardGroup::kDefaultSeed;
};

class TesterCluster {
 public:
  explicit TesterCluster(ClusterConfig cfg = {});

  sim::ShardGroup& shards() { return group_; }
  const sim::ShardGroup& shards() const { return group_; }

  /// Construct a tester placed on `shard` (must be < shards().size()).
  /// The cluster's group decides the shard count and the run seed.
  HyperTester& add_tester(TesterConfig cfg, std::size_t shard);

  /// Balanced placement for one tester per task: greedy longest-
  /// processing-time over expected_packet_rate(), heaviest task first
  /// onto the least-loaded shard (ties: lowest shard index). Equal-rate
  /// workloads degrade to round-robin — exactly the `i % shards` layout
  /// the fig10 bench used by hand. Returns placements[i] = shard for
  /// tasks[i]; feed them to add_tester().
  std::vector<std::size_t> auto_place(const std::vector<const ntapi::Task*>& tasks,
                                      const rmt::AsicConfig& asic = {}) const;

  std::size_t size() const { return testers_.size(); }
  HyperTester& tester(std::size_t i) { return *testers_[i]; }
  const HyperTester& tester(std::size_t i) const { return *testers_[i]; }
  /// The shard tester `i` was placed on.
  std::size_t placement(std::size_t i) const { return placement_[i]; }

  /// Advance every shard `duration` beyond the group clock.
  void run_for(sim::TimeNs duration) { group_.run_until(group_.now() + duration); }

  /// Deterministic merged snapshot of every tester's registry: tester i's
  /// samples carry a spliced tester="ti" label; sections merge in tester
  /// order and sort by the labeled sample name.
  telemetry::Report telemetry_report() const;

  /// Full cluster state image: the engine section followed by one section
  /// group per tester ("t0.*", "t1.*", ... in tester order). Supervisor
  /// snapshot/restore/attestation is built on these bytes (DESIGN.md §14).
  void write_state(sim::SnapshotWriter& w);
  /// One-number FNV-1a fingerprint of write_state output.
  std::uint64_t state_digest();

 private:
  /// Declared before the testers so packets they still hold at
  /// destruction release into live shard pools.
  sim::ShardGroup group_;
  std::vector<std::unique_ptr<HyperTester>> testers_;
  std::vector<std::size_t> placement_;
};

/// Estimated aggregate injection rate (packets/s) of a task's timer
/// triggers: line rate (port rate over wire size, 20B of preamble + IFG +
/// 4B FCS per frame) when interval is 0, 1e9/interval otherwise, times
/// the trigger's injection-port count. Query-based triggers are
/// demand-driven and contribute nothing up front.
double expected_packet_rate(const ntapi::Task& task, const rmt::AsicConfig& asic = {});

}  // namespace ht
