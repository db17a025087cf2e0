// Golden-run determinism and packet-pool reuse tests.
//
// The pooled-packet / slab-event / timer-wheel engine (DESIGN.md sec. 8)
// must not change simulation results: for a fixed seed, two fresh testers
// running the same scenario produce bit-identical event counts, register
// state, and per-port counters. These tests pin that contract so future
// storage or scheduling changes cannot silently reorder events.
//
// The sharded suite (ShardedGoldenRun, DESIGN.md §13) extends the same
// contract across the parallel engine: every symx catalog task, run as a
// two-tester cluster, must produce byte-identical counters, store
// fingerprints, replica byte streams with arrival timestamps, and merged
// Prometheus text for shard counts {1, 2, 4, 8} — shards=1 being the
// legacy single-queue golden.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "core/hypertester.hpp"
#include "dut/capture.hpp"
#include "net/packet_pool.hpp"
#include "sim/snapshot.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

/// Everything observable about one finished run, cheap to compare.
struct RunSnapshot {
  std::uint64_t events_executed = 0;
  std::uint64_t ingress_packets = 0;
  std::uint64_t egress_packets = 0;
  std::uint64_t dropped = 0;
  std::uint64_t recirculations = 0;
  std::uint64_t replicas = 0;
  std::vector<std::uint64_t> port_counters;  ///< tx/rx packets+bytes per port
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> registers;

  bool operator==(const RunSnapshot&) const = default;
};

/// Run the Fig. 9-style single-port scenario for 200us and snapshot it.
RunSnapshot golden_run() {
  constexpr std::size_t kPorts = 2;
  TesterConfig cfg;
  cfg.asic.num_ports = kPorts;
  cfg.asic.port_rate_gbps = 100.0;
  HyperTester tester(cfg);
  std::vector<std::unique_ptr<dut::Capture>> sinks;
  for (std::size_t i = 0; i < kPorts; ++i) {
    sinks.push_back(std::make_unique<dut::Capture>(
        tester.events(), static_cast<std::uint16_t>(1000 + i), 100.0));
    sinks.back()->set_count_only(true);
    sinks.back()->attach(tester.asic().port(static_cast<std::uint16_t>(i)));
  }
  auto app = apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::us(200));

  RunSnapshot snap;
  snap.events_executed = tester.events().executed();
  snap.ingress_packets = tester.asic().ingress_packets();
  snap.egress_packets = tester.asic().egress_packets();
  snap.dropped = tester.asic().dropped_packets();
  snap.recirculations = tester.asic().recirculations();
  snap.replicas = tester.asic().replicas_created();
  for (std::size_t i = 0; i < kPorts; ++i) {
    const auto& p = tester.asic().port(static_cast<std::uint16_t>(i));
    snap.port_counters.push_back(p.tx_packets());
    snap.port_counters.push_back(p.tx_bytes());
    snap.port_counters.push_back(p.rx_packets());
    snap.port_counters.push_back(p.rx_bytes());
  }
  for (const std::string& name : tester.asic().registers().names()) {
    const auto& arr = tester.asic().registers().get(name);
    std::vector<std::uint64_t> cells(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) cells[i] = arr.read(i);
    snap.registers.emplace_back(name, std::move(cells));
  }
  return snap;
}

TEST(GoldenRun, IdenticalResultsForFixedSeed) {
  const RunSnapshot a = golden_run();
  const RunSnapshot b = golden_run();
  // Compare piecewise first so a failure names the diverging counter.
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.egress_packets, b.egress_packets);
  EXPECT_EQ(a.port_counters, b.port_counters);
  EXPECT_EQ(a.registers.size(), b.registers.size());
  for (std::size_t i = 0; i < a.registers.size() && i < b.registers.size(); ++i) {
    EXPECT_EQ(a.registers[i].first, b.registers[i].first);
    EXPECT_EQ(a.registers[i].second, b.registers[i].second)
        << "register array " << a.registers[i].first << " diverged";
  }
  EXPECT_EQ(a, b);
  // The scenario must actually exercise the hot path to prove anything.
  EXPECT_GT(a.egress_packets, 10000u);
  EXPECT_GT(a.registers.size(), 0u);
}

// ---------------------------------------------------------------------------
// Same-tick multicast batch order, pinned across commits.
// ---------------------------------------------------------------------------

struct TickGroupPin {
  std::uint64_t replicas_hash = 0;  ///< FNV-1a over every port's arrivals and bytes
  std::uint64_t state_digest = 0;
  std::size_t replicas = 0;
};

/// syn_flood with zero multicast jitter, so every fire's replicas share one
/// TM tick and egress as one group. Its random sip/sport egress edits and
/// the loop replica's recirculation jitter draw from the same ASIC rng, so
/// the hash moves if any replica is emitted before every replica's pass.
TickGroupPin tick_group_run(bool fastpath) {
  TesterConfig cfg;
  cfg.fastpath = fastpath;
  cfg.asic.num_ports = 4;
  cfg.asic.timing.mcast_jitter_sigma_ns = 0.0;
  HyperTester tester(cfg);
  std::vector<std::unique_ptr<test::PortSink>> sinks;
  for (std::uint16_t p = 0; p < cfg.asic.num_ports; ++p) {
    sinks.push_back(std::make_unique<test::PortSink>(
        tester.events(), static_cast<std::uint16_t>(1000 + p), cfg.asic.port_rate_gbps));
    sinks.back()->attach(tester.asic().port(p));
  }
  tester.load(apps::syn_flood(1, 80, {0, 1, 2}).task);
  tester.start();
  tester.run_for(sim::us(200));

  TickGroupPin pin;
  pin.replicas_hash = sim::fnv1a64(nullptr, 0);
  for (std::uint16_t p = 0; p < sinks.size(); ++p) {
    const auto& sink = *sinks[p];
    pin.replicas_hash = sim::fnv1a64(reinterpret_cast<const std::uint8_t*>(&p), sizeof p,
                                     pin.replicas_hash);
    pin.replicas += sink.packets.size();
    for (std::size_t i = 0; i < sink.packets.size(); ++i) {
      const sim::TimeNs at = sink.arrival_times[i];
      pin.replicas_hash = sim::fnv1a64(reinterpret_cast<const std::uint8_t*>(&at), sizeof at,
                                       pin.replicas_hash);
      const auto& bytes = sink.packets[i]->bytes();
      pin.replicas_hash = sim::fnv1a64(bytes.data(), bytes.size(), pin.replicas_hash);
    }
  }
  pin.state_digest = tester.state_digest();
  return pin;
}

TEST(TickGroupPin, SameTickReplicasMatchPinnedBytes) {
  // A change here means the same-tick batch order moved; never refresh
  // these constants to make a refactor pass.
  constexpr std::uint64_t kReplicasHash = 0xa66c600b0c794e18ull;
  const TickGroupPin fused = tick_group_run(true);
  const TickGroupPin interpreted = tick_group_run(false);
  EXPECT_EQ(fused.replicas_hash, kReplicasHash);
  EXPECT_EQ(interpreted.replicas_hash, kReplicasHash);
  // The digest's Prometheus section holds ht_fastpath_* only when bound.
  EXPECT_EQ(fused.state_digest, 0xdd278bb52eea280eull);
  EXPECT_EQ(interpreted.state_digest, 0x6b674ab3e7016693ull);
  EXPECT_GT(fused.replicas, 1000u);
}

// ---------------------------------------------------------------------------
// Sharded golden runs: shard-count invariance over the full symx catalog.
// ---------------------------------------------------------------------------

/// Everything observable about one finished cluster run.
struct ShardRunResult {
  std::vector<std::uint64_t> counters;  ///< flattened per-tester counter set
  std::vector<std::map<std::uint64_t, std::uint64_t>> store_fingerprints;
  std::vector<std::vector<test::Arrival>> per_sink;
  std::string prometheus;  ///< merged cluster export (tester="tN" labels)
  bool sends_traffic = false;  ///< task has templates (receive-only tasks don't)
  bool operator==(const ShardRunResult&) const = default;
};

/// Two testers, each wired to two sinks. Testers go on shards 2t % n and
/// their sinks on (2t+1) % n, so every shard count above 1 pushes all
/// replica traffic through cross-shard link outboxes.
ShardRunResult run_sharded_catalog_task(const ntapi::Task& task, std::size_t nshards) {
  constexpr std::size_t kTesters = 2;
  constexpr std::size_t kSinkPorts = 2;
  TesterCluster cluster({.shards = nshards, .seed = 0xd1ce});
  std::vector<std::unique_ptr<test::PortSink>> sinks;
  for (std::size_t t = 0; t < kTesters; ++t) {
    const std::size_t tester_shard = (2 * t) % nshards;
    const std::size_t sink_shard = (2 * t + 1) % nshards;
    TesterConfig cfg;
    cfg.asic.num_ports = 4;
    cfg.asic.seed = 1 + t;  // decorrelate the two testers' jitter draws
    HyperTester& tester = cluster.add_tester(cfg, tester_shard);
    for (std::size_t p = 0; p < kSinkPorts; ++p) {
      sinks.push_back(std::make_unique<test::PortSink>(
          cluster.shards().shard(sink_shard).ev(),
          static_cast<std::uint16_t>(1000 + kSinkPorts * t + p), cfg.asic.port_rate_gbps));
      cluster.shards().connect(tester.asic().port(static_cast<std::uint16_t>(p)), tester_shard,
                               sinks.back()->port, sink_shard, /*propagation_ns=*/500);
    }
    tester.load(task);
    tester.start();
  }
  cluster.run_for(sim::us(120));

  ShardRunResult r;
  for (std::size_t t = 0; t < kTesters; ++t) {
    HyperTester& tester = cluster.tester(t);
    const auto& compiled = tester.compiled();
    for (std::size_t q = 0; q < compiled.queries.size(); ++q) {
      r.counters.push_back(tester.receiver().evaluated(q));
      r.counters.push_back(tester.receiver().matched(q));
      r.counters.push_back(tester.receiver().keyless_total(q));
      r.counters.push_back(tester.receiver().out_of_window(q));
      if (const auto* store = tester.receiver().store(q)) {
        r.counters.push_back(tester.query_distinct(ntapi::QueryHandle{q}));
        r.store_fingerprints.push_back(store->dump_fingerprints());
      } else {
        r.counters.push_back(0);
        r.store_fingerprints.emplace_back();
      }
    }
    for (std::size_t tr = 0; tr < compiled.templates.size(); ++tr) {
      r.counters.push_back(tester.trigger_fires(ntapi::TriggerHandle{tr}));
    }
    r.sends_traffic = r.sends_traffic || !compiled.templates.empty();
    r.counters.push_back(tester.asic().ingress_packets());
    r.counters.push_back(tester.asic().egress_packets());
    r.counters.push_back(tester.asic().dropped_packets());
    r.counters.push_back(tester.asic().recirculations());
    r.counters.push_back(tester.asic().replicas_created());
    for (std::size_t p = 0; p < tester.asic().port_count(); ++p) {
      const auto& port = tester.asic().port(static_cast<std::uint16_t>(p));
      r.counters.push_back(port.tx_packets());
      r.counters.push_back(port.tx_bytes());
      r.counters.push_back(port.rx_packets());
      r.counters.push_back(port.rx_bytes());
      r.counters.push_back(port.dropped_no_peer());
    }
  }
  for (const auto& sink : sinks) r.per_sink.push_back(sink->arrivals());
  r.prometheus = cluster.telemetry_report().prometheus;
  return r;
}

TEST(ShardedGoldenRun, CatalogByteIdenticalAcrossShardCounts) {
  for (const auto& [name, task] : test::catalog()) {
    SCOPED_TRACE(name);
    const ShardRunResult golden = run_sharded_catalog_task(task, 1);
    // A sending workload must actually cross the engine to prove anything
    // (receive-only tasks like port_bw legitimately emit no replicas).
    std::size_t golden_replicas = 0;
    for (const auto& recs : golden.per_sink) golden_replicas += recs.size();
    if (golden.sends_traffic) {
      EXPECT_GT(golden_replicas, 0u);
    }

    for (const std::size_t nshards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(nshards));
      const ShardRunResult sharded = run_sharded_catalog_task(task, nshards);
      EXPECT_EQ(golden.counters, sharded.counters);
      EXPECT_EQ(golden.store_fingerprints, sharded.store_fingerprints);
      ASSERT_EQ(golden.per_sink.size(), sharded.per_sink.size());
      for (std::size_t s = 0; s < golden.per_sink.size(); ++s) {
        EXPECT_EQ(golden.per_sink[s], sharded.per_sink[s]) << "sink " << s;
      }
      EXPECT_EQ(golden.prometheus, sharded.prometheus);
      EXPECT_EQ(golden, sharded);
    }
  }
}

/// Repeated sharded runs (same shard count) must also be bit-identical:
/// worker interleaving is not allowed to leak into results.
TEST(ShardedGoldenRun, RepeatedShardedRunsAreIdentical) {
  const auto task = apps::syn_flood(1, 80, {0, 1}).task;
  const ShardRunResult a = run_sharded_catalog_task(task, 4);
  const ShardRunResult b = run_sharded_catalog_task(task, 4);
  EXPECT_EQ(a, b);
}

TEST(PacketPool, ReusesReleasedPackets) {
  net::PacketPool pool;
  auto p1 = pool.acquire(64, 0xab);
  const net::Packet* raw = p1.get();
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().live, 1u);
  p1.reset();  // last ref: back to the freelist, not the allocator
  EXPECT_EQ(pool.stats().released, 1u);
  EXPECT_EQ(pool.free_count(), 1u);
  auto p2 = pool.acquire(128, 0xcd);
  EXPECT_EQ(p2.get(), raw);  // same node recycled
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(p2->size(), 128u);
  EXPECT_EQ(p2->bytes()[0], 0xcd);
}

TEST(PacketPool, HighWaterTracksPeakLive) {
  net::PacketPool pool;
  {
    auto a = pool.acquire(64);
    auto b = pool.acquire(64);
    auto c = pool.acquire(64);
    EXPECT_EQ(pool.stats().high_water, 3u);
  }
  EXPECT_EQ(pool.stats().live, 0u);
  auto d = pool.acquire(64);
  auto e = pool.acquire(64);
  EXPECT_EQ(pool.stats().high_water, 3u);  // peak, not current
  EXPECT_EQ(pool.stats().hits, 2u);
}

TEST(PacketPool, MetaFullyResetOnReuse) {
  net::PacketPool pool;
  {
    auto p = pool.acquire(64, 0xff);
    p->meta().ingress_port = 7;
    p->meta().egress_port = 9;
    p->meta().template_id = 42;
    p->meta().replica_index = 3;
    p->meta().is_template = true;
    // Overflow the bridged-words inline buffer so the spill path is also
    // proven to reset.
    for (std::uint64_t w = 0; w < 6; ++w) p->meta().bridged.push_back(w + 1);
    EXPECT_TRUE(p->meta().bridged.spilled());
  }
  auto q = pool.acquire(32);
  const net::PacketMeta fresh;
  EXPECT_EQ(q->meta().ingress_port, fresh.ingress_port);
  EXPECT_EQ(q->meta().egress_port, fresh.egress_port);
  EXPECT_EQ(q->meta().template_id, fresh.template_id);
  EXPECT_EQ(q->meta().replica_index, fresh.replica_index);
  EXPECT_EQ(q->meta().is_template, fresh.is_template);
  EXPECT_EQ(q->meta().bridged.size(), 0u);
  EXPECT_TRUE(q->meta().bridged == fresh.bridged);
  EXPECT_EQ(q->size(), 32u);
  EXPECT_EQ(q->bytes()[0], 0x00);
}

TEST(PacketPool, CopyAcquireClonesDataAndMeta) {
  net::PacketPool pool;
  auto proto = pool.acquire(48, 0x5a);
  proto->meta().template_id = 11;
  proto->meta().bridged.push_back(123);
  auto copy = pool.acquire_copy(*proto);
  EXPECT_NE(copy.get(), proto.get());
  EXPECT_EQ(copy->size(), 48u);
  EXPECT_EQ(copy->bytes()[5], 0x5a);
  EXPECT_EQ(copy->meta().template_id, 11u);
  ASSERT_EQ(copy->meta().bridged.size(), 1u);
  EXPECT_EQ(*copy->meta().bridged.begin(), 123u);
}

}  // namespace
}  // namespace ht
