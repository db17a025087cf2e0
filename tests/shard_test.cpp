// Sharded-engine unit tests (DESIGN.md §13): the splitmix64 per-shard seed
// fanout and the ShardGroup scheduler — cross-shard delivery must be
// timestamp- and order-identical to a co-placed link (also for a drain far
// larger than a typical epoch's), arrivals at the epoch edge must land in
// the same call, handoffs must be copied into the destination pool, the
// worker pool must execute every shard's events exactly once, the epoch
// barrier must survive thousands of short epochs on an oversubscribed
// host, an exception thrown by an event must reach the caller intact, and
// teardown after it must release every buffered handoff.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"

namespace ht {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // First three outputs of Vigna's reference splitmix64.c for state 0
  // (verified against a standalone build of the reference code). Pinned
  // so the mixing constants can never drift silently.
  std::uint64_t state = 0;
  EXPECT_EQ(sim::Rng::splitmix64(state), 0xb2b24a15d311bdffull);
  EXPECT_EQ(sim::Rng::splitmix64(state), 0xed8c5342ab0cfeb2ull);
  EXPECT_EQ(sim::Rng::splitmix64(state), 0x39597e830bc21ad8ull);
}

TEST(SplitMix64, StreamSeedsAreDecorrelatedAndReproducible) {
  const std::uint64_t run_seed = 42;
  // Reproducible: the fanout is a pure function of (run_seed, stream).
  EXPECT_EQ(sim::Rng::stream_seed(run_seed, 3), sim::Rng::stream_seed(run_seed, 3));
  // Distinct per stream and per run seed — adjacent streams must not be
  // the near-identical states a naive `seed + shard_id` would produce.
  for (std::uint64_t s = 0; s < 16; ++s) {
    for (std::uint64_t t = s + 1; t < 16; ++t) {
      EXPECT_NE(sim::Rng::stream_seed(run_seed, s), sim::Rng::stream_seed(run_seed, t));
    }
    EXPECT_NE(sim::Rng::stream_seed(run_seed, s), sim::Rng::stream_seed(run_seed + 1, s));
  }
  // The derived generators produce unrelated draws.
  sim::Rng a = sim::Rng::for_stream(run_seed, 0);
  sim::Rng b = sim::Rng::for_stream(run_seed, 1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

/// Two ports wired across shards must observe byte-identical timestamps,
/// in the same order, as the same ports co-placed on one shard: for three
/// frames over a 500 ns link, and for 2,000 frames sent inside the first
/// epoch of a 20 us link, which the barrier then drains in one go.
TEST(ShardGroup, CrossShardDeliveryMatchesCoPlacedTimestamps) {
  constexpr double kRate = 100.0;
  // (arrival, send index) per frame, in delivery order.
  using Log = std::vector<std::pair<sim::TimeNs, std::uint32_t>>;
  const auto run = [&](std::size_t nshards, std::size_t shard_b, sim::TimeNs prop,
                       std::uint32_t frames) {
    sim::ShardGroup group(nshards, /*run_seed=*/7);
    sim::Port a(group.shard(0).ev(), 1, kRate);
    sim::Port b(group.shard(shard_b).ev(), 2, kRate);
    group.connect(a, 0, b, shard_b, prop);
    Log log;
    b.on_receive = [&](net::PacketPtr pkt) {
      log.emplace_back(pkt->meta().ingress_tstamp_ns, pkt->meta().replica_index);
    };
    // One send per ns, each queued behind the ones before it.
    for (std::uint32_t i = 0; i < frames; ++i) {
      group.shard(0).ev().schedule_at(static_cast<sim::TimeNs>(i), [&a, i] {
        auto pkt = net::make_packet(64);
        pkt->meta().replica_index = i;
        a.send(std::move(pkt));
      });
    }
    group.run_until(prop + sim::us(20));
    EXPECT_EQ(group.sync_stats().handoffs, shard_b == 0 ? 0u : frames);
    return log;
  };
  for (const auto& [prop, frames] : {std::pair<sim::TimeNs, std::uint32_t>{500, 3},
                                     std::pair<sim::TimeNs, std::uint32_t>{sim::us(20), 2000}}) {
    SCOPED_TRACE(std::to_string(frames) + " frames over " + std::to_string(prop) + " ns");
    const Log co_placed = run(1, 0, prop, frames);
    ASSERT_EQ(co_placed.size(), frames);
    for (std::uint32_t i = 0; i < frames; ++i) EXPECT_EQ(co_placed[i].second, i);
    EXPECT_EQ(run(2, 1, prop, frames), co_placed);
  }
}

/// A handoff arriving exactly at the run_until deadline must still be
/// delivered within that call (the final-epoch edge).
TEST(ShardGroup, EpochEdgeArrivalDeliveredAtDeadline) {
  sim::ShardGroup group(2, 7);
  sim::Port a(group.shard(0).ev(), 1, 100.0);
  sim::Port b(group.shard(1).ev(), 2, 100.0);
  group.connect(a, 0, b, 1, 500);
  std::vector<sim::TimeNs> arrivals;
  b.on_receive = [&](net::PacketPtr pkt) { arrivals.push_back(pkt->meta().ingress_tstamp_ns); };
  group.shard(0).ev().schedule_at(0, [&a] { a.send(net::make_packet(64)); });
  // 64B frame -> 88B line -> 7.04ns serialization, llround -> 7; +500 prop.
  const sim::TimeNs kArrival = 507;
  group.run_until(kArrival);  // deadline == the exact arrival instant
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], kArrival);
  EXPECT_EQ(group.sync_stats().handoffs, 1u);
}

/// Every handoff is copied into the destination shard's pool, whichever
/// pool the sent packet came from, and the source reference is released
/// at the barrier.
TEST(ShardGroup, HandoffCopiesIntoDestinationPool) {
  sim::ShardGroup group(2, 7);
  sim::Port a(group.shard(0).ev(), 1, 100.0);
  sim::Port b(group.shard(1).ev(), 2, 100.0);
  group.connect(a, 0, b, 1, 500);
  std::vector<const net::PacketPool*> homes;
  b.on_receive = [&homes](net::PacketPtr pkt) { homes.push_back(pkt->home_pool()); };

  // A packet whose home pool is already the destination shard's pool.
  {
    net::PoolBinding bind(&group.shard(1).pool());
    auto pkt = net::make_packet(64);
    group.shard(0).ev().schedule_at(0, [&a, pkt = std::move(pkt)]() mutable {
      a.send(std::move(pkt));
    });
  }
  // A packet from the sending shard's own pool (bound while shard 0 runs).
  group.shard(0).ev().schedule_at(1000, [&a] { a.send(net::make_packet(64)); });

  group.run_until(sim::us(10));
  const auto stats = group.sync_stats();
  EXPECT_EQ(stats.handoffs, 2u);
  EXPECT_EQ(stats.handoffs_copied, 2u);
  EXPECT_EQ(stats.backpressure, 0u);
  EXPECT_GE(stats.epochs, 2u);
  const net::PacketPool* dst_pool = &group.shard(1).pool();
  EXPECT_EQ(homes, (std::vector<const net::PacketPool*>{dst_pool, dst_pool}));
  EXPECT_EQ(group.shard(0).pool().stats().live, 0u);
  EXPECT_EQ(group.shard(1).pool().stats().live, 0u);
}

TEST(ShardGroup, WorkersExecuteEveryShardAndAggregateStats) {
  constexpr std::size_t kShards = 4;
  sim::ShardGroup group(kShards, 7);
  std::vector<std::uint64_t> counts(kShards, 0);  // each touched by one shard only
  for (std::size_t s = 0; s < kShards; ++s) {
    for (int i = 0; i < 100; ++i) {
      group.shard(s).ev().schedule_at(static_cast<sim::TimeNs>(10 * i),
                                      [&counts, s] { ++counts[s]; });
    }
  }
  EXPECT_EQ(group.run_until(sim::us(2)), 400u);
  for (std::size_t s = 0; s < kShards; ++s) EXPECT_EQ(counts[s], 100u) << "shard " << s;
  EXPECT_EQ(group.total_executed(), 400u);
  EXPECT_EQ(group.now(), sim::us(2));
  // No cross-shard links: the whole run is a single epoch, no handoffs.
  const auto stats = group.sync_stats();
  EXPECT_EQ(stats.handoffs, 0u);
  const auto slab = group.aggregate_slab_stats();
  EXPECT_EQ(slab.hits + slab.misses, 400u);
}

/// The calling thread runs shard 0, so N shards add N - 1 threads (Linux
/// only: counted through /proc/self/task).
TEST(ShardGroup, CallerRunsShardZeroAndStartsOneWorkerPerOtherShard) {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no /proc/self/task";
  const auto threads = [&tasks] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  // A first thread start may also start runtime helpers (a sanitizer's
  // background thread); let that happen before the baseline is taken.
  std::thread([] {}).join();
  const auto before = threads();
  for (std::size_t nshards : {1u, 2u, 4u}) {
    sim::ShardGroup group(nshards, 7);
    group.run_until(10);
    EXPECT_EQ(threads() - before, static_cast<long>(nshards) - 1) << nshards << " shards";
  }
}

TEST(ShardGroup, SingleShardRunsInlineAsLegacyEngine) {
  sim::ShardGroup group(1, 7);
  std::uint64_t count = 0;
  group.shard(0).ev().schedule_at(10, [&count] { ++count; });
  EXPECT_EQ(group.run_until(100), 1u);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(group.shard(0).ev().now(), 100u);
  EXPECT_EQ(group.now(), 100u);
}

/// Chaos composes with sharding (DESIGN.md §14): an injector attached to a
/// cross-shard link rebinds to the receiving shard's queue and runs on the
/// drain side, so its draw sequence — and therefore every stat and every
/// arrival timestamp — matches the identical link co-placed on one shard.
TEST(ShardGroup, ChaosOnCrossShardLinkMatchesCoPlaced) {
  const auto run = [](std::size_t nshards, std::size_t shard_b) {
    sim::ShardGroup group(nshards, 7);
    sim::Port a(group.shard(0).ev(), 1, 100.0);
    sim::Port b(group.shard(shard_b).ev(), 2, 100.0);
    group.connect(a, 0, b, shard_b, 500);
    EXPECT_EQ(a.cross_shard(), shard_b != 0);
    std::vector<sim::TimeNs> arrivals;
    b.on_receive = [&](net::PacketPtr pkt) {
      arrivals.push_back(pkt->meta().ingress_tstamp_ns);
    };
    sim::FaultConfig cfg;
    cfg.seed = 99;
    cfg.loss.rate = 0.3;
    cfg.duplicate.rate = 0.1;
    sim::FaultInjector injector(group.shard(0).ev(), cfg);
    injector.attach(a);
    for (int i = 0; i < 200; ++i) {
      group.shard(0).ev().schedule_at(static_cast<sim::TimeNs>(20 * i),
                                      [&a] { a.send(net::make_packet(64)); });
    }
    group.run_until(sim::us(50));
    return std::make_pair(injector.stats(), arrivals);
  };
  const auto [co_stats, co_arrivals] = run(1, 0);
  const auto [x_stats, x_arrivals] = run(2, 1);
  EXPECT_EQ(co_stats.offered, x_stats.offered);
  EXPECT_EQ(co_stats.delivered, x_stats.delivered);
  EXPECT_EQ(co_stats.lost, x_stats.lost);
  EXPECT_EQ(co_stats.duplicated, x_stats.duplicated);
  EXPECT_EQ(co_arrivals, x_arrivals);
  // The profile must actually bite for the comparison to prove anything.
  EXPECT_EQ(co_stats.offered, 200u);
  EXPECT_GT(co_stats.lost, 0u);
  EXPECT_GT(co_stats.duplicated, 0u);
  EXPECT_GT(co_stats.delivered, 0u);
}

/// Barrier stress: four ping-pong pairs over short links give ~11 ns
/// epochs, so a 120 us run crosses the barrier more than 10,000 times. At
/// 8 shards the workers outnumber the cores of a small host, so both sides
/// of the barrier also take the park path. Every arrival must match the
/// single-shard run.
TEST(ShardGroup, ManyShortEpochsStayByteIdentical) {
  constexpr std::size_t kPairs = 4;
  const auto run = [](std::size_t nshards) {
    sim::ShardGroup group(nshards, 7);
    std::vector<std::unique_ptr<sim::Port>> ports;
    // One arrival log per port, each appended to by its own shard only.
    std::vector<std::vector<sim::TimeNs>> arrivals(2 * kPairs);
    for (std::size_t p = 0; p < kPairs; ++p) {
      const std::size_t sa = (2 * p) % nshards;
      const std::size_t sb = (2 * p + 1) % nshards;
      auto& a = *ports.emplace_back(std::make_unique<sim::Port>(
          group.shard(sa).ev(), static_cast<std::uint16_t>(2 * p), 100.0));
      auto& b = *ports.emplace_back(std::make_unique<sim::Port>(
          group.shard(sb).ev(), static_cast<std::uint16_t>(2 * p + 1), 100.0));
      group.connect(a, sa, b, sb, /*propagation_ns=*/static_cast<sim::TimeNs>(10 * (p + 1)));
      for (sim::Port* port : {&a, &b}) {
        auto& log = arrivals[port->id()];
        port->on_receive = [port, &log](net::PacketPtr pkt) {
          log.push_back(pkt->meta().ingress_tstamp_ns);
          port->send(std::move(pkt));  // bounce it straight back
        };
      }
      // Two packets per pair, so the second one queues behind the first.
      for (sim::TimeNs t : {sim::TimeNs{0}, sim::TimeNs{3}}) {
        group.shard(sa).ev().schedule_at(t, [&a] { a.send(net::make_packet(64)); });
      }
    }
    group.run_until(sim::us(120));
    if (nshards > 1) {
      EXPECT_GE(group.sync_stats().epochs, 10'000u) << nshards << " shards";
    }
    return arrivals;
  };
  const auto golden = run(1);
  for (const auto& log : golden) ASSERT_GT(log.size(), 1'000u);
  for (std::size_t nshards : {2u, 4u, 8u}) {
    EXPECT_EQ(run(nshards), golden) << nshards << " shards";
  }
}

/// An event that throws on any shard must not terminate the process or
/// unwind the caller while other shards still run: every shard finishes
/// the epoch, run_until rethrows on the calling thread, and the group
/// then tears down without hanging.
void expect_throw_reaches_caller(std::size_t nshards, std::size_t thrower) {
  SCOPED_TRACE(std::to_string(nshards) + " shards, throw on shard " + std::to_string(thrower));
  std::vector<std::uint64_t> counts(nshards, 0);  // each touched by one shard only
  {
    sim::ShardGroup group(nshards, 7);
    const std::size_t peer = nshards > 1 ? 1 : 0;  // one shard: an intra-shard wire
    sim::Port a(group.shard(0).ev(), 1, 100.0);
    sim::Port b(group.shard(peer).ev(), 2, 100.0);
    group.connect(a, 0, b, peer, 500);
    b.on_receive = [](net::PacketPtr) {};
    for (std::size_t s = 0; s < nshards; ++s) {
      for (int i = 0; i < 100; ++i) {
        group.shard(s).ev().schedule_at(static_cast<sim::TimeNs>(i),
                                        [&counts, s] { ++counts[s]; });
      }
    }
    group.shard(0).ev().schedule_at(0, [&a] { a.send(net::make_packet(64)); });
    group.shard(thrower).ev().schedule_at(50, [thrower] {
      throw std::runtime_error("event failed on shard " + std::to_string(thrower));
    });
    try {
      group.run_until(sim::us(10));
      ADD_FAILURE() << "run_until returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "event failed on shard " + std::to_string(thrower));
    }
    // The barrier completed: the other shards ran their whole first epoch.
    for (std::size_t s = 0; s < nshards; ++s) {
      if (s != thrower) {
        EXPECT_EQ(counts[s], 100u) << "shard " << s;
      }
    }
    EXPECT_EQ(group.sync_stats().epochs, 0u);  // the failed epoch is not counted
  }  // ~ShardGroup with a packet still in an outbox: must join, not hang
}

TEST(ShardGroup, ThrowOnCallerShardRethrowsAfterBarrier) {
  expect_throw_reaches_caller(1, 0);
  expect_throw_reaches_caller(2, 0);
  expect_throw_reaches_caller(4, 0);
}

TEST(ShardGroup, ThrowOnWorkerShardRethrowsOnCaller) {
  expect_throw_reaches_caller(2, 1);
  expect_throw_reaches_caller(4, 1);
}

/// A one-shard group runs the general epoch loop, so a caught throw must
/// not stay parked in its epoch slot: the next run_until resumes after the
/// failed event instead of rethrowing it.
TEST(ShardGroup, OneShardGroupResumesAfterACaughtThrow) {
  sim::ShardGroup group(1, 7);
  int ran = 0;
  group.shard(0).ev().schedule_at(10, [] { throw std::runtime_error("event failed"); });
  group.shard(0).ev().schedule_at(20, [&ran] { ++ran; });
  EXPECT_THROW(group.run_until(100), std::runtime_error);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(group.run_until(100), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(group.now(), 100);
  EXPECT_EQ(group.sync_stats().epochs, 1u);  // only the clean epoch counts
}

/// A throwing epoch skips the drain, so packets sent cross-shard in it stay
/// buffered in the link's outbox. Tearing the group down must release them
/// into their (still live) home pool.
TEST(ShardGroup, TeardownAfterAThrowingEpochReleasesBufferedHandoffs) {
  net::PacketPool pool;  // declared first: outlives the group
  {
    sim::ShardGroup group(2, 7);
    sim::Port a(group.shard(0).ev(), 1, 100.0);
    sim::Port b(group.shard(1).ev(), 2, 100.0);
    group.connect(a, 0, b, 1, 500);
    b.on_receive = [](net::PacketPtr) {};
    {
      net::PoolBinding bind(&pool);
      for (int i = 0; i < 3; ++i) {
        group.shard(0).ev().schedule_at(0, [&a, pkt = net::make_packet(64)]() mutable {
          a.send(std::move(pkt));
        });
      }
    }
    group.shard(0).ev().schedule_at(1, [] { throw std::runtime_error("event failed"); });
    EXPECT_THROW(group.run_until(sim::us(10)), std::runtime_error);
    EXPECT_EQ(pool.stats().live, 3u);
  }
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(ShardGroup, LowestShardExceptionWinsWhenSeveralThrow) {
  sim::ShardGroup group(4, 7);
  for (std::size_t s : {3u, 1u, 2u}) {
    group.shard(s).ev().schedule_at(10, [s] { throw std::runtime_error(std::to_string(s)); });
  }
  try {
    group.run_until(100);
    ADD_FAILURE() << "run_until returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "1");
  }
}

}  // namespace
}  // namespace ht
