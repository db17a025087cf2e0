// Golden crash-recovery suite (DESIGN.md §14, ctest label `recovery`).
//
// Layers, bottom up:
//  * the snapshot container — typed round trip, corruption / truncation /
//    version-skew rejection, attestation naming the diverging section;
//  * Rng stream serialization — a restored generator replays the exact
//    draw sequence, Marsaglia gaussian spare included;
//  * crash primitives — crash freezes a tester's wire, reboot wipes the
//    register file, stall heals on its own;
//  * the supervised lifecycle — for every symx catalog task and shard
//    counts {1, 2, 4}: a run that is crashed mid-measurement and recovered
//    by the Supervisor (snapshot -> kill -> rebuild -> replay -> attest)
//    finishes byte-identical to the same run never crashed at all:
//    per-tester state digests (registers, ports, stores, RNG streams,
//    Prometheus text) and every sink's replica bytes + arrival times.
//    The crash lands just after a restore point, so the post-crash
//    snapshot is taken, rejected by attestation, and walked back — every
//    sending task exercises the walk-back path.
//  * policies — kMigrate restores onto the spare placement and still
//    attests (placement-invariant RNG keying); kDegrade recovers nothing
//    and declares the rest of the window invalid.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "core/hypertester.hpp"
#include "core/supervisor.hpp"
#include "dut/capture.hpp"
#include "dut/stateful/workload_server.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/snapshot.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

TEST(SnapshotContainer, TypedRoundTrip) {
  sim::SnapshotWriter w;
  w.begin_section("alpha");
  w.u8(7);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-1.5e-300);
  w.str("hello snapshot");
  w.begin_section("beta");
  w.u64_vec({1, 2, 3, 0xffffffffffffffffull});
  w.u64_map({{10, 100}, {20, 200}});
  const std::uint64_t digest = w.digest();
  const auto bytes = w.finish();

  sim::SnapshotReader r(bytes);
  EXPECT_EQ(r.version(), sim::SnapshotWriter::kVersion);
  EXPECT_TRUE(r.has_section("alpha"));
  EXPECT_TRUE(r.has_section("beta"));
  EXPECT_FALSE(r.has_section("gamma"));
  r.open_section("alpha");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_EQ(r.str(), "hello snapshot");
  r.open_section("beta");
  EXPECT_EQ(r.u64_vec(), (std::vector<std::uint64_t>{1, 2, 3, 0xffffffffffffffffull}));
  EXPECT_EQ(r.u64_map(), (std::map<std::uint64_t, std::uint64_t>{{10, 100}, {20, 200}}));

  // The digest is a pure function of the section contents.
  sim::SnapshotWriter w2;
  w2.begin_section("alpha");
  w2.u8(7);
  w2.u32(0xdeadbeefu);
  w2.u64(0x0123456789abcdefull);
  w2.f64(-1.5e-300);
  w2.str("hello snapshot");
  w2.begin_section("beta");
  w2.u64_vec({1, 2, 3, 0xffffffffffffffffull});
  w2.u64_map({{10, 100}, {20, 200}});
  EXPECT_EQ(w2.digest(), digest);
}

std::vector<std::uint8_t> tiny_snapshot() {
  sim::SnapshotWriter w;
  w.begin_section("s");
  w.u64(42);
  return w.finish();
}

TEST(SnapshotContainer, DetectsCorruption) {
  auto bytes = tiny_snapshot();
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(sim::SnapshotReader{bytes}, sim::SnapshotError);
}

TEST(SnapshotContainer, DetectsTruncation) {
  auto bytes = tiny_snapshot();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(sim::SnapshotReader{bytes}, sim::SnapshotError);
  EXPECT_THROW(sim::SnapshotReader{std::vector<std::uint8_t>{}}, sim::SnapshotError);
}

TEST(SnapshotContainer, DetectsBadMagicAndVersionSkew) {
  auto bytes = tiny_snapshot();
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(sim::SnapshotReader{bad_magic}, sim::SnapshotError);

  // Version skew with a *valid* file checksum must still be rejected.
  auto skewed = bytes;
  skewed[8] += 1;  // little-endian u32 version follows the 8-byte magic
  const std::uint64_t sum = sim::fnv1a64(skewed.data(), skewed.size() - 8);
  for (int i = 0; i < 8; ++i) {
    skewed[skewed.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  }
  EXPECT_THROW(sim::SnapshotReader{skewed}, sim::SnapshotError);
}

TEST(SnapshotContainer, RejectsDuplicateSectionAndReadPastEnd) {
  sim::SnapshotWriter w;
  w.begin_section("s");
  w.u64(1);
  EXPECT_THROW(w.begin_section("s"), sim::SnapshotError);

  sim::SnapshotReader r(tiny_snapshot());
  r.open_section("s");
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_THROW(r.u64(), sim::SnapshotError);  // typed read past section end
  EXPECT_THROW(r.open_section("missing"), sim::SnapshotError);
}

TEST(SnapshotContainer, AttestationNamesTheDivergingSection) {
  sim::SnapshotWriter stored;
  stored.begin_section("same");
  stored.u64(1);
  stored.begin_section("diverges");
  stored.u64(2);
  sim::SnapshotReader expected(stored.finish());

  sim::SnapshotWriter actual;
  actual.begin_section("same");
  actual.u64(1);
  actual.begin_section("diverges");
  actual.u64(3);
  try {
    sim::attest_sections(expected, actual);
    FAIL() << "divergence not detected";
  } catch (const sim::SnapshotError& e) {
    EXPECT_EQ(e.section(), "diverges");
  }

  sim::SnapshotWriter extra;
  extra.begin_section("same");
  extra.u64(1);
  extra.begin_section("not_in_snapshot");
  extra.u64(0);
  try {
    sim::attest_sections(expected, extra);
    FAIL() << "missing section not detected";
  } catch (const sim::SnapshotError& e) {
    EXPECT_EQ(e.section(), "not_in_snapshot");
  }
}

// ---------------------------------------------------------------------------
// Rng stream serialization
// ---------------------------------------------------------------------------

TEST(RngState, RoundTripReplaysExactDrawSequence) {
  sim::Rng rng(0xfeedu);
  for (int i = 0; i < 17; ++i) rng.next_u64();
  // Odd number of gaussians leaves a Marsaglia spare pending — the round
  // trip must carry it or the restored stream shifts by one draw.
  rng.gaussian(0.0, 1.0);
  const std::string state = rng.state_string();

  sim::Rng restored(0);
  restored.set_state_string(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_u64(), restored.next_u64());
    EXPECT_EQ(rng.gaussian(2.0, 3.0), restored.gaussian(2.0, 3.0));
    EXPECT_EQ(rng.uniform01(), restored.uniform01());
  }

  sim::Rng bad(0);
  EXPECT_THROW(bad.set_state_string("not a state"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Crash primitives
// ---------------------------------------------------------------------------

TEST(CrashLifecycle, CrashFreezesWireRebootWipesRegistersStallHeals) {
  const auto make = [](HyperTester& tester,
                       std::vector<std::unique_ptr<test::PortSink>>& sinks) {
    for (std::size_t p = 0; p < tester.asic().port_count(); ++p) {
      sinks.push_back(std::make_unique<test::PortSink>(
          tester.events(), static_cast<std::uint16_t>(1000 + p), 100.0));
      sinks.back()->attach(tester.asic().port(static_cast<std::uint16_t>(p)));
    }
    tester.load(apps::throughput_test(1, 2, {0}).task);
    tester.start();
  };

  {  // crash: wire freezes permanently, attempts counted as admin drops
    HyperTester tester;
    std::vector<std::unique_ptr<test::PortSink>> sinks;
    make(tester, sinks);
    tester.run_for(sim::us(50));
    const std::uint64_t tx_before = tester.asic().port(0).tx_packets();
    EXPECT_GT(tx_before, 0u);
    EXPECT_FALSE(tester.crashed());
    tester.crash();
    tester.run_for(sim::us(50));
    EXPECT_TRUE(tester.crashed());
    EXPECT_EQ(tester.asic().port(0).tx_packets(), tx_before);
    EXPECT_GT(tester.asic().port(0).dropped_admin_down(), 0u);
    tester.crash();  // idempotent
    EXPECT_TRUE(tester.crashed());
  }
  {  // reboot: crash plus volatile-state loss
    HyperTester tester;
    std::vector<std::unique_ptr<test::PortSink>> sinks;
    make(tester, sinks);
    tester.run_for(sim::us(50));
    tester.reboot_switch();
    EXPECT_TRUE(tester.crashed());
    auto& regs = tester.asic().registers();
    for (const std::string& name : regs.names()) {
      const auto& arr = regs.get(name);
      for (std::size_t i = 0; i < arr.size(); ++i) {
        ASSERT_EQ(arr.read(i), 0u) << name << "[" << i << "]";
      }
    }
  }
  {  // stall: transient — traffic resumes after the window
    HyperTester tester;
    std::vector<std::unique_ptr<test::PortSink>> sinks;
    make(tester, sinks);
    tester.run_for(sim::us(50));
    tester.stall(sim::us(20));
    tester.run_for(sim::us(20));
    const std::uint64_t tx_stalled = tester.asic().port(0).tx_packets();
    tester.run_for(sim::us(50));
    EXPECT_FALSE(tester.crashed());
    EXPECT_GT(tester.asic().port(0).tx_packets(), tx_stalled);
  }
}

// ---------------------------------------------------------------------------
// Supervised lifecycle: the golden kill-and-restore suite
// ---------------------------------------------------------------------------

using SinkVec = std::vector<std::unique_ptr<test::PortSink>>;

/// The determinism-suite cluster harness as a Supervisor builder: two
/// testers, two cross-shard sinks each. `variant` rotates every placement
/// by one shard — the spare hardware for kMigrate.
Testbed build_catalog_testbed(const ntapi::Task& task, std::size_t nshards,
                              std::size_t variant) {
  constexpr std::size_t kTesters = 2;
  constexpr std::size_t kSinkPorts = 2;
  Testbed tb;
  tb.cluster = std::make_unique<TesterCluster>(ClusterConfig{.shards = nshards, .seed = 0xd1ce});
  auto sinks = std::make_shared<SinkVec>();
  for (std::size_t t = 0; t < kTesters; ++t) {
    const std::size_t tester_shard = (2 * t + variant) % nshards;
    const std::size_t sink_shard = (2 * t + 1 + variant) % nshards;
    TesterConfig cfg;
    cfg.asic.num_ports = 4;
    cfg.asic.seed = 1 + t;
    HyperTester& tester = tb.cluster->add_tester(cfg, tester_shard);
    for (std::size_t p = 0; p < kSinkPorts; ++p) {
      sinks->push_back(std::make_unique<test::PortSink>(
          tb.cluster->shards().shard(sink_shard).ev(),
          static_cast<std::uint16_t>(1000 + kSinkPorts * t + p), cfg.asic.port_rate_gbps));
      tb.cluster->shards().connect(tester.asic().port(static_cast<std::uint16_t>(p)),
                                   tester_shard, sinks->back()->port, sink_shard,
                                   /*propagation_ns=*/500);
    }
    tester.load(task);
    tester.start();
  }
  tb.active_tester = 0;
  tb.keepalive = sinks;
  return tb;
}

/// Everything a recovered run must reproduce byte-for-byte.
struct FinalState {
  std::vector<std::uint64_t> tester_digests;
  std::vector<std::vector<test::Arrival>> per_sink;
  std::string prometheus;
  bool operator==(const FinalState&) const = default;
};

FinalState collect(Testbed& tb) {
  FinalState out;
  for (std::size_t t = 0; t < tb.cluster->size(); ++t) {
    out.tester_digests.push_back(tb.cluster->tester(t).state_digest());
  }
  const auto& sinks = *std::static_pointer_cast<SinkVec>(tb.keepalive);
  for (const auto& sink : sinks) out.per_sink.push_back(sink->arrivals());
  out.prometheus = tb.cluster->telemetry_report().prometheus;
  return out;
}

constexpr sim::TimeNs kRunNs = sim::us(120);
constexpr sim::TimeNs kCrashNs = sim::us(61);  // just after the t=60us restore point

SupervisorConfig catalog_cfg(SupervisorConfig::Policy policy, bool with_crash) {
  SupervisorConfig cfg;
  cfg.heartbeat_ns = sim::us(10);
  cfg.miss_threshold = 3;
  cfg.snapshot_interval_ns = sim::us(30);
  cfg.policy = policy;
  cfg.spare_variant = 1;
  if (with_crash) {
    cfg.plan.events.push_back({sim::CrashKind::kTesterCrash, kCrashNs, 0, /*tester=*/0});
  }
  return cfg;
}

TEST(CrashRecovery, GoldenKillRestoreByteIdenticalAcrossCatalogAndShards) {
  for (const auto& [name, task] : test::catalog()) {
    SCOPED_TRACE(name);
    const bool sends = !task.triggers().empty();
    for (const std::size_t nshards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(nshards));
      const auto builder = [&task, nshards](std::size_t variant) {
        return build_catalog_testbed(task, nshards, variant);
      };
      Supervisor clean(catalog_cfg(SupervisorConfig::Policy::kRestore, false), builder);
      const RecoveryReport& clean_report = clean.run(kRunNs);
      const FinalState golden = collect(clean.testbed());
      // Finite tasks (ip_scan, ping_sweep, ...) finish before the deadline,
      // freeze the probe, and trip one futile recovery even in the clean
      // run. Only continuously-sending tasks keep the clean run
      // recovery-free — and only for them is the crashed run's walk-back
      // timeline (post-crash snapshot rejected, pre-crash attests)
      // guaranteed.
      const bool continuous = clean_report.recoveries == 0;

      Supervisor crashed(catalog_cfg(SupervisorConfig::Policy::kRestore, true), builder);
      const RecoveryReport& report = crashed.run(kRunNs);
      const FinalState recovered = collect(crashed.testbed());

      EXPECT_TRUE(report.completed);
      if (sends) {
        EXPECT_GE(report.recoveries, 1u);
        ASSERT_FALSE(report.invalid_windows.empty());
        for (const auto& m : report.merges) {
          EXPECT_GE(m.resumed_watermark, m.snapshot_watermark) << m.query;
        }
      }
      if (sends && continuous) {
        // The crash lands at 61us; detection trips at 90us after three
        // frozen heartbeats. The 90us snapshot is post-crash and must be
        // rejected (walk-back), the 60us one must attest.
        bool saw_rejection = false, saw_restore = false;
        for (const auto& a : report.actions) {
          if (!a.recovered) saw_rejection = true;
          if (a.recovered) saw_restore = true;
        }
        EXPECT_TRUE(saw_rejection) << "post-crash snapshot was not walked back";
        EXPECT_TRUE(saw_restore);
      }
      EXPECT_EQ(golden.tester_digests, recovered.tester_digests);
      ASSERT_EQ(golden.per_sink.size(), recovered.per_sink.size());
      for (std::size_t s = 0; s < golden.per_sink.size(); ++s) {
        EXPECT_EQ(golden.per_sink[s], recovered.per_sink[s]) << "sink " << s;
      }
      EXPECT_EQ(golden.prometheus, recovered.prometheus);
      EXPECT_EQ(golden, recovered);
    }
  }
}

/// An L7 testbed: one tester running HTTP RPS, the WorkloadServer on the
/// next shard (the same shard when there is one) behind a 500 ns link.
/// Most recirculation laps are idle, so a crash lands while the lap
/// skeleton holds parked copies.
Testbed build_l7_testbed(std::size_t nshards) {
  Testbed tb;
  tb.cluster = std::make_unique<TesterCluster>(ClusterConfig{.shards = nshards, .seed = 0xd1ce});
  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  cfg.asic.num_recirc_channels = 3;
  cfg.asic.seed = 5;
  HyperTester& tester = tb.cluster->add_tester(cfg, 0);
  const std::size_t server_shard = nshards > 1 ? 1 : 0;
  dut::stateful::WorkloadConfig wcfg;
  wcfg.num_ports = 1;
  wcfg.tcb.capacity = 1 << 12;
  wcfg.server_error_every = 3;
  auto server = std::make_shared<dut::stateful::WorkloadServer>(
      tb.cluster->shards().shard(server_shard).ev(), wcfg);
  tb.cluster->shards().connect(tester.asic().port(1), 0, server->port(0), server_shard,
                               /*propagation_ns=*/500);
  server->start();
  tester.load(apps::http_rps(0x0C0C0C0C, 80, 0x0B000000, 64, {1}, /*request_interval_ns=*/700,
                             /*open_interval_ns=*/300)
                  .task);
  tester.start();
  tb.active_tester = 0;
  tb.keepalive = server;
  return tb;
}

TEST(CrashRecovery, KillRestoreMidElisionOnL7TaskIsByteIdentical) {
  for (const std::size_t nshards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(nshards));
    const auto builder = [nshards](std::size_t) { return build_l7_testbed(nshards); };
    const auto final_state = [](Testbed& tb) {
      const auto& server = *std::static_pointer_cast<dut::stateful::WorkloadServer>(tb.keepalive);
      return std::make_tuple(tb.cluster->tester(0).state_digest(), server.fingerprint(),
                             tb.cluster->telemetry_report().prometheus,
                             tb.cluster->tester(0).asic().elided_laps() > 0);
    };
    Supervisor clean(catalog_cfg(SupervisorConfig::Policy::kRestore, false), builder);
    clean.run(kRunNs);
    const auto golden = final_state(clean.testbed());
    EXPECT_TRUE(std::get<3>(golden)) << "no lap was elided";

    Supervisor crashed(catalog_cfg(SupervisorConfig::Policy::kRestore, true), builder);
    const RecoveryReport& report = crashed.run(kRunNs);
    EXPECT_TRUE(report.completed);
    EXPECT_GE(report.recoveries, 1u);
    EXPECT_EQ(golden, final_state(crashed.testbed()));
  }
}

TEST(CrashRecovery, MigrateToSpareplacementAttestsAndMatchesCleanRun) {
  const auto task = apps::syn_flood(1, 80, {0, 1}).task;
  const auto builder = [&task](std::size_t variant) {
    return build_catalog_testbed(task, 2, variant);
  };
  Supervisor clean(catalog_cfg(SupervisorConfig::Policy::kMigrate, false), builder);
  clean.run(kRunNs);
  const FinalState golden = collect(clean.testbed());

  Supervisor crashed(catalog_cfg(SupervisorConfig::Policy::kMigrate, true), builder);
  const RecoveryReport& report = crashed.run(kRunNs);
  EXPECT_EQ(report.recoveries, 1u);
  bool migrated = false;
  for (const auto& a : report.actions) {
    if (a.recovered) {
      EXPECT_EQ(a.policy, SupervisorConfig::Policy::kMigrate);
      migrated = true;
    }
  }
  EXPECT_TRUE(migrated);
  // The spare placement swaps every tester/sink shard assignment, yet the
  // replayed state attests against the failed placement's snapshot and the
  // final results are byte-identical — placement-invariant RNG keying.
  EXPECT_EQ(golden, collect(crashed.testbed()));
}

TEST(CrashRecovery, DegradePolicyRecoversNothingAndInvalidatesTheTail) {
  const auto task = apps::syn_flood(1, 80, {0, 1}).task;
  const auto builder = [&task](std::size_t variant) {
    return build_catalog_testbed(task, 1, variant);
  };
  Supervisor clean(catalog_cfg(SupervisorConfig::Policy::kDegrade, false), builder);
  clean.run(kRunNs);

  Supervisor degraded(catalog_cfg(SupervisorConfig::Policy::kDegrade, true), builder);
  const RecoveryReport& report = degraded.run(kRunNs);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.recoveries, 0u);
  ASSERT_EQ(report.invalid_windows.size(), 1u);
  EXPECT_EQ(report.invalid_windows[0].to_ns, kRunNs);  // invalid to the end
  EXPECT_TRUE(degraded.testbed().cluster->tester(0).crashed());
  // No recovery happened: the dead tester's state diverges from clean.
  EXPECT_NE(collect(clean.testbed()).tester_digests[0],
            collect(degraded.testbed()).tester_digests[0]);
}

// ---------------------------------------------------------------------------
// Sharded chaos (the FaultInjector shard-safety satellite, task level)
// ---------------------------------------------------------------------------

/// A task-declared chaos profile now composes with shards > 1: the same
/// chaotic run must produce byte-identical results on {1, 2, 4} shards.
TEST(ShardedChaos, TaskChaosProfileByteIdenticalAcrossShardCounts) {
  auto task = apps::syn_flood(1, 80, {0, 1}).task;
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 0x5eed;
  chaos.config.loss.rate = 0.2;
  chaos.config.duplicate.rate = 0.05;
  task.set_chaos(chaos);

  const auto run = [&task](std::size_t nshards) {
    Testbed tb = build_catalog_testbed(task, nshards, 0);
    tb.cluster->run_for(kRunNs);
    return collect(tb);
  };
  const FinalState golden = run(1);
  std::size_t replicas = 0;
  for (const auto& recs : golden.per_sink) replicas += recs.size();
  EXPECT_GT(replicas, 0u);
  for (const std::size_t nshards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(nshards));
    EXPECT_EQ(golden, run(nshards));
  }
}

}  // namespace
}  // namespace ht
