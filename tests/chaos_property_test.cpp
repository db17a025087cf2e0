// Chaos property tests.
//
// Two contracts pinned here, both required for the fault-injection layer
// to be trustworthy:
//
//  1. False-positive freedom under chaos: HTPR's exact per-key counters
//     must equal a wire-level ground truth for every key even when the
//     link loses (<=10%), reorders (<=64-packet window), duplicates
//     (<=1%) and corrupts probes. Loss may remove counts and duplication
//     may add them — but never may one key's traffic pollute another's
//     counter, and corrupted packets must land in the integrity counter,
//     not the aggregate. Swept across seeds.
//
//  2. Determinism: a chaos run is a function of the profile seed. Two
//     runs with identical seeds produce bit-identical event counts, port
//     counters, register state, and drop reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hypertester.hpp"
#include "dut/forwarder.hpp"
#include "net/headers.hpp"
#include "ntapi/task.hpp"
#include "rmt/parser.hpp"

namespace ht {
namespace {

using net::FieldId;
using ntapi::Query;
using ntapi::Reduce;
using ntapi::Task;
using ntapi::Trigger;
using ntapi::Value;

constexpr unsigned kKeys = 256;

/// Bounded probe sweep: one UDP probe per ipv4.id in [0, kKeys), counted
/// per id by a keyed received query on port 1.
struct FpTask {
  Task task{"chaos_fp"};
  ntapi::QueryHandle q_per_key;
};

FpTask make_fp_task() {
  FpTask out;
  std::vector<std::uint16_t> tx{0};
  out.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport,
                FieldId::kUdpSport},
               {0x02020202, 0x01010101, net::ipproto::kUdp, 9000, 9000})
          .set(FieldId::kIpv4Id, Value::range(0, kKeys - 1, 1))
          .set(FieldId::kInterval, 200)
          .set(FieldId::kLoop, 1)
          .set(FieldId::kPort, Value::array({tx.begin(), tx.end()})));
  out.q_per_key = out.task.add_query(Query()
                                         .monitor_ports({1})
                                         .filter(FieldId::kUdpDport, htpr::Cmp::kEq, 9000)
                                         .map({FieldId::kIpv4Id})
                                         .reduce(Reduce::kCount));
  return out;
}

/// Tester port 0 -> store-and-forward DUT -> tester port 1.
struct Loop {
  Loop() {
    dut::Forwarder::Config fcfg;
    fcfg.num_ports = 2;
    fcfg.forward_delay_ns = 600.0;
    fwd = std::make_unique<dut::Forwarder>(tester.events(), fcfg);
    tester.asic().port(0).connect(&fwd->port(0));
    fwd->port(0).connect(&tester.asic().port(0));
    tester.asic().port(1).connect(&fwd->port(1));
    fwd->port(1).connect(&tester.asic().port(1));
  }

  HyperTester tester{[] {
    TesterConfig cfg;
    cfg.asic.num_ports = 2;
    return cfg;
  }()};
  std::unique_ptr<dut::Forwarder> fwd;
};

class ChaosFpSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChaosFpSweep, KeyedCountsMatchWireGroundTruth) {
  const int seed = GetParam();
  auto app = make_fp_task();
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 0xC0FFEE + static_cast<std::uint64_t>(seed);
  chaos.config.loss.rate = 0.02 + 0.008 * (seed % 10);  // <= 10%
  chaos.config.reorder = {.rate = 0.2, .min_delay_ns = 100, .max_delay_ns = 10'000};
  chaos.config.duplicate.rate = 0.01;
  chaos.config.corrupt.rate = (seed % 2 != 0) ? 0.01 : 0.0;
  app.task.set_chaos(chaos);

  Loop loop;
  loop.tester.load(app.task);

  // Ground truth, observed on the wire just before the monitored port:
  // per-key arrivals (duplicates included), skipping packets whose
  // checksums no longer verify — exactly what the query's integrity gate
  // is required to reject.
  std::map<std::uint64_t, std::uint64_t> truth;
  std::uint64_t bad_checksum = 0;
  auto& rx = loop.tester.asic().port(1);
  auto inner = rx.on_receive;
  const rmt::Parser& parser = loop.tester.asic().parser();
  rx.on_receive = [&](net::PacketPtr pkt) {
    if (!net::verify_checksums(*pkt)) {
      ++bad_checksum;
    } else {
      rmt::Phv phv = parser.parse(pkt);
      if (phv.get(FieldId::kUdpDport) == 9000) ++truth[phv.get(FieldId::kIpv4Id)];
    }
    inner(std::move(pkt));
  };

  loop.tester.start();
  loop.tester.run_for(sim::us(300));

  std::uint64_t truth_total = 0;
  for (const auto& [key, count] : truth) truth_total += count;
  ASSERT_GT(truth_total, kKeys / 2);  // the scenario must carry real traffic

  // The core property: every key's counter equals its wire truth. Loss
  // shrinks counts, duplication grows them — but both sides see the same
  // packets, so any mismatch is a false positive (or a silent drop).
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const auto it = truth.find(key);
    const std::uint64_t expected = it == truth.end() ? 0 : it->second;
    ASSERT_EQ(loop.tester.query_value(app.q_per_key, {key}), expected)
        << "key " << key << " diverged at seed " << seed;
  }

  // Corrupted probes were rejected by the integrity gate, visibly.
  if (chaos.config.corrupt.rate > 0.0) {
    EXPECT_EQ(loop.tester.receiver().checksum_fails(app.q_per_key.index), bad_checksum);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFpSweep, ::testing::Range(0, 10));

/// Everything observable about one finished chaos run.
struct ChaosSnapshot {
  std::uint64_t events_executed = 0;
  std::uint64_t matched = 0;
  std::vector<std::uint64_t> port_counters;
  std::vector<std::pair<std::string, std::uint64_t>> drops;
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> registers;

  bool operator==(const ChaosSnapshot&) const = default;
};

ChaosSnapshot chaos_golden_run() {
  auto app = make_fp_task();
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 0x5eed;
  chaos.config.loss.rate = 0.05;
  chaos.config.reorder = {.rate = 0.2, .min_delay_ns = 100, .max_delay_ns = 5'000};
  chaos.config.duplicate.rate = 0.01;
  chaos.config.corrupt.rate = 0.01;
  chaos.config.flap = {.first_down_at = sim::us(20), .down_ns = sim::us(5), .period_ns = 0,
                       .count = 1};
  app.task.set_chaos(chaos);

  Loop loop;
  loop.tester.load(app.task);
  loop.tester.start();
  loop.tester.run_for(sim::us(300));

  ChaosSnapshot snap;
  snap.events_executed = loop.tester.events().executed();
  snap.matched = loop.tester.query_matched(app.q_per_key);
  for (std::uint16_t p = 0; p < 2; ++p) {
    const auto& port = loop.tester.asic().port(p);
    snap.port_counters.push_back(port.tx_packets());
    snap.port_counters.push_back(port.tx_bytes());
    snap.port_counters.push_back(port.rx_packets());
    snap.port_counters.push_back(port.rx_bytes());
  }
  snap.drops = loop.tester.metrics().drop_counters();
  for (const std::string& name : loop.tester.asic().registers().names()) {
    const auto& arr = loop.tester.asic().registers().get(name);
    std::vector<std::uint64_t> cells(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) cells[i] = arr.read(i);
    snap.registers.emplace_back(name, std::move(cells));
  }
  return snap;
}

TEST(ChaosDeterminism, IdenticalSeedsProduceBitIdenticalRuns) {
  const ChaosSnapshot a = chaos_golden_run();
  const ChaosSnapshot b = chaos_golden_run();
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.port_counters, b.port_counters);
  EXPECT_EQ(a.drops, b.drops);
  ASSERT_EQ(a.registers.size(), b.registers.size());
  for (std::size_t i = 0; i < a.registers.size(); ++i) {
    EXPECT_EQ(a.registers[i].first, b.registers[i].first);
    EXPECT_EQ(a.registers[i].second, b.registers[i].second)
        << "register array " << a.registers[i].first << " diverged";
  }
  EXPECT_EQ(a, b);
  // The run must actually have exercised the chaos paths to prove anything.
  std::uint64_t fault_drops = 0;
  for (const auto& [source, count] : a.drops) {
    if (source.find("fault_") != std::string::npos) fault_drops += count;
  }
  EXPECT_GT(fault_drops, 0u);
  EXPECT_GT(a.matched, 0u);
}

}  // namespace
}  // namespace ht
