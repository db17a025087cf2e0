// Tests for the switch-CPU control plane: counter pull model, digest
// routing and subscription, eviction aggregation.
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "switchcpu/controller.hpp"

namespace ht::switchcpu {
namespace {

struct Fixture {
  Fixture() : asic(ev, rmt::AsicConfig{.num_ports = 2}), ctl(asic) {}
  sim::EventQueue ev;
  rmt::SwitchAsic asic;
  Controller ctl;
};

TEST(Controller, BatchedPullIsFasterAndDeliversValues) {
  Fixture f;
  auto& reg = f.asic.registers().create("c", 4096, 64);
  for (std::size_t i = 0; i < reg.size(); ++i) reg.write(i, i * 2);

  sim::TimeNs slow_done = 0, fast_done = 0;
  std::vector<std::uint64_t> values;
  f.ctl.read_counters("c", /*batched=*/false, [&](std::vector<std::uint64_t> v) {
    slow_done = f.ev.now();
    values = std::move(v);
  });
  f.ev.run_until(sim::seconds(10));
  ASSERT_EQ(values.size(), 4096u);
  EXPECT_EQ(values[100], 200u);

  const auto t0 = f.ev.now();
  f.ctl.read_counters("c", /*batched=*/true,
                      [&](std::vector<std::uint64_t>) { fast_done = f.ev.now(); });
  f.ev.run_until(f.ev.now() + sim::seconds(10));
  EXPECT_GT(slow_done, (fast_done - t0) * 10);  // order-of-magnitude gap
}

TEST(Controller, PullModelMatchesFig16bScale) {
  const PullModel m;
  // 65536 counters: <0.2s batched, ~3s one-by-one.
  EXPECT_LT(m.batched_ns(65536), 0.2e9);
  EXPECT_GT(m.one_by_one_ns(65536), 2.0e9);
}

TEST(Controller, DigestsStoredPerType) {
  Fixture f;
  std::map<std::uint32_t, std::vector<std::vector<std::uint64_t>>> seen;
  for (const std::uint32_t type : {7u, 9u, 42u}) {
    f.ctl.subscribe(type, [&seen, type](const rmt::DigestMessage& msg) {
      seen[type].push_back(msg.values);
    });
  }
  f.asic.digests().emit({.type = 7, .values = {1, 2}, .byte_size = 16});
  f.asic.digests().emit({.type = 9, .values = {3}, .byte_size = 12});
  f.asic.digests().emit({.type = 7, .values = {4, 5}, .byte_size = 16});
  f.ev.run_until(sim::seconds(1));
  EXPECT_EQ(f.ctl.digest_count(), 3u);
  // Each type's subscriber sees its digests in emission order.
  using Values = std::vector<std::vector<std::uint64_t>>;
  EXPECT_EQ(seen[7], (Values{{1, 2}, {4, 5}}));
  EXPECT_EQ(seen[9], (Values{{3}}));
  EXPECT_TRUE(seen[42].empty());
}

TEST(Controller, SubscribersSeeOnlyTheirType) {
  Fixture f;
  int a = 0, b = 0;
  f.ctl.subscribe(1, [&](const rmt::DigestMessage&) { ++a; });
  f.ctl.subscribe(2, [&](const rmt::DigestMessage&) { ++b; });
  f.ctl.subscribe(2, [&](const rmt::DigestMessage&) { ++b; });  // two subscribers
  f.asic.digests().emit({.type = 1, .values = {0}, .byte_size = 12});
  f.asic.digests().emit({.type = 2, .values = {0}, .byte_size = 12});
  f.ev.run_until(sim::seconds(1));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Controller, EvictionAggregationByKey) {
  Fixture f;
  f.ctl.set_eviction_digest_type(100);
  f.asic.digests().emit({.type = 100, .values = {0xAB, 5}, .byte_size = 16});
  f.asic.digests().emit({.type = 100, .values = {0xAB, 7}, .byte_size = 16});
  f.asic.digests().emit({.type = 100, .values = {0xCD, 1}, .byte_size = 16});
  f.ev.run_until(sim::seconds(1));
  EXPECT_EQ(f.ctl.evicted_counters().at(0xAB), 12u);
  EXPECT_EQ(f.ctl.evicted_counters().at(0xCD), 1u);
}

TEST(DigestEngine, DropsBeyondQueueCapacity) {
  sim::EventQueue ev;
  rmt::DigestEngine::Config cfg;
  cfg.queue_capacity = 4;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2, .digest = cfg});
  for (int i = 0; i < 100; ++i) {
    asic.digests().emit({.type = 1, .values = {0}, .byte_size = 16});
  }
  EXPECT_GT(asic.digests().dropped(), 0u);
  ev.run_until(sim::seconds(1));
  // At most capacity + in-service messages got through per pump cycle.
  EXPECT_LT(asic.digests().delivered(), 100u);
  EXPECT_EQ(asic.digests().delivered() + asic.digests().dropped(), 100u);
}

TEST(DigestEngine, GoodputGrowsWithMessageSize) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  const double g16 = 16 * 8 / asic.digests().service_ns(16);
  const double g256 = 256 * 8 / asic.digests().service_ns(256);
  EXPECT_GT(g256, 5 * g16);  // Fig 16a shape
  // ~4.5Mbps at 256B (paper's saturation point).
  EXPECT_NEAR(g256 * 1e9 / 1e6, 4.5, 0.3);
}

}  // namespace
}  // namespace ht::switchcpu
