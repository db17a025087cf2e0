// End-to-end integration tests: NTAPI task -> compiler -> switch program ->
// simulated testbed with devices under test -> query results.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "core/hypertester.hpp"
#include "dut/capture.hpp"
#include "dut/forwarder.hpp"
#include "dut/scan_targets.hpp"
#include "dut/stateful/workload_server.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace ht {
namespace {

using net::FieldId;

TesterConfig small_tester(std::size_t ports = 4) {
  TesterConfig cfg;
  cfg.asic.num_ports = ports;
  return cfg;
}

TEST(HyperTester, ThroughputTaskEndToEnd) {
  HyperTester tester(small_tester());
  dut::Capture sink(tester.events(), 100, 100.0);
  sink.attach(tester.asic().port(1));

  auto app = apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 1'000);  // 1Mpps
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(10));

  // Sent-traffic and received-at-sink byte counts agree.
  const auto sent_bytes = tester.query_total(app.q_sent);
  EXPECT_NEAR(static_cast<double>(sent_bytes), 64.0 * 10'000, 64.0 * 200);
  EXPECT_EQ(sent_bytes, sink.bytes());
  // The received-traffic query sees nothing (sink only absorbs).
  EXPECT_EQ(tester.query_total(app.q_received), 0u);
  EXPECT_GT(tester.trigger_fires(app.t1), 0u);
}

// A standalone tester owns a one-shard group; placed in a one-shard
// cluster, the same tester must run and export exactly the same bytes.
TEST(HyperTester, StandaloneAndPlacedTestersAreIdentical) {
  HyperTester standalone(small_tester());
  TesterCluster cluster({.shards = 1});
  HyperTester& placed = cluster.add_tester(small_tester(), 0);
  const auto app = apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0);
  std::vector<std::unique_ptr<dut::Capture>> sinks;
  for (HyperTester* tester : {&standalone, &placed}) {
    sinks.push_back(std::make_unique<dut::Capture>(tester->events(), 100, 100.0));
    sinks.back()->attach(tester->asic().port(1));
    tester->load(app.task);
    tester->start();
    tester->run_for(sim::us(200));
  }
  EXPECT_GT(placed.events().executed(), 0u);
  EXPECT_EQ(standalone.events().executed(), placed.events().executed());
  EXPECT_EQ(standalone.telemetry_report().prometheus, placed.telemetry_report().prometheus);
  EXPECT_EQ(standalone.state_digest(), placed.state_digest());
}

TEST(HyperTester, ReceivedQueryCountsLoopedBackTraffic) {
  HyperTester tester(small_tester());
  // Port 1 -> forwarder -> port 2: the tester sees its own traffic again.
  dut::Forwarder fwd(tester.events(), {.num_ports = 2, .forward_delay_ns = 500});
  tester.asic().port(1).connect(&fwd.port(0));
  fwd.port(0).connect(&tester.asic().port(1));
  tester.asic().port(2).connect(&fwd.port(1));
  fwd.port(1).connect(&tester.asic().port(2));

  auto app = apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 10'000);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(10));
  EXPECT_GT(tester.query_total(app.q_received), 0u);
  EXPECT_NEAR(static_cast<double>(tester.query_total(app.q_received)),
              static_cast<double>(tester.query_total(app.q_sent)), 64.0 * 10);
}

TEST(HyperTester, IpScanFindsExactlyTheAliveHosts) {
  HyperTester tester(small_tester());
  dut::ScanTargets targets(tester.events(),
                           {.subnet = 0x0A000000, .alive_fraction = 0.25, .open_port = 80});
  targets.attach(tester.asic().port(1));

  constexpr std::uint32_t kBase = 0x0A000100;
  constexpr std::uint32_t kCount = 2048;
  auto app = apps::ip_scan(kBase, kCount, 80, {1}, 200, 1);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(5));

  ASSERT_TRUE(tester.trigger_done(app.probe));
  const auto ground_truth = targets.alive_in_range(kBase, kBase + kCount - 1);
  EXPECT_EQ(tester.query_distinct(app.q_alive), ground_truth);
  EXPECT_EQ(targets.synacks_sent(), ground_truth);
}

TEST(HyperTester, PingSweepCountsEchoRepliers) {
  HyperTester tester(small_tester());
  dut::ScanTargets targets(tester.events(), {.subnet = 0x0A000000, .alive_fraction = 0.4});
  targets.attach(tester.asic().port(1));

  constexpr std::uint32_t kBase = 0x0A00AA00;
  constexpr std::uint32_t kCount = 512;
  auto app = apps::ping_sweep(kBase, kCount, {1}, 300, 1);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(5));
  EXPECT_EQ(tester.query_distinct(app.q_alive),
            targets.alive_in_range(kBase, kBase + kCount - 1));
}

TEST(HyperTester, LossTestMeasuresInjectedLoss) {
  HyperTester tester(small_tester());
  dut::Forwarder fwd(tester.events(),
                     {.num_ports = 2, .forward_delay_ns = 300, .loss_rate = 0.2, .seed = 5});
  tester.asic().port(1).connect(&fwd.port(0));
  fwd.port(0).connect(&tester.asic().port(1));
  tester.asic().port(2).connect(&fwd.port(1));
  fwd.port(1).connect(&tester.asic().port(2));

  auto app = apps::loss_test(0x02020202, 0x01010101, {1}, {2}, 5'000, 500);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(10));

  const auto sent = tester.query_total(app.q_sent);
  const auto received = tester.query_total(app.q_received);
  ASSERT_EQ(sent, 5'000u);
  const double loss = 1.0 - static_cast<double>(received) / static_cast<double>(sent);
  EXPECT_NEAR(loss, 0.2, 0.03);
}

TEST(HyperTester, DelayTestMeasuresForwardingDelay) {
  HyperTester tester(small_tester());
  constexpr double kDutDelay = 25'000.0;  // 25us DUT
  dut::Forwarder fwd(tester.events(), {.num_ports = 2, .forward_delay_ns = kDutDelay});
  tester.asic().port(1).connect(&fwd.port(0));
  fwd.port(0).connect(&tester.asic().port(1));
  tester.asic().port(2).connect(&fwd.port(1));
  fwd.port(1).connect(&tester.asic().port(2));

  auto app = apps::delay_test(0x02020202, 0x01010101, {1}, {2}, 100'000);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(20));

  const auto probes = tester.query_matched(app.q_delay);
  ASSERT_GT(probes, 50u);
  const double mean_delay =
      static_cast<double>(tester.query_total(app.q_delay)) / static_cast<double>(probes);
  // Pipeline timestamp at tester egress -> MAC timestamp at tester
  // ingress: DUT delay + serialization + egress latency. Must be
  // dominated by (and strictly above) the DUT's 25us.
  EXPECT_GT(mean_delay, kDutDelay);
  EXPECT_LT(mean_delay, kDutDelay + 2'000.0);
}

TEST(HyperTester, StateBasedDelayTestMatchesPiggybackMode) {
  // Fig 18(b): storing TX timestamps in a register keyed by probe id gives
  // the same accuracy as piggybacking them in the packet.
  HyperTester tester(small_tester());
  constexpr double kDutDelay = 25'000.0;
  dut::Forwarder fwd(tester.events(), {.num_ports = 2, .forward_delay_ns = kDutDelay});
  tester.asic().port(1).connect(&fwd.port(0));
  fwd.port(0).connect(&tester.asic().port(1));
  tester.asic().port(2).connect(&fwd.port(1));
  fwd.port(1).connect(&tester.asic().port(2));

  auto app = apps::delay_test_state_based(0x02020202, 0x01010101, {1}, {2}, 100'000);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(20));

  const auto probes = tester.query_matched(app.q_delay);
  ASSERT_GT(probes, 50u);
  const double mean_delay =
      static_cast<double>(tester.query_total(app.q_delay)) / static_cast<double>(probes);
  EXPECT_GT(mean_delay, kDutDelay);
  EXPECT_LT(mean_delay, kDutDelay + 2'000.0);
}

TEST(HyperTester, WebTestDrivesFullHttpExchange) {
  // The §5.4 walkthrough: stateless clients against the HTTP server model,
  // whose 6000-byte page goes out as five PSH+ACK segments.
  HyperTester tester(small_tester());
  dut::stateful::WorkloadConfig wcfg;
  wcfg.response_bytes = 6000;
  wcfg.tcb.capacity = 1 << 12;
  dut::stateful::WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  auto app = apps::web_test(0x05050505, 80, 0x01010001, 256, {1}, 50'000, 5);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(30));

  EXPECT_GT(server.syns_received(), 100u);
  EXPECT_GT(server.handshakes_completed(), 100u);
  EXPECT_GT(server.requests_served(), 100u);
  EXPECT_GT(server.connections_closed(), 50u);
  // The monitor query counted the answered connections (SYN+ACKs).
  EXPECT_EQ(tester.query_matched(app.q_handshakes), server.syns_received());
  // Handshakes the server completed match the ACK trigger's fires.
  EXPECT_LE(server.handshakes_completed(), tester.trigger_fires(app.t_ack));
  // Every answered page but the one still in flight got 4 data ACKs and a
  // FIN, and the server closed every FIN that reached it.
  const std::uint64_t pages = tester.trigger_fires(app.t_fin);
  EXPECT_LE(server.requests_served() - pages, 1u);
  EXPECT_GE(tester.trigger_fires(app.t_data_ack), 4 * pages);
  EXPECT_LE(tester.trigger_fires(app.t_data_ack), 4 * server.requests_served());
  EXPECT_LE(pages - server.connections_closed(), 1u);
}

TEST(HyperTester, PortBandwidthGroupsByIngressPort) {
  HyperTester tester(small_tester());
  dut::Capture injector2(tester.events(), 200, 100.0);
  dut::Capture injector3(tester.events(), 201, 100.0);
  injector2.attach(tester.asic().port(2));
  injector3.attach(tester.asic().port(3));

  auto app = apps::port_bandwidth();
  tester.load(app.task);
  tester.start();
  for (int i = 0; i < 10; ++i) {
    injector2.port().send(
        net::make_packet(net::make_udp_packet(1, 2, 3, 4, 100)));
  }
  injector3.port().send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 400)));
  tester.run_for(sim::ms(1));

  EXPECT_EQ(tester.query_value(app.q_per_port, {2}), 1000u);
  EXPECT_EQ(tester.query_value(app.q_per_port, {3}), 400u);
  EXPECT_EQ(tester.query_value(app.q_per_port, {1}), 0u);
}

TEST(HyperTester, RejectsInvalidTaskAndDoubleLoad) {
  HyperTester tester(small_tester());
  ntapi::Task bad("bad");
  bad.add_trigger(ntapi::Trigger().set(FieldId::kTcpDport, 1 << 20));
  EXPECT_THROW(tester.load(bad), ntapi::CompileError);

  HyperTester tester2(small_tester());
  auto app = apps::throughput_test(1, 2, {1});
  tester2.load(app.task);
  EXPECT_THROW(tester2.load(app.task), std::logic_error);
  EXPECT_THROW(tester2.query_distinct(app.q_sent), std::logic_error);  // keyless query
}

TEST(HyperTester, SynFloodSaturatesPorts) {
  HyperTester tester(small_tester());
  dut::Capture sink1(tester.events(), 100, 100.0);
  dut::Capture sink2(tester.events(), 101, 100.0);
  sink1.set_count_only(true);
  sink2.set_count_only(true);
  sink1.attach(tester.asic().port(1));
  sink2.attach(tester.asic().port(2));

  auto app = apps::syn_flood(0x0D0D0D0D, 80, {1, 2});
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(1));

  // Line rate on both ports: 64B @ 100G ~ 148.8 Mpps -> ~148K per ms each.
  EXPECT_GT(sink1.counted(), 120'000u);
  EXPECT_GT(sink2.counted(), 120'000u);
  // Exact bookkeeping: everything the egress query counted is either
  // delivered, still queued in the MAC, or was tail-dropped at the
  // oversubscribed egress queue.
  const auto accounted = sink1.counted() + sink2.counted() +
                         tester.asic().port(1).tx_queue_depth() +
                         tester.asic().port(2).tx_queue_depth() +
                         tester.asic().port(1).dropped_queue_full() +
                         tester.asic().port(2).dropped_queue_full();
  // A handful of replicas are mid-pipeline (inside the egress-latency
  // window) at the cutoff instant.
  EXPECT_GE(tester.query_matched(app.q_sent), accounted);
  EXPECT_LT(tester.query_matched(app.q_sent) - accounted, 200u);
  // Spoofed sources are spread across the configured range.
  EXPECT_GT(tester.asic().port(1).tx_line_rate_gbps(), 90.0);
}

}  // namespace
}  // namespace ht
