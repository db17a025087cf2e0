// Fault-injection layer tests (chaos links).
//
// Covers the FaultInjector pathologies one by one on a raw wire, the
// fault hooks threaded through the stack (Port FCS, ASIC ingress), the
// controller partition that swallows control-plane reads, the registry's
// drop audit trail for chaos links, and Supervisor stall detection when a
// link dies mid-task. Everything here is seeded: the suite doubles as the
// injector's determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "core/hypertester.hpp"
#include "core/supervisor.hpp"
#include "dut/forwarder.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/packet_builder.hpp"
#include "rmt/registers.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/port.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

/// One wire: port a transmits, port b records arrivals. Packets carry a
/// sequence number in the first two payload bytes (offset 42 of a 64-byte
/// Eth+IPv4+UDP frame) so order and gaps are observable.
struct Wire {
  sim::EventQueue ev;
  sim::Port a{ev, 0, 100.0};
  sim::Port b{ev, 1, 100.0};
  std::vector<net::PacketPtr> received;

  Wire() {
    a.connect(&b);
    b.connect(&a);
    b.on_receive = [this](net::PacketPtr p) { received.push_back(std::move(p)); };
  }

  static constexpr std::size_t kSeqOffset = 42;  // 14 eth + 20 ip + 8 udp

  net::PacketPtr make_seq_packet(unsigned seq) {
    auto pkt = net::make_packet(net::make_udp_packet(0x01010101, 0x02020202, 3000, 4000, 64));
    pkt->bytes()[kSeqOffset] = static_cast<std::uint8_t>(seq & 0xff);
    pkt->bytes()[kSeqOffset + 1] = static_cast<std::uint8_t>((seq >> 8) & 0xff);
    // Arm the optional UDP checksum (zero means "not used") so corruption
    // anywhere past the Ethernet header is detectable.
    pkt->bytes()[40] = 1;
    net::fix_checksums(*pkt);
    return pkt;
  }

  void send_burst(unsigned n) {
    for (unsigned i = 0; i < n; ++i) a.send(make_seq_packet(i));
    ev.run_until(ev.now() + sim::ms(10));
  }

  std::vector<unsigned> received_seqs() const {
    std::vector<unsigned> out;
    out.reserve(received.size());
    for (const auto& p : received) {
      out.push_back(static_cast<unsigned>(p->bytes()[kSeqOffset]) |
                    (static_cast<unsigned>(p->bytes()[kSeqOffset + 1]) << 8));
    }
    return out;
  }
};

TEST(FaultInjector, TransparentWhenNothingConfigured) {
  Wire w;
  sim::FaultInjector inj(w.ev, sim::FaultConfig{});
  inj.attach(w.a);
  w.send_burst(200);
  ASSERT_EQ(w.received.size(), 200u);
  const auto seqs = w.received_seqs();
  for (unsigned i = 0; i < 200; ++i) EXPECT_EQ(seqs[i], i);
  const auto& st = inj.stats();
  EXPECT_EQ(st.offered, 200u);
  EXPECT_EQ(st.delivered, 200u);
  EXPECT_EQ(st.lost + st.reordered + st.duplicated + st.corrupted + st.flap_drops, 0u);
}

TEST(FaultInjector, BernoulliLossCountsEveryDrop) {
  Wire w;
  sim::FaultConfig cfg;
  cfg.seed = 11;
  cfg.loss.rate = 0.2;
  sim::FaultInjector inj(w.ev, cfg);
  inj.attach(w.a);
  w.send_burst(2000);
  const auto& st = inj.stats();
  EXPECT_EQ(st.offered, 2000u);
  EXPECT_EQ(st.delivered, w.received.size());
  EXPECT_EQ(st.delivered + st.lost, st.offered);  // nothing silently vanished
  EXPECT_GT(st.lost, 300u);
  EXPECT_LT(st.lost, 500u);
}

TEST(FaultInjector, GilbertElliottLossComesInBursts) {
  Wire w;
  sim::FaultConfig cfg;
  cfg.seed = 12;
  cfg.gilbert = {.p_good_to_bad = 0.05, .p_bad_to_good = 0.3, .loss_good = 0.0, .loss_bad = 1.0};
  sim::FaultInjector inj(w.ev, cfg);
  inj.attach(w.a);
  w.send_burst(5000);
  const auto& st = inj.stats();
  EXPECT_GT(st.lost, 100u);
  EXPECT_EQ(st.delivered + st.lost, st.offered);
  // A bursty process must produce at least one multi-packet gap.
  const auto seqs = w.received_seqs();
  unsigned max_gap = 0;
  for (std::size_t i = 1; i < seqs.size(); ++i) max_gap = std::max(max_gap, seqs[i] - seqs[i - 1] - 1);
  EXPECT_GE(max_gap, 2u);
}

TEST(FaultInjector, ReorderingIsBoundedAndLossless) {
  Wire w;
  sim::FaultConfig cfg;
  cfg.seed = 13;
  cfg.reorder = {.rate = 0.3, .min_delay_ns = 50, .max_delay_ns = 300};
  sim::FaultInjector inj(w.ev, cfg);
  inj.attach(w.a);
  w.send_burst(1000);
  ASSERT_EQ(w.received.size(), 1000u);  // reordering never loses packets
  const auto seqs = w.received_seqs();
  // Every sequence number exactly once...
  auto sorted = seqs;
  std::sort(sorted.begin(), sorted.end());
  for (unsigned i = 0; i < 1000; ++i) ASSERT_EQ(sorted[i], i);
  // ...some of them displaced, none beyond a 64-packet window (300 ns of
  // extra delay against ~7 ns serialization per 64B frame).
  std::size_t displaced = 0;
  for (std::size_t pos = 0; pos < seqs.size(); ++pos) {
    const auto delta = pos > seqs[pos] ? pos - seqs[pos] : seqs[pos] - pos;
    EXPECT_LE(delta, 64u);
    if (delta != 0) ++displaced;
  }
  EXPECT_GT(displaced, 0u);
  EXPECT_EQ(inj.stats().reordered + (1000 - inj.stats().reordered), 1000u);
}

TEST(FaultInjector, DuplicationDeliversExtraCopies) {
  Wire w;
  sim::FaultConfig cfg;
  cfg.seed = 14;
  cfg.duplicate.rate = 0.05;
  sim::FaultInjector inj(w.ev, cfg);
  inj.attach(w.a);
  w.send_burst(2000);
  const auto& st = inj.stats();
  EXPECT_GT(st.duplicated, 50u);
  EXPECT_EQ(w.received.size(), 2000u + st.duplicated);
  EXPECT_EQ(st.delivered, st.offered + st.duplicated);
}

TEST(FaultInjector, CorruptionIsCaughtByFcsVerification) {
  Wire w;
  w.b.set_verify_fcs(true);
  sim::FaultConfig cfg;
  cfg.seed = 15;
  cfg.corrupt.rate = 1.0;
  sim::FaultInjector inj(w.ev, cfg);
  inj.attach(w.a);
  w.send_burst(300);
  EXPECT_EQ(inj.stats().corrupted, 300u);
  // Flips landing in checksum-covered bytes (IP header, UDP+payload) are
  // dropped at the MAC; flips in the Ethernet header slip through — but
  // every flipped frame is accounted one way or the other.
  EXPECT_GT(w.b.rx_fcs_drops(), 150u);
  EXPECT_EQ(w.received.size() + w.b.rx_fcs_drops(), 300u);
}

TEST(FaultInjector, CorruptionCopiesSharedPackets) {
  Wire w;
  sim::FaultConfig cfg;
  cfg.seed = 16;
  cfg.corrupt.rate = 1.0;
  sim::FaultInjector inj(w.ev, cfg);
  auto original = w.make_seq_packet(7);
  const std::vector<std::uint8_t> snapshot(original->bytes().begin(), original->bytes().end());
  net::PacketPtr shared = original;  // a template holding a second reference
  inj.process(std::move(shared), w.b);
  w.ev.run_until(w.ev.now() + sim::us(1));
  // The held reference is untouched; the delivered copy carries the flip.
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), original->bytes().begin()));
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_FALSE(std::equal(snapshot.begin(), snapshot.end(), w.received[0]->bytes().begin()));
}

TEST(FaultInjector, LinkFlapDropsOnlyDuringDownWindow) {
  Wire w;
  sim::FaultConfig cfg;
  cfg.seed = 17;
  cfg.flap = {.first_down_at = 5'000, .down_ns = 3'000, .period_ns = 0, .count = 1};
  sim::FaultInjector inj(w.ev, cfg);
  inj.attach(w.a);
  for (unsigned i = 0; i < 50; ++i) {
    w.ev.schedule_at(i * 200, [&w, i] { w.a.send(w.make_seq_packet(i)); });
  }
  w.ev.run_until(sim::us(20));
  const auto& st = inj.stats();
  EXPECT_TRUE(inj.link_up());
  EXPECT_GT(st.flap_drops, 5u);
  EXPECT_LT(st.flap_drops, 25u);
  EXPECT_EQ(st.delivered + st.flap_drops, st.offered);
  // Traffic resumed after the link came back.
  const auto seqs = w.received_seqs();
  EXPECT_EQ(seqs.back(), 49u);
}

TEST(FaultInjector, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [] {
    Wire w;
    sim::FaultConfig cfg;
    cfg.seed = 0xDEADBEEF;
    cfg.loss.rate = 0.05;
    cfg.reorder = {.rate = 0.2, .min_delay_ns = 50, .max_delay_ns = 400};
    cfg.duplicate.rate = 0.02;
    cfg.corrupt.rate = 0.02;
    cfg.flap = {.first_down_at = 2'000, .down_ns = 500, .period_ns = 0, .count = 1};
    sim::FaultInjector inj(w.ev, cfg);
    inj.attach(w.a);
    w.send_burst(1500);
    return std::make_tuple(w.received_seqs(), inj.stats().lost, inj.stats().reordered,
                           inj.stats().duplicated, inj.stats().corrupted,
                           inj.stats().flap_drops, w.ev.executed());
  };
  EXPECT_EQ(run(), run());
}

TEST(AsicFaults, IngressFaultHookDropsAndCounts) {
  rmt::AsicConfig cfg;
  cfg.num_ports = 2;
  test::AsicTestbed bed(cfg);
  bed.asic.set_ingress_fault([](const net::Packet&) { return true; });
  bed.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  bed.ev.run_until(sim::us(10));
  EXPECT_EQ(bed.asic.ingress_packets(), 0u);
  EXPECT_EQ(bed.asic.injected_drops(), 1u);
  const auto report = bed.asic.metrics().drop_counters();
  const auto it = std::find_if(report.begin(), report.end(),
                               [](const auto& c) { return c.first == "asic.injected_drops"; });
  ASSERT_NE(it, report.end());
  EXPECT_EQ(it->second, 1u);
}

TEST(ControllerPartition, SwallowsReadsInWindowThenHeals) {
  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  HyperTester tester(cfg);
  auto& ctr = tester.asic().registers().create("ctr", 8, 64);
  for (std::size_t i = 0; i < ctr.size(); ++i) ctr.write(i, 3 * i + 1);
  sim::CrashPlan plan;
  plan.events.push_back({.kind = sim::CrashKind::kControllerPartition,
                         .at_ns = sim::us(100),
                         .duration_ns = sim::ms(1)});
  tester.apply_crash_plan(plan);

  // A read issued inside the window never calls back, not even long after
  // the partition heals.
  tester.run_for(sim::us(200));
  bool lost_read_fired = false;
  tester.controller().read_counters("ctr", /*batched=*/true,
                                    [&](std::vector<std::uint64_t>) { lost_read_fired = true; });
  tester.run_for(sim::ms(5));
  EXPECT_FALSE(lost_read_fired);
  EXPECT_EQ(tester.controller().rpc_lost(), 1u);
  EXPECT_EQ(tester.metrics().counter_value("ht_controller_rpc_lost_total"), 1u);
  const auto drops = tester.metrics().drop_counters();
  EXPECT_NE(std::find(drops.begin(), drops.end(),
                      std::pair<std::string, std::uint64_t>{"controller.rpc_lost", 1}),
            drops.end());

  // After the heal a read pays exactly the batched pull latency.
  const sim::TimeNs issued = tester.events().now();
  std::optional<sim::TimeNs> delivered_at;
  std::vector<std::uint64_t> values;
  tester.controller().read_counters("ctr", /*batched=*/true, [&](std::vector<std::uint64_t> v) {
    delivered_at = tester.events().now();
    values = std::move(v);
  });
  tester.run_for(sim::ms(1));
  ASSERT_TRUE(delivered_at.has_value());
  EXPECT_EQ(*delivered_at - issued,
            static_cast<sim::TimeNs>(std::llround(switchcpu::PullModel{}.batched_ns(8))));
  EXPECT_EQ(values, (std::vector<std::uint64_t>{1, 4, 7, 10, 13, 16, 19, 22}));
  EXPECT_EQ(tester.controller().rpc_lost(), 1u);
}

/// Tester wired through a store-and-forward DUT: port 0 -> DUT -> port 1.
struct ChaosTestbed {
  explicit ChaosTestbed(ntapi::Task task) : fwd_storage(make_forwarder()) {
    tester.asic().port(0).connect(&fwd().port(0));
    fwd().port(0).connect(&tester.asic().port(0));
    tester.asic().port(1).connect(&fwd().port(1));
    fwd().port(1).connect(&tester.asic().port(1));
    tester.load(task);
  }
  dut::Forwarder& fwd() { return *fwd_storage; }
  std::unique_ptr<dut::Forwarder> make_forwarder() {
    dut::Forwarder::Config fcfg;
    fcfg.num_ports = 2;
    fcfg.forward_delay_ns = 600.0;
    return std::make_unique<dut::Forwarder>(tester.events(), fcfg);
  }

  HyperTester tester{[] {
    TesterConfig cfg;
    cfg.asic.num_ports = 2;
    return cfg;
  }()};
  std::unique_ptr<dut::Forwarder> fwd_storage;
};

TEST(HyperTesterRetry, SurvivesMidTaskLinkFlap) {
  auto app = apps::loss_test(0x02020202, 0x01010101, {0}, {1}, 1500, 200);
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 21;
  chaos.config.flap = {.first_down_at = sim::us(100), .down_ns = sim::us(50),
                       .period_ns = 0, .count = 1};
  app.task.set_chaos(chaos);
  ChaosTestbed bed(app.task);
  bed.tester.start();
  bed.tester.run_for(sim::us(350));
  // Probes kept flowing after the flap; the dropped window is visible in
  // the drop audit trail, not silently missing.
  EXPECT_GT(bed.tester.query_matched(app.q_received), 500u);
  std::uint64_t flap_drops = 0;
  for (const auto& [source, count] : bed.tester.metrics().drop_counters()) {
    if (source.find("fault_flap_drops") != std::string::npos) flap_drops += count;
  }
  EXPECT_GT(flap_drops, 0u);
}

/// ChaosTestbed's wiring as a Supervisor builder: the same tester and
/// forwarder on a one-shard cluster, with a progress probe on the
/// receive-side query. The default probe counts front-panel tx+rx, and a
/// tester keeps transmitting into a dead link, so only the receive side
/// shows that the measurement stalled.
Testbed build_loss_testbed(const apps::LossTest& app) {
  Testbed tb;
  tb.cluster = std::make_unique<TesterCluster>();
  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  HyperTester& tester = tb.cluster->add_tester(cfg, 0);
  dut::Forwarder::Config fcfg;
  fcfg.num_ports = 2;
  fcfg.forward_delay_ns = 600.0;
  auto fwd = std::make_shared<dut::Forwarder>(tester.events(), fcfg);
  for (std::uint16_t p = 0; p < 2; ++p) {
    tester.asic().port(p).connect(&fwd->port(p));
    fwd->port(p).connect(&tester.asic().port(p));
  }
  tester.load(app.task);
  tester.start();
  tb.progress = [&tester, q = app.q_received] { return tester.query_matched(q); };
  tb.keepalive = fwd;
  return tb;
}

TEST(SupervisorStall, PermanentLinkFlapOpensInvalidWindow) {
  constexpr sim::TimeNs kFlapAt = sim::us(50);
  constexpr sim::TimeNs kRun = sim::us(500);
  SupervisorConfig scfg;
  scfg.heartbeat_ns = sim::us(20);
  scfg.miss_threshold = 3;
  scfg.policy = SupervisorConfig::Policy::kDegrade;
  const auto supervise = [&](bool flap) {
    auto app = apps::loss_test(0x02020202, 0x01010101, {0}, {1}, 5000, 200);
    if (flap) {
      ntapi::ChaosSpec chaos;
      chaos.config.seed = 22;
      chaos.config.flap = {.first_down_at = kFlapAt, .down_ns = sim::ms(100), .period_ns = 0,
                           .count = 1};
      app.task.set_chaos(chaos);
    }
    Supervisor sup(scfg, [app](std::size_t) { return build_loss_testbed(app); });
    return sup.run(kRun);
  };

  // Control: with the link up, every heartbeat sees new probes arrive.
  const RecoveryReport clean = supervise(false);
  EXPECT_EQ(clean.misses, 0u);
  EXPECT_TRUE(clean.invalid_windows.empty());

  const RecoveryReport report = supervise(true);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.actions.size(), 1u);
  const RecoveryAction& action = report.actions[0];
  EXPECT_EQ(action.policy, SupervisorConfig::Policy::kDegrade);
  EXPECT_FALSE(action.recovered);
  // Probes already past the flap still land during the heartbeat that
  // contains it; from the next heartbeat on the probe is frozen, and the
  // supervisor acts exactly miss_threshold heartbeats later — never
  // earlier.
  const sim::TimeNs first_dead_beat = (kFlapAt / scfg.heartbeat_ns + 1) * scfg.heartbeat_ns;
  const sim::TimeNs threshold = scfg.miss_threshold * scfg.heartbeat_ns;
  EXPECT_GE(action.detected_at_ns, kFlapAt + threshold);
  EXPECT_LE(action.detected_at_ns, first_dead_beat + threshold);
  // The invalid window covers every frozen heartbeat through the deadline.
  ASSERT_EQ(report.invalid_windows.size(), 1u);
  EXPECT_LE(report.invalid_windows[0].from_ns, first_dead_beat);
  EXPECT_EQ(report.invalid_windows[0].to_ns, kRun);
  EXPECT_EQ(report.recoveries, 0u);
}

TEST(HyperTesterRetry, DropReportCoversEveryLayer) {
  auto app = apps::loss_test(0x02020202, 0x01010101, {0}, {1}, 1000, 200);
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 23;
  chaos.config.loss.rate = 0.1;
  app.task.set_chaos(chaos);
  ChaosTestbed bed(app.task);
  bed.tester.start();
  bed.tester.run_for(sim::us(400));
  const auto report = bed.tester.metrics().drop_counters();
  auto has = [&report](const std::string& source) {
    return std::any_of(report.begin(), report.end(),
                       [&](const auto& c) { return c.first == source; });
  };
  // One flat report spans the ASIC, the MACs, the control plane, and the
  // chaos links.
  EXPECT_TRUE(has("asic.pipeline_drops"));
  EXPECT_TRUE(has("asic.digest_drops"));
  EXPECT_TRUE(has("port0.queue_full"));
  EXPECT_TRUE(has("port1.fcs"));
  EXPECT_TRUE(has("controller.rpc_lost"));
  EXPECT_TRUE(has("port0.tx.fault_lost"));
  // And the injected loss is in it — nothing dropped silently.
  std::uint64_t fault_lost = 0;
  for (const auto& [source, count] : report) {
    if (source.find("fault_lost") != std::string::npos) fault_lost += count;
  }
  EXPECT_GT(fault_lost, 0u);
  EXPECT_EQ(bed.tester.chaos_links().size(), 4u);  // tx+rx per connected port
}

/// The sources of a tester's drop audit trail, in report order.
std::vector<std::string> drop_sources(const HyperTester& tester) {
  std::vector<std::string> out;
  for (const auto& entry : tester.metrics().drop_counters()) out.push_back(entry.first);
  return out;
}

TEST(HyperTesterRetry, DropReportOrderIsRegistrationOrder) {
  // drop_counters() is the one report that keeps registration order (the
  // exporters sort by name), and fig9 --loss and loss_measurement print it
  // as is: device counters, per-port MAC trio, control plane, trigger
  // FIFOs, per-query integrity, then the chaos links in attach order.
  const std::vector<std::string> device = {
      "asic.pipeline_drops", "asic.injected_drops", "asic.digest_drops",
      "port0.queue_full",    "port0.no_peer",       "port0.fcs",
      "port1.queue_full",    "port1.no_peer",       "port1.fcs",
      "controller.rpc_lost"};

  auto loss = apps::loss_test(0x02020202, 0x01010101, {0}, {1}, 1000, 200);
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 23;
  chaos.config.loss.rate = 0.1;
  loss.task.set_chaos(chaos);
  ChaosTestbed bed(loss.task);
  bed.tester.start();
  bed.tester.run_for(sim::us(50));
  std::vector<std::string> want = device;
  for (const char* q : {"q0", "q1"}) {
    want.push_back(std::string("htpr.") + q + ".checksum_fails");
    want.push_back(std::string("htpr.") + q + ".out_of_window");
  }
  for (const char* link : {"port0.tx", "port0.rx", "port1.tx", "port1.rx"}) {
    for (const char* kind : {"lost", "flap_drops", "corrupted", "duplicated", "reordered"}) {
      want.push_back(std::string(link) + ".fault_" + kind);
    }
  }
  EXPECT_EQ(drop_sources(bed.tester), want);

  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  HyperTester web(cfg);
  web.load(apps::web_test(0x05050505, 80, 0x01010001, 64, {1}).task);
  web.start();
  web.run_for(sim::us(50));
  want = device;
  for (int t = 1; t <= 5; ++t) want.push_back("trigfifo." + std::to_string(t) + ".overflows");
  for (int q = 0; q <= 4; ++q) {
    want.push_back("htpr.q" + std::to_string(q) + ".checksum_fails");
    want.push_back("htpr.q" + std::to_string(q) + ".out_of_window");
  }
  EXPECT_EQ(drop_sources(web), want);
}

TEST(FaultInjector, DropCountersExposeEveryPathology) {
  auto app = apps::loss_test(0x02020202, 0x01010101, {0}, {1}, 500, 200);
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 18;
  chaos.config.loss.rate = 0.3;
  app.task.set_chaos(chaos);
  ChaosTestbed bed(app.task);
  bed.tester.start();
  bed.tester.run_for(sim::us(200));
  // Every chaos link contributes all five pathology counters to the
  // registry's audit trail, each equal to its injector's own stat.
  const auto report = bed.tester.metrics().drop_counters();
  const auto count_of = [&report](const std::string& source) -> std::optional<std::uint64_t> {
    for (const auto& [s, n] : report) {
      if (s == source) return n;
    }
    return std::nullopt;
  };
  std::uint64_t lost = 0;
  for (const auto& link : bed.tester.chaos_links()) {
    const sim::FaultStats& st = link.injector->stats();
    EXPECT_EQ(count_of(link.name + ".fault_lost"), st.lost);
    EXPECT_EQ(count_of(link.name + ".fault_flap_drops"), st.flap_drops);
    EXPECT_EQ(count_of(link.name + ".fault_corrupted"), st.corrupted);
    EXPECT_EQ(count_of(link.name + ".fault_duplicated"), st.duplicated);
    EXPECT_EQ(count_of(link.name + ".fault_reordered"), st.reordered);
    lost += st.lost;
  }
  EXPECT_GT(lost, 0u);
}

}  // namespace
}  // namespace ht
