// Figure 15: replicator (mcast engine) micro-benchmark.
//
//  (a) Mcast delay vs replica size: ~389ns for 64B, +65ns by 1280B,
//      RMSE < 4.5ns (small inter-arrival jitter -> accurate rate control).
//  (b) Mcast delay vs port count and speed: close-to-zero impact.
//
// Method: packets traverse the ASIC twice — once unicast, once through the
// mcast engine — and the per-packet difference isolates the engine delay.
#include "common.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "sim/stats.hpp"

namespace {

using namespace ht;

struct DelayResult {
  double mean;
  double rmse;
};

/// Egress-timestamp the packet on both paths; the difference between the
/// mcast and unicast egress delays is the engine delay.
DelayResult mcast_delay(std::size_t pkt_len, std::size_t nports, double port_rate,
                        std::size_t packets = 3000) {
  sim::EventQueue ev;
  rmt::AsicConfig cfg{.num_ports = static_cast<std::size_t>(nports + 1),
                      .port_rate_gbps = port_rate};
  rmt::SwitchAsic asic(ev, cfg);
  std::vector<rmt::McastMember> members;
  for (std::size_t p = 1; p <= nports; ++p) {
    members.push_back({static_cast<std::uint16_t>(p), static_cast<std::uint16_t>(p)});
  }
  asic.mcast().configure(1, members);

  // Odd ipv4.id -> unicast; even -> mcast. Record TM traversal times.
  std::vector<double> uni, mc;
  auto& ti = asic.ingress().add_table("steer", {}, 4);
  ti.set_default([&](rmt::ActionContext& ctx) {
    ctx.phv.set(net::FieldId::kTcpSeqNo, ctx.now);  // ingress-exit time
    if (ctx.phv.get(net::FieldId::kIpv4Id) % 2 == 0) {
      ctx.phv.intrinsic().dest = rmt::Destination::kMulticast;
      ctx.phv.intrinsic().mcast_group = 1;
    } else {
      ctx.phv.intrinsic().dest = rmt::Destination::kUnicast;
      ctx.phv.intrinsic().ucast_port = 1;
    }
  });
  auto& te = asic.egress().add_table("sample", {}, 4);
  te.set_default([&](rmt::ActionContext& ctx) {
    const double d = static_cast<double>(ctx.now) -
                     static_cast<double>(ctx.phv.get(net::FieldId::kTcpSeqNo));
    if (ctx.phv.get(net::FieldId::kIpv4Id) % 2 == 0) {
      mc.push_back(d);
    } else {
      uni.push_back(d);
    }
  });

  for (std::size_t i = 0; i < packets; ++i) {
    auto pkt = net::make_packet(
        net::make_tcp_packet(1, 2, 3, 4, 0, 0, 0, pkt_len));
    net::set_field(*pkt, net::FieldId::kIpv4Id, i % 2);
    asic.inject_from_cpu(std::move(pkt));
    ev.run_until(ev.now() + sim::us(3));
  }
  ev.run_until(ev.now() + sim::ms(1));

  sim::RunningStats u;
  for (const auto d : uni) u.push(d);
  // Engine delay = mcast TM time - unicast TM time + unicast base.
  std::vector<double> engine;
  engine.reserve(mc.size());
  for (const auto d : mc) engine.push_back(d - u.mean() + 80.0 /* TM unicast base */);
  sim::RunningStats e;
  for (const auto d : engine) e.push(d);
  const auto m = sim::compute_error_metrics(engine, e.mean());
  return {e.mean(), m.rmse};
}

}  // namespace

int main() {
  bench::headline("Figure 15(a): mcast engine delay vs packet size (1 port, 100G)",
                  "389ns at 64B, +65ns by 1280B, RMSE < 4.5ns");
  bench::row("%8s %12s %10s", "size(B)", "delay", "RMSE");
  for (const std::size_t s : {64u, 256u, 512u, 1024u, 1280u}) {
    const auto r = mcast_delay(s, 1, 100.0);
    bench::row("%8zu %10.1fns %8.2fns", s, r.mean, r.rmse);
  }

  bench::headline("Figure 15(b): mcast delay vs port count and speed (64B)",
                  "close-to-zero impact of ports and speed");
  bench::row("%8s %10s %12s", "ports", "speed", "delay");
  for (const std::size_t ports : {1u, 4u, 16u, 31u}) {
    const auto r = mcast_delay(64, ports, 100.0);
    bench::row("%8zu %9s %10.1fns", ports, "100G", r.mean);
  }
  for (const double speed : {10.0, 40.0, 100.0}) {
    const auto r = mcast_delay(64, 4, speed);
    bench::row("%8d %8.0fG %10.1fns", 4, speed, r.mean);
  }
  return 0;
}
