// Figure 14: accelerator micro-benchmark.
//
//  (a) Recirculation round-trip time of a template packet vs its size:
//      ~570ns for 64B with RMSE < 5ns, growing with serialization.
//  (b) Accelerator capacity (templates per recirculation loop):
//      RTT / minimal arrival interval — 89 for 64B packets.
#include "common.hpp"
#include "net/packet_builder.hpp"
#include "sim/stats.hpp"

namespace {

using namespace ht;

struct RttResult {
  double mean;
  double rmse;
  std::uint64_t loops;
};

RttResult measure_rtt(std::size_t pkt_len, std::uint64_t loops) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  std::vector<std::uint64_t> arrivals;
  arrivals.reserve(loops);
  auto& t = asic.ingress().add_table("loop", {}, 4);
  t.set_default([&](rmt::ActionContext& ctx) {
    if (ctx.phv.get(net::FieldId::kMetaIngressPort) != rmt::SwitchAsic::kCpuPort) {
      arrivals.push_back(ctx.now);
    }
    ctx.phv.intrinsic().dest = rmt::Destination::kUnicast;
    ctx.phv.intrinsic().ucast_port = rmt::SwitchAsic::kRecircPortBase;
  });
  asic.inject_from_cpu(
      net::make_packet(net::make_udp_packet(1, 2, 3, 4, pkt_len)));
  while (arrivals.size() < loops && ev.pending() > 0) {
    ev.run_until(ev.now() + sim::ms(1));
  }
  const auto deltas = sim::inter_departure_times(arrivals);
  sim::RunningStats stats;
  for (const auto d : deltas) stats.push(d);
  const auto m = sim::compute_error_metrics(deltas, stats.mean());
  return {stats.mean(), m.rmse, deltas.size()};
}

}  // namespace

int main() {
  const rmt::TimingModel timing;
  const std::size_t sizes[] = {64, 128, 256, 512, 1024, 1500};

  bench::headline("Figure 14(a): template-packet RTT vs size (1e5 loops each)",
                  "64B completes a loop within 570ns, RMSE < 5ns");
  bench::row("%8s %12s %12s %10s", "size(B)", "RTT mean", "RMSE", "loops");
  for (const auto s : sizes) {
    const auto r = measure_rtt(s, 100'000);
    bench::row("%8zu %10.1fns %10.2fns %10llu", s, r.mean, r.rmse,
               static_cast<unsigned long long>(r.loops));
  }

  bench::headline("Figure 14(b): accelerator capacity vs template size",
                  "89 64-byte templates (570ns / 6.4ns)");
  bench::row("%8s %16s %14s %10s", "size(B)", "min interval", "RTT (model)", "capacity");
  for (const auto s : sizes) {
    bench::row("%8zu %14.1fns %12.1fns %10llu", s, timing.min_arrival_interval_ns(s),
               timing.recirc_rtt_ns(s),
               static_cast<unsigned long long>(timing.accelerator_capacity(s)));
  }
  return 0;
}
