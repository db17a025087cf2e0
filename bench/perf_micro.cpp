// Micro-benchmarks of the hot simulator paths (google-benchmark).
//
// Not a paper figure: this tracks the substrate's own per-operation cost.
// End-to-end simulator throughput is perfbench's job (perfbench/README.md).
// scripts/bench.sh writes BENCH_perf.json through google-benchmark's own
// JSON reporter, which records the host context and the spread over
// repetitions (--benchmark_out=BENCH_perf.json --benchmark_out_format=json
// --benchmark_repetitions=5 --benchmark_report_aggregates_only=true).
#include <benchmark/benchmark.h>

#include "htpr/counter_store.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "rmt/asic.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace ht;

void BM_ParsePacket(benchmark::State& state) {
  const auto parser = rmt::Parser::default_graph();
  auto pkt = net::make_packet(net::make_tcp_packet(1, 2, 3, 4, 0x10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.parse(pkt));
  }
}
BENCHMARK(BM_ParsePacket);

// A parse followed by the reads an interpreted pass makes: the sender's
// ingress port and template id, then the 5-tuple an editor or query keys on.
void BM_ParseAndReadKeys(benchmark::State& state) {
  const auto parser = rmt::Parser::default_graph();
  auto pkt = net::make_packet(net::make_tcp_packet(1, 2, 3, 4, 0x10));
  for (auto _ : state) {
    const auto phv = parser.parse(pkt);
    std::uint64_t keys = phv.get(net::FieldId::kMetaIngressPort);
    keys += phv.get(net::FieldId::kMetaTemplateId);
    keys += phv.get(net::FieldId::kIpv4Sip);
    keys += phv.get(net::FieldId::kIpv4Dip);
    keys += phv.get(net::FieldId::kIpv4Proto);
    keys += phv.get(net::FieldId::kTcpSport);
    keys += phv.get(net::FieldId::kTcpDport);
    benchmark::DoNotOptimize(keys);
  }
}
BENCHMARK(BM_ParseAndReadKeys);

void BM_DeparseModified(benchmark::State& state) {
  const auto parser = rmt::Parser::default_graph();
  auto pkt = net::make_packet(net::make_tcp_packet(1, 2, 3, 4, 0x10));
  auto phv = parser.parse(pkt);
  phv.set(net::FieldId::kTcpDport, 99);
  for (auto _ : state) {
    rmt::Parser::deparse(phv);
  }
}
BENCHMARK(BM_DeparseModified);

void BM_ChecksumFix(benchmark::State& state) {
  net::Packet pkt = net::make_tcp_packet(1, 2, 3, 4, 0x10, 0, 0,
                                         static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    net::fix_checksums(pkt);
  }
}
BENCHMARK(BM_ChecksumFix)->Arg(64)->Arg(1500);

void BM_ExactTableLookup(benchmark::State& state) {
  rmt::MatchActionTable table("t", net::FieldId::kUdpDport, 4096);
  for (std::uint64_t i = 0; i < 1024; ++i) table.add_entry(i, nullptr);
  const auto parser = rmt::Parser::default_graph();
  auto pkt = net::make_packet(net::make_udp_packet(1, 2, 3, 512));
  const auto phv = parser.parse(pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(phv));
  }
}
BENCHMARK(BM_ExactTableLookup);

void BM_CounterStoreUpdate(benchmark::State& state) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  htpr::CounterStoreConfig cfg;
  cfg.name = "bm";
  cfg.hash.key_fields = {net::FieldId::kIpv4Sip};
  cfg.hash.buckets = 1 << 14;
  htpr::CounterStore store(asic, cfg);
  rmt::Phv phv;
  phv.packet = net::make_packet(64);
  rmt::ActionContext ctx{phv, asic.registers(), asic.rng(), 0, nullptr};
  std::uint64_t i = 0;
  for (auto _ : state) {
    phv.set(net::FieldId::kIpv4Sip, i++ % 8192);
    benchmark::DoNotOptimize(store.update(ctx, 1));
    store.maintenance_pass(ctx);
  }
}
BENCHMARK(BM_CounterStoreUpdate);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue ev;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      ev.schedule_in(static_cast<sim::TimeNs>(i % 7), [] {});
    }
    ev.run_all();
  }
}
BENCHMARK(BM_EventQueueChurn);

void BM_RecirculationLoop(benchmark::State& state) {
  // End-to-end cost of one full recirculation (ingress+egress+loop).
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  auto& t = asic.ingress().add_table("loop", {}, 4);
  t.set_default([](rmt::ActionContext& ctx) {
    ctx.phv.intrinsic().dest = rmt::Destination::kUnicast;
    ctx.phv.intrinsic().ucast_port = rmt::SwitchAsic::kRecircPortBase;
  });
  asic.inject_from_cpu(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  ev.run_until(sim::us(10));
  std::uint64_t prev = asic.recirculations();
  for (auto _ : state) {
    ev.run_until(ev.now() + 570);  // one RTT of simulated time
    benchmark::DoNotOptimize(asic.recirculations() - prev);
  }
}
BENCHMARK(BM_RecirculationLoop);

}  // namespace

BENCHMARK_MAIN();
