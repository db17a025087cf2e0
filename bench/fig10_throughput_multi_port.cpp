// Figure 10: multi-port throughput.
//
//  (a) HyperTester: adding 100G ports keeps every port at line rate
//      (400Gbps with the testbed's four ports).
//  (b) MoonGen on eight 10G ports: ~10Gbps per core, 80Gbps with 8 cores.
//  (c) Sharded engine: the same eight-tester 100G workload executed on
//      1/2/4/8 worker shards (or the single count given via --shards N).
//      Simulated results are byte-identical across shard counts; only
//      wall-clock throughput changes, so each count runs kReps times,
//      interleaved with the others, and reports the median with its
//      min/max. `--json <path>` records the fig10_pkts_per_sec_shards{N}
//      medians, their _min/_max, fig10_repetitions and
//      fig10_scaling_efficiency (from medians); efficiency divides by
//      min(8, cores), recorded as fig10_host_cores.
#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "apps/tasks.hpp"
#include "baseline/moongen.hpp"
#include "common.hpp"
#include "core/cluster.hpp"

namespace {

using namespace ht;

/// Repetitions per shard count: wall-clock throughput on a shared host
/// moves by tens of percent between back-to-back runs.
constexpr std::size_t kReps = 5;

struct ShardedRun {
  std::uint64_t packets = 0;
  double pkts_per_sec = 0.0;
};

/// Median, min and max of one shard count's repetitions.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  return {median, v.front(), v.back()};
}

/// The (c) workload: `testers` independent single-port 100G testers
/// placed round-robin over `nshards` shards, each blasting 64B frames at
/// line rate into a count-only capture sink on its own shard. No
/// cross-shard links: the workload is embarrassingly parallel (the
/// paper's fig10 story — one port per core), so wall-clock scaling
/// measures the worker engine itself, not cross-shard handoffs.
ShardedRun run_sharded_throughput(std::size_t nshards, std::size_t testers) {
  using clock = std::chrono::steady_clock;
  TesterCluster cluster({.shards = nshards, .seed = 42});
  // Build the whole fleet's tasks first so auto_place can balance them;
  // equal line-rate workloads place round-robin.
  std::vector<apps::ThroughputTest> workload;
  workload.reserve(testers);
  std::vector<const ntapi::Task*> tasks;
  tasks.reserve(testers);
  for (std::size_t t = 0; t < testers; ++t) {
    workload.push_back(apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0));
    tasks.push_back(&workload.back().task);
  }
  const std::vector<std::size_t> placement = cluster.auto_place(tasks);
  std::vector<std::unique_ptr<dut::Capture>> sinks;
  for (std::size_t t = 0; t < testers; ++t) {
    const std::size_t s = placement[t];
    TesterConfig cfg;
    cfg.asic.num_ports = 2;
    cfg.asic.port_rate_gbps = 100.0;
    cfg.asic.seed = 1 + t;
    auto& tester = cluster.add_tester(cfg, s);
    sinks.push_back(std::make_unique<dut::Capture>(cluster.shards().shard(s).ev(),
                                                   static_cast<std::uint16_t>(1000 + t), 100.0));
    sinks.back()->set_count_only(true);
    sinks.back()->attach(tester.asic().port(1));
    tester.load(workload[t].task);
    tester.start();
  }
  const auto t0 = clock::now();
  cluster.run_for(sim::ms(2));
  const double wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  ShardedRun out;
  for (std::size_t t = 0; t < cluster.size(); ++t) {
    out.packets += cluster.tester(t).asic().egress_packets();
  }
  out.pkts_per_sec = static_cast<double>(out.packets) / wall_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json("fig10_throughput_multi_port", bench::take_path(argc, argv, "--json"));
  // 0 (or absent): sweep the default {1, 2, 4, 8} shard series and run the
  // paper's 8-tester fleet.
  const std::size_t shards_arg = bench::take_count(argc, argv, "--shards", 0);
  const std::size_t testers_arg = bench::take_count(argc, argv, "--testers", 0);
  const std::size_t fleet = testers_arg > 0 ? testers_arg : 8;

  bench::headline("Figure 10(a): HyperTester multi-port (100G each, 64B)",
                  "line rate as ports are added; 400Gbps with 4 ports");
  bench::row("%8s %14s %16s", "ports", "total (Gbps)", "per-port (Gbps)");
  for (std::size_t nports = 1; nports <= 4; ++nports) {
    bench::Testbed tb(5, 100.0);
    std::vector<std::uint16_t> ports;
    for (std::size_t p = 1; p <= nports; ++p) ports.push_back(static_cast<std::uint16_t>(p));
    auto app = apps::throughput_test(0x02020202, 0x01010101, ports, 64, 0);
    tb.tester->load(app.task);
    tb.tester->start();
    tb.tester->run_for(sim::ms(2));
    double total = 0;
    for (const auto p : ports) total += tb.tester->asic().port(p).tx_line_rate_gbps();
    bench::row("%8zu %14.1f %16.1f", nports, total, total / static_cast<double>(nports));
  }

  bench::headline("Figure 10(b): MoonGen multi-core (eight 10G ports, 64B)",
                  "~10Gbps per core; 80Gbps with 8 cores");
  const baseline::MoonGenModel mg;
  bench::row("%8s %14s", "cores", "total (Gbps)");
  for (std::size_t cores = 1; cores <= 8; ++cores) {
    bench::row("%8zu %14.1f", cores, mg.throughput_gbps(64, cores, 8, 10.0));
  }

  bench::headline("Figure 10(c): sharded engine (" + std::to_string(fleet) +
                      " testers x 100G, 64B, 2ms window, " + std::to_string(kReps) +
                      " interleaved runs per count)",
                  "wall-clock scaling of the shard-per-worker engine");
  std::vector<std::size_t> counts;
  if (shards_arg > 0) {
    counts.push_back(shards_arg);
  } else {
    counts = {1, 2, 4, 8};
  }
  // Round-robin over the counts, so slow and fast host phases spread over
  // all of them instead of landing on one.
  std::vector<std::vector<double>> pps(counts.size());
  std::vector<std::uint64_t> packets(counts.size(), 0);
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const ShardedRun r = run_sharded_throughput(counts[i], fleet);
      pps[i].push_back(r.pkts_per_sec);
      packets[i] = r.packets;
    }
  }
  bench::row("%8s %12s %14s %14s %14s %10s", "shards", "packets", "median pkts/s", "min pkts/s",
             "max pkts/s", "speedup");
  json.add("fig10_repetitions", static_cast<double>(kReps), "count");
  const double base_pps = spread_of(pps.front()).median;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::size_t nshards = counts[i];
    const Spread s = spread_of(pps[i]);
    bench::row("%8zu %12llu %14.0f %14.0f %14.0f %9.2fx", nshards,
               static_cast<unsigned long long>(packets[i]), s.median, s.min, s.max,
               s.median / base_pps);
    const std::string series = "fig10_pkts_per_sec_shards" + std::to_string(nshards);
    json.add(series, s.median, "pkts/s");
    json.add(series + "_min", s.min, "pkts/s");
    json.add(series + "_max", s.max, "pkts/s");
    if (nshards == 8 && counts.front() == 1) {
      // Eight shards on fewer cores can speed up by at most the core
      // count, so that is the ideal an oversubscribed host is held to.
      const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
      const double ideal = static_cast<double>(std::min<std::size_t>(nshards, cores));
      json.add("fig10_scaling_efficiency", s.median / (ideal * base_pps), "ratio");
      json.add("fig10_host_cores", cores, "count");
    }
  }
  return json.write() ? 0 : 1;
}
