// Figure 10: multi-port throughput.
//
//  (a) HyperTester: adding 100G ports keeps every port at line rate
//      (400Gbps with the testbed's four ports).
//  (b) MoonGen on eight 10G ports: ~10Gbps per core, 80Gbps with 8 cores.
//  (c) Sharded engine: the same eight-tester 100G workload executed on
//      1/2/4/8 worker shards (or the single count given via --shards N).
//      Simulated results are byte-identical across shard counts; only
//      wall-clock throughput changes. `--json <path>` records the
//      fig10_pkts_per_sec_shards{N} + fig10_scaling_efficiency series.
#include "apps/tasks.hpp"
#include "baseline/moongen.hpp"
#include "common.hpp"
#include "sharded.hpp"

int main(int argc, char** argv) {
  using namespace ht;

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
                      " testers x 100G, 64B, 2ms window)",
                  "wall-clock scaling of the shard-per-worker engine");
  bench::row("%8s %12s %14s %12s %10s", "shards", "packets", "pkts/s (wall)", "wall (s)",
             "speedup");
  std::vector<std::size_t> counts;
  if (shards_arg > 0) {
    counts.push_back(shards_arg);
  } else {
    counts = {1, 2, 4, 8};
  }
  double base_pps = 0.0;
  for (const std::size_t nshards : counts) {
    const bench::ShardedRun r = bench::run_sharded_throughput(nshards, fleet);
    if (base_pps == 0.0) base_pps = r.pkts_per_sec;
    bench::row("%8zu %12llu %14.0f %12.3f %9.2fx", nshards,
               static_cast<unsigned long long>(r.packets), r.pkts_per_sec, r.wall_s,
               r.pkts_per_sec / base_pps);
    json.add("fig10_pkts_per_sec_shards" + std::to_string(nshards), r.pkts_per_sec, "pkts/s",
             r.wall_s);
    if (nshards == 8 && counts.front() == 1) {
      json.add("fig10_scaling_efficiency", r.pkts_per_sec / (8.0 * base_pps), "ratio", 0.0);
    }
  }
  return json.write() ? 0 : 1;
}
