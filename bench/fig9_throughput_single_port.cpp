// Figure 9: single-port throughput vs. packet size.
//
//  (a) HyperTester on a 100G port — line rate at every size.
//  (b) HyperTester on a 40G port vs MoonGen with one core — MoonGen is CPU
//      bound for small packets and only reaches line rate once packets get
//      large.
//
// With `--loss <rate>` the 100G sweep instead runs through a chaos link
// (Bernoulli loss, fixed seed) and reports delivered goodput plus the
// registry's drop counters — the degraded-conditions variant written by
// scripts/bench.sh as BENCH_fig9_lossy.json.
//
// With `--crash` the sweep runs under the Supervisor (DESIGN.md §14): the
// tester process is killed at 50% of the measurement, the supervisor
// restores from the newest attested snapshot and finishes the run. The
// sidecar (BENCH_fig9_crash.json) reports delivered packets, result
// completeness vs an uninterrupted supervised run (1.0 = byte-identical
// recovery) and recovery counts.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/tasks.hpp"
#include "baseline/moongen.hpp"
#include "common.hpp"
#include "core/supervisor.hpp"

namespace {

struct RunResult {
  double tx_gbps = 0.0;        ///< offered rate on the port
  double delivered_gbps = 0.0; ///< goodput after chaos-link loss
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::vector<std::pair<std::string, std::uint64_t>> drops;  ///< registry drop audit
};

/// Run a line-rate generation task for 2 ms of sim time; with a nonzero
/// loss rate the task carries a chaos profile so every front-panel link
/// drops packets at `loss_rate`.
RunResult hypertester_run(double port_rate, std::size_t pkt_len, double loss_rate) {
  ht::bench::Testbed tb(2, port_rate);
  auto app = ht::apps::throughput_test(0x02020202, 0x01010101, {1}, pkt_len, 0);
  if (loss_rate > 0.0) {
    ht::ntapi::ChaosSpec chaos;
    chaos.config.seed = 0x5eed;
    chaos.config.loss.rate = loss_rate;
    app.task.set_chaos(chaos);
  }
  tb.tester->load(app.task);
  tb.tester->start();
  tb.tester->run_for(ht::sim::ms(2));
  RunResult r;
  r.tx_gbps = tb.tester->asic().port(1).tx_line_rate_gbps();
  // Offered/delivered come from the metrics registry's chaos aggregates —
  // the same single source of truth as the drop report — instead of being
  // re-derived by summing per-injector stats here.
  const auto& metrics = tb.tester->metrics();
  r.offered = metrics.counter_value("ht_chaos_offered_total").value_or(0);
  r.delivered = metrics.counter_value("ht_chaos_delivered_total").value_or(0);
  r.delivered_gbps = r.offered > 0
                         ? r.tx_gbps * static_cast<double>(r.delivered) /
                               static_cast<double>(r.offered)
                         : r.tx_gbps;
  r.drops = metrics.drop_counters();
  return r;
}

// --- `--crash` variant: the sweep under supervised run lifecycle ------------

constexpr ht::sim::TimeNs kCrashRunNs = ht::sim::ms(2);
constexpr ht::sim::TimeNs kCrashAtNs = ht::sim::ms(1);  // t = 50%

/// Deterministic supervised testbed: one tester on shard 0, count-only
/// capture sinks on shard 1 (the spare placement variant swaps them, as in
/// examples/failover_run). Same workload as the plain sweep.
ht::Testbed build_supervised(std::size_t pkt_len, std::size_t variant) {
  using namespace ht;
  Testbed tb;
  tb.cluster = std::make_unique<TesterCluster>(ClusterConfig{.shards = 2, .seed = 0xf19});
  const std::size_t tester_shard = variant == 0 ? 0 : 1;
  const std::size_t sink_shard = 1 - tester_shard;
  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  cfg.asic.port_rate_gbps = 100.0;
  cfg.asic.seed = 1;
  HyperTester& tester = tb.cluster->add_tester(cfg, tester_shard);
  auto sinks = std::make_shared<std::vector<std::unique_ptr<dut::Capture>>>();
  for (std::size_t p = 0; p < 2; ++p) {
    sinks->push_back(std::make_unique<dut::Capture>(
        tb.cluster->shards().shard(sink_shard).ev(), static_cast<std::uint16_t>(1000 + p),
        cfg.asic.port_rate_gbps));
    sinks->back()->set_count_only(true);
    tb.cluster->shards().connect(tester.asic().port(static_cast<std::uint16_t>(p)), tester_shard,
                                 sinks->back()->port(), sink_shard, /*propagation_ns=*/500);
  }
  auto app = apps::throughput_test(0x02020202, 0x01010101, {1}, pkt_len, 0);
  tester.load(app.task);
  tester.start();
  tb.keepalive = sinks;
  return tb;
}

struct CrashRunResult {
  std::uint64_t delivered = 0;   ///< packets captured by the sinks
  std::uint64_t recoveries = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t digest = 0;      ///< final cluster state fingerprint
};

CrashRunResult supervised_run(std::size_t pkt_len, bool with_crash) {
  ht::SupervisorConfig cfg;
  cfg.heartbeat_ns = ht::sim::us(50);
  cfg.miss_threshold = 3;
  cfg.snapshot_interval_ns = ht::sim::us(250);
  cfg.policy = ht::SupervisorConfig::Policy::kRestore;
  if (with_crash) {
    cfg.plan.events.push_back({ht::sim::CrashKind::kTesterCrash, kCrashAtNs, 0, /*tester=*/0});
  }
  ht::Supervisor sup(cfg, [pkt_len](std::size_t variant) {
    return build_supervised(pkt_len, variant);
  });
  const ht::RecoveryReport& report = sup.run(kCrashRunNs);
  CrashRunResult r;
  r.recoveries = report.recoveries;
  r.snapshots = report.snapshots;
  auto sinks = std::static_pointer_cast<std::vector<std::unique_ptr<ht::dut::Capture>>>(
      sup.testbed().keepalive);
  for (const auto& s : *sinks) r.delivered += s->counted();
  r.digest = sup.testbed().cluster->state_digest();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ht;
  const std::string json_path = bench::take_path(argc, argv, "--json");
  const double loss = bench::take_rate(argc, argv, "--loss", 0.0);
  const bool crash = bench::take_flag(argc, argv, "--crash");
  const std::size_t sizes[] = {64, 128, 256, 512, 1024, 1500};

  if (crash) {
    bench::BenchJson json("fig9_crash", json_path);
    bench::headline("Figure 9 (crash variant): supervised run, tester killed at 50%",
                    "restore from attested snapshot; completeness 1.0 = recovered run "
                    "byte-identical to uninterrupted");
    bench::row("%8s %12s %14s %12s %10s", "size(B)", "delivered", "completeness",
               "recoveries", "snaps");
    bool all_identical = true;
    for (const auto s : {std::size_t{64}, std::size_t{512}, std::size_t{1500}}) {
      const CrashRunResult clean = supervised_run(s, /*with_crash=*/false);
      const CrashRunResult recovered = supervised_run(s, /*with_crash=*/true);
      const double completeness =
          clean.delivered > 0 ? static_cast<double>(recovered.delivered) /
                                    static_cast<double>(clean.delivered)
                              : 0.0;
      all_identical = all_identical && recovered.digest == clean.digest;
      bench::row("%8zu %12llu %14.4f %12llu %10llu", s,
                 static_cast<unsigned long long>(recovered.delivered), completeness,
                 static_cast<unsigned long long>(recovered.recoveries),
                 static_cast<unsigned long long>(recovered.snapshots));
      json.add("ht_crash_delivered_" + std::to_string(s) + "B",
               static_cast<double>(recovered.delivered), "packets");
      json.add("ht_crash_completeness_" + std::to_string(s) + "B", completeness, "ratio");
      json.add("ht_crash_recoveries_" + std::to_string(s) + "B",
               static_cast<double>(recovered.recoveries), "count");
    }
    std::printf("\nfinal-state digests %s across all sizes\n",
                all_identical ? "byte-identical" : "DIVERGED");
    json.add("ht_crash_state_identical", all_identical ? 1.0 : 0.0, "bool");
    return json.write() && all_identical ? 0 : 1;
  }

  if (loss > 0.0) {
    bench::BenchJson json("fig9_lossy", json_path);
    bench::headline("Figure 9 (chaos variant): single 100G port under Bernoulli loss",
                    "delivered goodput degrades with the loss rate; every drop is counted");
    bench::row("%8s %12s %16s %12s %12s", "size(B)", "TX (Gbps)", "goodput (Gbps)", "offered",
               "delivered");
    RunResult last;
    for (const auto s : sizes) {
      const RunResult r = hypertester_run(100.0, s, loss);
      bench::row("%8zu %12.1f %16.1f %12llu %12llu", s, r.tx_gbps, r.delivered_gbps,
                 static_cast<unsigned long long>(r.offered),
                 static_cast<unsigned long long>(r.delivered));
      json.add("ht_100g_goodput_" + std::to_string(s) + "B", r.delivered_gbps, "gbps");
      json.add("ht_100g_lost_" + std::to_string(s) + "B",
               static_cast<double>(r.offered - r.delivered), "packets");
      last = r;
    }
    std::printf("\ndrop report (1500B run):\n");
    std::uint64_t dropped = 0;
    for (const auto& [source, count] : last.drops) {
      if (count == 0) continue;
      std::printf("  %s: %llu\n", source.c_str(), static_cast<unsigned long long>(count));
      dropped += count;
    }
    std::printf("%s\n", dropped > 0 ? "" : "no drops");
    json.add("total_drops_1500B", static_cast<double>(dropped), "packets");
    return json.write() ? 0 : 1;
  }

  bench::BenchJson json("fig9", json_path);
  const baseline::MoonGenModel mg;

  bench::headline("Figure 9(a): single 100G port, HyperTester",
                  "line rate for arbitrary packet sizes");
  bench::row("%8s %14s %14s %10s", "size(B)", "HT (Gbps)", "line (Gbps)", "Mpps");
  for (const auto s : sizes) {
    const double gbps = hypertester_run(100.0, s, 0.0).tx_gbps;
    const double mpps = gbps * 1e9 / (static_cast<double>(s + 24) * 8.0) / 1e6;
    bench::row("%8zu %14.1f %14.1f %10.2f", s, gbps, 100.0, mpps);
    json.add("ht_100g_gbps_" + std::to_string(s) + "B", gbps, "gbps");
  }

  bench::headline("Figure 9(b): single 40G port, HyperTester vs MoonGen (1 core)",
                  "HT at line rate; MG below line rate for small packets");
  bench::row("%8s %12s %16s %12s", "size(B)", "HT (Gbps)", "MG 1-core (Gbps)", "line");
  for (const auto s : sizes) {
    const double ht_gbps = hypertester_run(40.0, s, 0.0).tx_gbps;
    const double mg_gbps = mg.throughput_gbps(s, 1, 1, 40.0);
    bench::row("%8zu %12.1f %16.1f %12.1f", s, ht_gbps, mg_gbps, 40.0);
    json.add("ht_40g_gbps_" + std::to_string(s) + "B", ht_gbps, "gbps");
    json.add("mg_40g_gbps_" + std::to_string(s) + "B", mg_gbps, "gbps");
  }
  return json.write() ? 0 : 1;
}
