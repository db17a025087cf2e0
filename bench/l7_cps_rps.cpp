// L4-L7 stateful scenarios (DESIGN.md sec. 15): the compiled tester
// driving the million-connection WorkloadServer.
//
//  (a) CPS: four 100G ports ramp SYN rates against the TCB store until
//      >= 1M connections are concurrently established (high-water mark),
//      reporting the sustained connections/s.
//  (b) RPS: a bounded connection pool cycles HTTP GETs forever; the
//      response query classifies status lines (2xx/4xx/5xx) and samples
//      request->response latency via state-based delay. Run clean and
//      through a chaos link profile (loss + reorder) for the p99 story.
//  (c) DNS: query/response over a client pool, NOERROR vs NXDOMAIN split
//      by masking the RCODE nibble.
//  (d) Determinism: the scaled-down CPS scenario executed on 1/2/4 shards
//      with the server across a cross-shard link must produce
//      byte-identical telemetry and server fingerprints. Exits nonzero on
//      divergence (or when (a) misses the million-connection bar).
//
// `--json <path>` writes the BENCH_l7.json sidecar (scripts/bench.sh --l7).
#include <string>

#include "apps/tasks.hpp"
#include "common.hpp"
#include "core/cluster.hpp"
#include "dut/stateful/workload_server.hpp"
#include "sim/snapshot.hpp"

namespace {

// ---------------------------------------------------------------------------
// (a) CPS high-water: ramp to 40M SYN/s aggregate, hold until every client
// finished its handshake. Connections never close (no FIN, no idle sweep),
// so the TCB high-water mark is the concurrent-connection count.
struct CpsRun {
  std::uint64_t clients = 0;
  std::uint64_t high_water = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t backlog_drops = 0;
  double conn_per_sec = 0.0;  ///< completed handshakes over sim time
  double sim_ms = 0.0;
};

CpsRun run_cps_high_water() {
  using namespace ht;

  TesterConfig cfg;
  cfg.asic.num_ports = 5;
  cfg.asic.port_rate_gbps = 100.0;
  // One recirculation channel per template: four SYN sweeps plus the
  // FIFO-triggered ACK template, which needs headroom over the aggregate
  // SYN+ACK arrival rate to drain the handshake FIFO.
  cfg.asic.num_recirc_channels = 5;
  HyperTester tester(cfg);

  dut::stateful::WorkloadConfig wcfg;
  wcfg.num_ports = 4;
  wcfg.tcb.capacity = 1 << 21;         // 2M slots for >= 1M concurrent
  wcfg.tcb.listen_backlog = 1 << 21;   // CPS test, not a flood test
  wcfg.tcb.idle_timeout_ns = 0;        // connections accumulate
  dut::stateful::WorkloadServer server(tester.events(), wcfg);
  for (std::size_t i = 0; i < 4; ++i) {
    server.attach(i, tester.asic().port(static_cast<std::uint16_t>(1 + i)));
  }
  server.start();

  // 4 ports x 270336 clients = 1,081,344 connections; per-port ramp
  // 2.5M -> 5M -> 10M SYN/s (40M/s aggregate at the top).
  constexpr std::uint32_t kClientsPerPort = 270'336;
  auto app = apps::http_cps(0x0C0C0C0C, 80, 0x0A000000, kClientsPerPort, {1, 2, 3, 4},
                            {{500'000, 400}, {500'000, 200}, {0, 100}});
  tester.load(app.task);
  tester.start();

  CpsRun out;
  out.clients = 4ULL * kClientsPerPort;
  // Advance in 2ms slices until the fleet finished its handshakes (the
  // ramp alone accounts for ~28ms; the cap is generous).
  sim::TimeNs elapsed = 0;
  for (int slice = 0; slice < 60; ++slice) {
    tester.run_for(sim::ms(2));
    elapsed += sim::ms(2);
    if (server.handshakes_completed() >= out.clients) break;
  }
  out.high_water = server.tcb().stats().high_water;
  out.handshakes = server.handshakes_completed();
  out.backlog_drops = server.tcb().stats().backlog_drops;
  out.sim_ms = static_cast<double>(elapsed) / 1e6;
  out.conn_per_sec = static_cast<double>(out.handshakes) / (static_cast<double>(elapsed) / 1e9);
  return out;
}

// ---------------------------------------------------------------------------
// (b) RPS over an established pool, clean or through a chaos profile.
struct RpsRun {
  std::uint64_t responses = 0;
  std::uint64_t r2xx = 0, r4xx = 0, r5xx = 0;
  std::uint64_t p50_ns = 0, p99_ns = 0;
  bool have_hist = false;
  double rps = 0.0;
};

RpsRun run_rps(bool chaos) {
  using namespace ht;

  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  cfg.asic.port_rate_gbps = 100.0;
  cfg.asic.num_recirc_channels = 3;  // t_syn, t_ack, t_req
  HyperTester tester(cfg);

  dut::stateful::WorkloadConfig wcfg;
  wcfg.num_ports = 1;
  // Each pooled connection serves a handful of requests inside the
  // window, so the per-connection failure schedule must fire early.
  wcfg.server_error_every = 5;  // every 5th request on a connection: 503
  wcfg.not_found_every = 3;     // every 3rd: 404
  dut::stateful::WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  // 16384-connection pool opened at 5M conn/s, then 10M req/s cycling it.
  auto app = apps::http_rps(0x0C0C0C0C, 80, 0x0B000000, 16'384, {1},
                            /*request_interval_ns=*/100, /*open_interval_ns=*/200);
  if (chaos) {
    ntapi::ChaosSpec spec;
    spec.config.seed = 0x5eed;
    spec.config.loss.rate = 0.005;
    spec.config.reorder.rate = 0.02;
    spec.config.reorder.min_delay_ns = 2'000;
    spec.config.reorder.max_delay_ns = 20'000;
    app.task.set_chaos(spec);
  }
  tester.load(app.task);
  tester.start();

  const sim::TimeNs window = sim::ms(12);
  tester.run_for(window);

  RpsRun out;
  out.responses = tester.query_matched(app.q_resp);
  out.rps = static_cast<double>(out.responses) / (static_cast<double>(window) / 1e9);
  const auto& m = tester.metrics();
  out.r2xx = m.counter_value("ht_htpr_response_class_total{query=\"q1\",class=\"2xx\"}").value_or(0);
  out.r4xx = m.counter_value("ht_htpr_response_class_total{query=\"q1\",class=\"4xx\"}").value_or(0);
  out.r5xx = m.counter_value("ht_htpr_response_class_total{query=\"q1\",class=\"5xx\"}").value_or(0);
  if (const auto* h = m.find_histogram("ht_htpr_request_latency_ns{query=\"q1\"}");
      h != nullptr && h->count() > 0) {
    out.have_hist = true;
    out.p50_ns = h->quantile(0.50);
    out.p99_ns = h->quantile(0.99);
  }
  return out;
}

// ---------------------------------------------------------------------------
// (c) DNS query/response split by RCODE.
struct DnsRun {
  std::uint64_t responses = 0;
  std::uint64_t noerror = 0, nxdomain = 0;
  std::uint64_t p99_ns = 0;
  double rps = 0.0;
};

DnsRun run_dns() {
  using namespace ht;

  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  cfg.asic.port_rate_gbps = 100.0;
  HyperTester tester(cfg);

  dut::stateful::WorkloadConfig wcfg;
  wcfg.num_ports = 1;
  wcfg.dns_nxdomain_every = 8;  // qname_hash % 8 == 0 answers NXDOMAIN
  dut::stateful::WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  auto app = apps::dns_rps(0x0C0C0C0C, 0x0B100000, 4'096, {1}, /*interval_ns=*/500);
  tester.load(app.task);
  tester.start();

  const sim::TimeNs window = sim::ms(5);
  tester.run_for(window);

  DnsRun out;
  out.responses = tester.query_matched(app.q_resp);
  out.rps = static_cast<double>(out.responses) / (static_cast<double>(window) / 1e9);
  const auto& m = tester.metrics();
  out.noerror =
      m.counter_value("ht_htpr_response_class_total{query=\"q0\",class=\"noerror\"}").value_or(0);
  out.nxdomain =
      m.counter_value("ht_htpr_response_class_total{query=\"q0\",class=\"nxdomain\"}").value_or(0);
  if (const auto* h = m.find_histogram("ht_htpr_request_latency_ns{query=\"q0\"}");
      h != nullptr && h->count() > 0) {
    out.p99_ns = h->quantile(0.99);
  }
  return out;
}

// ---------------------------------------------------------------------------
// (d) Shard-count determinism on a scaled-down CPS run. The server sits on
// its own shard once shards > 1, so every handshake crosses a link outbox.
struct DetRun {
  std::uint64_t digest = 0;
  std::uint64_t handshakes = 0;
};

DetRun run_cps_sharded(std::size_t nshards) {
  using namespace ht;
  TesterCluster cluster({.shards = nshards, .seed = 42});

  TesterConfig cfg;
  cfg.asic.num_ports = 5;
  cfg.asic.port_rate_gbps = 100.0;
  cfg.asic.num_recirc_channels = 5;
  cfg.asic.seed = 7;
  HyperTester& tester = cluster.add_tester(cfg, 0);

  const std::size_t server_shard = nshards > 1 ? 1 : 0;
  dut::stateful::WorkloadConfig wcfg;
  wcfg.num_ports = 4;
  dut::stateful::WorkloadServer server(cluster.shards().shard(server_shard).ev(), wcfg);
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.shards().connect(tester.asic().port(static_cast<std::uint16_t>(1 + i)), 0,
                             server.port(i), server_shard, /*propagation_ns=*/500);
  }
  server.start();

  auto app = apps::http_cps(0x0C0C0C0C, 80, 0x0A000000, 4'096, {1, 2, 3, 4}, {{0, 200}});
  tester.load(app.task);
  tester.start();
  cluster.run_for(sim::ms(3));

  DetRun out;
  out.handshakes = server.handshakes_completed();
  sim::SnapshotWriter w;
  w.begin_section("l7_cps_sharded");
  w.str(cluster.telemetry_report().prometheus);
  w.u64(server.fingerprint());
  w.u64(cluster.tester(0).query_matched(app.q_synack));
  w.u64(cluster.tester(0).query_matched(app.q_handshakes));
  w.u64(server.handshakes_completed());
  w.u64(server.syns_received());
  out.digest = w.digest();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ht;

  bench::BenchJson json("l7_cps_rps", bench::take_path(argc, argv, "--json"));

  bench::headline("L4-L7 (a): HTTP CPS against the stateful TCB store",
                  "1M+ concurrent connections on four 100G ports");
  const CpsRun cps = run_cps_high_water();
  bench::row("%-28s %14llu", "clients offered", static_cast<unsigned long long>(cps.clients));
  bench::row("%-28s %14llu", "handshakes completed",
             static_cast<unsigned long long>(cps.handshakes));
  bench::row("%-28s %14llu", "TCB high water", static_cast<unsigned long long>(cps.high_water));
  bench::row("%-28s %14llu", "backlog drops",
             static_cast<unsigned long long>(cps.backlog_drops));
  bench::row("%-28s %13.1fM", "connections/s (sim)", cps.conn_per_sec / 1e6);
  bench::row("%-28s %12.1fms", "sim time to drain", cps.sim_ms);
  json.add("l7_cps_high_water_connections", static_cast<double>(cps.high_water), "connections");
  json.add("l7_cps_connections_per_sec", cps.conn_per_sec, "conn/s");

  bench::headline("L4-L7 (b): HTTP RPS over a 16K-connection pool",
                  "status-line classes + state-based request latency, clean vs chaos");
  const RpsRun clean = run_rps(/*chaos=*/false);
  const RpsRun chaos = run_rps(/*chaos=*/true);
  bench::row("%-28s %14s %14s", "metric", "clean", "chaos");
  bench::row("%-28s %13.2fM %13.2fM", "responses/s", clean.rps / 1e6, chaos.rps / 1e6);
  bench::row("%-28s %14llu %14llu", "2xx", static_cast<unsigned long long>(clean.r2xx),
             static_cast<unsigned long long>(chaos.r2xx));
  bench::row("%-28s %14llu %14llu", "4xx", static_cast<unsigned long long>(clean.r4xx),
             static_cast<unsigned long long>(chaos.r4xx));
  bench::row("%-28s %14llu %14llu", "5xx", static_cast<unsigned long long>(clean.r5xx),
             static_cast<unsigned long long>(chaos.r5xx));
  bench::row("%-28s %14llu %14llu", "p50 latency (ns)",
             static_cast<unsigned long long>(clean.p50_ns),
             static_cast<unsigned long long>(chaos.p50_ns));
  bench::row("%-28s %14llu %14llu", "p99 latency (ns)",
             static_cast<unsigned long long>(clean.p99_ns),
             static_cast<unsigned long long>(chaos.p99_ns));
  json.add("l7_rps_responses_per_sec", clean.rps, "resp/s");
  json.add("l7_rps_p99_latency_ns", static_cast<double>(clean.p99_ns), "ns");
  json.add("l7_rps_p99_latency_chaos_ns", static_cast<double>(chaos.p99_ns), "ns");

  bench::headline("L4-L7 (c): DNS query/response",
                  "RCODE nibble split: NOERROR vs NXDOMAIN");
  const DnsRun dns = run_dns();
  bench::row("%-28s %13.2fM", "responses/s", dns.rps / 1e6);
  bench::row("%-28s %14llu", "NOERROR", static_cast<unsigned long long>(dns.noerror));
  bench::row("%-28s %14llu", "NXDOMAIN", static_cast<unsigned long long>(dns.nxdomain));
  bench::row("%-28s %14llu", "p99 latency (ns)", static_cast<unsigned long long>(dns.p99_ns));
  json.add("l7_dns_responses_per_sec", dns.rps, "resp/s");

  bench::headline("L4-L7 (d): CPS determinism across shard counts",
                  "byte-identical telemetry + server fingerprint on 1/2/4 shards");
  bool det_ok = true;
  std::uint64_t det_digest = 0;
  bench::row("%8s %18s %12s", "shards", "digest", "handshakes");
  for (const std::size_t nshards : {1u, 2u, 4u}) {
    const DetRun d = run_cps_sharded(nshards);
    if (nshards == 1) det_digest = d.digest;
    det_ok = det_ok && d.digest == det_digest && d.handshakes > 0;
    bench::row("%8zu %18llx %12llu", nshards, static_cast<unsigned long long>(d.digest),
               static_cast<unsigned long long>(d.handshakes));
  }
  bench::row("%-28s %14s", "determinism", det_ok ? "ok" : "DIVERGED");
  json.add("l7_cps_determinism", det_ok ? 1.0 : 0.0, "bool");

  // Shape checks: the paper-scale claims this bench exists to defend.
  bool ok = json.write();
  if (cps.high_water < 1'000'000) {
    std::fprintf(stderr, "l7: CPS high water %llu < 1M\n",
                 static_cast<unsigned long long>(cps.high_water));
    ok = false;
  }
  if (!det_ok) {
    std::fprintf(stderr, "l7: CPS diverged across shard counts\n");
    ok = false;
  }
  if (clean.responses == 0 || clean.r2xx == 0 || clean.r5xx == 0 ||
      (clean.have_hist && clean.p99_ns == 0)) {
    std::fprintf(stderr, "l7: RPS classification/latency off-shape\n");
    ok = false;
  }
  if (dns.responses == 0 || dns.noerror == 0 || dns.nxdomain == 0) {
    std::fprintf(stderr, "l7: DNS classification off-shape\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
