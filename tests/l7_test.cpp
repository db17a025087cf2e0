// L4-L7 stateful workload engine (DESIGN.md sec. 15): TCB store probe
// mechanics, SYN cookies, idle eviction, the incremental HTTP parser, the
// stateful server end to end behind the compiled tester (the §5.4 web
// test included), auto-placement, and shard-count determinism of the CPS
// scenario.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "core/hypertester.hpp"
#include "dut/stateful/http_model.hpp"
#include "dut/stateful/tcb_store.hpp"
#include "dut/stateful/workload_server.hpp"
#include "telemetry/export.hpp"

namespace ht::dut::stateful {
namespace {

TcbKey key_of(std::uint32_t ip, std::uint16_t port = 2048, std::uint16_t local = 80) {
  return TcbKey{.peer_ip = ip, .peer_port = port, .local_port = local};
}

// --- TcbStore ------------------------------------------------------------

TEST(TcbStore, InsertLookupCollisionsAndTombstoneReuse) {
  // One region of 16 slots: every key probes the same slab, so collisions
  // and tombstone pass-through are exercised deterministically.
  TcbStore store({.capacity = 16, .hash_shards = 1});
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_NE(store.insert(key_of(i), TcbState::kEstablished, 0), nullptr) << i;
  }
  EXPECT_EQ(store.size(), 16u);
  EXPECT_EQ(store.stats().high_water, 16u);

  // Table full: the 17th insert is counted as an overflow drop.
  EXPECT_EQ(store.insert(key_of(99), TcbState::kEstablished, 0), nullptr);
  EXPECT_EQ(store.stats().overflow_drops, 1u);

  // Erase in the middle of probe chains; lookups walk through tombstones.
  for (std::uint32_t i = 0; i < 16; i += 2) store.erase(*store.lookup(key_of(i)));
  EXPECT_EQ(store.size(), 8u);
  for (std::uint32_t i = 1; i < 16; i += 2) {
    ASSERT_NE(store.lookup(key_of(i)), nullptr) << i;
    EXPECT_EQ(store.lookup(key_of(i))->key.peer_ip, i);
  }
  for (std::uint32_t i = 0; i < 16; i += 2) EXPECT_EQ(store.lookup(key_of(i)), nullptr);

  // Tombstones are reused: the freed half of the region accepts new keys.
  for (std::uint32_t i = 100; i < 108; ++i) {
    ASSERT_NE(store.insert(key_of(i), TcbState::kEstablished, 0), nullptr) << i;
  }
  EXPECT_EQ(store.size(), 16u);
}

TEST(TcbStore, ListenBacklogCapsEmbryonicOnly) {
  TcbStore store({.capacity = 64, .hash_shards = 1, .listen_backlog = 4});
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_NE(store.insert(key_of(i), TcbState::kSynRcvd, 0), nullptr);
  }
  EXPECT_EQ(store.embryonic(), 4u);
  // Fifth embryonic entry hits the accept-queue cap...
  EXPECT_EQ(store.insert(key_of(4), TcbState::kSynRcvd, 0), nullptr);
  EXPECT_EQ(store.stats().backlog_drops, 1u);
  // ...but established inserts (cookie mode) bypass the backlog.
  EXPECT_NE(store.insert(key_of(5), TcbState::kEstablished, 0), nullptr);
  // Promoting an embryonic entry frees a backlog slot.
  store.set_state(*store.lookup(key_of(0)), TcbState::kEstablished);
  EXPECT_EQ(store.embryonic(), 3u);
  EXPECT_NE(store.insert(key_of(4), TcbState::kSynRcvd, 0), nullptr);
}

TEST(TcbStore, SynCookieRoundTrip) {
  TcbStore store({.capacity = 64, .hash_shards = 1, .syn_cookies = true});
  const TcbKey k = key_of(0x0A000001);
  constexpr std::uint64_t kBucketNs = 1ULL << 26;  // cookie time bucket

  const std::uint64_t t0 = 3 * kBucketNs + 1000;
  const std::uint32_t isn = store.cookie(k, /*peer_seq=*/7777, t0);
  EXPECT_EQ(store.stats().cookies_sent, 1u);

  // Echoed within the RTT: accepted; a corrupted cookie is rejected.
  EXPECT_TRUE(store.cookie_valid(k, 7777, isn, t0 + 10'000));
  EXPECT_EQ(store.stats().cookies_accepted, 1u);
  EXPECT_FALSE(store.cookie_valid(k, 7777, isn + 1, t0 + 10'000));
  EXPECT_FALSE(store.cookie_valid(key_of(0x0A000002), 7777, isn, t0 + 10'000));
  EXPECT_EQ(store.stats().cookies_rejected, 2u);

  // A cookie minted at the end of a bucket is still valid just across the
  // boundary (previous-bucket check), but not two buckets later.
  const std::uint64_t edge = 4 * kBucketNs - 500;
  const std::uint32_t edge_isn = store.cookie(k, 1, edge);
  EXPECT_TRUE(store.cookie_valid(k, 1, edge_isn, edge + 1'000));
  EXPECT_FALSE(store.cookie_valid(k, 1, edge_isn, edge + 2 * kBucketNs));
}

TEST(TcbStore, IdleSweepEvictsOnlyStaleEntries) {
  TcbStore store({.capacity = 64,
                  .hash_shards = 1,
                  .idle_timeout_ns = 1'000'000,  // 1000 us
                  .sweep_batch = 64});
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_NE(store.insert(key_of(i), TcbState::kEstablished, /*now_us=*/0), nullptr);
  }
  for (std::uint32_t i = 0; i < 4; ++i) store.touch(*store.lookup(key_of(i)), 500);

  // At t=1200us the untouched half is 1200us idle, the touched half 700us.
  EXPECT_EQ(store.sweep(1200), 4u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.stats().evicted_idle, 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_NE(store.lookup(key_of(i)), nullptr);
  for (std::uint32_t i = 4; i < 8; ++i) EXPECT_EQ(store.lookup(key_of(i)), nullptr);

  // The survivors go stale too; the next full pass evicts them.
  EXPECT_EQ(store.sweep(2000), 4u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(TcbStore, FingerprintTracksContent) {
  const TcbConfig cfg{.capacity = 64, .hash_shards = 4};
  TcbStore a(cfg), b(cfg);
  for (std::uint32_t i = 0; i < 10; ++i) {
    a.insert(key_of(i), TcbState::kEstablished, 5);
    b.insert(key_of(i), TcbState::kEstablished, 5);
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.insert(key_of(100), TcbState::kSynRcvd, 6);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// --- HTTP parser ---------------------------------------------------------

std::vector<HttpRequest> feed_in_chunks(const std::string& wire, std::size_t chunk) {
  HttpParseState st{};
  std::vector<HttpRequest> out;
  for (std::size_t i = 0; i < wire.size(); i += chunk) {
    const std::size_t n = std::min(chunk, wire.size() - i);
    HttpParser::feed(st,
                     {reinterpret_cast<const std::uint8_t*>(wire.data()) + i, n},
                     [&](const HttpRequest& r) { out.push_back(r); });
  }
  return out;
}

TEST(HttpParser, PipelinedKeepAliveAcrossTinySegments) {
  const std::string wire =
      "GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n"
      "POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
      "GET /bye HTTP/1.0\r\nConnection: close\r\n\r\n";
  // Segment boundaries must not matter: 1-byte feeds parse identically.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, wire.size()}) {
    SCOPED_TRACE(chunk);
    const auto reqs = feed_in_chunks(wire, chunk);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].method, HttpMethod::kGet);
    EXPECT_TRUE(reqs[0].keep_alive);
    EXPECT_FALSE(reqs[0].bad);
    EXPECT_EQ(reqs[0].target_hash, http_hash("/index.html"));
    EXPECT_EQ(reqs[1].method, HttpMethod::kPost);
    EXPECT_EQ(reqs[1].content_length, 5u);
    EXPECT_EQ(reqs[2].method, HttpMethod::kGet);
    EXPECT_FALSE(reqs[2].keep_alive);  // HTTP/1.0 + Connection: close
  }
}

TEST(HttpParser, MalformedHeadResyncsAtBlankLine) {
  const std::string wire =
      "GET /a XTTP/9.9\r\njunk\r\n\r\n"        // bad version literal
      "GET /ok HTTP/1.1\r\n\r\n";
  const auto reqs = feed_in_chunks(wire, 4);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_TRUE(reqs[0].bad);
  EXPECT_FALSE(reqs[1].bad);
  EXPECT_EQ(reqs[1].target_hash, http_hash("/ok"));
}

// --- auto-placement ------------------------------------------------------

TEST(AutoPlace, EqualRatesDegradeToFig10RoundRobin) {
  TesterCluster cluster({.shards = 4, .seed = 42});
  std::vector<apps::ThroughputTest> fleet;
  std::vector<const ntapi::Task*> tasks;
  for (int t = 0; t < 8; ++t) {
    fleet.push_back(apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0));
  }
  for (const auto& w : fleet) tasks.push_back(&w.task);
  // The fig10 bench placed tester t on shard t % 4 by hand; the pinned
  // determinism digests rely on auto_place reproducing exactly that.
  EXPECT_EQ(cluster.auto_place(tasks),
            (std::vector<std::size_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(AutoPlace, HeavyTaskGetsItsOwnShard) {
  TesterCluster cluster({.shards = 2, .seed = 42});
  auto heavy = apps::throughput_test(1, 2, {1}, 64, 0);       // line rate
  auto s1 = apps::throughput_test(1, 2, {1}, 64, 1'000);      // 1 Mpps
  auto s2 = apps::throughput_test(1, 2, {1}, 64, 1'000);
  auto s3 = apps::throughput_test(1, 2, {1}, 64, 1'000);
  EXPECT_EQ(cluster.auto_place({&heavy.task, &s1.task, &s2.task, &s3.task}),
            (std::vector<std::size_t>{0, 1, 1, 1}));
}

TEST(AutoPlace, ExpectedPacketRateModel) {
  auto slow = apps::throughput_test(1, 2, {1}, 64, 1'000);
  EXPECT_NEAR(expected_packet_rate(slow.task), 1e6, 1.0);
  // Line rate on a 100G port: 64B + 24B of preamble/IFG/FCS per frame.
  auto fast = apps::throughput_test(1, 2, {1}, 64, 0);
  EXPECT_NEAR(expected_packet_rate(fast.task), 100e9 / (88.0 * 8.0), 1e3);
  // Two injection ports double the estimate.
  auto two = apps::throughput_test(1, 2, {1, 2}, 64, 1'000);
  EXPECT_NEAR(expected_packet_rate(two.task), 2e6, 1.0);
  // A ramp is rated at its fastest step.
  auto cps = apps::http_cps(1, 80, 0x0A000000, 64, {1}, {{1'000, 400}, {0, 100}});
  EXPECT_NEAR(expected_packet_rate(cps.task), 1e9 / 100.0, 1.0);
}

// --- WorkloadServer end to end -------------------------------------------

TEST(WorkloadServer, SynFloodBacklogVsCookies) {
  for (const bool cookies : {false, true}) {
    SCOPED_TRACE(cookies ? "cookies" : "backlog");
    TesterConfig cfg;
    cfg.asic.num_ports = 2;
    HyperTester tester(cfg);
    WorkloadConfig wcfg;
    wcfg.num_ports = 1;
    wcfg.tcb.capacity = 1 << 10;
    wcfg.tcb.hash_shards = 16;
    wcfg.tcb.listen_backlog = 64;
    wcfg.tcb.syn_cookies = cookies;
    WorkloadServer server(tester.events(), wcfg);
    server.attach(0, tester.asic().port(1));
    server.start();

    auto app = apps::syn_flood(0x0D0D0D0D, 80, {1});
    tester.load(app.task);
    tester.start();
    tester.run_for(sim::us(100));

    ASSERT_GT(server.syns_received(), 1000u);
    if (cookies) {
      // Stateless SYN-ACKs: no embryonic state, every SYN got a cookie.
      EXPECT_EQ(server.tcb().embryonic(), 0u);
      EXPECT_EQ(server.tcb().stats().cookies_sent, server.syns_received());
      EXPECT_EQ(server.tcb().stats().backlog_drops, 0u);
    } else {
      // Classic backlog: embryonic count pins at the cap, the rest drop.
      EXPECT_EQ(server.tcb().embryonic(), 64u);
      EXPECT_GT(server.tcb().stats().backlog_drops, 0u);
    }
  }
}

TEST(WorkloadServer, CpsHandshakesAndIdleEviction) {
  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  cfg.asic.num_recirc_channels = 2;  // SYN sweep + ACK completion
  HyperTester tester(cfg);
  WorkloadConfig wcfg;
  wcfg.num_ports = 1;
  wcfg.tcb.capacity = 1 << 10;
  wcfg.tcb.hash_shards = 16;
  wcfg.tcb.idle_timeout_ns = 300'000;  // 300 us
  wcfg.tcb.sweep_period_ns = 50'000;
  WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  auto app = apps::http_cps(0x0C0C0C0C, 80, 0x0A000000, 256, {1}, {{0, 400}});
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::us(200));

  // All 256 clients completed the three-way handshake...
  EXPECT_EQ(server.handshakes_completed(), 256u);
  EXPECT_EQ(server.tcb().stats().high_water, 256u);
  EXPECT_EQ(tester.query_matched(app.q_handshakes), 256u);

  // ...and with no further traffic the idle sweep reclaims every TCB.
  tester.run_for(sim::ms(1));
  EXPECT_EQ(server.tcb().stats().evicted_idle, 256u);
  EXPECT_EQ(server.tcb().size(), 0u);
  // Eviction is not a FIN close; the peer simply went away.
  EXPECT_EQ(server.connections_closed(), 0u);
}

TEST(WorkloadServer, RpsClassifiesAndSamplesLatency) {
  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  cfg.asic.num_recirc_channels = 3;  // t_syn, t_ack, t_req
  HyperTester tester(cfg);
  WorkloadConfig wcfg;
  wcfg.num_ports = 1;
  wcfg.server_error_every = 3;
  wcfg.not_found_every = 5;
  WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  auto app = apps::http_rps(0x0C0C0C0C, 80, 0x0B000000, 256, {1},
                            /*request_interval_ns=*/1'000, /*open_interval_ns=*/500);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(2));

  const std::uint64_t responses = tester.query_matched(app.q_resp);
  ASSERT_GT(responses, 500u);
  EXPECT_GT(server.requests_served(), 0u);
  EXPECT_GT(server.responses_2xx(), 0u);
  EXPECT_GT(server.responses_4xx(), 0u);
  EXPECT_GT(server.responses_5xx(), 0u);

  const auto& m = tester.metrics();
  const auto c2 =
      m.counter_value("ht_htpr_response_class_total{query=\"q1\",class=\"2xx\"}");
  const auto c5 =
      m.counter_value("ht_htpr_response_class_total{query=\"q1\",class=\"5xx\"}");
  ASSERT_TRUE(c2.has_value());
  // Responses still on the wire when the window closes are sent but not
  // yet classified, so the tester may trail the server by a few.
  EXPECT_LE(*c2, server.responses_2xx());
  EXPECT_GE(*c2 + 8, server.responses_2xx());
  EXPECT_LE(c5.value_or(0), server.responses_5xx());
  EXPECT_GE(c5.value_or(0) + 8, server.responses_5xx());
  const auto* h = m.find_histogram("ht_htpr_request_latency_ns{query=\"q1\"}");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
  // Latency includes the server's 2us service delay plus wire time.
  EXPECT_GE(h->quantile(0.5), 2'000u);
  EXPECT_LE(h->quantile(0.5), h->quantile(0.99));
}

TEST(WorkloadServer, DnsRcodeSplit) {
  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  HyperTester tester(cfg);
  WorkloadConfig wcfg;
  wcfg.num_ports = 1;
  wcfg.dns_nxdomain_every = 2;
  WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  auto app = apps::dns_rps(0x0C0C0C0C, 0x0B100000, 128, {1}, /*interval_ns=*/1'000);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(1));

  ASSERT_GT(server.dns_queries(), 100u);
  ASSERT_GT(tester.query_matched(app.q_resp), 100u);
  const auto& m = tester.metrics();
  const auto ok =
      m.counter_value("ht_htpr_response_class_total{query=\"q0\",class=\"noerror\"}");
  const auto nx =
      m.counter_value("ht_htpr_response_class_total{query=\"q0\",class=\"nxdomain\"}");
  EXPECT_GT(ok.value_or(0), 0u);
  EXPECT_GT(nx.value_or(0), 0u);
  EXPECT_LE(nx.value_or(0), server.dns_nxdomain());
  EXPECT_GE(nx.value_or(0) + 8, server.dns_nxdomain());
}

// --- the §5.4 web test against the same server ----------------------------

struct WebRun {
  std::uint64_t server_fingerprint = 0;
  std::vector<std::uint64_t> server_counters;
  std::vector<std::uint64_t> trigger_fires;
};

WebRun run_web_test(bool fastpath) {
  TesterConfig cfg;
  cfg.fastpath = fastpath;
  HyperTester tester(cfg);
  WorkloadConfig wcfg;
  wcfg.response_bytes = 6000;  // a 5-segment page
  wcfg.tcb.capacity = 1 << 12;
  WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  auto app = apps::web_test(0x05050505, 80, 0x01010001, 256, {1}, 10'000, 5);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(5));

  if (fastpath) {
    // The comparison is fused against interpreted only if the fast path
    // really ran.
    const std::string prom = tester.telemetry_report().prometheus;
    EXPECT_NE(prom.find("ht_fastpath_fused_tasks_total 1"), std::string::npos);
    EXPECT_EQ(prom.find("ht_fastpath_fused_pkts_total 0\n"), std::string::npos);
  }
  WebRun r;
  r.server_fingerprint = server.fingerprint();
  r.server_counters = {server.syns_received(),   server.handshakes_completed(),
                       server.requests_served(), server.responses_2xx(),
                       server.connections_closed(), server.tcb().size()};
  for (const auto t : {app.t_syn, app.t_ack, app.t_request, app.t_data_ack, app.t_fin,
                       app.t_fin_ack}) {
    r.trigger_fires.push_back(tester.trigger_fires(t));
  }
  return r;
}

TEST(WorkloadServer, WebTestFusedMatchesInterpreted) {
  const WebRun fused = run_web_test(/*fastpath=*/true);
  const WebRun interp = run_web_test(/*fastpath=*/false);
  ASSERT_GT(fused.trigger_fires[4], 100u) << "no page completed";
  EXPECT_EQ(fused.server_fingerprint, interp.server_fingerprint);
  EXPECT_EQ(fused.server_counters, interp.server_counters);
  EXPECT_EQ(fused.trigger_fires, interp.trigger_fires);
}

// --- shard-count determinism ---------------------------------------------

struct CpsResult {
  std::uint64_t server_fingerprint = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t synacks = 0;
  std::string prometheus;
  bool operator==(const CpsResult&) const = default;
};

CpsResult run_cps(std::size_t nshards) {
  TesterCluster cluster({.shards = nshards, .seed = 42});
  TesterConfig cfg;
  cfg.asic.num_ports = 3;
  cfg.asic.num_recirc_channels = 3;
  cfg.asic.seed = 7;
  HyperTester& tester = cluster.add_tester(cfg, 0);

  const std::size_t server_shard = nshards > 1 ? 1 : 0;
  WorkloadConfig wcfg;
  wcfg.num_ports = 2;
  wcfg.tcb.capacity = 1 << 12;
  WorkloadServer server(cluster.shards().shard(server_shard).ev(), wcfg);
  for (std::size_t i = 0; i < 2; ++i) {
    cluster.shards().connect(tester.asic().port(static_cast<std::uint16_t>(1 + i)), 0,
                             server.port(i), server_shard, /*propagation_ns=*/500);
  }
  server.start();

  auto app = apps::http_cps(0x0C0C0C0C, 80, 0x0A000000, 512, {1, 2}, {{0, 400}});
  tester.load(app.task);
  tester.start();
  cluster.run_for(sim::us(400));

  CpsResult r;
  r.server_fingerprint = server.fingerprint();
  r.handshakes = server.handshakes_completed();
  r.synacks = cluster.tester(0).query_matched(app.q_synack);
  r.prometheus = cluster.telemetry_report().prometheus;
  return r;
}

TEST(L7Determinism, CpsByteIdenticalAcrossShardCounts) {
  const CpsResult one = run_cps(1);
  ASSERT_GT(one.handshakes, 0u);
  EXPECT_EQ(run_cps(2), one);
  EXPECT_EQ(run_cps(4), one);
}

}  // namespace
}  // namespace ht::dut::stateful
