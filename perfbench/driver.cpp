// perfbench_driver: one repetition of one benchmark workload.
//
//   perfbench_driver --workload <name> --seed <n> [--trace] [--reference]
//
// Builds the workload through the library's public API (TesterCluster,
// HyperTester::load/start, ShardGroup::run_until, WorkloadServer,
// dut::Capture), runs the warm-up, then the timed phase, and prints one JSON
// object on stdout: set-up and timed-phase wall time, the pipeline passes of
// the timed phase, the process's peak RSS, and the simulated outputs that
// run.py checks for correctness. `--reference` runs the workload's reference
// path (interpreted walk, fused walk or one shard, see reference_of), whose
// outputs must match. `--trace` additionally wraps the DUT's and the tester's
// front-panel receive hooks in wall-clock spans, reads the engine counters at
// the phase boundaries and replays per-layer costs on a sample of the
// workload's own packets; the result gains a "trace" object. The workload
// seed only generates the inputs (addresses, RNG and chaos seeds).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "dut/capture.hpp"
#include "dut/stateful/workload_server.hpp"
#include "net/headers.hpp"
#include "ntapi/compiler.hpp"
#include "rmt/parser.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ht;
using clock_type = std::chrono::steady_clock;

double seconds_of(clock_type::duration d) { return std::chrono::duration<double>(d).count(); }

/// CLOCK_MONOTONIC seconds, comparable with Python's time.monotonic(): the
/// parent stamps the spawn, the child stamps ready-to-run.
double monotonic_now() { return seconds_of(clock_type::now().time_since_epoch()); }

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- workloads --------------------------------------------------------------

enum class Kind { kFig9, kCps, kRps };

struct Spec {
  Kind kind = Kind::kFig9;
  std::size_t shards = 1;
  bool fastpath = true;
  sim::TimeNs warmup_ns = 0;
  sim::TimeNs timed_ns = 0;
};

constexpr std::uint32_t kCpsClientsPerPort = 65'536;
constexpr std::uint32_t kRpsPool = 16'384;
/// TCB slots for both L7 servers: 4 MiB, under 40 % load with every
/// connection either run opens (CPS about 25 K by the end, RPS its pool).
/// The library default (2^21 slots, 128 MiB) made L7 set-up mostly page
/// faults, whose cost swings by a third with the host's load.
constexpr std::size_t kTcbSlots = std::size_t{1} << 16;
constexpr sim::TimeNs kLinkPropagationNs = 500;
constexpr std::uint16_t kServerPort = 80;
constexpr std::uint16_t kClientPort = 2048;  ///< fixed by apps::http_cps/http_rps

constexpr const char* kWorkloads[] = {"fig9_fused", "fig9_interp", "l7_cps_linked",
                                      "l7_rps_chaos"};

std::optional<Spec> spec_of(const std::string& name) {
  if (name == "fig9_fused") return Spec{Kind::kFig9, 1, true, sim::ms(2), sim::ms(2)};
  if (name == "fig9_interp") return Spec{Kind::kFig9, 1, false, sim::ms(2), sim::ms(1)};
  if (name == "l7_cps_linked") return Spec{Kind::kCps, 2, true, sim::us(250), sim::ms(1)};
  if (name == "l7_rps_chaos") return Spec{Kind::kRps, 1, true, sim::ms(4), sim::ms(4)};
  return std::nullopt;
}

/// The reference path of a workload: the execution the determinism and
/// fast-path differential suites pin byte-identical to it. fig9_fused and
/// l7_rps_chaos run interpreted, fig9_interp runs fused (its own path is
/// the interpreted walk), l7_cps_linked runs on one shard.
Spec reference_of(Spec s) {
  if (s.kind == Kind::kCps) {
    s.shards = 1;
  } else {
    s.fastpath = !s.fastpath;
  }
  return s;
}

/// Everything the seed decides. The workload shape (sizes, rates, run
/// length) is fixed; the seed picks addresses and RNG streams.
struct Inputs {
  std::uint32_t dut_ip = 0;       ///< fig9 destination / L7 server
  std::uint32_t client_ip = 0;    ///< fig9 source / L7 client block base
  std::uint64_t run_seed = 0;     ///< ShardGroup RNG fan-out
  std::uint64_t asic_seed = 0;
  std::uint64_t tcb_seed = 0;
  std::uint64_t chaos_seed = 0;
};

Inputs inputs_of(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x7065726662656e63ULL;
  Inputs in;
  // Server in 192.168/16; clients in 10/8 on a 2^18-aligned block, wide
  // enough for 4 x 64K CPS clients.
  in.dut_ip = 0xC0A80000u | static_cast<std::uint32_t>(1 + splitmix64(s) % 0xFFFE);
  in.client_ip = 0x0A000000u | static_cast<std::uint32_t>((splitmix64(s) % 64) << 18);
  in.run_seed = splitmix64(s);
  in.asic_seed = 1 + splitmix64(s) % 1'000'000;
  in.tcb_seed = splitmix64(s) | 1;
  in.chaos_seed = splitmix64(s);
  return in;
}

struct Testbed {
  // Declared first so it outlives every component holding its packets.
  std::unique_ptr<TesterCluster> cluster;
  HyperTester* tester = nullptr;
  std::unique_ptr<dut::Capture> sink;
  std::unique_ptr<dut::stateful::WorkloadServer> server;
  std::size_t dut_shard = 0;
  std::vector<sim::Port*> tester_ports;  ///< front-panel ports wired to the DUT
  std::vector<sim::Port*> dut_ports;
  std::optional<ntapi::Task> task;
  std::vector<ntapi::QueryHandle> queries;
  std::uint32_t client_base = 0;  ///< L7 clients: [client_base, client_base + clients)
  std::uint32_t clients = 0;
  TesterConfig tester_cfg;
  double server_build_s = 0.0;
  double load_s = 0.0;
  double start_s = 0.0;
};

void build(Testbed& tb, const Spec& spec, const Inputs& in) {
  tb.cluster = std::make_unique<TesterCluster>(ClusterConfig{.shards = spec.shards,
                                                             .seed = in.run_seed});
  sim::ShardGroup& group = tb.cluster->shards();
  TesterConfig& cfg = tb.tester_cfg;
  cfg.asic.port_rate_gbps = 100.0;
  cfg.asic.seed = in.asic_seed;
  cfg.fastpath = spec.fastpath;

  if (spec.kind == Kind::kFig9) {
    cfg.asic.num_ports = 1;
    tb.tester = &tb.cluster->add_tester(cfg, 0);
    const auto t0 = clock_type::now();
    tb.sink = std::make_unique<dut::Capture>(group.shard(0).ev(), 1000, 100.0);
    tb.sink->set_count_only(true);
    tb.server_build_s = seconds_of(clock_type::now() - t0);
    group.connect(tb.tester->asic().port(0), 0, tb.sink->port(), 0, kLinkPropagationNs);
    tb.tester_ports = {&tb.tester->asic().port(0)};
    tb.dut_ports = {&tb.sink->port()};
    auto app = apps::throughput_test(in.dut_ip, in.client_ip, {0}, 64, 0);
    tb.task = app.task;
    tb.queries = {app.q_sent, app.q_received};
  } else {
    const bool cps = spec.kind == Kind::kCps;
    const std::size_t dut_ports = cps ? 4 : 1;
    cfg.asic.num_ports = dut_ports + 1;
    // One recirculation channel per template (SYN sweeps + ACK, or
    // SYN + ACK + request).
    cfg.asic.num_recirc_channels = cps ? 5 : 3;
    tb.tester = &tb.cluster->add_tester(cfg, 0);
    tb.dut_shard = spec.shards > 1 ? 1 : 0;
    dut::stateful::WorkloadConfig wcfg;
    wcfg.num_ports = dut_ports;
    wcfg.tcb.capacity = kTcbSlots;
    wcfg.tcb.seed = in.tcb_seed;
    if (!cps) {
      wcfg.server_error_every = 5;
      wcfg.not_found_every = 3;
    }
    const auto t0 = clock_type::now();
    tb.server = std::make_unique<dut::stateful::WorkloadServer>(
        group.shard(tb.dut_shard).ev(), wcfg);
    tb.server_build_s = seconds_of(clock_type::now() - t0);
    for (std::size_t i = 0; i < dut_ports; ++i) {
      sim::Port& tp = tb.tester->asic().port(static_cast<std::uint16_t>(1 + i));
      group.connect(tp, 0, tb.server->port(i), tb.dut_shard, kLinkPropagationNs);
      tb.tester_ports.push_back(&tp);
      tb.dut_ports.push_back(&tb.server->port(i));
    }
    tb.server->start();
    tb.client_base = in.client_ip;
    tb.clients = cps ? 4 * kCpsClientsPerPort : kRpsPool;
    if (cps) {
      auto app = apps::http_cps(in.dut_ip, kServerPort, in.client_ip, kCpsClientsPerPort, {1, 2, 3, 4},
                                {{0, 200}});
      tb.task = app.task;
      tb.queries = {app.q_synack, app.q_handshakes};
    } else {
      auto app = apps::http_rps(in.dut_ip, kServerPort, in.client_ip, kRpsPool, {1},
                                /*request_interval_ns=*/100, /*open_interval_ns=*/200);
      ntapi::ChaosSpec chaos;
      chaos.config.seed = in.chaos_seed;
      chaos.config.loss.rate = 0.005;
      chaos.config.reorder.rate = 0.02;
      chaos.config.reorder.min_delay_ns = 2'000;
      chaos.config.reorder.max_delay_ns = 20'000;
      app.task.set_chaos(chaos);
      tb.task = app.task;
      tb.queries = {app.q_synack, app.q_resp};
    }
  }

  auto t0 = clock_type::now();
  tb.tester->load(*tb.task);
  tb.load_s = seconds_of(clock_type::now() - t0);
  t0 = clock_type::now();
  tb.tester->start();
  tb.start_s = seconds_of(clock_type::now() - t0);
}

// --- counters read at phase boundaries --------------------------------------

struct Counters {
  std::uint64_t passes = 0;  ///< ASIC ingress + egress passes
  std::uint64_t fused = 0;   ///< of which ran on the fused fast path
  std::uint64_t recirculations = 0;
  std::uint64_t replicas = 0;
  std::uint64_t events = 0;
  sim::ShardGroup::SyncStats sync;
};

Counters read_counters(Testbed& tb) {
  Counters c;
  for (std::size_t i = 0; i < tb.cluster->size(); ++i) {
    HyperTester& t = tb.cluster->tester(i);
    c.passes += t.asic().ingress_packets() + t.asic().egress_packets();
    c.fused += t.metrics().counter_value("ht_fastpath_fused_pkts_total").value_or(0);
    c.recirculations += t.asic().recirculations();
    c.replicas += t.asic().replicas_created();
  }
  c.events = tb.cluster->shards().total_executed();
  c.sync = tb.cluster->shards().sync_stats();
  return c;
}

/// Sum of every registry counter with base name `name` (all label sets).
std::uint64_t registry_sum(const HyperTester& t, const std::string& name) {
  std::uint64_t total = 0;
  t.metrics().for_each([&](const telemetry::MetricsRegistry::Entry& e) {
    if (e.name == name && e.kind == telemetry::MetricsRegistry::Kind::kCounter) {
      total += e.counter_value();
    }
  });
  return total;
}

/// Exposition text without the ht_fastpath_* series, which only the fused
/// run registers; everything else is byte-identical across paths.
std::string strip_fastpath_series(const std::string& text) {
  std::istringstream in(text);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("ht_fastpath_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// The server's connection table as per-field sums over every client's TCB
/// (state, sequence numbers, creation and last-activity times, requests
/// served). WorkloadServer::fingerprint() folds each slot's position and
/// contents, and both depend on the order in which same-instant arrivals on
/// different links are handled: one shard runs them in schedule order, two
/// shards in mailbox-drain order, so connections swap slots and handshake
/// times. Only these order-free sums are compared across shard counts; the
/// fingerprint is pinned for the default seed.
std::vector<std::uint64_t> tcb_field_sums(Testbed& tb) {
  std::vector<std::uint64_t> sums(6, 0);
  dut::stateful::TcbStore& store = tb.server->tcb();
  for (std::uint32_t i = 0; i < tb.clients; ++i) {
    const dut::stateful::Tcb* t = store.lookup({tb.client_base + i, kClientPort, kServerPort});
    if (t == nullptr) continue;
    sums[0] += static_cast<std::uint64_t>(t->state);
    sums[1] += t->our_seq;
    sums[2] += t->peer_seq;
    sums[3] += t->created_us;
    sums[4] += t->last_active_us;
    sums[5] += t->requests;
  }
  return sums;
}

// --- tracing: wall-clock spans around the receive hooks ---------------------

constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 4096;

/// One side's receive span. Every port of a side lives on one shard, so
/// one worker thread writes it; the main thread reads it after run_until.
struct RxSpan {
  clock_type::duration busy{};
  std::uint64_t pkts = 0;
  std::vector<std::vector<std::uint8_t>> sample;  ///< every kSampleEvery-th frame
};

void wrap_receive(sim::Port& port, RxSpan& span) {
  port.on_receive = [inner = std::move(port.on_receive), &span](net::PacketPtr pkt) {
    if (span.pkts % kSampleEvery == 0 && span.sample.size() < kMaxSamples) {
      const auto b = pkt->bytes();
      span.sample.emplace_back(b.begin(), b.end());
    }
    const auto t0 = clock_type::now();
    inner(std::move(pkt));
    span.busy += clock_type::now() - t0;
    ++span.pkts;
  };
}

/// Nanoseconds per call of `op(i)` over `n` items, repeated until at least
/// `min_wall` has been measured. `prepare` runs untimed before each round.
template <typename Op, typename Prep>
double ns_per_op(std::size_t n, Op&& op, Prep&& prepare, double min_wall = 0.05) {
  if (n == 0) return 0.0;
  clock_type::duration spent{};
  std::uint64_t ops = 0;
  while (seconds_of(spent) < min_wall || ops < 10'000) {
    prepare();
    const auto t0 = clock_type::now();
    for (std::size_t i = 0; i < n; ++i) op(i);
    spent += clock_type::now() - t0;
    ops += n;
  }
  return seconds_of(spent) * 1e9 / static_cast<double>(ops);
}

template <typename Op>
double ns_per_op(std::size_t n, Op&& op) {
  return ns_per_op(n, std::forward<Op>(op), [] {});
}

/// Event-queue replay at the workload's shape: as many self-rescheduling
/// sources as the run's slab high water, each with the run's mean
/// per-source gap between events.
double replay_event_ns(std::uint64_t pending, double gap_ns) {
  pending = std::clamp<std::uint64_t>(pending, 1, 65'536);
  const auto gap = static_cast<sim::TimeNs>(std::max(1.0, gap_ns));
  sim::EventQueue q;
  std::uint64_t fired = 0;
  struct Source {
    sim::EventQueue* q;
    std::uint64_t* fired;
    sim::TimeNs gap;
    void operator()() const {
      ++*fired;
      q->schedule_in(gap + (*fired & 7), *this);
    }
  };
  for (std::uint64_t i = 0; i < pending; ++i) {
    q.schedule_in(static_cast<sim::TimeNs>(i % static_cast<std::uint64_t>(gap)),
                  Source{&q, &fired, gap});
  }
  const auto t0 = clock_type::now();
  sim::TimeNs horizon = 0;
  while (fired < 2'000'000 && seconds_of(clock_type::now() - t0) < 0.1) {
    horizon += gap * 64;
    q.run_until(horizon);
  }
  const double wall = seconds_of(clock_type::now() - t0);
  q.drop_pending();
  return fired == 0 ? 0.0 : wall * 1e9 / static_cast<double>(fired);
}

struct Replay {
  double parse_ns = 0, deparse_ns = 0, checksum_ns = 0;
  double tcb_insert_ns = 0, tcb_lookup_ns = 0;
  double compile_s = 0;
};

Replay replay_layers(Testbed& tb, const RxSpan& dut_rx, const RxSpan& tester_rx) {
  Replay r;
  std::vector<net::PacketPtr> pkts;
  for (const auto* side : {&dut_rx, &tester_rx}) {
    for (const auto& bytes : side->sample) pkts.push_back(net::make_packet(net::Packet(bytes)));
  }
  const rmt::Parser parser = rmt::Parser::default_graph();
  std::uint64_t guard = 0;
  r.parse_ns = ns_per_op(pkts.size(), [&](std::size_t i) {
    guard += parser.parse(pkts[i]).get(net::FieldId::kIpv4Sip);
  });
  // Deparse with two rewritten IPv4 containers per packet, as an editor
  // rewrite leaves them.
  std::vector<rmt::Phv> phvs;
  for (const auto& p : pkts) {
    phvs.push_back(parser.parse(p));
    rmt::Phv& phv = phvs.back();
    phv.set(net::FieldId::kIpv4Id, phv.get(net::FieldId::kIpv4Id));
    phv.set(net::FieldId::kIpv4Ttl, phv.get(net::FieldId::kIpv4Ttl));
  }
  r.deparse_ns = ns_per_op(phvs.size(), [&](std::size_t i) { rmt::Parser::deparse(phvs[i]); });
  r.checksum_ns = ns_per_op(pkts.size(), [&](std::size_t i) { net::fix_checksums(*pkts[i]); });

  // TCB replay on the workload's own connection keys (client-to-DUT frames).
  std::set<std::uint64_t> seen;
  std::vector<dut::stateful::TcbKey> keys;
  for (const auto& bytes : dut_rx.sample) {
    const net::Packet p(bytes);
    const auto l4 = net::l4_kind(p);
    if (!l4 || (*l4 != net::HeaderKind::kTcp && *l4 != net::HeaderKind::kUdp)) continue;
    const bool tcp = *l4 == net::HeaderKind::kTcp;
    dut::stateful::TcbKey k;
    k.peer_ip = static_cast<std::uint32_t>(net::get_field(p, net::FieldId::kIpv4Sip));
    k.peer_port = static_cast<std::uint16_t>(
        net::get_field(p, tcp ? net::FieldId::kTcpSport : net::FieldId::kUdpSport));
    k.local_port = static_cast<std::uint16_t>(
        net::get_field(p, tcp ? net::FieldId::kTcpDport : net::FieldId::kUdpDport));
    const std::uint64_t packed = (std::uint64_t{k.peer_ip} << 32) |
                                 (std::uint64_t{k.peer_port} << 16) | k.local_port;
    if (seen.insert(packed).second) keys.push_back(k);
  }
  const dut::stateful::TcbConfig tcfg =
      tb.server ? tb.server->tcb().config() : dut::stateful::TcbConfig{};
  dut::stateful::TcbStore store(tcfg);
  std::vector<dut::stateful::Tcb*> live(keys.size(), nullptr);
  r.tcb_insert_ns = ns_per_op(
      keys.size(),
      [&](std::size_t i) {
        live[i] = store.insert(keys[i], dut::stateful::TcbState::kEstablished, 0);
      },
      [&] {
        for (auto*& t : live) {
          if (t != nullptr) store.erase(*t);
          t = nullptr;
        }
      });
  r.tcb_lookup_ns = ns_per_op(keys.size(), [&](std::size_t i) {
    guard += store.lookup(keys[i]) != nullptr ? 1 : 0;
  });

  std::vector<double> compiles;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = clock_type::now();
    const ntapi::CompiledTask compiled = ntapi::Compiler(tb.tester_cfg.asic).compile(*tb.task);
    compiles.push_back(seconds_of(clock_type::now() - t0));
    guard += compiled.templates.size();
  }
  std::sort(compiles.begin(), compiles.end());
  r.compile_s = compiles[1];
  if (guard == 0x5eed) std::fputc(' ', stderr);  // keep the replays observable
  return r;
}

// --- output -----------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return raw(key, buf);
  }
  JsonObject& str(const char* key, const std::string& v) { return raw(key, "\"" + v + "\""); }
  JsonObject& raw(const char* key, const std::string& v) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The process's resident high-water mark (VmHWM). getrusage's ru_maxrss
/// is not used: across exec it keeps the parent's peak when that is larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

int usage() {
  std::string names;
  for (const char* w : kWorkloads) names += (names.empty() ? "" : "|") + std::string(w);
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <%s> --seed <n> [--trace] [--reference]\n"
               "       perfbench_driver --provenance\n",
               names.c_str());
  return 2;
}

/// Build facts, plus each workload's shard count (its worker threads).
int provenance() {
  JsonObject shards;
  for (const char* w : kWorkloads) shards.num(w, static_cast<double>(spec_of(w)->shards));
  JsonObject o;
  o.str("compiler", std::string(PERFBENCH_CXX_ID) + " " + PERFBENCH_CXX_VERSION)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("ht_telemetry", telemetry::kEnabled ? 1 : 0)
      .raw("shards", shards.done());
  std::printf("%s\n", o.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  bool trace = false;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--reference") {
      reference = true;
    } else if (a == "--provenance") {
      return provenance();
    } else {
      return usage();
    }
  }
  std::optional<Spec> spec = spec_of(workload);
  if (!spec || !seed) return usage();
  if (reference) spec = reference_of(*spec);

  RxSpan dut_rx, tester_rx;  // outlive the port hooks that reference them
  Testbed tb;
  build(tb, *spec, inputs_of(*seed));
  const double ready = monotonic_now();
  sim::ShardGroup& group = tb.cluster->shards();

  group.run_until(spec->warmup_ns);
  if (trace) {
    for (sim::Port* p : tb.dut_ports) wrap_receive(*p, dut_rx);
    for (sim::Port* p : tb.tester_ports) wrap_receive(*p, tester_rx);
  }
  const Counters before = read_counters(tb);
  const auto t0 = clock_type::now();
  group.run_until(spec->warmup_ns + spec->timed_ns);
  const double timed_wall = seconds_of(clock_type::now() - t0);
  const Counters after = read_counters(tb);
  const double rss = peak_rss_mb();

  // Simulated outputs: deterministic for a given workload, seed and path.
  HyperTester& t = *tb.tester;
  std::string queries = "[";
  for (std::size_t q = 0; q < tb.queries.size(); ++q) {
    queries += (q ? ", [" : "[") + std::to_string(t.query_matched(tb.queries[q])) + ", " +
               std::to_string(t.query_total(tb.queries[q])) + "]";
  }
  queries += "]";
  std::string dut_out;
  if (tb.server) {
    const auto& s = *tb.server;
    std::vector<std::uint64_t> dut = {s.syns_received(), s.handshakes_completed(),
                                      s.requests_served(), s.responses_2xx(),
                                      s.responses_4xx(),   s.responses_5xx(),
                                      s.tcb().size()};
    for (const std::uint64_t v : tcb_field_sums(tb)) dut.push_back(v);
    dut_out = "[";
    for (std::size_t i = 0; i < dut.size(); ++i) {
      dut_out += (i ? ", " : "") + std::to_string(dut[i]);
    }
    dut_out += "]";
  } else {
    dut_out = "[" + std::to_string(tb.sink->counted()) + ", " + std::to_string(tb.sink->bytes()) +
              "]";
  }
  JsonObject outputs;
  outputs.num("passes", static_cast<double>(after.passes))
      .num("events", static_cast<double>(after.events))
      .raw("queries", queries)
      .raw("dut", dut_out)
      .str("telemetry", hex(fnv1a(0xcbf29ce484222325ULL,
                                  strip_fastpath_series(tb.cluster->telemetry_report().prometheus))))
      .str("state_digest", hex(tb.cluster->state_digest()));
  if (tb.server) outputs.str("server_fingerprint", hex(tb.server->fingerprint()));

  JsonObject result;
  result.str("workload", workload)
      .num("seed", static_cast<double>(*seed))
      .num("ready_monotonic_s", ready)
      .num("timed_wall_s", timed_wall)
      .num("timed_passes", static_cast<double>(after.passes - before.passes))
      .num("peak_rss_mb", rss)
      .raw("outputs", outputs.done());

  if (trace) {
    const Replay rep = replay_layers(tb, dut_rx, tester_rx);
    const double passes = static_cast<double>(after.passes - before.passes);
    const double events = static_cast<double>(after.events - before.events);
    const auto slab = group.aggregate_slab_stats();
    const auto pool = group.aggregate_pool_stats();
    const double epochs = static_cast<double>(after.sync.epochs - before.sync.epochs);
    const double dut_busy = seconds_of(dut_rx.busy);
    const double rx_busy = seconds_of(tester_rx.busy);
    const double per_shard_high_water =
        static_cast<double>(slab.high_water) / static_cast<double>(group.size());
    const double source_gap_ns =
        events > 0 ? static_cast<double>(spec->timed_ns) * per_shard_high_water /
                         (events / static_cast<double>(group.size()))
                   : 1.0;
    auto per_pkt_ns = [](double busy_s, std::uint64_t n) {
      return n == 0 ? 0.0 : busy_s * 1e9 / static_cast<double>(n);
    };
    const auto& stats = tb.server ? tb.server->tcb().stats() : dut::stateful::TcbStats{};
    JsonObject m;
    m.num("sim.events", events)
        .num("sim.events_per_pass", passes > 0 ? events / passes : 0.0)
        .num("sim.slab_misses", static_cast<double>(slab.misses))
        .num("sim.slab_high_water", static_cast<double>(slab.high_water))
        .num("sim.heap_closures", static_cast<double>(slab.heap_closures))
        .num("sim.event_ns",
             replay_event_ns(static_cast<std::uint64_t>(per_shard_high_water), source_gap_ns))
        .num("sim.shard.epochs", epochs)
        .num("sim.shard.handoffs",
             static_cast<double>(after.sync.handoffs - before.sync.handoffs))
        .num("sim.shard.handoffs_copied",
             static_cast<double>(after.sync.handoffs_copied - before.sync.handoffs_copied))
        .num("sim.shard.backpressure",
             static_cast<double>(after.sync.backpressure - before.sync.backpressure))
        .num("sim.shard.wall_per_epoch_us", epochs > 0 ? timed_wall * 1e6 / epochs : 0.0)
        .num("sim.shard.server_idle_share", tb.dut_shard != 0 ? 1.0 - dut_busy / timed_wall : 0.0)
        .num("net.pool_hit_rate",
             pool.hits + pool.misses > 0
                 ? static_cast<double>(pool.hits) / static_cast<double>(pool.hits + pool.misses)
                 : 0.0)
        .num("net.pool_high_water", static_cast<double>(pool.high_water))
        .num("net.checksum_ns", rep.checksum_ns)
        .num("rmt.passes", passes)
        .num("rmt.recirculations",
             static_cast<double>(after.recirculations - before.recirculations))
        .num("rmt.replicas", static_cast<double>(after.replicas - before.replicas))
        .num("rmt.fused_share",
             passes > 0 ? static_cast<double>(after.fused - before.fused) / passes : 0.0)
        .num("rmt.rx_busy_s", rx_busy)
        .num("rmt.rx_ns_per_pkt", per_pkt_ns(rx_busy, tester_rx.pkts))
        .num("rmt.parse_ns", rep.parse_ns)
        .num("rmt.deparse_ns", rep.deparse_ns)
        .num("dut.busy_s", dut_busy)
        .num("dut.ns_per_pkt", per_pkt_ns(dut_busy, dut_rx.pkts))
        .num("dut.rx_pkts", static_cast<double>(dut_rx.pkts))
        .num("dut.tcb_inserted", static_cast<double>(stats.inserted))
        .num("dut.tcb_high_water", static_cast<double>(stats.high_water))
        .num("dut.server_build_s", tb.server_build_s)
        .num("dut.tcb_insert_ns", rep.tcb_insert_ns)
        .num("dut.tcb_lookup_ns", rep.tcb_lookup_ns)
        .num("ntapi.compile_s", rep.compile_s)
        .num("core.load_s", tb.load_s)
        .num("htps.start_s", tb.start_s)
        .num("htpr.matched_q0", static_cast<double>(t.query_matched(tb.queries[0])))
        .num("htpr.matched_q1", static_cast<double>(t.query_matched(tb.queries[1])))
        .num("stateless.fifo_overflows",
             static_cast<double>(registry_sum(t, "ht_regfifo_overflows_total")))
        .num("sim.fault.dropped",
             static_cast<double>(registry_sum(t, "ht_chaos_lost_total") +
                                 registry_sum(t, "ht_chaos_flap_drops_total")))
        .num("trace.span_coverage",
             (rx_busy + dut_busy) / (timed_wall * static_cast<double>(group.size())));
    result.raw("trace", m.done());
  }
  std::printf("%s\n", result.done().c_str());
  std::fflush(stdout);
  return 0;
}
