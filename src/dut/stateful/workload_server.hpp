// Stateful L4–L7 workload server (DESIGN.md §15).
//
// The DUT end of the CPS/RPS scenario axis and of the paper's web test
// (§5.4): a multi-port device that terminates TCP against the
// million-connection TcbStore, parses HTTP/1.1 requests incrementally
// (keep-alive + pipelining), splits a response longer than one MSS into
// PSH+ACK segments, charges the abstract TLS handshake cost on the TLS
// port, and answers DNS over UDP. All its
// ports feed one store, so a tester may fan a connection's packets across
// any attached link. Every decision (ISNs, response status, DNS rcode) is
// a deterministic function of the connection key and request count — never
// of arrival timing — which is what lets the cross-shard determinism suite
// compare fingerprints byte-for-byte.
//
// Listener map: `http_port` (default 80) plain HTTP, `tls_port` (443)
// HTTP behind the TLS flight model, `dns_port` (53/UDP) DNS.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dut/stateful/dns_model.hpp"
#include "dut/stateful/tcb_store.hpp"
#include "dut/stateful/tls_model.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"

namespace ht::dut::stateful {

struct WorkloadConfig {
  std::size_t num_ports = 1;
  double port_rate_gbps = 100.0;
  std::uint16_t http_port = 80;
  std::uint16_t tls_port = 443;
  std::uint16_t dns_port = 53;
  double service_delay_ns = 2'000.0;
  std::size_t response_bytes = 64;      ///< HTTP response body size
  /// Deterministic failure injection: every Nth request on a connection
  /// answers 503 / 404 (0 disables). Exercises the tester's per-class
  /// response counters without a random source.
  std::uint32_t server_error_every = 0;
  std::uint32_t not_found_every = 0;
  /// Every Nth DNS query answers NXDOMAIN (0 disables), same counter
  /// scheme as the HTTP failure injection above.
  std::uint32_t dns_nxdomain_every = 0;
  TcbConfig tcb;
  TlsConfig tls;
};

class WorkloadServer {
 public:
  WorkloadServer(sim::EventQueue& ev, WorkloadConfig cfg);

  std::size_t num_ports() const { return ports_.size(); }
  sim::Port& port(std::size_t i) { return *ports_.at(i); }
  void attach(std::size_t i, sim::Port& switch_port, sim::TimeNs propagation_ns = 0);

  /// Arm the periodic idle sweep on the event queue (no-op when
  /// tcb.idle_timeout_ns == 0). Call once, before running.
  void start();

  TcbStore& tcb() { return tcb_; }
  const TcbStore& tcb() const { return tcb_; }

  std::uint64_t syns_received() const { return syns_; }
  std::uint64_t handshakes_completed() const { return established_; }
  std::uint64_t tls_handshakes_completed() const { return tls_done_; }
  std::uint64_t requests_served() const { return requests_; }
  std::uint64_t responses_2xx() const { return r2xx_; }
  std::uint64_t responses_4xx() const { return r4xx_; }
  std::uint64_t responses_5xx() const { return r5xx_; }
  std::uint64_t connections_closed() const { return closed_; }
  std::uint64_t dns_queries() const { return dns_queries_; }
  std::uint64_t dns_nxdomain() const { return dns_nxdomain_; }

  /// TcbStore fingerprint folded with every counter above — the value the
  /// shard-count determinism suite compares.
  std::uint64_t fingerprint() const;

 private:
  void on_packet(net::PacketPtr pkt, std::size_t port_idx);
  void on_tcp(const net::Packet& pkt, std::size_t port_idx);
  void on_dns(const net::Packet& pkt, std::size_t port_idx);
  void serve_payload(Tcb& tcb, const net::Packet& pkt, std::size_t port_idx);
  void reply_tcp(std::size_t port_idx, const net::Packet& in, std::uint64_t flags,
                 std::uint32_t seq, std::uint32_t ack,
                 std::string_view payload = {}, std::uint64_t extra_delay_ns = 0);
  void schedule_sweep();
  std::uint32_t now_us() const {
    return static_cast<std::uint32_t>(ev_.now() / 1000);
  }
  int pick_status(const Tcb& tcb, bool bad) const;

  sim::EventQueue& ev_;
  WorkloadConfig cfg_;
  TcbStore tcb_;
  TlsModel tls_;
  std::vector<std::unique_ptr<sim::Port>> ports_;

  std::uint64_t syns_ = 0;
  std::uint64_t established_ = 0;
  std::uint64_t tls_done_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t r2xx_ = 0;
  std::uint64_t r4xx_ = 0;
  std::uint64_t r5xx_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t dns_queries_ = 0;
  std::uint64_t dns_nxdomain_ = 0;
};

}  // namespace ht::dut::stateful
