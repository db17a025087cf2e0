// Network-testing application library.
//
// Ready-made NTAPI tasks for the applications the paper builds on
// HyperTester (§2.3, §5.4, §7): throughput testing, delay testing, IP
// scanning, SYN-flood emulation, web testing, and friends. Each factory
// returns the Task plus the handles needed to read results back.
#pragma once

#include <cstdint>
#include <vector>

#include "ntapi/task.hpp"

namespace ht::apps {

using ntapi::QueryHandle;
using ntapi::Task;
using ntapi::TriggerHandle;

/// Table 3: UDP throughput testing. One trigger generating `pkt_len`-byte
/// packets at line rate (interval 0), one query on the sent traffic and
/// one on the received traffic, both summing bytes.
struct ThroughputTest {
  Task task;
  TriggerHandle t1;
  QueryHandle q_sent;
  QueryHandle q_received;
};
ThroughputTest throughput_test(std::uint32_t dip, std::uint32_t sip,
                               std::vector<std::uint16_t> ports, std::size_t pkt_len = 64,
                               std::uint64_t interval_ns = 0);

/// Delay testing (Fig 18, "SW"/P4-pipeline mode): the editor piggybacks
/// the pipeline timestamp into tcp.seq_no; a received-traffic query
/// computes arrival − embedded per packet and sums it (mean = total /
/// matched).
struct DelayTest {
  Task task;
  TriggerHandle probe;
  QueryHandle q_delay;
};
DelayTest delay_test(std::uint32_t dip, std::uint32_t sip, std::vector<std::uint16_t> tx_ports,
                     std::vector<std::uint16_t> rx_ports, std::uint64_t interval_ns = 100'000);

/// Delay testing, state-based mode (Fig 18b): the sender stores the TX
/// timestamp in a register keyed by ipv4.id; the receiver computes
/// now - stored[id] — no timestamp travels in the packet.
DelayTest delay_test_state_based(std::uint32_t dip, std::uint32_t sip,
                                 std::vector<std::uint16_t> tx_ports,
                                 std::vector<std::uint16_t> rx_ports,
                                 std::uint64_t interval_ns = 100'000);

/// IP scanning: SYN probes sweep `count` addresses from `base`; a
/// received query counts distinct hosts answering SYN+ACK.
struct IpScan {
  Task task;
  TriggerHandle probe;
  QueryHandle q_alive;
};
IpScan ip_scan(std::uint32_t base_address, std::uint32_t count, std::uint16_t target_port,
               std::vector<std::uint16_t> ports, std::uint64_t interval_ns = 1'000,
               std::uint32_t loops = 1);

/// SYN flood emulation (§7.5): line-rate SYNs at the victim with random
/// spoofed sources; a sent-traffic query counts emitted packets.
struct SynFlood {
  Task task;
  TriggerHandle flood;
  QueryHandle q_sent;
};
SynFlood syn_flood(std::uint32_t victim, std::uint16_t victim_port,
                   std::vector<std::uint16_t> ports);

/// Web testing (§5.4, Table 4): emulates clients fetching a page — SYN,
/// ACK, HTTP request, data ACKs, FIN — entirely with stateless
/// connections. `new_clients_interval_ns` ~ 10us = 100K clients/s.
/// Written against `dut::stateful::WorkloadServer`: T3 sends a complete
/// HTTP/1.1 request, and Q2/Q3 count the page's PSH+ACK segments per
/// client; a page of `data_packets_per_page` segments gets that many minus
/// one data ACKs, then a FIN.
struct WebTest {
  Task task;
  TriggerHandle t_syn, t_ack, t_request, t_data_ack, t_fin, t_fin_ack;
  QueryHandle q_synack, q_data, q_data_done, q_fin, q_handshakes;
};
WebTest web_test(std::uint32_t server, std::uint16_t server_port, std::uint32_t client_base,
                 std::uint32_t client_count, std::vector<std::uint16_t> ports,
                 std::uint64_t new_clients_interval_ns = 10'000,
                 std::uint32_t data_packets_per_page = 5);

/// UDP flood: line-rate UDP at the victim with random payload lengths.
struct UdpFlood {
  Task task;
  TriggerHandle flood;
  QueryHandle q_sent;
};
UdpFlood udp_flood(std::uint32_t victim, std::uint16_t victim_port,
                   std::vector<std::uint16_t> ports, std::size_t pkt_len = 512);

/// DNS amplification emulation: spoofed-source queries toward open
/// resolvers (dport 53, "ANY" payload).
struct DnsAmplification {
  Task task;
  TriggerHandle queries;
  QueryHandle q_sent;
};
DnsAmplification dns_amplification(std::uint32_t victim, std::uint32_t resolver_base,
                                   std::uint32_t resolver_count,
                                   std::vector<std::uint16_t> ports);

/// Packet-loss measurement: a bounded probe stream; sent vs received
/// counts give the loss rate.
struct LossTest {
  Task task;
  TriggerHandle probe;
  QueryHandle q_sent;
  QueryHandle q_received;
};
LossTest loss_test(std::uint32_t dip, std::uint32_t sip, std::vector<std::uint16_t> tx_ports,
                   std::vector<std::uint16_t> rx_ports, std::uint32_t probe_count,
                   std::uint64_t interval_ns = 1'000);

/// Per-port bandwidth monitor: received bytes grouped by ingress port.
struct PortBandwidth {
  Task task;
  QueryHandle q_per_port;
};
PortBandwidth port_bandwidth();

/// ICMP ping sweep: echo requests over an address range; distinct echo
/// repliers counted.
struct PingSweep {
  Task task;
  TriggerHandle probe;
  QueryHandle q_alive;
};
PingSweep ping_sweep(std::uint32_t base_address, std::uint32_t count,
                     std::vector<std::uint16_t> ports, std::uint64_t interval_ns = 1'000,
                     std::uint32_t loops = 1);

/// HTTP connections-per-second (CPS) testing against a stateful server:
/// one SYN trigger per injection port sweeps a disjoint client-address
/// slice under a shared `ramp` schedule; a received query captures the
/// SYN+ACKs and a query-based trigger completes each handshake, web_test
/// style. `clients_per_port` bounds each trigger (loop = 1).
struct HttpCps {
  Task task;
  std::vector<TriggerHandle> t_syn;
  TriggerHandle t_ack;
  QueryHandle q_synack;
  QueryHandle q_handshakes;
};
HttpCps http_cps(std::uint32_t server, std::uint16_t server_port, std::uint32_t client_base,
                 std::uint32_t clients_per_port, std::vector<std::uint16_t> ports,
                 std::vector<ntapi::RampStep> ramp);

/// HTTP requests-per-second (RPS) testing: establish a bounded connection
/// pool, then cycle GET requests over it forever. The response query
/// classifies the status line into 2xx/4xx/5xx and samples the
/// request->response latency via state-based delay (record_timestamp on
/// the request, map_state_delay on the response).
struct HttpRps {
  Task task;
  TriggerHandle t_syn, t_ack, t_req;
  QueryHandle q_synack, q_resp;
};
HttpRps http_rps(std::uint32_t server, std::uint16_t server_port, std::uint32_t client_base,
                 std::uint32_t pool_size, std::vector<std::uint16_t> ports,
                 std::uint64_t request_interval_ns, std::uint64_t open_interval_ns = 1'000);

/// DNS query/response testing: A-record queries over a client-address
/// pool; the response query splits NOERROR from NXDOMAIN by masking the
/// RCODE nibble and samples the query->answer latency.
struct DnsRps {
  Task task;
  TriggerHandle t_query;
  QueryHandle q_resp;
};
DnsRps dns_rps(std::uint32_t server, std::uint32_t client_base, std::uint32_t pool_size,
               std::vector<std::uint16_t> ports, std::uint64_t interval_ns = 2'000);

}  // namespace ht::apps
