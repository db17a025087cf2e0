#include "apps/tasks.hpp"

using namespace std::string_literals;

namespace ht::apps {

using net::FieldId;
using ntapi::Query;
using ntapi::Reduce;
using ntapi::Trigger;
using ntapi::Value;
using ntapi::from_meta;
using ntapi::from_query;
namespace flag = net::tcpflag;
using htpr::Cmp;

ThroughputTest throughput_test(std::uint32_t dip, std::uint32_t sip,
                               std::vector<std::uint16_t> ports, std::size_t pkt_len,
                               std::uint64_t interval_ns) {
  ThroughputTest app{Task("throughput_test"), {}, {}, {}};
  // T1: 64-byte UDP packets with the given addresses (Table 3).
  app.t1 = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport,
                FieldId::kUdpSport},
               {dip, sip, net::ipproto::kUdp, 1, 1})
          .set({FieldId::kLoop, FieldId::kPktLen},
               {Value::constant(0), Value::constant(pkt_len)})
          .set(FieldId::kInterval, interval_ns)
          .set(FieldId::kPort, Value::array({ports.begin(), ports.end()})));
  // Q1 monitors sent traffic, Q2 received traffic; both report bytes/s.
  app.q_sent =
      app.task.add_query(Query(app.t1).map_value(FieldId::kPktLen).reduce(Reduce::kSum));
  app.q_received = app.task.add_query(Query().map_value(FieldId::kPktLen).reduce(Reduce::kSum));
  return app;
}

DelayTest delay_test(std::uint32_t dip, std::uint32_t sip, std::vector<std::uint16_t> tx_ports,
                     std::vector<std::uint16_t> rx_ports, std::uint64_t interval_ns) {
  DelayTest app{Task("delay_test"), {}, {}};
  // Probes are TCP packets whose seq_no carries the pipeline timestamp
  // (truncated to 32 bits): delay testing's "SW" mode.
  app.probe = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kTcpDport,
                FieldId::kTcpSport},
               {dip, sip, net::ipproto::kTcp, 7, 7})
          .set(FieldId::kTcpSeqNo, from_meta(FieldId::kMetaEgressTstamp))
          .set(FieldId::kInterval, interval_ns)
          .set(FieldId::kPort, Value::array({tx_ports.begin(), tx_ports.end()})));
  // Received probes: delay = arrival timestamp - embedded timestamp.
  app.q_delay = app.task.add_query(
      Query()
          .monitor_ports(std::move(rx_ports))
          .filter(FieldId::kTcpDport, Cmp::kEq, 7)
          .map_delta(FieldId::kMetaIngressTstamp, FieldId::kTcpSeqNo)
          .reduce(Reduce::kSum));
  return app;
}

DelayTest delay_test_state_based(std::uint32_t dip, std::uint32_t sip,
                                 std::vector<std::uint16_t> tx_ports,
                                 std::vector<std::uint16_t> rx_ports,
                                 std::uint64_t interval_ns) {
  DelayTest app{Task("delay_test_state_based"), {}, {}};
  app.probe = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport,
                FieldId::kUdpSport},
               {dip, sip, net::ipproto::kUdp, 7, 7})
          .set(FieldId::kIpv4Id, Value::range(0, 0xFFFF, 1))  // probe id
          .record_timestamp(FieldId::kIpv4Id)
          .set(FieldId::kInterval, interval_ns)
          .set(FieldId::kPort, Value::array({tx_ports.begin(), tx_ports.end()})));
  app.q_delay = app.task.add_query(
      Query()
          .monitor_ports(std::move(rx_ports))
          .filter(FieldId::kUdpDport, Cmp::kEq, 7)
          .map_state_delay(app.probe, FieldId::kIpv4Id)
          .reduce(Reduce::kSum));
  return app;
}

IpScan ip_scan(std::uint32_t base_address, std::uint32_t count, std::uint16_t target_port,
               std::vector<std::uint16_t> ports, std::uint64_t interval_ns,
               std::uint32_t loops) {
  IpScan app{Task("ip_scan"), {}, {}};
  app.probe = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kTcpDport, FieldId::kTcpSport,
                FieldId::kTcpFlags, FieldId::kTcpSeqNo},
               {0x01010001, net::ipproto::kTcp, target_port, 1024, flag::kSyn, 1})
          .set(FieldId::kIpv4Dip, Value::range(base_address, base_address + count - 1, 1))
          .set(FieldId::kInterval, interval_ns)
          .set(FieldId::kLoop, loops)
          .set(FieldId::kPort, Value::array({ports.begin(), ports.end()})));
  // Alive hosts answer SYN+ACK; count them exactly.
  app.q_alive = app.task.add_query(Query()
                                       .filter(FieldId::kTcpFlags, Cmp::kEq, flag::kSynAck)
                                       .map({FieldId::kIpv4Sip})
                                       .distinct()
                                       .store_shape(1 << 16, 16));
  return app;
}

SynFlood syn_flood(std::uint32_t victim, std::uint16_t victim_port,
                   std::vector<std::uint16_t> ports) {
  SynFlood app{Task("syn_flood"), {}, {}};
  app.flood = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Proto, FieldId::kTcpDport, FieldId::kTcpFlags,
                FieldId::kTcpSeqNo},
               {victim, net::ipproto::kTcp, victim_port, flag::kSyn, 1})
          .set(FieldId::kIpv4Sip, Value::random_uniform(0x0B000000, 0x0BFFFFFF))
          .set(FieldId::kTcpSport, Value::random_uniform(1024, 65535))
          .set(FieldId::kInterval, 0)  // line rate
          .set(FieldId::kPort, Value::array({ports.begin(), ports.end()})));
  app.q_sent = app.task.add_query(Query(app.flood).map({}).reduce(Reduce::kCount));
  return app;
}

WebTest web_test(std::uint32_t server, std::uint16_t server_port, std::uint32_t client_base,
                 std::uint32_t client_count, std::vector<std::uint16_t> ports,
                 std::uint64_t new_clients_interval_ns, std::uint32_t data_packets_per_page) {
  WebTest app{Task("web_test"), {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}};
  const Value port_list = Value::array({ports.begin(), ports.end()});

  // T1: open new connections — SYNs from a range of client addresses.
  app.t_syn = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kTcpDport, FieldId::kIpv4Proto, FieldId::kTcpFlags,
                FieldId::kTcpSeqNo},
               {server, server_port, net::ipproto::kTcp, flag::kSyn, 1})
          .set(FieldId::kIpv4Sip, Value::range(client_base, client_base + client_count - 1, 1))
          .set(FieldId::kTcpSport, Value::range(1024, 65535, 1))
          .set(FieldId::kInterval, new_clients_interval_ns)
          .set(FieldId::kPort, port_list));

  // Q1: capture SYN+ACKs for the stateless handshake.
  app.q_synack = app.task.add_query(
      Query().filter(FieldId::kTcpFlags, Cmp::kEq, flag::kSynAck));

  // T2: complete the handshake (ACK), directions swapped, seq/ack math.
  app.t_ack = app.task.add_trigger(
      Trigger(app.q_synack)
          .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
          .set(FieldId::kIpv4Sip, from_query(FieldId::kIpv4Dip))
          .set(FieldId::kTcpDport, from_query(FieldId::kTcpSport))
          .set(FieldId::kTcpSport, from_query(FieldId::kTcpDport))
          .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
          .set(FieldId::kTcpFlags, Value::constant(flag::kAck))
          .set(FieldId::kTcpSeqNo, from_query(FieldId::kTcpAckNo))
          .set(FieldId::kTcpAckNo, from_query(FieldId::kTcpSeqNo, 1))
          .set(FieldId::kPort, port_list));

  // T3: send the HTTP request (PSH+ACK with payload), same trigger source.
  app.t_request = app.task.add_trigger(
      Trigger(app.q_synack)
          .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
          .set(FieldId::kIpv4Sip, from_query(FieldId::kIpv4Dip))
          .set(FieldId::kTcpDport, from_query(FieldId::kTcpSport))
          .set(FieldId::kTcpSport, from_query(FieldId::kTcpDport))
          .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
          .set(FieldId::kTcpFlags, Value::constant(flag::kPshAck))
          .set(FieldId::kTcpSeqNo, from_query(FieldId::kTcpAckNo))
          .set(FieldId::kTcpAckNo, from_query(FieldId::kTcpSeqNo, 1))
          .set(FieldId::kPort, port_list)
          .payload("GET / HTTP/1.1\r\n\r\n"));

  // Q2: data segments from the server (first few of the page) -> ACK them.
  // The server marks every segment of a page PSH+ACK.
  app.q_data = app.task.add_query(Query()
                                      .filter(FieldId::kTcpFlags, Cmp::kEq, flag::kPshAck)
                                      .filter(FieldId::kTcpSport, Cmp::kEq, server_port)
                                      .map({FieldId::kIpv4Dip, FieldId::kTcpDport})
                                      .reduce(Reduce::kCount)
                                      .filter_result(Cmp::kLt, data_packets_per_page)
                                      .store_shape(1 << 16, 16));
  app.t_data_ack = app.task.add_trigger(
      Trigger(app.q_data)
          .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
          .set(FieldId::kIpv4Sip, from_query(FieldId::kIpv4Dip))
          .set(FieldId::kTcpDport, from_query(FieldId::kTcpSport))
          .set(FieldId::kTcpSport, from_query(FieldId::kTcpDport))
          .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
          .set(FieldId::kTcpFlags, Value::constant(flag::kAck))
          .set(FieldId::kTcpSeqNo, from_query(FieldId::kTcpAckNo))
          .set(FieldId::kTcpAckNo, from_query(FieldId::kTcpSeqNo, 1))
          .set(FieldId::kPort, port_list));

  // Q3: page complete (count reaches the threshold) -> close with FIN.
  app.q_data_done = app.task.add_query(Query()
                                           .filter(FieldId::kTcpFlags, Cmp::kEq, flag::kPshAck)
                                           .filter(FieldId::kTcpSport, Cmp::kEq, server_port)
                                           .map({FieldId::kIpv4Dip, FieldId::kTcpDport})
                                           .reduce(Reduce::kCount)
                                           .filter_result(Cmp::kGe, data_packets_per_page)
                                           .store_shape(1 << 16, 16));
  app.t_fin = app.task.add_trigger(
      Trigger(app.q_data_done)
          .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
          .set(FieldId::kIpv4Sip, from_query(FieldId::kIpv4Dip))
          .set(FieldId::kTcpDport, from_query(FieldId::kTcpSport))
          .set(FieldId::kTcpSport, from_query(FieldId::kTcpDport))
          .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
          .set(FieldId::kTcpFlags, Value::constant(flag::kFin))
          .set(FieldId::kTcpSeqNo, from_query(FieldId::kTcpAckNo))
          .set(FieldId::kTcpAckNo, from_query(FieldId::kTcpSeqNo, 1))
          .set(FieldId::kPort, port_list));

  // Q4: server FINs -> acknowledge the release.
  app.q_fin = app.task.add_query(
      Query().filter(FieldId::kTcpFlags, Cmp::kEq, flag::kFinAck));
  app.t_fin_ack = app.task.add_trigger(
      Trigger(app.q_fin)
          .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
          .set(FieldId::kIpv4Sip, from_query(FieldId::kIpv4Dip))
          .set(FieldId::kTcpDport, from_query(FieldId::kTcpSport))
          .set(FieldId::kTcpSport, from_query(FieldId::kTcpDport))
          .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
          .set(FieldId::kTcpFlags, Value::constant(flag::kAck))
          .set(FieldId::kTcpSeqNo, from_query(FieldId::kTcpAckNo))
          .set(FieldId::kTcpAckNo, from_query(FieldId::kTcpSeqNo, 1))
          .set(FieldId::kPort, port_list));

  // Q5: performance monitoring — answered connections.
  app.q_handshakes = app.task.add_query(
      Query().filter(FieldId::kTcpFlags, Cmp::kEq, flag::kSynAck).map({}).reduce(Reduce::kSum));
  return app;
}

UdpFlood udp_flood(std::uint32_t victim, std::uint16_t victim_port,
                   std::vector<std::uint16_t> ports, std::size_t pkt_len) {
  UdpFlood app{Task("udp_flood"), {}, {}};
  app.flood = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Proto, FieldId::kUdpDport},
               {victim, net::ipproto::kUdp, victim_port})
          .set(FieldId::kIpv4Sip, Value::random_uniform(0x0C000000, 0x0CFFFFFF))
          .set(FieldId::kUdpSport, Value::random_uniform(1024, 65535))
          .set(FieldId::kPktLen, Value::constant(pkt_len))
          .set(FieldId::kInterval, 0)
          .set(FieldId::kPort, Value::array({ports.begin(), ports.end()})));
  app.q_sent = app.task.add_query(Query(app.flood).map({}).reduce(Reduce::kCount));
  return app;
}

DnsAmplification dns_amplification(std::uint32_t victim, std::uint32_t resolver_base,
                                   std::uint32_t resolver_count,
                                   std::vector<std::uint16_t> ports) {
  DnsAmplification app{Task("dns_amplification"), {}, {}};
  app.queries = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport, FieldId::kUdpSport},
               {victim /* spoofed source */, net::ipproto::kUdp, 53, 53})
          .set(FieldId::kIpv4Dip,
               Value::range(resolver_base, resolver_base + resolver_count - 1, 1))
          .set(FieldId::kInterval, 1'000)
          .set(FieldId::kPort, Value::array({ports.begin(), ports.end()}))
          // ""s keeps the embedded NULs without a hand-counted length.
          .payload("\x00\x01\x00\x00\x00\x01 ANY isc.org"s));
  app.q_sent = app.task.add_query(Query(app.queries).map({}).reduce(Reduce::kCount));
  return app;
}

LossTest loss_test(std::uint32_t dip, std::uint32_t sip, std::vector<std::uint16_t> tx_ports,
                   std::vector<std::uint16_t> rx_ports, std::uint32_t probe_count,
                   std::uint64_t interval_ns) {
  LossTest app{Task("loss_test"), {}, {}, {}};
  app.probe = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kUdpDport,
                FieldId::kUdpSport},
               {dip, sip, net::ipproto::kUdp, 9000, 9000})
          .set(FieldId::kIpv4Id, Value::range(0, probe_count - 1, 1))
          .set(FieldId::kInterval, interval_ns)
          .set(FieldId::kLoop, 1)
          .set(FieldId::kPort, Value::array({tx_ports.begin(), tx_ports.end()})));
  app.q_sent = app.task.add_query(Query(app.probe).map({}).reduce(Reduce::kCount));
  app.q_received = app.task.add_query(Query()
                                          .monitor_ports(std::move(rx_ports))
                                          .filter(FieldId::kUdpDport, Cmp::kEq, 9000)
                                          .map({})
                                          .reduce(Reduce::kCount));
  return app;
}

PortBandwidth port_bandwidth() {
  PortBandwidth app{Task("port_bandwidth"), {}};
  app.q_per_port = app.task.add_query(
      Query().map({FieldId::kMetaIngressPort}, FieldId::kPktLen).reduce(Reduce::kSum));
  return app;
}

PingSweep ping_sweep(std::uint32_t base_address, std::uint32_t count,
                     std::vector<std::uint16_t> ports, std::uint64_t interval_ns,
                     std::uint32_t loops) {
  PingSweep app{Task("ping_sweep"), {}, {}};
  app.probe = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Sip, FieldId::kIpv4Proto, FieldId::kIcmpType, FieldId::kIcmpId},
               {0x01010001, net::ipproto::kIcmp, 8, 7})
          .set(FieldId::kIpv4Dip, Value::range(base_address, base_address + count - 1, 1))
          .set(FieldId::kIcmpSeq, Value::range(0, count - 1, 1))
          .set(FieldId::kInterval, interval_ns)
          .set(FieldId::kLoop, loops)
          .set(FieldId::kPort, Value::array({ports.begin(), ports.end()})));
  app.q_alive = app.task.add_query(Query()
                                       .filter(FieldId::kIcmpType, Cmp::kEq, 0)
                                       .map({FieldId::kIpv4Sip})
                                       .distinct()
                                       .store_shape(1 << 16, 16));
  return app;
}

HttpCps http_cps(std::uint32_t server, std::uint16_t server_port, std::uint32_t client_base,
                 std::uint32_t clients_per_port, std::vector<std::uint16_t> ports,
                 std::vector<ntapi::RampStep> ramp) {
  HttpCps app{Task("http_cps"), {}, {}, {}, {}};

  // One SYN trigger per port: disjoint source slices keep every fire a
  // distinct connection (fires = slice length, no multicast inflation).
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const std::uint32_t lo = client_base + static_cast<std::uint32_t>(i) * clients_per_port;
    app.t_syn.push_back(app.task.add_trigger(
        Trigger()
            .set({FieldId::kIpv4Dip, FieldId::kTcpDport, FieldId::kIpv4Proto,
                  FieldId::kTcpFlags, FieldId::kTcpSport, FieldId::kTcpSeqNo},
                 {server, server_port, net::ipproto::kTcp, flag::kSyn, 2048, 1})
            .set(FieldId::kIpv4Sip, Value::range(lo, lo + clients_per_port - 1, 1))
            .interval_ramp(ramp)
            .set(FieldId::kLoop, 1)
            .set(FieldId::kPort, Value::constant(ports[i]))));
  }

  // SYN+ACKs drive the handshake-completing ACKs (stateless connections).
  app.q_synack = app.task.add_query(
      Query().filter(FieldId::kTcpFlags, Cmp::kEq, flag::kSynAck));
  app.t_ack = app.task.add_trigger(
      Trigger(app.q_synack)
          .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
          .set(FieldId::kIpv4Sip, from_query(FieldId::kIpv4Dip))
          .set(FieldId::kTcpDport, from_query(FieldId::kTcpSport))
          .set(FieldId::kTcpSport, from_query(FieldId::kTcpDport))
          .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
          .set(FieldId::kTcpFlags, Value::constant(flag::kAck))
          .set(FieldId::kTcpSeqNo, from_query(FieldId::kTcpAckNo))
          .set(FieldId::kTcpAckNo, from_query(FieldId::kTcpSeqNo, 1))
          .set(FieldId::kPort, Value::constant(ports.front())));

  app.q_handshakes = app.task.add_query(
      Query().filter(FieldId::kTcpFlags, Cmp::kEq, flag::kSynAck).map({}).reduce(Reduce::kSum));
  return app;
}

HttpRps http_rps(std::uint32_t server, std::uint16_t server_port, std::uint32_t client_base,
                 std::uint32_t pool_size, std::vector<std::uint16_t> ports,
                 std::uint64_t request_interval_ns, std::uint64_t open_interval_ns) {
  HttpRps app{Task("http_rps"), {}, {}, {}, {}, {}};
  const Value port_list = Value::array({ports.begin(), ports.end()});

  // Pool establishment: one bounded SYN sweep over the client addresses.
  app.t_syn = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kTcpDport, FieldId::kIpv4Proto, FieldId::kTcpFlags,
                FieldId::kTcpSport, FieldId::kTcpSeqNo},
               {server, server_port, net::ipproto::kTcp, flag::kSyn, 2048, 1})
          .set(FieldId::kIpv4Sip, Value::range(client_base, client_base + pool_size - 1, 1))
          .set(FieldId::kInterval, open_interval_ns)
          .set(FieldId::kLoop, 1)
          .set(FieldId::kPort, Value::constant(ports.front())));
  app.q_synack = app.task.add_query(
      Query().filter(FieldId::kTcpFlags, Cmp::kEq, flag::kSynAck));
  app.t_ack = app.task.add_trigger(
      Trigger(app.q_synack)
          .set(FieldId::kIpv4Dip, from_query(FieldId::kIpv4Sip))
          .set(FieldId::kIpv4Sip, from_query(FieldId::kIpv4Dip))
          .set(FieldId::kTcpDport, from_query(FieldId::kTcpSport))
          .set(FieldId::kTcpSport, from_query(FieldId::kTcpDport))
          .set(FieldId::kIpv4Proto, Value::constant(net::ipproto::kTcp))
          .set(FieldId::kTcpFlags, Value::constant(flag::kAck))
          .set(FieldId::kTcpSeqNo, from_query(FieldId::kTcpAckNo))
          .set(FieldId::kTcpAckNo, from_query(FieldId::kTcpSeqNo, 1))
          .set(FieldId::kPort, Value::constant(ports.front())));

  // Steady state: GET requests cycle the pool forever. The low 16 bits of
  // the source address index the TX-timestamp state register.
  app.t_req = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kTcpDport, FieldId::kIpv4Proto, FieldId::kTcpFlags,
                FieldId::kTcpSport, FieldId::kTcpSeqNo},
               {server, server_port, net::ipproto::kTcp, flag::kPshAck, 2048, 2})
          .set(FieldId::kIpv4Sip, Value::range(client_base, client_base + pool_size - 1, 1))
          .record_timestamp(FieldId::kIpv4Sip)
          .set(FieldId::kInterval, request_interval_ns)
          .set(FieldId::kPort, port_list)
          .payload("GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n"));

  // Responses: status-line classification + request->response latency.
  // SYN+ACKs (flags 0x12) fall outside the PSH+ACK filter, so only real
  // HTTP responses reach the classifier and the latency map.
  app.q_resp = app.task.add_query(
      Query()
          .filter(FieldId::kTcpSport, Cmp::kEq, server_port)
          .filter(FieldId::kTcpFlags, Cmp::kGe, flag::kPshAck)
          .classify("2xx", 0, "HTTP/1.1 2")
          .classify("4xx", 0, "HTTP/1.1 4")
          .classify("5xx", 0, "HTTP/1.1 5")
          .sample_latency()
          .map_state_delay(app.t_req, FieldId::kIpv4Dip)
          .reduce(Reduce::kSum));
  return app;
}

DnsRps dns_rps(std::uint32_t server, std::uint32_t client_base, std::uint32_t pool_size,
               std::vector<std::uint16_t> ports, std::uint64_t interval_ns) {
  DnsRps app{Task("dns_rps"), {}, {}};
  // A standard A-record question for "www.example.com", RD set. The label
  // lengths are split out of the literals so a following hex digit cannot
  // extend the escape.
  const std::string question = "\x12\x34\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"s +
                               "\x03" "www" "\x07" "example" "\x03" "com" +
                               "\x00\x00\x01\x00\x01"s;

  app.t_query = app.task.add_trigger(
      Trigger()
          .set({FieldId::kIpv4Dip, FieldId::kIpv4Proto, FieldId::kUdpDport, FieldId::kUdpSport},
               {server, net::ipproto::kUdp, 53, 3535})
          .set(FieldId::kIpv4Sip, Value::range(client_base, client_base + pool_size - 1, 1))
          .record_timestamp(FieldId::kIpv4Sip)
          .set(FieldId::kInterval, interval_ns)
          .set(FieldId::kPort, Value::array({ports.begin(), ports.end()}))
          .payload(question));
  // The response's byte 3 is flags-low: RA | RCODE. Masking the RCODE
  // nibble splits NOERROR (0) from NXDOMAIN (3); SERVFAIL et al. land in
  // "other".
  app.q_resp = app.task.add_query(
      Query()
          .filter(FieldId::kUdpDport, Cmp::kEq, 3535)
          .classify_masked("noerror", 3, 0x0F, 0)
          .classify_masked("nxdomain", 3, 0x0F, 3)
          .sample_latency()
          .map_state_delay(app.t_query, FieldId::kIpv4Dip)
          .reduce(Reduce::kSum));
  return app;
}

}  // namespace ht::apps
