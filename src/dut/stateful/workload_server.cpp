#include "dut/stateful/workload_server.hpp"

#include <cmath>

#include "dut/stateful/http_model.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace ht::dut::stateful {

namespace flag = net::tcpflag;
using net::FieldId;

namespace {

/// Largest TCP payload per response segment: the 1500-byte Ethernet MTU
/// minus the 20-byte IPv4 and 20-byte TCP headers.
constexpr std::size_t kMss = 1460;

/// Actual L4 payload of a canonical Eth/IPv4/<l4> packet. Frames below the
/// 64-byte minimum are zero-padded on the wire, so the payload length must
/// come from the IPv4 total length, not the buffer size.
std::span<const std::uint8_t> l4_payload(const net::Packet& pkt,
                                         net::HeaderKind l4) {
  const std::size_t start = net::min_packet_size(l4);
  const std::size_t ip_len =
      static_cast<std::size_t>(net::get_field(pkt, FieldId::kIpv4TotalLen));
  const std::size_t end = std::min(pkt.size(), 14 + ip_len);
  if (end <= start) return {};
  return pkt.bytes().subspan(start, end - start);
}

}  // namespace

WorkloadServer::WorkloadServer(sim::EventQueue& ev, WorkloadConfig cfg)
    : ev_(ev), cfg_(cfg), tcb_(cfg.tcb), tls_(cfg.tls) {
  ports_.reserve(cfg_.num_ports);
  for (std::size_t i = 0; i < cfg_.num_ports; ++i) {
    ports_.push_back(std::make_unique<sim::Port>(
        ev_, static_cast<std::uint16_t>(i), cfg_.port_rate_gbps));
    const std::size_t idx = i;
    ports_.back()->on_receive = [this, idx](net::PacketPtr pkt) {
      on_packet(std::move(pkt), idx);
    };
  }
}

void WorkloadServer::attach(std::size_t i, sim::Port& switch_port,
                            sim::TimeNs propagation_ns) {
  switch_port.connect(ports_.at(i).get(), propagation_ns);
  ports_.at(i)->connect(&switch_port, propagation_ns);
}

void WorkloadServer::start() { schedule_sweep(); }

void WorkloadServer::schedule_sweep() {
  if (cfg_.tcb.idle_timeout_ns == 0) return;
  ev_.schedule_in(cfg_.tcb.sweep_period_ns, [this] {
    tcb_.sweep(now_us());
    schedule_sweep();
  });
}

void WorkloadServer::on_packet(net::PacketPtr pkt, std::size_t port_idx) {
  const auto l4 = net::l4_kind(*pkt);
  if (!l4) return;
  if (*l4 == net::HeaderKind::kTcp) {
    on_tcp(*pkt, port_idx);
  } else if (*l4 == net::HeaderKind::kUdp &&
             net::get_field(*pkt, FieldId::kUdpDport) == cfg_.dns_port) {
    on_dns(*pkt, port_idx);
  }
}

void WorkloadServer::reply_tcp(std::size_t port_idx, const net::Packet& in,
                               std::uint64_t flags, std::uint32_t seq,
                               std::uint32_t ack, std::string_view payload,
                               std::uint64_t extra_delay_ns) {
  net::PacketBuilder b(net::HeaderKind::kTcp);
  b.set(FieldId::kIpv4Sip, net::get_field(in, FieldId::kIpv4Dip));
  b.set(FieldId::kIpv4Dip, net::get_field(in, FieldId::kIpv4Sip));
  b.set(FieldId::kTcpSport, net::get_field(in, FieldId::kTcpDport));
  b.set(FieldId::kTcpDport, net::get_field(in, FieldId::kTcpSport));
  b.set(FieldId::kTcpFlags, flags);
  b.set(FieldId::kTcpSeqNo, seq);
  b.set(FieldId::kTcpAckNo, ack);
  if (!payload.empty()) b.payload(payload);
  auto out = net::make_packet(b.build());
  const auto delay = static_cast<sim::TimeNs>(
      std::llround(cfg_.service_delay_ns) +
      static_cast<long long>(extra_delay_ns));
  ev_.schedule_in(delay, [this, port_idx, out = std::move(out)]() mutable {
    ports_[port_idx]->send(std::move(out));
  });
}

int WorkloadServer::pick_status(const Tcb& tcb, bool bad) const {
  if (bad) return 400;
  // Deterministic per-connection failure schedule: requests are numbered
  // from 1, so "every Nth" fires on N, 2N, ...
  if (cfg_.server_error_every != 0 &&
      tcb.requests % cfg_.server_error_every == 0) {
    return 503;
  }
  if (cfg_.not_found_every != 0 && tcb.requests % cfg_.not_found_every == 0) {
    return 404;
  }
  return 200;
}

void WorkloadServer::serve_payload(Tcb& tcb, const net::Packet& pkt,
                                   std::size_t port_idx) {
  const auto payload = l4_payload(pkt, net::HeaderKind::kTcp);
  if (payload.empty()) return;

  if (tcb.state == TcbState::kTlsHandshake) {
    if (payload[0] != TlsModel::kRecordType) return;  // not a handshake record
    const std::uint16_t flight_idx = static_cast<std::uint16_t>(
        tls_.client_flights() - tcb.flights_remaining);
    if (tcb.flights_remaining > 0) --tcb.flights_remaining;
    const bool done = tcb.flights_remaining == 0;
    if (done) {
      tcb_.set_state(tcb, TcbState::kEstablished);
      ++tls_done_;
    }
    reply_tcp(port_idx, pkt, flag::kPshAck, tcb.our_seq + 1,
              tcb.peer_seq + 1, tls_.flight_payload(),
              tls_.flight_delay_ns(flight_idx));
    return;
  }

  if (tcb.state != TcbState::kEstablished) return;

  // Established: incremental HTTP parse; pipelined requests in one segment
  // are answered in one response.
  std::string response;
  bool close = false;
  HttpParser::feed(tcb.http, payload, [&](const HttpRequest& req) {
    ++requests_;
    ++tcb.requests;
    const int status = pick_status(tcb, req.bad);
    if (status >= 500) ++r5xx_;
    else if (status >= 400) ++r4xx_;
    else ++r2xx_;
    const std::size_t body =
        (req.method == HttpMethod::kHead || status != 200)
            ? 0
            : cfg_.response_bytes;
    response += http_response(status, body, req.keep_alive && !req.bad);
    if (!req.keep_alive || req.bad) close = true;
  });
  if (response.empty()) return;
  std::uint64_t flags = flag::kPshAck;
  if (close) {
    flags |= flag::kFin;
    tcb_.set_state(tcb, TcbState::kFinWait);
  }
  const auto seq = static_cast<std::uint32_t>(
      net::get_field(pkt, FieldId::kTcpSeqNo));
  const auto ack = seq + static_cast<std::uint32_t>(payload.size());
  // A response longer than one MSS goes out as consecutive segments. Each
  // carries PSH+ACK, so a page is one flags value to a tester's filter; a
  // closing FIN rides on the last segment only.
  const std::string_view wire(response);
  for (std::size_t off = 0; off < wire.size(); off += kMss) {
    const bool last = wire.size() - off <= kMss;
    reply_tcp(port_idx, pkt, last ? flags : flag::kPshAck,
              tcb.our_seq + 1 + static_cast<std::uint32_t>(off), ack,
              wire.substr(off, kMss));
  }
}

void WorkloadServer::on_tcp(const net::Packet& pkt, std::size_t port_idx) {
  const auto dport = static_cast<std::uint16_t>(
      net::get_field(pkt, FieldId::kTcpDport));
  if (dport != cfg_.http_port && dport != cfg_.tls_port) return;
  const bool is_tls = dport == cfg_.tls_port;

  const auto flags = net::get_field(pkt, FieldId::kTcpFlags);
  const auto seq =
      static_cast<std::uint32_t>(net::get_field(pkt, FieldId::kTcpSeqNo));
  const auto ack =
      static_cast<std::uint32_t>(net::get_field(pkt, FieldId::kTcpAckNo));
  const TcbKey key{
      .peer_ip =
          static_cast<std::uint32_t>(net::get_field(pkt, FieldId::kIpv4Sip)),
      .peer_port =
          static_cast<std::uint16_t>(net::get_field(pkt, FieldId::kTcpSport)),
      .local_port = dport};

  if ((flags & flag::kSyn) != 0 && (flags & flag::kAck) == 0) {
    ++syns_;
    if (cfg_.tcb.syn_cookies) {
      // Stateless: the cookie rides back as our ISN; nothing is stored.
      const std::uint32_t isn = tcb_.cookie(key, seq, ev_.now());
      reply_tcp(port_idx, pkt, flag::kSynAck, isn, seq + 1);
      return;
    }
    if (Tcb* tcb = tcb_.lookup(key)) {
      // SYN retransmit: re-answer with the stored (key-derived) ISN.
      reply_tcp(port_idx, pkt, flag::kSynAck, tcb->our_seq, seq + 1);
      return;
    }
    Tcb* tcb = tcb_.insert(key, TcbState::kSynRcvd, now_us());
    if (tcb == nullptr) return;  // backlog/overflow, counted in the store
    tcb->peer_seq = seq;
    reply_tcp(port_idx, pkt, flag::kSynAck, tcb->our_seq, seq + 1);
    return;
  }

  if ((flags & flag::kRst) != 0) {
    if (Tcb* tcb = tcb_.lookup(key)) {
      tcb_.erase(*tcb);
      ++closed_;
    }
    return;
  }

  Tcb* tcb = tcb_.lookup(key);
  if (tcb == nullptr) {
    // Final ACK of a SYN-cookie handshake: the client's sequence number is
    // its ISN+1 and the acknowledgement echoes our cookie+1.
    if (cfg_.tcb.syn_cookies && (flags & flag::kAck) != 0 &&
        tcb_.cookie_valid(key, seq - 1, ack - 1, ev_.now())) {
      tcb = tcb_.insert(key, TcbState::kEstablished, now_us());
      if (tcb == nullptr) return;
      tcb->peer_seq = seq;
      tcb->our_seq = ack - 1;
      ++established_;
      if (is_tls) {
        tcb_.set_state(*tcb, TcbState::kTlsHandshake);
        tcb->flights_remaining = tls_.client_flights();
      }
    } else {
      return;
    }
  }
  tcb_.touch(*tcb, now_us());

  if ((flags & flag::kFin) != 0) {
    reply_tcp(port_idx, pkt, flag::kFinAck, tcb->our_seq + 1, seq + 1);
    tcb_.erase(*tcb);
    ++closed_;
    return;
  }

  // Handshake completion: the first ACK (bare or data-bearing) promotes.
  if (tcb->state == TcbState::kSynRcvd && (flags & flag::kAck) != 0) {
    ++established_;
    if (is_tls) {
      tcb_.set_state(*tcb, TcbState::kTlsHandshake);
      tcb->flights_remaining = tls_.client_flights();
    } else {
      tcb_.set_state(*tcb, TcbState::kEstablished);
    }
  } else if (tcb->state == TcbState::kFinWait && (flags & flag::kAck) != 0 &&
             l4_payload(pkt, net::HeaderKind::kTcp).empty()) {
    // Last ACK of a server-initiated close.
    tcb_.erase(*tcb);
    ++closed_;
    return;
  }

  serve_payload(*tcb, pkt, port_idx);
}

void WorkloadServer::on_dns(const net::Packet& pkt, std::size_t port_idx) {
  const auto payload = l4_payload(pkt, net::HeaderKind::kUdp);
  const DnsQuery q = parse_dns_query(payload);
  if (payload.size() < 12) return;  // no header to echo
  ++dns_queries_;
  std::uint8_t rcode = kDnsRcodeNoError;
  if (!q.valid) {
    rcode = kDnsRcodeFormErr;
  } else if (cfg_.dns_nxdomain_every != 0 &&
             dns_queries_ % cfg_.dns_nxdomain_every == 0) {
    rcode = kDnsRcodeNxDomain;
    ++dns_nxdomain_;
  }
  const auto question =
      q.valid ? payload.subspan(12, q.question_len)
              : std::span<const std::uint8_t>{};
  DnsQuery header = q;
  if (!q.valid) {
    header.id = static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
  }
  const std::string resp = dns_response(header, question, rcode);

  net::PacketBuilder b(net::HeaderKind::kUdp);
  b.set(FieldId::kIpv4Sip, net::get_field(pkt, FieldId::kIpv4Dip));
  b.set(FieldId::kIpv4Dip, net::get_field(pkt, FieldId::kIpv4Sip));
  b.set(FieldId::kUdpSport, net::get_field(pkt, FieldId::kUdpDport));
  b.set(FieldId::kUdpDport, net::get_field(pkt, FieldId::kUdpSport));
  b.payload(resp);
  auto out = net::make_packet(b.build());
  const auto delay =
      static_cast<sim::TimeNs>(std::llround(cfg_.service_delay_ns));
  ev_.schedule_in(delay, [this, port_idx, out = std::move(out)]() mutable {
    ports_[port_idx]->send(std::move(out));
  });
}

std::uint64_t WorkloadServer::fingerprint() const {
  std::uint64_t h = tcb_.fingerprint();
  const std::uint64_t counters[] = {syns_,  established_, tls_done_,
                                    requests_, r2xx_,     r4xx_,
                                    r5xx_,  closed_,      dns_queries_,
                                    dns_nxdomain_};
  for (const std::uint64_t c : counters) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((c >> (i * 8)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  return h;
}

}  // namespace ht::dut::stateful
