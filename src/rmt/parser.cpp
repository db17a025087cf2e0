#include "rmt/parser.hpp"

#include <stdexcept>

#include "net/bytes.hpp"
#include "net/headers.hpp"

namespace ht::rmt {

namespace {

std::size_t header_bytes(net::HeaderKind h) {
  switch (h) {
    case net::HeaderKind::kEthernet:
      return net::kEthernetBytes;
    case net::HeaderKind::kIpv4:
      return net::kIpv4Bytes;
    case net::HeaderKind::kTcp:
      return net::kTcpBytes;
    case net::HeaderKind::kUdp:
      return net::kUdpBytes;
    case net::HeaderKind::kIcmp:
      return net::kIcmpBytes;
    case net::HeaderKind::kNvp:
      return net::kNvpBytes;
    case net::HeaderKind::kNone:
      return 0;
  }
  return 0;
}

}  // namespace

Parser Parser::default_graph() {
  Parser p;
  p.add_state({.name = "start",
               .extract = net::HeaderKind::kEthernet,
               .select = net::FieldId::kEthType,
               .transitions = {{net::ethertype::kIpv4, "parse_ipv4"}},
               .default_next = ""});
  p.add_state({.name = "parse_ipv4",
               .extract = net::HeaderKind::kIpv4,
               .select = net::FieldId::kIpv4Proto,
               .transitions = {{net::ipproto::kTcp, "parse_tcp"},
                               {net::ipproto::kUdp, "parse_udp"},
                               {net::ipproto::kIcmp, "parse_icmp"},
                               {net::ipproto::kNvp, "parse_nvp"}},
               .default_next = ""});
  p.add_state({.name = "parse_tcp", .extract = net::HeaderKind::kTcp});
  p.add_state({.name = "parse_udp", .extract = net::HeaderKind::kUdp});
  p.add_state({.name = "parse_icmp", .extract = net::HeaderKind::kIcmp});
  p.add_state({.name = "parse_nvp", .extract = net::HeaderKind::kNvp});
  p.set_entry("start");
  return p;
}

void Parser::add_state(ParseState state) {
  auto name = state.name;
  states_.emplace(std::move(name), std::move(state));
  dirty_ = true;
}

void Parser::finalize() const {
  compiled_.clear();
  std::unordered_map<std::string, int> index;
  std::vector<const ParseState*> ordered;
  for (const auto& [name, state] : states_) {
    index.emplace(name, static_cast<int>(ordered.size()));
    ordered.push_back(&state);
  }
  const auto resolve = [&index](const std::string& name) -> int {
    if (name.empty()) return -1;
    const auto it = index.find(name);
    if (it == index.end()) throw std::logic_error("Parser: unknown state " + name);
    return it->second;
  };
  compiled_.reserve(ordered.size());
  for (const ParseState* state : ordered) {
    CompiledState cs;
    cs.extract = state->extract;
    if (state->extract) cs.extract_len = header_bytes(*state->extract);
    cs.select = state->select;
    cs.default_next = resolve(state->default_next);
    for (const auto& [value, target] : state->transitions) {
      cs.transitions.emplace_back(value, resolve(target));
    }
    compiled_.push_back(std::move(cs));
  }
  compiled_entry_ = resolve(entry_);
  dirty_ = false;
}

Phv Parser::parse(const net::PacketPtr& pkt) const {
  Phv phv;
  phv.packet = pkt;

  // Intrinsic metadata from the simulation layer.
  phv.load(net::FieldId::kMetaIngressPort, pkt->meta().ingress_port);
  phv.load(net::FieldId::kMetaIngressTstamp, pkt->meta().ingress_tstamp_ns);
  phv.load(net::FieldId::kMetaTemplateId, pkt->meta().template_id);
  phv.load(net::FieldId::kPktLen, pkt->size());

  if (dirty_) finalize();
  const std::size_t size = pkt->size();
  std::size_t offset = 0;
  int state_index = compiled_entry_;
  while (state_index >= 0) {
    const CompiledState& state = compiled_[static_cast<std::size_t>(state_index)];
    if (state.extract) {
      const net::HeaderKind h = *state.extract;
      const std::size_t len = state.extract_len;
      if (offset + len > size) break;  // ran out of packet
      // Extraction is bookkeeping only: the header's fields are read from
      // the packet when a table, gateway or action asks (Phv::get).
      phv.header_offset[static_cast<std::size_t>(h)] = static_cast<int>(offset);
      phv.set_header_valid(h);
      offset += len;
    }
    if (!state.select) break;  // accept
    const std::uint64_t key = phv.get(*state.select);
    int next = state.default_next;
    for (const auto& [value, target] : state.transitions) {
      if (value == key) {
        next = target;
        break;
      }
    }
    state_index = next;
  }
  return phv;
}

void Parser::deparse(Phv& phv) {
  std::uint64_t mask = phv.modified_mask();
  if (mask == 0) return;  // untouched packets need no writeback
  auto bytes = phv.packet->bytes();
  const auto& reg = net::FieldRegistry::instance();
  // Walk only the modified containers (typically a handful out of ~50);
  // control/metadata fields have no wire home and are skipped via their
  // header's parse offset.
  while (mask != 0) {
    const auto f = static_cast<net::FieldId>(std::countr_zero(mask));
    mask &= mask - 1;
    const auto& fi = reg.info(f);
    if (fi.header == net::HeaderKind::kNone) continue;
    const int off = phv.header_offset[static_cast<std::size_t>(fi.header)];
    if (off < 0 || !phv.header_valid(fi.header)) continue;
    net::write_bits(bytes, static_cast<std::size_t>(off) * 8 + fi.bit_offset, fi.bit_width,
                    phv.get(f));
  }
}

}  // namespace ht::rmt
