// Programmable parser: a parse graph in the P4 sense.
//
// Each state optionally extracts one header and then selects the next
// state on a field value. Extracting a header records its offset and
// validity in the PHV; its fields stay in the packet bytes, where an
// unwritten PHV container reads them on demand, and the deparser writes
// back only the containers an action `set` (phv.hpp). The default graph
// parses the canonical Ethernet/IPv4/{TCP,UDP,ICMP} stack, but tasks that
// test new protocols can install their own graph — the "protocol
// independence" the paper leans on (§2.3 "Testing new protocols").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fields.hpp"
#include "net/packet.hpp"
#include "rmt/phv.hpp"

namespace ht::rmt {

struct ParseState {
  std::string name;
  std::optional<net::HeaderKind> extract;  ///< header pulled off the wire here
  std::optional<net::FieldId> select;      ///< field steering the transition
  std::vector<std::pair<std::uint64_t, std::string>> transitions;
  std::string default_next;  ///< empty = accept
};

class Parser {
 public:
  /// The canonical Eth/IPv4/{TCP,UDP,ICMP} graph.
  static Parser default_graph();

  void add_state(ParseState state);
  void set_entry(std::string name) { entry_ = std::move(name); }

  /// Parse a packet into a fresh PHV. Packets too short for a header stop
  /// parsing at that header (headers parsed so far stay valid), mirroring
  /// a hardware parser that runs out of bytes. Takes the handle by
  /// reference: parsing happens per pipeline pass, and the refcount bump
  /// belongs to the PHV that stores the handle, not to the call.
  Phv parse(const net::PacketPtr& pkt) const;

  /// Write the containers an action `set` back into the raw packet, at
  /// their headers' parse offsets (fields of unparsed headers are dropped).
  static void deparse(Phv& phv);

  /// Read-only view of the parse graph, for static analysis (the symbolic
  /// path oracle walks states/transitions without ever parsing a packet).
  const std::unordered_map<std::string, ParseState>& states() const { return states_; }
  const std::string& entry() const { return entry_; }

 private:
  /// Resolve state names to indices once; parse() then runs index-only.
  void finalize() const;

  struct CompiledState {
    std::optional<net::HeaderKind> extract;
    std::size_t extract_len = 0;  ///< header size in bytes
    std::optional<net::FieldId> select;
    std::vector<std::pair<std::uint64_t, int>> transitions;  ///< -1 = accept
    int default_next = -1;
  };

  std::unordered_map<std::string, ParseState> states_;
  std::string entry_;
  mutable std::vector<CompiledState> compiled_;
  mutable int compiled_entry_ = -1;
  mutable bool dirty_ = true;
};

}  // namespace ht::rmt
