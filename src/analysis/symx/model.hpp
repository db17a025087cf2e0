// Symbolic model of one compiled task: the pipeline a per-packet walk
// sees, abstracted into (a) parse-graph paths, (b) installed rules, and
// (c) per-query path conditions solved by the interval solver.
//
// The model is pure analysis — it never touches a live ASIC. It is shared
// by the conformance oracle (src/analysis/symx/oracle.hpp), which turns
// feasible paths into concrete packets, and by the symx lint pass
// (HT301 dead queries, HT302 dead entries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/symx/solver.hpp"
#include "htps/sender.hpp"
#include "net/fields.hpp"
#include "ntapi/compiler.hpp"
#include "rmt/asic.hpp"
#include "rmt/parser.hpp"

namespace ht::analysis::symx {

// --- parse graph -------------------------------------------------------------

/// One acyclic walk of the parse graph: the states visited, the headers
/// extracted along the way, and the constraints the taken transitions put
/// on the select fields.
struct ParserPath {
  std::vector<std::string> states;
  std::vector<net::HeaderKind> headers;
  Cube constraints;
};

/// Enumerate every path from the entry state to accept (depth-capped; the
/// canonical graphs are shallow DAGs).
std::vector<ParserPath> enumerate_parser_paths(const rmt::Parser& parser);

// --- edit streams ------------------------------------------------------------

/// Concrete simulation of one template's editor state machine: the exact
/// per-replica field edits the HTPS egress editor performs, mirrored from
/// htps::Sender::egress_action. Deterministic ops (lists, ranges, trigger
/// records) produce concrete values; RNG- and timestamp-driven ops are
/// reported as don't-care fields.
class EditStream {
 public:
  explicit EditStream(const htps::TemplateConfig& cfg);

  struct Step {
    std::vector<std::pair<net::FieldId, std::uint64_t>> values;  ///< concrete edits, in op order
    std::vector<net::FieldId> dont_care;                         ///< RNG / egress-timestamp edits
  };

  /// Advance one front-panel replica. `record` is the bridged trigger
  /// record for FIFO-triggered templates (null for timer templates).
  Step next(const std::vector<std::uint64_t>* record = nullptr);
  void reset();

 private:
  const htps::TemplateConfig& cfg_;
  std::vector<std::uint64_t> cursors_;  ///< per-op list index / range accumulator
};

// --- rules and paths ---------------------------------------------------------

enum class RuleKind : std::uint8_t {
  kSenderEntry,  ///< replicator table entry for one template
  kEdit,         ///< one editor action
  kQueryGate,    ///< a query's port/template gate
  kFilter,       ///< one filter operator
  kMapOp,        ///< map operator
  kAggOp,        ///< reduce/distinct operator
  kExactKey,     ///< one precomputed exact-key-matching entry
};

struct RuleInfo {
  RuleKind kind;
  std::string id;     ///< stable label, e.g. "trigger[0].edit[1] ipv4.dip"
  std::string where;  ///< diagnostic location: "trigger[0]" / "query[2]"
  std::size_t owner = 0;  ///< trigger or query index
  std::size_t sub = 0;    ///< op / entry ordinal within the owner
  bool exercised = false;
  bool dead = false;  ///< statically unhittable (HT302)
};

struct PathInfo {
  std::string id;  ///< "query[0]/pass", "query[1]/fail@2", "trigger[0]/editor", ...
  std::string description;
  std::size_t query = SIZE_MAX;    ///< owning query, if any
  std::size_t trigger = SIZE_MAX;  ///< owning trigger for editor paths
  bool sent = false;               ///< egress-side path (replica stream)
  net::HeaderKind l4 = net::HeaderKind::kUdp;
  std::uint16_t port = 0;  ///< inject port (received) — ignored for sent paths
  Cube cube;               ///< path condition over header/meta fields
  bool feasible = true;
};

/// Everything the symbolic walk derives from one compiled task.
class TaskModel {
 public:
  TaskModel(const ntapi::Task& task, const ntapi::CompiledTask& compiled,
            const rmt::AsicConfig& asic);

  const std::vector<PathInfo>& paths() const { return paths_; }
  std::vector<RuleInfo>& rules() { return rules_; }
  const std::vector<RuleInfo>& rules() const { return rules_; }

  /// The parser path packets of query `q`'s monitored traffic take, and
  /// the L4 kind the oracle should materialize for it.
  net::HeaderKind query_l4(std::size_t q) const { return query_l4_.at(q); }
  const ParserPath* parser_path(net::HeaderKind l4) const;
  bool field_extracted(net::HeaderKind l4, net::FieldId f) const;

  /// Feasible *matching* paths per query (used by the HT301 pass): at
  /// least one feasible path whose packet can survive every operator.
  std::size_t feasible_match_paths(std::size_t q) const { return match_paths_.at(q); }

  const ntapi::Task& task() const { return task_; }
  const ntapi::CompiledTask& compiled() const { return compiled_; }
  const rmt::AsicConfig& asic() const { return asic_; }

 private:
  void build_rules();
  void build_received_paths(std::size_t q);
  void build_sent_paths(std::size_t q);
  void build_editor_paths(std::size_t t);
  bool sent_stream_can_match(std::size_t q, std::size_t cap);

  const ntapi::Task& task_;
  const ntapi::CompiledTask& compiled_;
  const rmt::AsicConfig& asic_;
  rmt::Parser parser_;
  std::vector<ParserPath> parser_paths_;
  std::vector<PathInfo> paths_;
  std::vector<RuleInfo> rules_;
  std::vector<net::HeaderKind> query_l4_;
  std::vector<std::size_t> match_paths_;
};

/// Human-readable rule-kind name for reports.
std::string_view rule_kind_name(RuleKind kind);

}  // namespace ht::analysis::symx
