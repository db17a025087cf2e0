// Match-action tables.
//
// A table declares a key (list of fields, each with a match kind), holds
// entries installed by the control plane, and maps a PHV to an action.
// Exact-only tables use a hash index (as SRAM exact tables do); tables
// with ternary/range keys fall back to priority-ordered scan (TCAM).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fields.hpp"
#include "rmt/phv.hpp"
#include "rmt/registers.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace ht::rmt {

/// Everything an action body may touch. Digest emission is a callback so
/// the table layer stays decoupled from the digest engine.
struct ActionContext {
  Phv& phv;
  RegisterFile& registers;
  sim::Rng& rng;
  sim::TimeNs now;
  std::function<void(std::uint32_t type, std::vector<std::uint64_t> values)> emit_digest;
};

using ActionFn = std::function<void(ActionContext&)>;

enum class MatchKind : std::uint8_t { kExact, kTernary, kRange, kLpm };

struct MatchSpec {
  net::FieldId field;
  MatchKind kind = MatchKind::kExact;
};

/// One field's criterion inside an entry.
struct KeyMatch {
  std::uint64_t value = 0;
  std::uint64_t mask = ~std::uint64_t{0};  ///< ternary only
  std::uint64_t high = 0;                  ///< range upper bound (inclusive)
  unsigned prefix_len = 0;                 ///< LPM only (bits from the MSB)
};

/// Build an LPM criterion for a field of `field_bits` total width.
KeyMatch lpm_match(std::uint64_t value, unsigned prefix_len, unsigned field_bits);

struct TableEntry {
  std::vector<KeyMatch> keys;
  int priority = 0;  ///< higher wins among ternary/range overlaps
  std::string action_name;
  ActionFn action;
};

/// Install-time metadata describing what a table *is*, so the task-compiled
/// fast path (src/rmt/fastpath/) can re-derive its semantics without
/// interpreting the gate/action closures. Components that install tables
/// (HTPS sender, HTPR receiver) stamp their role; a table without hints is
/// opaque and forces the owning task onto the interpreted path.
struct TableHints {
  enum class Role : std::uint8_t {
    kNone,             ///< unknown/custom — unfusable
    kHtpsSender,       ///< accelerator+replicator (ingress, keyed by template id)
    kHtpsEditor,       ///< editor (egress, keyed by template id, front ports)
    kHtprReceived,     ///< received-traffic query (ingress, front ports)
    kHtprSent,         ///< sent-traffic query (egress, one template id)
    kHtprMaintenance,  ///< cuckoo-move pass (ingress, recirculating packets)
  };
  Role role = Role::kNone;
  /// kHtprReceived / kHtprSent: the owning query index.
  std::size_t query_index = 0;
  /// kHtprSent: the monitored template id.
  std::uint32_t template_id = 0;
};

class MatchActionTable {
 public:
  MatchActionTable(std::string name, std::vector<MatchSpec> key, std::size_t size_hint = 1024);

  const std::string& name() const { return name_; }
  const std::vector<MatchSpec>& key() const { return key_; }
  std::size_t size_hint() const { return size_hint_; }

  /// Install an entry; `keys` must parallel the declared key. Throws on
  /// arity mismatch or when an exact table exceeds its declared size.
  void add_entry(TableEntry entry);
  void set_default(std::string action_name, ActionFn action);

  /// Match + execute: runs the hit entry's action or the default action.
  /// Returns true on hit.
  bool apply(ActionContext& ctx);

  /// Match only (no action); exposed for tests and the receiver fast path.
  const TableEntry* lookup(const Phv& phv) const;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Fast-path mirror of apply()'s hit/miss accounting: the fused per-task
  /// apply resolved the match at install time, but the counters are
  /// observable (mirrored into the metrics registry), so every fused pass
  /// must book the outcome it precomputed.
  void count_apply(bool hit) const { hit ? ++hits_ : ++misses_; }

  void set_hints(TableHints hints) { hints_ = hints; }
  const TableHints& hints() const { return hints_; }

 private:
  bool entry_matches(const TableEntry& e, const Phv& phv) const;
  std::string pack_exact_key(const Phv& phv) const;
  std::string pack_entry_key(const TableEntry& e) const;

  std::string name_;
  std::vector<MatchSpec> key_;
  std::size_t size_hint_;
  bool all_exact_;
  std::vector<TableEntry> entries_;
  std::unordered_map<std::string, std::size_t> exact_index_;
  std::optional<TableEntry> default_entry_;
  TableHints hints_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace ht::rmt
