// Match-action tables.
//
// A table is either exact on one field (the HTPS replicator and editor,
// keyed by template id) or keyless (every HTPR table, which runs its
// default action behind a gateway). Exact entries live in a hash index
// keyed by the field value, as SRAM exact tables do; a keyless table
// holds no entries and books one miss per apply.
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
  /// `key` is the exact-match field; nullopt (or `{}`) makes a keyless table.
  MatchActionTable(std::string name, std::optional<net::FieldId> key,
                   std::size_t size_hint = 1024);

  const std::string& name() const { return name_; }
  std::size_t size_hint() const { return size_hint_; }

  /// Install the entry for key value `value`. Throws std::logic_error on a
  /// keyless table, std::length_error past the declared size and
  /// std::invalid_argument on a duplicate value.
  void add_entry(std::uint64_t value, ActionFn action);
  void set_default(ActionFn action);

  /// Match + execute: runs the hit entry's action or the default action.
  /// Returns true on hit.
  bool apply(ActionContext& ctx);

  /// Match only (no action): the hit entry's action (possibly empty), or
  /// null on a miss. Books the hit or miss like apply().
  const ActionFn* lookup(const Phv& phv) const;

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
  std::string name_;
  std::optional<net::FieldId> key_;
  std::size_t size_hint_;
  std::unordered_map<std::uint64_t, ActionFn> entries_;
  ActionFn default_action_;
  TableHints hints_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace ht::rmt
