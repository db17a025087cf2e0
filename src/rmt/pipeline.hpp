// Pipeline: an ordered program of gateway-guarded match-action tables,
// placed onto physical stages for resource/feasibility accounting.
//
// Execution is sequential (the RMT model executes one table per stage per
// packet; our logical tables are assigned to stages first-fit). A gateway
// is a predicate on the PHV — the hardware's condition resources.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rmt/table.hpp"

namespace ht::telemetry {
class MetricsRegistry;
}

namespace ht::rmt {

using GatewayFn = std::function<bool(const Phv&)>;

struct PipelineNode {
  std::unique_ptr<MatchActionTable> table;
  GatewayFn gate;  ///< table runs only when null or true
  int stage = -1;  ///< physical stage assigned by place()
};

/// One step of a task-compiled (fused) pipeline program: the match outcome
/// was resolved at install time (the key is an install-time constant for
/// the specialized packet class), so executing the step is bookkeeping on
/// the original table plus a straight call into the fused action body.
/// A null body is a pure counting step (gate passes, nothing to execute).
template <class Ctx>
struct FusedStep {
  MatchActionTable* table = nullptr;
  bool hit = false;  ///< precomputed match outcome to book on `table`
  std::function<void(Ctx&)> body;
};

/// A fused pipeline program: the whole per-packet walk for one packet
/// class, flattened to a step list at install time by the fast-path binder
/// (src/rmt/fastpath/). Steps appear in original table order; tables whose
/// gate is statically false for the class are absent entirely (matching
/// the interpreted walk, which books nothing for gated-off tables).
template <class Ctx>
struct FusedProgram {
  std::vector<FusedStep<Ctx>> steps;
};

class Pipeline {
 public:
  explicit Pipeline(std::string name, int max_stages = 12) : name_(std::move(name)),
                                                             max_stages_(max_stages) {}

  /// Append a table; returns a stable reference for entry installation.
  /// `key` is the exact-match field, or `{}` for a keyless table.
  MatchActionTable& add_table(std::string table_name, std::optional<net::FieldId> key,
                              std::size_t size_hint = 1024, GatewayFn gate = nullptr);

  /// Run every (gated) table in order over the PHV.
  void apply(ActionContext& ctx);

  /// Run a task-compiled program (built at install time by the fast-path
  /// binder) instead of the interpreted walk: per-table hit/miss booking
  /// plus straight-line fused bodies, no gateway evaluation and no key
  /// lookup. Counter-equivalent to apply() on the packet class the
  /// program was specialized for; the differential test
  /// (tests/fastpath_diff_test.cpp) enforces this byte-for-byte.
  template <class Ctx>
  void apply_fused(const FusedProgram<Ctx>& prog, Ctx& ctx) const {
    for (const auto& step : prog.steps) {
      step.table->count_apply(step.hit);
      if (step.body) step.body(ctx);
    }
  }

  /// Install-time introspection for the fast-path binder: the ordered node
  /// list (tables + gates + stages). Mutating table entries through this
  /// view after binding would desynchronize fused programs — binding
  /// happens once per load, after installation is complete.
  const std::vector<PipelineNode>& nodes() const { return nodes_; }

  /// Assign logical tables to physical stages (each table gets its own
  /// stage; dependent chains longer than max_stages are infeasible).
  /// Returns false when the program does not fit — the compiler surfaces
  /// this as a task rejection (§6.1 "errors in network testing tasks").
  bool place();
  int stages_used() const;
  int max_stages() const { return max_stages_; }

  std::size_t table_count() const { return nodes_.size(); }
  const std::string& name() const { return name_; }

  /// Mirror per-table hit/miss counters and stage occupancy into `reg`
  /// (labels: pipe/table/stage). Call after place(); the mirrors sample the
  /// live tables, so the program must stay installed for the registry's
  /// lifetime (HyperTester registers once per load, and a loaded task
  /// cannot be replaced on the same instance).
  void register_metrics(telemetry::MetricsRegistry& reg) const;

  void clear() { nodes_.clear(); }

 private:
  std::string name_;
  int max_stages_;
  std::vector<PipelineNode> nodes_;
};

}  // namespace ht::rmt
