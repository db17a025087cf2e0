// The htlint analyzer: runs every registered pass over one compiled task.
//
// Usage (what ntapi::Compiler::compile does after lowering):
//
//   analysis::AnalysisInput in{task, compiled, asic_cfg};
//   auto report = analysis::Analyzer::with_default_passes().run(in);
//   if (report.has_errors()) ...reject...
//
// Passes are independent and see the same immutable input; custom passes
// can be appended for project-specific rules.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "ntapi/compiler.hpp"
#include "rmt/asic.hpp"

namespace ht::analysis {

/// Everything a pass may look at: the source task (for value supports and
/// builder-level intent), the compiled artifact, and the target ASIC.
struct AnalysisInput {
  const ntapi::Task& task;
  const ntapi::CompiledTask& compiled;
  const rmt::AsicConfig& asic;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual void run(const AnalysisInput& in, AnalysisReport& out) const = 0;
};

class Analyzer {
 public:
  /// The nine built-in passes: stage-fit, SALU discipline, parser
  /// coverage, editor order, FIFO schema, dead/shadowed entries,
  /// symbolic path coverage (symx), fast-path fusion, response classes.
  static Analyzer with_default_passes();

  Analyzer() = default;
  void add_pass(std::unique_ptr<Pass> pass);
  std::size_t pass_count() const { return passes_.size(); }

  /// Run every pass and return the sorted report.
  AnalysisReport run(const AnalysisInput& in) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// --- built-in passes ---------------------------------------------------------

/// HT101: list-schedules the compiled tables into match-action stages and
/// reports programs needing more stages than the ASIC has, per-stage.
class StageFitPass : public Pass {
 public:
  std::string_view name() const override { return "stage-fit"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT102: a register accessed more than once — or read after written — by
/// tables the same packet can hit in a single pipeline pass.
class SaluDisciplinePass : public Pass {
 public:
  std::string_view name() const override { return "salu-discipline"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT103: every field the query programs or editor state indexing read
/// must be extracted on a reachable parser path of the monitored traffic.
class ParserCoveragePass : public Pass {
 public:
  std::string_view name() const override { return "parser-coverage"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT104: an editor action reading a field that a *later* action of the
/// same program writes observes the stale value on hardware.
class EditorOrderPass : public Pass {
 public:
  std::string_view name() const override { return "editor-order"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT105: trigger-FIFO lanes must agree between the HTPR record schema
/// and the HTPS template fields they feed (widths and lane indices).
class FifoSchemaPass : public Pass {
 public:
  std::string_view name() const override { return "fifo-schema"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT201/HT202/HT203/HT204: dead or shadowed entries in the generated
/// match tables — one interval walk (symx::Cube) over each query's filter
/// ops finds filters that can never match (HT201, contradicting earlier
/// filters; HT202, outside the monitored trigger's value support) and
/// filters that can never reject (HT204, every packet the earlier filters
/// admit already satisfies them); plus duplicate exact-match keys (HT203).
class DeadEntryPass : public Pass {
 public:
  std::string_view name() const override { return "dead-entries"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT301/HT302: symbolic-walk coverage — queries with zero feasible
/// matching paths, and exact-key entries outside the enumerated key space.
class SymxCoveragePass : public Pass {
 public:
  std::string_view name() const override { return "symx-coverage"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT205: a template that cannot run on the task-compiled fast path — one
/// warning per blocking construct from the fusion plan (CompiledTask::
/// fused). The template still runs correctly, interpreted.
class FusionPass : public Pass {
 public:
  std::string_view name() const override { return "fastpath-fusion"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

/// HT206: unreachable or ambiguous response-classification rules —
/// duplicate class names, and rules shadowed by an earlier rule whose
/// match pattern is a superset at the same payload offset (first match
/// wins, so the later rule never fires).
class ResponseClassPass : public Pass {
 public:
  std::string_view name() const override { return "response-classes"; }
  void run(const AnalysisInput& in, AnalysisReport& out) const override;
};

}  // namespace ht::analysis
