// htlint diagnostics (§6.1 "HyperTester will reject the mistaken testing
// tasks" — the compiled-artifact half).
//
// `ntapi::validate` checks the *source* task: field widths, handle
// references, operator sequences. The analysis passes in this directory
// check the *compiled* artifact: the generated table/editor programs, the
// register access patterns, and whether the pipeline fits the ASIC. Every
// finding is a `Diagnostic` with a stable code suitable for golden-file
// testing:
//
//   HT100  validation error surfaced through the lint entry point
//   HT101  pipeline does not fit the ASIC's match-action stages
//   HT102  SALU discipline: register accessed twice in one pipeline pass
//   HT103  parser coverage: field read but never extracted on the
//          monitored traffic's parse path
//   HT104  editor dependency order: action reads a field a later action
//          in the same program writes
//   HT105  trigger-FIFO schema mismatch between HTPR record and HTPS
//          template
//   HT201  query filter shadowed by earlier filters (can never match)
//   HT202  sent-traffic filter dead against the trigger's value support
//   HT203  duplicate entry in the exact-key-matching table (shadowed)
//   HT204  rule shadowed: a filter no packet reaching it can fail (the
//          earlier filters' key space lies inside its pass set)
//   HT205  template cannot run on the task-compiled fast path (one
//          warning per blocking construct; falls back to interpreted)
//   HT206  response-classification rule unreachable (shadowed by an
//          earlier rule) or ambiguous (duplicate class name)
//   HT301  symbolic walk found zero feasible matching paths for a query
//   HT302  exact-key table entry outside the enumerated key space
//
// HT1xx are errors (compile() refuses the task); HT2xx/HT3xx are warnings
// (carried through CompiledTask). HT201, HT202 and HT204 come from one
// interval walk over each query's filters (DeadEntryPass, on the symx
// solver); HT301 and HT302 from the symbolic model (SymxCoveragePass).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ht::analysis {

enum class Severity : std::uint8_t { kWarning, kError };

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;     ///< "HT102"
  std::string where;    ///< "trigger[0]", "query[2]", "stage 4"
  std::string message;  ///< what is wrong
  std::string hint;     ///< how to fix it (may be empty)
  /// Ordinal of the emitting pass (1-based, stamped by Analyzer::run; 0
  /// for diagnostics injected outside a pass). Primary sort key, so the
  /// report order is byte-stable regardless of code numbering.
  std::uint16_t pass_id = 0;
};

/// One line, stable across runs: "HT102 error trigger[0]: message".
std::string format(const Diagnostic& d);

/// The result of running every analysis pass over one compiled task.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  /// Match-action stages the placement model needed (<= max_stages when
  /// the stage-fit pass is silent).
  std::size_t stages_used = 0;

  bool has_errors() const;
  std::size_t error_count() const;
  std::size_t warning_count() const;
  /// Deterministic order for printing and golden files: (pass id,
  /// location, code, message). Pass-id-first keeps the order byte-stable
  /// when a pass gains new codes; within the default registration order
  /// errors (HT1xx passes) still precede warnings.
  void sort();
};

}  // namespace ht::analysis
