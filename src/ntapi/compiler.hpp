// The NTAPI compiler (§5.1 "compiling packet stream triggers to HTPS" and
// §5.2 "compiling packet stream queries to HTPR").
//
// compile() turns a Task into everything the runtime needs:
//  - one template-packet configuration per trigger (template bytes, mcast
//    ports, rate-timer settings, editor program);
//  - one query configuration per query (operator program, counter-store
//    shape, precomputed exact-match keys for false-positive freedom);
//  - the trigger-FIFO schemas wiring query-based triggers to their source
//    queries (stateless connections);
//  - the generated P4 program text (Table 5's middle column).
//
// Invalid tasks are rejected with every validation error attached
// (§6.1: "HyperTester will reject the mistaken testing tasks").
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "htps/sender.hpp"
#include "htpr/receiver.hpp"
#include "ntapi/task.hpp"
#include "ntapi/validation.hpp"
#include "rmt/fastpath/plan.hpp"

namespace ht::ntapi {

class CompileError : public std::runtime_error {
 public:
  explicit CompileError(std::vector<ValidationError> errors);
  const std::vector<ValidationError>& errors() const { return errors_; }

 private:
  static std::string format(const std::vector<ValidationError>& errors);
  std::vector<ValidationError> errors_;
};

struct CompiledQuery {
  htpr::QueryConfig config;
  /// Colliding keys to install in the exact-key-matching table.
  std::vector<std::vector<std::uint64_t>> exact_keys;
  /// False when the key space could not be enumerated (foreign traffic or
  /// space beyond the cap) — the query then runs best-effort.
  bool false_positive_free = true;
  std::size_t key_space_size = 0;
};

/// One trigger FIFO of a stateless connection (§5.3): the query at
/// `query_index` pushes a record of `lanes` per surviving packet, and the
/// template at `trigger_index` pops one per loop. Every kFromTrigger edit
/// of that template indexes into `lanes`.
struct FifoWiring {
  std::size_t trigger_index = 0;
  std::size_t query_index = 0;
  std::vector<net::FieldId> lanes;
  std::size_t capacity = 1024;  ///< records; a power of two
};

struct CompiledTask {
  std::string name;
  std::vector<htps::TemplateConfig> templates;  ///< index = trigger handle
  std::vector<CompiledQuery> queries;           ///< index = query handle
  std::vector<FifoWiring> fifos;
  std::string p4_source;
  std::size_t p4_loc = 0;     ///< non-empty generated lines (Table 5)
  std::size_t ntapi_loc = 0;  ///< NTAPI statements (Table 5)
  std::vector<std::string> warnings;
  /// Static-analysis report over the compiled artifacts (htlint). A task
  /// returned by compile() carries warnings only; analysis errors are
  /// rejected with CompileError.
  analysis::AnalysisReport analysis;
  /// Chaos profile carried through from the task (ntapi::Task::set_chaos);
  /// applied by the runtime when the task starts.
  std::optional<ChaosSpec> chaos;
  /// Per-template fast-path fusion verdicts (rmt/fastpath/plan.hpp).
  /// Consumed by the HT205 lint pass and by HyperTester::load() when it
  /// binds the fused engine; unfusable templates run interpreted.
  rmt::fastpath::FusedPlan fused;

  /// Task-level span annotations: names the trace process after the task
  /// and drops one instant per installed trigger/query/FIFO wiring on the
  /// task track at time `now_ns`, so a Perfetto view of a run opens with
  /// the task structure at the top. Called by HyperTester::load().
  void annotate_trace(telemetry::TraceRecorder& tr, std::uint64_t now_ns) const;
};

class Compiler {
 public:
  explicit Compiler(rmt::AsicConfig asic_cfg = {}) : asic_cfg_(asic_cfg) {}

  /// Throws CompileError on validation failure or when the static
  /// analyzer finds an error (HT1xx) in the compiled artifacts.
  CompiledTask compile(const Task& task) const;

  /// Run validation + the static analyzer without throwing: validation
  /// failures come back as HT100 error diagnostics, analyzer findings
  /// verbatim. This is what `ntapi_cli lint` prints.
  analysis::AnalysisReport lint(const Task& task) const;

  /// The CPU-side template recipe for one trigger (exposed for tests and
  /// the header-space analysis).
  static htps::TemplateSpec build_template_spec(const Task& task, std::size_t trigger_index);

  /// Cap on key-space enumeration for false-positive analysis.
  std::size_t key_space_cap = 4'000'000;

 private:
  /// Lowering only (templates, queries, FIFOs, P4); assumes a valid task.
  CompiledTask lower(const Task& task) const;

  rmt::AsicConfig asic_cfg_;
};

}  // namespace ht::ntapi
