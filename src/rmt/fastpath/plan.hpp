// Fusion planning: compile-time analysis of which template classes can run
// on the task-compiled fast path.
//
// At ntapi::compile() time, analyze() inspects the compiled templates and
// queries and records, per template, every construct that prevents fusing
// its per-packet walk into one specialized apply function. The plan is an
// artifact on CompiledTask: the HT205 lint pass reports the blockers, the
// fast-path engine (engine.hpp) consumes the verdicts at bind time, and an
// unfusable template simply stays on the interpreted reference path —
// fallback is a counted, linted event, never a correctness risk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "htpr/receiver.hpp"
#include "htps/sender.hpp"

namespace ht::rmt::fastpath {

/// Per-template fusion verdict. An empty blocker list means the template's
/// full egress walk (editor + sent queries + deparse + checksum fix) and
/// its recirculation ingress walk can be fused.
struct TemplateFusion {
  std::uint32_t template_id = 0;
  /// Human-readable blocking constructs (surfaced verbatim by HT205).
  std::vector<std::string> blockers;
  bool fusable() const { return blockers.empty(); }
};

struct FusedPlan {
  std::vector<TemplateFusion> templates;

  bool all_fusable() const {
    for (const auto& t : templates) {
      if (!t.fusable()) return false;
    }
    return true;
  }
};

/// Analyze one compiled task's templates against its queries.
FusedPlan analyze(const std::vector<htps::TemplateConfig>& templates,
                  const std::vector<htpr::QueryConfig>& queries);

}  // namespace ht::rmt::fastpath
