#include "analysis/analyzer.hpp"

namespace ht::analysis {

Analyzer Analyzer::with_default_passes() {
  Analyzer a;
  a.add_pass(std::make_unique<StageFitPass>());
  a.add_pass(std::make_unique<SaluDisciplinePass>());
  a.add_pass(std::make_unique<ParserCoveragePass>());
  a.add_pass(std::make_unique<EditorOrderPass>());
  a.add_pass(std::make_unique<FifoSchemaPass>());
  a.add_pass(std::make_unique<DeadEntryPass>());
  a.add_pass(std::make_unique<SymxCoveragePass>());
  a.add_pass(std::make_unique<FusionPass>());
  a.add_pass(std::make_unique<ResponseClassPass>());
  return a;
}

void Analyzer::add_pass(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }

AnalysisReport Analyzer::run(const AnalysisInput& in) const {
  AnalysisReport report;
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    const std::size_t before = report.diagnostics.size();
    passes_[i]->run(in, report);
    for (std::size_t d = before; d < report.diagnostics.size(); ++d) {
      report.diagnostics[d].pass_id = static_cast<std::uint16_t>(i + 1);
    }
  }
  report.sort();
  return report;
}

}  // namespace ht::analysis
