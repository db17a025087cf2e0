// The symx-backed lint pass (HT301/302). It runs inside the default
// analyzer, so every ntapi::Compiler::compile carries its findings;
// `ntapi_cli lint` surfaces them as warnings.
#include <string>
#include <variant>

#include "analysis/analyzer.hpp"
#include "analysis/symx/model.hpp"

namespace ht::analysis {

namespace {

std::string qwhere(std::size_t q) { return "query[" + std::to_string(q) + "]"; }

}  // namespace

void SymxCoveragePass::run(const AnalysisInput& in, AnalysisReport& out) const {
  symx::TaskModel model(in.task, in.compiled, in.asic);

  for (std::size_t q = 0; q < in.compiled.queries.size(); ++q) {
    // HT301: the symbolic walk found no packet that survives every
    // operator — the query's match rules are dead. Suppressed when the
    // dead-entry pass already pinpointed the contradiction (HT201/HT202).
    if (model.feasible_match_paths(q) == 0) {
      bool flagged = false;
      for (const auto& d : out.diagnostics) {
        if ((d.code == "HT201" || d.code == "HT202") && d.where == qwhere(q)) flagged = true;
      }
      if (!flagged) {
        out.diagnostics.push_back(
            {Severity::kWarning, "HT301", qwhere(q),
             "symbolic walk found no feasible matching path: the query can never match",
             "check the filter chain against the monitored traffic"});
      }
      continue;
    }

    // HT302: a precomputed exact-key entry whose key value lies outside
    // the pass-path key space — the entry can never be hit.
    const auto& cq = in.compiled.queries[q];
    if (cq.config.source != htpr::QueryConfig::Source::kReceived) continue;
    std::vector<net::FieldId> keys;
    for (const auto& op : cq.config.ops) {
      if (const auto* m = std::get_if<htpr::MapOp>(&op)) keys = m->keys;
    }
    if (keys.empty() || cq.exact_keys.empty()) continue;
    const symx::PathInfo* pass = nullptr;
    for (const auto& p : model.paths()) {
      if (p.query == q && p.id == qwhere(q) + "/pass") pass = &p;
    }
    if (pass == nullptr || !pass->feasible) continue;
    for (std::size_t k = 0; k < cq.exact_keys.size(); ++k) {
      if (cq.exact_keys[k].size() != keys.size()) continue;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!model.field_extracted(model.query_l4(q), keys[i])) continue;
        if (!pass->cube.get(keys[i]).contains(cq.exact_keys[k][i])) {
          out.diagnostics.push_back(
              {Severity::kWarning, "HT302", qwhere(q),
               "exact-key entry " + std::to_string(k) + " lies outside the feasible key space on " +
                   std::string(net::field_name(keys[i])),
               "the entry can never be hit; drop it or widen the filters"});
          break;
        }
      }
    }
  }
}

}  // namespace ht::analysis
