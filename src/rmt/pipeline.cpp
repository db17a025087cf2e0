#include "rmt/pipeline.hpp"

#include "telemetry/metrics.hpp"

namespace ht::rmt {

MatchActionTable& Pipeline::add_table(std::string table_name, std::optional<net::FieldId> key,
                                      std::size_t size_hint, GatewayFn gate) {
  nodes_.push_back(PipelineNode{
      std::make_unique<MatchActionTable>(std::move(table_name), key, size_hint),
      std::move(gate), -1});
  return *nodes_.back().table;
}

void Pipeline::apply(ActionContext& ctx) {
  for (auto& node : nodes_) {
    if (node.gate && !node.gate(ctx.phv)) continue;
    node.table->apply(ctx);
  }
}

bool Pipeline::place() {
  // Sequential dependence: every table may read what the previous wrote, so
  // the conservative placement is one stage per table.
  int stage = 0;
  for (auto& node : nodes_) {
    if (stage >= max_stages_) return false;
    node.stage = stage++;
  }
  return true;
}

int Pipeline::stages_used() const {
  int used = 0;
  for (const auto& node : nodes_) {
    if (node.stage >= used) used = node.stage + 1;
  }
  return used;
}

void Pipeline::register_metrics(telemetry::MetricsRegistry& reg) const {
  reg.mirror_gauge(
      "ht_pipeline_stages_used", [this] { return static_cast<std::int64_t>(stages_used()); },
      {.labels = {{"pipe", name_}},
       .help = "physical stages occupied by the placed program"});
  for (const auto& node : nodes_) {
    const MatchActionTable* t = node.table.get();
    const std::vector<telemetry::Label> labels = {
        {"pipe", name_}, {"table", t->name()}, {"stage", std::to_string(node.stage)}};
    reg.mirror_counter("ht_pipeline_table_hits_total", [t] { return t->hits(); },
                       {.labels = labels, .help = "packets matched by this table"});
    reg.mirror_counter("ht_pipeline_table_misses_total", [t] { return t->misses(); },
                       {.labels = labels, .help = "packets that missed this table"});
  }
}

}  // namespace ht::rmt
