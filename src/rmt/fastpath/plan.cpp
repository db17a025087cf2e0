#include "rmt/fastpath/plan.hpp"

namespace ht::rmt::fastpath {

namespace {

/// Intrinsic metadata the parser loads from the simulation layer. The fast
/// path resolves reads of these specially; a *write* would change what
/// later interpreted stages observe, so edits targeting them block fusion.
bool is_parser_intrinsic(net::FieldId f) {
  switch (f) {
    case net::FieldId::kMetaIngressPort:
    case net::FieldId::kMetaIngressTstamp:
    case net::FieldId::kMetaTemplateId:
    case net::FieldId::kMetaEgressPort:
    case net::FieldId::kPktLen:
      return true;
    default:
      return false;
  }
}

}  // namespace

FusedPlan analyze(const std::vector<htps::TemplateConfig>& templates,
                  const std::vector<htpr::QueryConfig>& queries) {
  FusedPlan plan;
  plan.templates.resize(templates.size());
  for (std::uint32_t t = 0; t < templates.size(); ++t) {
    TemplateFusion& tf = plan.templates[t];
    tf.template_id = t;

    // Editor program: every EditOp kind has a fused equivalent, but the
    // targets must be plain header/scratch fields.
    for (const htps::EditOp& op : templates[t].edits) {
      if (is_parser_intrinsic(op.field)) {
        tf.blockers.push_back("edit writes intrinsic metadata field " +
                              std::string(net::field_name(op.field)));
      }
    }

    // Sent-traffic queries ride the same egress pass as the editor.
    for (const auto& q : queries) {
      if (q.source != htpr::QueryConfig::Source::kSent || q.template_id != t) continue;
      if (htpr::keyed_aggregation(q)) {
        tf.blockers.push_back("sent query '" + q.name +
                              "' aggregates into a keyed counter store");
      }
      if (q.integrity.verify_checksums) {
        tf.blockers.push_back("sent query '" + q.name +
                              "' re-verifies checksums before deparse");
      }
      if (!q.response.rules.empty()) {
        tf.blockers.push_back("sent query '" + q.name +
                              "' classifies payload bytes before deparse");
      }
    }
  }
  return plan;
}

}  // namespace ht::rmt::fastpath
