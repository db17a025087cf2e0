// FIFO-schema (HT105) and dead/shadowed-entry (HT201/202/203/204) passes.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/symx/solver.hpp"

namespace ht::analysis {

namespace {

/// The record schema a query-based trigger implies: every query field it
/// references, de-duplicated in reference order (mirrors the compiler).
std::vector<net::FieldId> implied_lanes(const ntapi::Trigger& trig) {
  std::vector<net::FieldId> lanes;
  for (const auto& binding : trig.bindings()) {
    if (const auto* ref = std::get_if<ntapi::QueryFieldRef>(&binding.source)) {
      if (std::find(lanes.begin(), lanes.end(), ref->field) == lanes.end()) {
        lanes.push_back(ref->field);
      }
    }
  }
  return lanes;
}

std::string lane_list(const std::vector<net::FieldId>& lanes) {
  std::string out = "[";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string(net::field_name(lanes[i]));
  }
  return out + "]";
}

/// The values a trigger's value binding can put on the wire, as a set
/// over the field's domain: exact for constants, arrays, random buckets
/// and ranges of up to 4096 points; the [min, max] hull beyond that.
symx::IntervalSet value_support(const ntapi::Value& v) {
  if (const auto* r = std::get_if<ntapi::RangeArray>(&v.get())) {
    return symx::IntervalSet::stepped(r->start, v.max_value(), r->step);
  }
  std::vector<std::uint64_t> values;
  if (!v.enumerate(values, 4096)) return symx::IntervalSet::range(v.min_value(), v.max_value());
  std::sort(values.begin(), values.end());
  symx::IntervalSet s;
  for (const auto x : values) s.union_with(symx::IntervalSet::singleton(x));
  return s;
}

std::string cmp_name(htpr::Cmp cmp) {
  switch (cmp) {
    case htpr::Cmp::kEq:
      return "==";
    case htpr::Cmp::kNe:
      return "!=";
    case htpr::Cmp::kLt:
      return "<";
    case htpr::Cmp::kLe:
      return "<=";
    case htpr::Cmp::kGt:
      return ">";
    case htpr::Cmp::kGe:
      return ">=";
  }
  return "?";
}

}  // namespace

void FifoSchemaPass::run(const AnalysisInput& in, AnalysisReport& out) const {
  for (const auto& w : in.compiled.fifos) {
    const std::string where = "trigger[" + std::to_string(w.trigger_index) + "]";
    if (w.trigger_index >= in.task.triggers().size() ||
        w.query_index >= in.task.queries().size()) {
      out.diagnostics.push_back({Severity::kError, "HT105", where,
                                 "trigger-FIFO wiring references a nonexistent trigger or query",
                                 ""});
      continue;
    }
    const auto& trig = in.task.triggers()[w.trigger_index];

    // Both sides must agree on the record schema: HTPR pushes the lanes in
    // this order, HTPS pops them by index.
    const auto expected = implied_lanes(trig);
    if (expected != w.lanes) {
      out.diagnostics.push_back(
          {Severity::kError, "HT105", where,
           "trigger-FIFO schema out of sync: the HTPR record carries " + lane_list(w.lanes) +
               " but the template's field references imply " + lane_list(expected),
           "recompile the task; hand-edited wirings must list one lane per referenced field"});
    }

    // Width check: a record lane must fit the template field it feeds.
    for (const auto& binding : trig.bindings()) {
      const auto* ref = std::get_if<ntapi::QueryFieldRef>(&binding.source);
      if (ref == nullptr) continue;
      const auto src_bits = net::field_width(ref->field);
      const auto dst_bits = net::field_width(binding.field);
      if (src_bits > dst_bits) {
        out.diagnostics.push_back(
            {Severity::kError, "HT105", where,
             "record lane '" + std::string(net::field_name(ref->field)) + "' (" +
                 std::to_string(src_bits) + " bits) does not fit template field '" +
                 std::string(net::field_name(binding.field)) + "' (" +
                 std::to_string(dst_bits) + " bits)",
             "feed the value into a field at least as wide as the recorded lane"});
      }
    }

    // Editor ops must only read lanes the record schema provides.
    const auto& edits = in.compiled.templates[w.trigger_index].edits;
    for (std::size_t j = 0; j < edits.size(); ++j) {
      if (edits[j].kind != htps::EditOp::Kind::kFromTrigger) continue;
      if (edits[j].trigger_lane >= w.lanes.size()) {
        out.diagnostics.push_back(
            {Severity::kError, "HT105", where + ".edit[" + std::to_string(j) + "]",
             "editor reads record lane " + std::to_string(edits[j].trigger_lane) +
                 " but the trigger-FIFO schema has only " + std::to_string(w.lanes.size()) +
                 " lane(s)",
             ""});
      }
    }
  }
}

void DeadEntryPass::run(const AnalysisInput& in, AnalysisReport& out) const {
  for (std::size_t q = 0; q < in.compiled.queries.size(); ++q) {
    const std::string where = "query[" + std::to_string(q) + "]";

    // A sent-traffic query observes exactly what the monitored trigger's
    // editor emits, so its value bindings bound what a filter can see.
    const ntapi::Trigger* trig = nullptr;
    if (q < in.task.queries().size()) {
      const auto& handle = in.task.queries()[q].monitored_trigger();
      if (handle && handle->index < in.task.triggers().size()) trig = &in.task.trigger(*handle);
    }

    // The filters compile to a priority-ordered rule chain. `traffic` is
    // what survives the filters so far, seeded with each field's value
    // support; `chain` is the key space the earlier rules alone admit.
    symx::Cube traffic;
    symx::Cube chain;
    const auto& ops = in.compiled.queries[q].config.ops;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const auto* f = std::get_if<htpr::FilterOp>(&ops[j]);
      if (f == nullptr || f->on_result) continue;
      const std::string field = std::string(net::field_name(f->field));
      const unsigned width = net::field_width(f->field);
      const symx::IntervalSet pass = symx::IntervalSet::from_cmp(f->cmp, f->value, width);

      // A filter whose pass set contains everything the earlier rules let
      // through can never reject a packet: its reject rule is shadowed.
      if (chain.feasible()) {
        if (chain.get(f->field).subset_of(pass)) {
          out.diagnostics.push_back(
              {Severity::kWarning, "HT204", where,
               "filter op[" + std::to_string(j) + "] on " + field +
                   " is shadowed: every packet the earlier filters admit already satisfies it",
               "remove the redundant filter or tighten its comparison"});
        }
        chain.meet(f->field, pass);
      }

      // The field's support: what the monitored trigger generates when it
      // binds the field, else the field's whole domain.
      symx::IntervalSet support = symx::IntervalSet::full(width);
      bool bound = false;
      if (trig != nullptr) {
        if (const auto* b = trig->find(f->field)) {
          if (const auto* v = std::get_if<ntapi::Value>(&b->source)) {
            support = value_support(*v);
            bound = true;
          }
        }
      }
      const std::string pred = field + " " + cmp_name(f->cmp) + " " + std::to_string(f->value);

      // Dead against the support alone?
      symx::IntervalSet hit = support;
      hit.intersect_with(pass);
      if (hit.empty()) {
        const std::string range =
            "[" + std::to_string(support.min()) + ", " + std::to_string(support.max()) + "]";
        if (bound) {
          out.diagnostics.push_back(
              {Severity::kWarning, "HT202", where,
               "filter '" + pred + "' never matches the monitored trigger's traffic (" +
                   field + " is generated in " + range + ")",
               "adjust the filter or the trigger's value binding"});
        } else {
          out.diagnostics.push_back({Severity::kWarning, "HT202", where,
                                     "filter '" + pred + "' never matches: " + field +
                                         " only takes values in " + range,
                                     "adjust the filter's comparison"});
        }
        continue;
      }

      // Dead against the earlier filters? Only the first is reported.
      if (traffic.feasible() && !traffic.meet(f->field, hit)) {
        out.diagnostics.push_back(
            {Severity::kWarning, "HT201", where,
             "filter '" + pred + "' is shadowed by earlier filters on '" + field +
                 "' and can never match",
             "remove or merge the contradictory filters"});
      }
    }

    // Duplicate keys in the exact-key-matching table shadow each other:
    // only the first entry's counter ever updates.
    std::set<std::vector<std::uint64_t>> unique;
    for (const auto& key : in.compiled.queries[q].exact_keys) {
      if (!unique.insert(key).second) {
        out.diagnostics.push_back(
            {Severity::kWarning, "HT203", where,
             "duplicate entry in the exact-key-matching table (the second entry is "
             "shadowed and its counter never updates)",
             "deduplicate the precomputed collision keys"});
      }
    }
  }
}

}  // namespace ht::analysis
