#include "ntapi/validation.hpp"

#include "net/headers.hpp"

namespace ht::ntapi {

namespace {

bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Is `field` present in the canonical stack ending in `l4`?
bool field_in_stack(net::FieldId field, net::HeaderKind l4) {
  const auto h = net::field_header(field);
  switch (h) {
    case net::HeaderKind::kEthernet:
    case net::HeaderKind::kIpv4:
      return true;
    case net::HeaderKind::kNone:
      return true;  // control/meta fields are always addressable
    default:
      return h == l4;
  }
}

/// The largest value `value` puts on the wire. A random value emits only
/// its inverse-transform bucket values, so its bound is the largest
/// bucket, not max_value()'s analytic tail (mean + 6 sigma for a normal).
/// A random value whose table cannot be built keeps the analytic bound;
/// check_value reports its parameters.
std::uint64_t emitted_max(const Value& value) {
  const auto* rnd = std::get_if<RandomArray>(&value.get());
  if (rnd == nullptr || rnd->buckets == 0 || rnd->rng_bits == 0 || rnd->rng_bits > 32 ||
      (rnd->dist == RandomArray::Dist::kUniform && (rnd->p1 < 0 || rnd->p2 < rnd->p1))) {
    return value.max_value();
  }
  std::vector<std::uint64_t> support;  // sorted: enumerate lists a random value's buckets in order
  if (!value.enumerate(support, rnd->buckets) || support.empty()) return value.max_value();
  return support.back();
}

void check_value(const Value& value, net::FieldId field, const std::string& where,
                 std::vector<ValidationError>& errors) {
  const auto max = net::FieldRegistry::instance().max_value(field);
  if (emitted_max(value) > max) {
    errors.push_back({where, "value " + value.to_string() + " exceeds width of " +
                                 std::string(net::field_name(field)) + " (max " +
                                 std::to_string(max) + ")"});
  }
  if (const auto* arr = std::get_if<ValueArray>(&value.get()); arr && arr->values.empty()) {
    errors.push_back({where, "empty value array for " + std::string(net::field_name(field))});
  }
  if (const auto* range = std::get_if<RangeArray>(&value.get())) {
    if (range->step == 0) errors.push_back({where, "range step must be nonzero"});
    if (range->end < range->start) errors.push_back({where, "range end precedes start"});
  }
  if (const auto* rnd = std::get_if<RandomArray>(&value.get())) {
    if (rnd->dist == RandomArray::Dist::kUniform && rnd->p2 < rnd->p1) {
      errors.push_back({where, "uniform random upper bound below lower bound"});
    }
    if (rnd->dist == RandomArray::Dist::kNormal && rnd->p2 < 0) {
      errors.push_back({where, "normal stddev must be non-negative"});
    }
    if (rnd->dist == RandomArray::Dist::kExponential && rnd->p1 <= 0) {
      errors.push_back({where, "exponential mean must be positive"});
    }
    if (rnd->rng_bits == 0 || rnd->rng_bits > 32) {
      errors.push_back({where, "rng width must be 1..32 bits"});
    }
  }
}

}  // namespace

net::HeaderKind infer_l4(const Trigger& trigger) {
  if (const auto* b = trigger.find(net::FieldId::kIpv4Proto)) {
    if (const auto* v = std::get_if<Value>(&b->source); v && v->is_constant()) {
      switch (v->initial_value()) {
        case net::ipproto::kTcp:
          return net::HeaderKind::kTcp;
        case net::ipproto::kIcmp:
          return net::HeaderKind::kIcmp;
        case net::ipproto::kNvp:
          return net::HeaderKind::kNvp;
        default:
          return net::HeaderKind::kUdp;
      }
    }
  }
  // No explicit proto: infer from the L4 fields the trigger touches.
  for (const auto& b : trigger.bindings()) {
    const auto h = net::field_header(b.field);
    if (h == net::HeaderKind::kTcp || h == net::HeaderKind::kIcmp ||
        h == net::HeaderKind::kNvp) {
      return h;
    }
  }
  return net::HeaderKind::kUdp;
}

std::vector<ValidationError> validate(const Task& task, const rmt::AsicConfig& asic_cfg) {
  std::vector<ValidationError> errors;

  if (task.triggers().empty() && task.queries().empty()) {
    errors.push_back({"task", "task defines no triggers and no queries"});
  }

  for (std::size_t t = 0; t < task.triggers().size(); ++t) {
    const auto& trig = task.triggers()[t];
    const std::string where = "trigger[" + std::to_string(t) + "]";
    const auto l4 = infer_l4(trig);

    if (trig.source_query()) {
      const auto q = trig.source_query()->index;
      if (q >= task.queries().size()) {
        errors.push_back({where, "trigger references nonexistent query " + std::to_string(q)});
      } else if (task.queries()[q].monitored_trigger()) {
        errors.push_back(
            {where, "query-based triggers must be driven by a received-traffic query"});
      }
    }

    for (const auto& binding : trig.bindings()) {
      if (!field_in_stack(binding.field, l4)) {
        errors.push_back({where, std::string(net::field_name(binding.field)) +
                                     " is not part of the trigger's header stack"});
      }
      if (net::is_metadata_field(binding.field)) {
        errors.push_back({where, "cannot set ASIC metadata field " +
                                     std::string(net::field_name(binding.field))});
      }
      if (const auto* value = std::get_if<Value>(&binding.source)) {
        check_value(*value, binding.field, where, errors);
      } else if (std::holds_alternative<QueryFieldRef>(binding.source)) {
        if (!trig.source_query()) {
          errors.push_back({where, "field reference (Q.field) requires a query-based trigger"});
        }
      } else if (const auto* meta = std::get_if<MetaFieldRef>(&binding.source)) {
        if (!net::is_metadata_field(meta->field)) {
          errors.push_back({where, "from_meta() requires an ASIC metadata source field"});
        }
      }
    }

    // Control fields: packet length within the canonical stack and MTU;
    // ports within the panel; interval constant or random.
    if (const auto* b = trig.find(net::FieldId::kPktLen)) {
      if (const auto* v = std::get_if<Value>(&b->source)) {
        if (v->min_value() < net::min_packet_size(l4)) {
          errors.push_back({where, "pkt_len smaller than the header stack (" +
                                       std::to_string(net::min_packet_size(l4)) + "B)"});
        }
        if (v->max_value() > 1500) {
          errors.push_back({where, "pkt_len exceeds the 1500B MTU"});
        }
      }
    }
    if (const auto* b = trig.find(net::FieldId::kPort)) {
      if (const auto* v = std::get_if<Value>(&b->source)) {
        if (v->max_value() >= asic_cfg.num_ports) {
          errors.push_back({where, "injection port beyond the switch panel (" +
                                       std::to_string(asic_cfg.num_ports) + " ports)"});
        }
      }
    }
    if (const auto* b = trig.find(net::FieldId::kInterval)) {
      if (const auto* v = std::get_if<Value>(&b->source)) {
        if (!v->is_constant() && !v->is_random()) {
          errors.push_back({where, "interval must be a constant or a random distribution"});
        }
      }
    }
    if (const auto* b = trig.find(net::FieldId::kLoop)) {
      const auto* v = std::get_if<Value>(&b->source);
      if (v == nullptr || !v->is_constant()) {
        errors.push_back({where, "loop must be a constant"});
      }
    }

    // CPS ramp schedules: fixed-duration steps followed by an optional
    // open-ended hold; the schedule replaces (not augments) the interval.
    if (!trig.ramp().empty()) {
      if (trig.find(net::FieldId::kInterval) != nullptr) {
        errors.push_back({where, "interval ramp conflicts with set(interval, ...)"});
      }
      if (trig.source_query()) {
        errors.push_back({where, "interval ramp on a query-based trigger"});
      }
      for (std::size_t s = 0; s < trig.ramp().size(); ++s) {
        if (trig.ramp()[s].duration_ns == 0 && s + 1 != trig.ramp().size()) {
          errors.push_back({where, "ramp step " + std::to_string(s) +
                                       " holds forever but is not the final step"});
        }
      }
    }
  }

  for (std::size_t q = 0; q < task.queries().size(); ++q) {
    const auto& query = task.queries()[q];
    const std::string where = "query[" + std::to_string(q) + "]";

    if (query.monitored_trigger() &&
        query.monitored_trigger()->index >= task.triggers().size()) {
      errors.push_back({where, "query monitors nonexistent trigger"});
    }
    for (const auto p : query.ports()) {
      if (p >= asic_cfg.num_ports) {
        errors.push_back({where, "monitor port beyond the switch panel"});
      }
    }
    if (!is_power_of_two(query.store_buckets())) {
      errors.push_back({where, "store buckets must be a power of two"});
    }
    if (query.store_digest_bits() != 16 && query.store_digest_bits() != 32) {
      errors.push_back({where, "store digest must be 16 or 32 bits"});
    }

    // L7 response classification.
    for (std::size_t r = 0; r < query.response().rules.size(); ++r) {
      const auto& rule = query.response().rules[r];
      const std::string rwhere = where + ".classify[" + std::to_string(r) + "]";
      if (rule.cls.empty()) {
        errors.push_back({rwhere, "empty response class name"});
      }
      if (rule.prefix.empty() && rule.mask == 0) {
        errors.push_back({rwhere, "rule matches nothing (empty prefix, zero mask)"});
      }
      const std::size_t reach = rule.offset + std::max<std::size_t>(rule.prefix.size(), 1);
      if (reach > 1460) {
        errors.push_back({rwhere, "classification window reaches byte " +
                                      std::to_string(reach) + ", beyond a 1500B MTU payload"});
      }
    }

    bool seen_map = false;
    bool seen_agg = false;
    bool value_map = false;
    for (const auto& step : query.steps()) {
      if (const auto* m = std::get_if<QMap>(&step)) {
        if (m->state_trigger && m->state_trigger->index >= task.triggers().size()) {
          errors.push_back({where, "state-delay map references nonexistent trigger"});
        }
        value_map = value_map || m->value_field.has_value() || m->state_trigger.has_value();
      }
      if (const auto* f = std::get_if<QFilter>(&step)) {
        if (f->on_result && !seen_agg) {
          errors.push_back({where, "result filter before any reduce"});
        }
        if (!f->on_result) check_value(Value::constant(f->value), f->field, where, errors);
      } else if (std::holds_alternative<QMap>(step)) {
        seen_map = true;
      } else if (std::holds_alternative<QReduce>(step)) {
        if (seen_agg) errors.push_back({where, "multiple aggregations in one query"});
        seen_agg = true;
      } else if (std::holds_alternative<QDistinct>(step)) {
        if (!seen_map) errors.push_back({where, "distinct requires a preceding map with keys"});
        if (seen_agg) errors.push_back({where, "multiple aggregations in one query"});
        seen_agg = true;
      }
    }
    if (query.response().sample_latency && !value_map) {
      errors.push_back(
          {where, "sample_latency requires a value-producing map (delta or state delay)"});
    }
  }

  return errors;
}

}  // namespace ht::ntapi
