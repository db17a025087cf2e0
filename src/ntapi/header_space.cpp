#include "ntapi/header_space.hpp"

#include <algorithm>
#include <set>

#include "net/headers.hpp"

namespace ht::ntapi {

net::FieldId reversed_field(net::FieldId field) {
  using F = net::FieldId;
  switch (field) {
    case F::kIpv4Sip:
      return F::kIpv4Dip;
    case F::kIpv4Dip:
      return F::kIpv4Sip;
    case F::kTcpSport:
      return F::kTcpDport;
    case F::kTcpDport:
      return F::kTcpSport;
    case F::kUdpSport:
      return F::kUdpDport;
    case F::kUdpDport:
      return F::kUdpSport;
    default:
      return field;
  }
}

namespace {

/// Default value of `field` in the materialized template (what an unset
/// field carries on the wire).
std::uint64_t template_default(const htps::TemplateSpec& spec, net::FieldId field) {
  const auto it = spec.header_init.find(field);
  if (it != spec.header_init.end()) return it->second;
  if (!net::is_header_field(field)) return 0;
  const net::Packet pkt = spec.materialize();
  return net::has_field(pkt, field) ? net::get_field(pkt, field) : 0;
}

/// Values `field` can take in the traffic of one trigger. `as_response`
/// looks at the reversed field (what the peer echoes back).
bool field_values(const Task& task, std::size_t trigger_index,
                  const htps::TemplateSpec& spec, net::FieldId field, bool as_response,
                  std::size_t cap, std::set<std::uint64_t>& out) {
  const net::FieldId src = as_response ? reversed_field(field) : field;
  const auto& trig = task.triggers()[trigger_index];
  if (const auto* binding = trig.find(src)) {
    if (const auto* value = std::get_if<Value>(&binding->source)) {
      std::vector<std::uint64_t> vals;
      if (!value->enumerate(vals, cap)) return false;
      out.insert(vals.begin(), vals.end());
      return true;
    }
    // QueryFieldRef / MetaFieldRef: the value depends on received packets
    // or on timestamps — not enumerable ahead of time.
    return false;
  }
  out.insert(template_default(spec, src));
  return true;
}

}  // namespace

KeySpace enumerate_key_space(const Task& task, const Query& query,
                             const std::vector<net::FieldId>& key_fields,
                             const std::vector<htps::TemplateSpec>& templates, std::size_t cap) {
  KeySpace space;
  if (key_fields.empty()) return space;

  // Which triggers contribute, and in which direction.
  std::vector<std::size_t> trigger_set;
  const bool as_response = !query.monitored_trigger().has_value();
  if (query.monitored_trigger()) {
    trigger_set.push_back(query.monitored_trigger()->index);
  } else {
    for (std::size_t t = 0; t < task.triggers().size(); ++t) trigger_set.push_back(t);
  }
  if (trigger_set.empty()) {
    space.exact = false;  // nothing known about foreign traffic
    return space;
  }

  std::set<std::vector<std::uint64_t>> keys;
  for (const std::size_t t : trigger_set) {
    // Per-field value sets for this trigger.
    std::vector<std::vector<std::uint64_t>> per_field;
    bool exact = true;
    std::uint64_t product = 1;
    for (const auto field : key_fields) {
      std::set<std::uint64_t> vals;
      if (!field_values(task, t, templates[t], field, as_response, cap, vals)) {
        exact = false;
        break;
      }
      product *= std::max<std::uint64_t>(vals.size(), 1);
      if (product > cap) {
        exact = false;
        break;
      }
      per_field.emplace_back(vals.begin(), vals.end());
    }
    if (!exact) {
      space.exact = false;
      continue;
    }
    // Cartesian product.
    std::vector<std::size_t> idx(per_field.size(), 0);
    while (true) {
      std::vector<std::uint64_t> key(per_field.size());
      for (std::size_t i = 0; i < per_field.size(); ++i) key[i] = per_field[i][idx[i]];
      keys.insert(std::move(key));
      if (keys.size() > cap) {
        space.exact = false;
        break;
      }
      std::size_t i = 0;
      for (; i < idx.size(); ++i) {
        if (++idx[i] < per_field[i].size()) break;
        idx[i] = 0;
      }
      if (i == idx.size()) break;
    }
  }

  space.keys.assign(keys.begin(), keys.end());
  return space;
}

}  // namespace ht::ntapi
