// Global header-space extraction (§5.2 "compiling packet stream queries").
//
// HyperTester's false-positive precomputation needs every key tuple a
// query can observe. For sent-traffic queries that is the cartesian
// product of the monitored trigger's per-field value supports. For
// received-traffic queries the space is the triggers' space with the
// direction reversed (responses mirror requests: sip <-> dip,
// sport <-> dport), which covers scans, handshakes and echo protocols.
// Spaces beyond the cap are reported as inexact — the compiler then warns
// that the query is not guaranteed false-positive-free.
#pragma once

#include <cstdint>
#include <vector>

#include "htps/template_packet.hpp"
#include "ntapi/task.hpp"

namespace ht::ntapi {

struct KeySpace {
  std::vector<std::vector<std::uint64_t>> keys;
  bool exact = true;  ///< false when enumeration hit the cap
};

/// Enumerate the key space of `query` over the given key fields.
/// `templates` holds the compiled template spec of each trigger (for
/// default field values of unset fields).
KeySpace enumerate_key_space(const Task& task, const Query& query,
                             const std::vector<net::FieldId>& key_fields,
                             const std::vector<htps::TemplateSpec>& templates,
                             std::size_t cap = 4'000'000);

/// The response-direction twin of a field (sip <-> dip, sport <-> dport);
/// fields without a direction map to themselves.
net::FieldId reversed_field(net::FieldId field);

}  // namespace ht::ntapi
