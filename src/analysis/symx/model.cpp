#include "analysis/symx/model.hpp"

#include <algorithm>

#include "htpr/counter_store.hpp"
#include "net/headers.hpp"

namespace ht::analysis::symx {

// --- parse graph -------------------------------------------------------------

namespace {

constexpr std::size_t kMaxParseDepth = 32;

void parser_dfs(const rmt::Parser& parser, const std::string& name, ParserPath path,
                std::vector<ParserPath>& out, std::size_t depth) {
  const auto& states = parser.states();
  const auto it = states.find(name);
  if (name.empty() || it == states.end() || depth >= kMaxParseDepth) {
    out.push_back(std::move(path));  // accept
    return;
  }
  const rmt::ParseState& st = it->second;
  path.states.push_back(st.name);
  if (st.extract) path.headers.push_back(*st.extract);

  if (!st.select || st.transitions.empty()) {
    parser_dfs(parser, st.default_next, std::move(path), out, depth + 1);
    return;
  }
  IntervalSet taken = IntervalSet::none();
  for (const auto& [value, next] : st.transitions) {
    ParserPath branch = path;
    if (branch.constraints.meet(*st.select, IntervalSet::singleton(value))) {
      parser_dfs(parser, next, std::move(branch), out, depth + 1);
    }
    taken.union_with(IntervalSet::singleton(value));
  }
  // Default branch: the select matched none of the listed values.
  ParserPath fall = std::move(path);
  if (fall.constraints.meet(*st.select, taken.complement(net::field_width(*st.select)))) {
    parser_dfs(parser, st.default_next, std::move(fall), out, depth + 1);
  }
}

}  // namespace

std::vector<ParserPath> enumerate_parser_paths(const rmt::Parser& parser) {
  std::vector<ParserPath> out;
  parser_dfs(parser, parser.entry(), ParserPath{}, out, 0);
  return out;
}

// --- edit streams ------------------------------------------------------------

EditStream::EditStream(const htps::TemplateConfig& cfg) : cfg_(cfg) { reset(); }

void EditStream::reset() {
  cursors_.assign(cfg_.edits.size(), 0);
  for (std::size_t j = 0; j < cfg_.edits.size(); ++j) {
    if (cfg_.edits[j].kind == htps::EditOp::Kind::kRange) cursors_[j] = cfg_.edits[j].start;
  }
}

EditStream::Step EditStream::next(const std::vector<std::uint64_t>* record) {
  Step s;
  for (std::size_t j = 0; j < cfg_.edits.size(); ++j) {
    const htps::EditOp& op = cfg_.edits[j];
    switch (op.kind) {
      case htps::EditOp::Kind::kList: {
        if (op.values.empty()) break;
        const std::uint64_t v = op.values[cursors_[j]];
        cursors_[j] = (cursors_[j] + 1) % op.values.size();
        s.values.emplace_back(op.field, v & net::field_mask(op.field));
        break;
      }
      case htps::EditOp::Kind::kRange: {
        const std::uint64_t v = cursors_[j];
        cursors_[j] += op.step;
        if (cursors_[j] > op.end) cursors_[j] = op.start;
        s.values.emplace_back(op.field, v & net::field_mask(op.field));
        break;
      }
      case htps::EditOp::Kind::kRandom:
        s.dont_care.push_back(op.field);
        break;
      case htps::EditOp::Kind::kFromTrigger: {
        if (record != nullptr && op.trigger_lane < record->size()) {
          const auto base = static_cast<std::int64_t>((*record)[op.trigger_lane]);
          const auto v = static_cast<std::uint64_t>(base + op.trigger_offset);
          s.values.emplace_back(op.field, v & net::field_mask(op.field));
        }
        break;
      }
      case htps::EditOp::Kind::kFromMetadata:
        // Pipeline timestamps and RNG/packet-id metadata are runtime
        // values the static oracle cannot pin down.
        s.dont_care.push_back(op.field);
        break;
      case htps::EditOp::Kind::kRecordTimestamp:
        break;  // register side effect only; the packet bytes are untouched
    }
  }
  return s;
}

// --- TaskModel ---------------------------------------------------------------

namespace {

std::string qwhere(std::size_t q) { return "query[" + std::to_string(q) + "]"; }
std::string twhere(std::size_t t) { return "trigger[" + std::to_string(t) + "]"; }

/// Wire fields a query's operators read.
std::vector<net::FieldId> referenced_fields(const htpr::QueryConfig& cfg) {
  std::vector<net::FieldId> out;
  const auto add = [&out](net::FieldId f) { out.push_back(f); };
  for (const auto& op : cfg.ops) {
    if (const auto* f = std::get_if<htpr::FilterOp>(&op)) {
      if (!f->on_result) add(f->field);
    } else if (const auto* m = std::get_if<htpr::MapOp>(&op)) {
      for (const auto k : m->keys) add(k);
      if (m->value_field) add(*m->value_field);
      if (m->minus_field) add(*m->minus_field);
      if (m->state_index_field) add(*m->state_index_field);
    }
  }
  for (const auto& trig : cfg.triggers) {
    for (const auto lane : trig.lanes) add(lane);
  }
  if (cfg.integrity.window_field) add(*cfg.integrity.window_field);
  return out;
}

/// Pick the L4 protocol whose parser path extracts the query's fields.
net::HeaderKind choose_l4(const std::vector<net::FieldId>& fields) {
  bool tcp = false;
  bool udp = false;
  bool icmp = false;
  bool nvp = false;
  for (const auto f : fields) {
    switch (net::field_header(f)) {
      case net::HeaderKind::kTcp:
        tcp = true;
        break;
      case net::HeaderKind::kUdp:
        udp = true;
        break;
      case net::HeaderKind::kIcmp:
        icmp = true;
        break;
      case net::HeaderKind::kNvp:
        nvp = true;
        break;
      default:
        break;
    }
  }
  if (tcp) return net::HeaderKind::kTcp;
  if (udp) return net::HeaderKind::kUdp;
  if (icmp) return net::HeaderKind::kIcmp;
  if (nvp) return net::HeaderKind::kNvp;
  return net::HeaderKind::kUdp;
}

}  // namespace

TaskModel::TaskModel(const ntapi::Task& task, const ntapi::CompiledTask& compiled,
                     const rmt::AsicConfig& asic)
    : task_(task), compiled_(compiled), asic_(asic), parser_(rmt::Parser::default_graph()) {
  parser_paths_ = enumerate_parser_paths(parser_);
  query_l4_.resize(compiled_.queries.size(), net::HeaderKind::kUdp);
  match_paths_.resize(compiled_.queries.size(), 0);
  build_rules();
  for (std::size_t q = 0; q < compiled_.queries.size(); ++q) {
    const auto& cfg = compiled_.queries[q].config;
    if (cfg.source == htpr::QueryConfig::Source::kReceived) {
      query_l4_[q] = choose_l4(referenced_fields(cfg));
      build_received_paths(q);
    } else {
      query_l4_[q] = compiled_.templates[cfg.template_id].spec.l4;
      build_sent_paths(q);
    }
  }
  for (std::size_t t = 0; t < compiled_.templates.size(); ++t) build_editor_paths(t);
  for (const auto& p : paths_) {
    if (p.feasible && p.query != SIZE_MAX &&
        (p.id.find("/pass") != std::string::npos || p.id.find("/match") != std::string::npos)) {
      ++match_paths_[p.query];
    }
  }
}

const ParserPath* TaskModel::parser_path(net::HeaderKind l4) const {
  for (const auto& p : parser_paths_) {
    if (std::find(p.headers.begin(), p.headers.end(), l4) != p.headers.end()) return &p;
  }
  return nullptr;
}

bool TaskModel::field_extracted(net::HeaderKind l4, net::FieldId f) const {
  if (!net::is_header_field(f)) return false;
  const ParserPath* path = parser_path(l4);
  if (path == nullptr) return false;
  const auto h = net::field_header(f);
  return std::find(path->headers.begin(), path->headers.end(), h) != path->headers.end();
}

void TaskModel::build_rules() {
  for (std::size_t t = 0; t < compiled_.templates.size(); ++t) {
    const auto& tpl = compiled_.templates[t];
    rules_.push_back({RuleKind::kSenderEntry, twhere(t) + ".replicator", twhere(t), t, 0,
                      false, false});
    for (std::size_t j = 0; j < tpl.edits.size(); ++j) {
      rules_.push_back({RuleKind::kEdit,
                        twhere(t) + ".edit[" + std::to_string(j) + "] " +
                            std::string(net::field_name(tpl.edits[j].field)),
                        twhere(t), t, j, false, false});
    }
  }
  for (std::size_t q = 0; q < compiled_.queries.size(); ++q) {
    const auto& cq = compiled_.queries[q];
    rules_.push_back({RuleKind::kQueryGate, qwhere(q) + ".gate", qwhere(q), q, 0, false, false});
    for (std::size_t j = 0; j < cq.config.ops.size(); ++j) {
      const auto& op = cq.config.ops[j];
      const std::string id = qwhere(q) + ".op[" + std::to_string(j) + "]";
      if (std::holds_alternative<htpr::FilterOp>(op)) {
        rules_.push_back({RuleKind::kFilter, id + " filter", qwhere(q), q, j, false, false});
      } else if (std::holds_alternative<htpr::MapOp>(op)) {
        rules_.push_back({RuleKind::kMapOp, id + " map", qwhere(q), q, j, false, false});
      } else {
        rules_.push_back({RuleKind::kAggOp, id + " agg", qwhere(q), q, j, false, false});
      }
    }
    if (cq.config.source == htpr::QueryConfig::Source::kReceived) {
      for (std::size_t k = 0; k < cq.exact_keys.size(); ++k) {
        rules_.push_back({RuleKind::kExactKey, qwhere(q) + ".key[" + std::to_string(k) + "]",
                          qwhere(q), q, k, false, false});
      }
    }
  }
}

void TaskModel::build_received_paths(std::size_t q) {
  const auto& cfg = compiled_.queries[q].config;
  const net::HeaderKind l4 = query_l4_[q];
  const ParserPath* ppath = parser_path(l4);
  if (ppath == nullptr) return;
  const auto front = static_cast<std::uint64_t>(asic_.num_ports);

  // The port gate as an interval set over kMetaIngressPort.
  IntervalSet gate = IntervalSet::none();
  if (cfg.ports.empty()) {
    gate = IntervalSet::range(0, front - 1);
  } else {
    for (const auto p : cfg.ports) {
      if (p < front) gate.union_with(IntervalSet::singleton(p));
    }
  }

  const auto finish = [&](PathInfo& info) {
    info.query = q;
    info.l4 = l4;
    if (!info.cube.meet(net::FieldId::kMetaIngressPort, gate)) info.feasible = false;
    if (info.feasible) {
      info.port = static_cast<std::uint16_t>(info.cube.get(net::FieldId::kMetaIngressPort).min());
    }
    paths_.push_back(std::move(info));
  };

  // Collect the filters in order; each either constrains the cube (field
  // extracted on this parser path, or the ingress port) or is decided
  // concretely (non-extracted wire field reads 0; other metadata and
  // result filters are left to the concrete interpreter).
  struct Fl {
    std::size_t op_index;
    htpr::FilterOp op;
    bool symbolic;      ///< participates in the cube
    bool concrete_pass; ///< when !symbolic: does lhs=0 / unknown pass?
    bool decided;       ///< concrete_pass is meaningful
  };
  std::vector<Fl> filters;
  for (std::size_t j = 0; j < cfg.ops.size(); ++j) {
    const auto* f = std::get_if<htpr::FilterOp>(&cfg.ops[j]);
    if (f == nullptr) continue;
    Fl fl{j, *f, false, true, false};
    if (!f->on_result) {
      // kPktLen is loaded into the PHV from the frame size, so it is as
      // controllable as a wire field (the oracle sizes the packet).
      if (f->field == net::FieldId::kMetaIngressPort || f->field == net::FieldId::kPktLen ||
          field_extracted(l4, f->field)) {
        fl.symbolic = true;
      } else if (net::is_header_field(f->field)) {
        // Not extracted on this path: the PHV slot stays zero.
        fl.concrete_pass = htpr::compare(f->cmp, 0, f->value);
        fl.decided = true;
      }
      // Metadata (timestamps, packet id): runtime values — optimistic here,
      // decided by the oracle's concrete interpreter.
    }
    filters.push_back(std::move(fl));
  }

  // Pass path: every filter's pass set.
  {
    PathInfo info;
    info.id = qwhere(q) + "/pass";
    info.description = "packet surviving every operator of " + cfg.name;
    info.cube = ppath->constraints;
    for (const auto& fl : filters) {
      if (fl.symbolic) {
        info.cube.meet(fl.op.field,
                       IntervalSet::from_cmp(fl.op.cmp, fl.op.value,
                                             net::field_width(fl.op.field)));
      } else if (fl.decided && !fl.concrete_pass) {
        info.feasible = false;
      }
    }
    if (!info.cube.feasible()) info.feasible = false;
    finish(info);
  }

  // Fail paths: filters 0..i-1 pass, filter i fails.
  for (std::size_t i = 0; i < filters.size(); ++i) {
    if (!filters[i].symbolic) continue;
    PathInfo info;
    info.id = qwhere(q) + "/fail@" + std::to_string(filters[i].op_index);
    info.description = "packet rejected by op[" + std::to_string(filters[i].op_index) + "] of " +
                       cfg.name;
    info.cube = ppath->constraints;
    for (std::size_t k = 0; k < i; ++k) {
      if (filters[k].symbolic) {
        info.cube.meet(filters[k].op.field,
                       IntervalSet::from_cmp(filters[k].op.cmp, filters[k].op.value,
                                             net::field_width(filters[k].op.field)));
      } else if (filters[k].decided && !filters[k].concrete_pass) {
        info.feasible = false;
      }
    }
    const unsigned w = net::field_width(filters[i].op.field);
    info.cube.meet(filters[i].op.field,
                   IntervalSet::from_cmp(filters[i].op.cmp, filters[i].op.value, w).complement(w));
    if (!info.cube.feasible()) info.feasible = false;
    finish(info);
  }

  // Range-boundary probes: v-1, v, v+1 around ordered comparisons.
  for (std::size_t i = 0; i < filters.size(); ++i) {
    const auto& fl = filters[i];
    if (!fl.symbolic) continue;
    const auto cmp = fl.op.cmp;
    if (cmp != htpr::Cmp::kLt && cmp != htpr::Cmp::kLe && cmp != htpr::Cmp::kGt &&
        cmp != htpr::Cmp::kGe) {
      continue;
    }
    const std::uint64_t dmax = IntervalSet::domain_max(net::field_width(fl.op.field));
    for (int d = -1; d <= 1; ++d) {
      if ((d < 0 && fl.op.value == 0) || (d > 0 && fl.op.value >= dmax)) continue;
      const std::uint64_t pv = fl.op.value + static_cast<std::uint64_t>(d);
      PathInfo info;
      info.id = qwhere(q) + "/bound@" + std::to_string(fl.op_index) + "/" + std::to_string(pv);
      info.description = "boundary probe " + std::string(net::field_name(fl.op.field)) + "=" +
                         std::to_string(pv);
      info.cube = ppath->constraints;
      for (std::size_t k = 0; k < i; ++k) {
        if (filters[k].symbolic) {
          info.cube.meet(filters[k].op.field,
                         IntervalSet::from_cmp(filters[k].op.cmp, filters[k].op.value,
                                               net::field_width(filters[k].op.field)));
        } else if (filters[k].decided && !filters[k].concrete_pass) {
          info.feasible = false;
        }
      }
      info.cube.meet(fl.op.field, IntervalSet::singleton(pv));
      if (!info.cube.feasible()) info.feasible = false;
      finish(info);
    }
  }

  // Gate miss: a front-panel port outside the monitored set.
  if (!cfg.ports.empty()) {
    std::optional<std::uint16_t> off;
    for (std::uint16_t p = 0; p < front; ++p) {
      if (std::find(cfg.ports.begin(), cfg.ports.end(), p) == cfg.ports.end()) {
        off = p;
        break;
      }
    }
    if (off) {
      PathInfo info;
      info.id = qwhere(q) + "/gate-miss";
      info.description = "packet on unmonitored port " + std::to_string(*off);
      info.query = q;
      info.l4 = l4;
      info.port = *off;
      info.cube = ppath->constraints;
      paths_.push_back(std::move(info));
    }
  }

  // Parser divergence: a packet taking a different parse path, so the
  // query's header fields stay unextracted (PHV zeros).
  {
    const net::HeaderKind alt =
        l4 == net::HeaderKind::kUdp ? net::HeaderKind::kTcp : net::HeaderKind::kUdp;
    if (const ParserPath* apath = parser_path(alt)) {
      PathInfo info;
      info.id = qwhere(q) + "/parser-div";
      info.description = "packet on the divergent parse path";
      info.query = q;
      info.l4 = alt;
      info.cube = apath->constraints;
      if (!info.cube.meet(net::FieldId::kMetaIngressPort, gate)) info.feasible = false;
      if (info.feasible) {
        info.port =
            static_cast<std::uint16_t>(info.cube.get(net::FieldId::kMetaIngressPort).min());
      }
      paths_.push_back(std::move(info));
    }
  }
}

namespace {

/// Running aggregate a reduce produces for one repeated (key, value).
std::uint64_t reduce_step(htpr::UpdateFunc func, std::uint64_t agg, std::uint64_t inc,
                          bool fresh) {
  switch (func) {
    case htpr::UpdateFunc::kSum:
      return agg + inc;
    case htpr::UpdateFunc::kCount:
      return agg + 1;
    case htpr::UpdateFunc::kMax:
      return fresh ? inc : std::max(agg, inc);
    case htpr::UpdateFunc::kMin:
      return fresh ? inc : std::min(agg, inc);
    case htpr::UpdateFunc::kDistinct:
      return 1;
  }
  return agg;
}

}  // namespace

bool TaskModel::sent_stream_can_match(std::size_t q, std::size_t cap) {
  const auto& cfg = compiled_.queries[q].config;
  const auto& tpl = compiled_.templates[cfg.template_id];
  const net::Packet base = tpl.spec.materialize();
  EditStream stream(tpl);

  std::uint64_t agg = 0;
  std::uint64_t n = 0;
  for (std::size_t r = 0; r < cap; ++r) {
    const EditStream::Step step = stream.next();
    const auto value_of = [&](net::FieldId f) -> std::optional<std::uint64_t> {
      for (const auto& [field, v] : step.values) {
        if (field == f) return v;
      }
      if (std::find(step.dont_care.begin(), step.dont_care.end(), f) != step.dont_care.end()) {
        return std::nullopt;  // runtime value: optimistic
      }
      if (net::is_header_field(f) && net::has_field(base, f)) return net::get_field(base, f);
      return std::uint64_t{0};
    };

    bool rejected = false;
    std::uint64_t value = 1;
    std::uint64_t result = 0;
    for (const auto& op : cfg.ops) {
      if (const auto* f = std::get_if<htpr::FilterOp>(&op)) {
        if (f->on_result) {
          if (!htpr::compare(f->cmp, result, f->value)) rejected = true;
        } else if (const auto lhs = value_of(f->field)) {
          if (!htpr::compare(f->cmp, *lhs, f->value)) rejected = true;
        }
        // don't-care lhs: optimistic (some runtime value could pass)
      } else if (const auto* m = std::get_if<htpr::MapOp>(&op)) {
        value = m->value_field ? value_of(*m->value_field).value_or(1) : 1;
      } else if (const auto* red = std::get_if<htpr::ReduceOp>(&op)) {
        agg = reduce_step(red->func, agg, value, n == 0);
        ++n;
        result = agg;
      } else if (std::holds_alternative<htpr::DistinctOp>(op)) {
        result = 1;
      }
      if (rejected) break;
    }
    if (!rejected) return true;
  }
  return false;
}

void TaskModel::build_sent_paths(std::size_t q) {
  const auto& cfg = compiled_.queries[q].config;
  PathInfo info;
  info.id = qwhere(q) + "/match";
  info.description = "replica of trigger[" + std::to_string(cfg.template_id) +
                     "] surviving every operator of " + cfg.name;
  info.query = q;
  info.trigger = cfg.template_id;
  info.sent = true;
  info.l4 = compiled_.templates[cfg.template_id].spec.l4;
  info.feasible = sent_stream_can_match(q, 256);
  paths_.push_back(std::move(info));
}

void TaskModel::build_editor_paths(std::size_t t) {
  PathInfo info;
  info.id = twhere(t) + "/editor";
  info.description = "replica stream of " + twhere(t);
  info.trigger = t;
  info.sent = true;
  info.l4 = compiled_.templates[t].spec.l4;
  paths_.push_back(std::move(info));
}

std::string_view rule_kind_name(RuleKind kind) {
  switch (kind) {
    case RuleKind::kSenderEntry:
      return "sender-entry";
    case RuleKind::kEdit:
      return "edit";
    case RuleKind::kQueryGate:
      return "query-gate";
    case RuleKind::kFilter:
      return "filter";
    case RuleKind::kMapOp:
      return "map";
    case RuleKind::kAggOp:
      return "agg";
    case RuleKind::kExactKey:
      return "exact-key";
  }
  return "rule";
}

}  // namespace ht::analysis::symx
