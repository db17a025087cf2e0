#include "htpr/receiver.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/bytes.hpp"
#include "net/headers.hpp"

namespace ht::htpr {

bool compare(Cmp cmp, std::uint64_t lhs, std::uint64_t rhs) {
  switch (cmp) {
    case Cmp::kEq:
      return lhs == rhs;
    case Cmp::kNe:
      return lhs != rhs;
    case Cmp::kLt:
      return lhs < rhs;
    case Cmp::kLe:
      return lhs <= rhs;
    case Cmp::kGt:
      return lhs > rhs;
    case Cmp::kGe:
      return lhs >= rhs;
  }
  return false;
}

Receiver::Receiver(rmt::SwitchAsic& asic) : asic_(asic) {}

std::optional<KeyedAggregation> keyed_aggregation(const QueryConfig& q) {
  KeyedAggregation agg;
  bool keyed = false;
  for (const auto& op : q.ops) {
    if (const auto* map = std::get_if<MapOp>(&op)) agg.key_fields = map->keys;
    if (std::holds_alternative<ReduceOp>(op) || std::holds_alternative<DistinctOp>(op)) {
      keyed = keyed || !agg.key_fields.empty();
      if (const auto* red = std::get_if<ReduceOp>(&op)) agg.func = red->func;
      if (std::holds_alternative<DistinctOp>(op)) agg.func = UpdateFunc::kDistinct;
    }
  }
  if (!keyed) return std::nullopt;
  return agg;
}

std::size_t Receiver::add_query(QueryConfig cfg) {
  if (installed_) throw std::logic_error("Receiver: add_query after install");
  queries_.push_back(std::move(cfg));
  return queries_.size() - 1;
}

void Receiver::install() {
  if (installed_) throw std::logic_error("Receiver: double install");
  installed_ = true;
  const std::size_t n = queries_.size();
  auto& rf = asic_.registers();
  totals_ = &rf.create("htpr.totals", std::max<std::size_t>(n, 1), 64);
  matched_ = &rf.create("htpr.matched", std::max<std::size_t>(n, 1), 64);
  evaluated_ = &rf.create("htpr.evaluated", std::max<std::size_t>(n, 1), 64);
  chk_fail_ = &rf.create("htpr.chk_fail", std::max<std::size_t>(n, 1), 64);
  out_of_window_ = &rf.create("htpr.out_of_window", std::max<std::size_t>(n, 1), 64);

  // Create a counter store for every keyed reduce/distinct query.
  stores_.resize(n);
  for (std::size_t q = 0; q < n; ++q) {
    auto& cfg = queries_[q];
    if (auto agg = keyed_aggregation(cfg)) {
      cfg.store.name = "htpr." + cfg.name;
      cfg.store.hash.key_fields = std::move(agg->key_fields);
      cfg.store.func = agg->func;
      stores_[q] = std::make_unique<CounterStore>(asic_, cfg.store);
    }
  }

  delay_state_.assign(n, {});
  for (std::size_t q = 0; q < n; ++q) {
    const auto& ops = queries_[q].ops;
    delay_state_[q].resize(ops.size(), nullptr);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto* map = std::get_if<MapOp>(&ops[i]);
      if (map && map->state_index_field && rf.contains(map->state_register)) {
        delay_state_[q][i] = &rf.get(map->state_register);
      }
    }
  }

  // Response-class counters: one register array per classifying query,
  // sized rules+1 (the last cell is the implicit "other" class). Living in
  // the register file keeps them inside snapshots and the state digest.
  class_counts_.resize(n, nullptr);
  request_hist_.resize(n, nullptr);
  for (std::size_t q = 0; q < n; ++q) {
    const auto& rules = queries_[q].response.rules;
    if (rules.empty()) continue;
    class_counts_[q] =
        &rf.create("htpr.classes." + queries_[q].name, rules.size() + 1, 64);
  }

  // Per-query telemetry: the query registers stay authoritative; the
  // device registry mirrors them (single aggregation point), and the two
  // integrity counters join the drop/corruption audit trail under their
  // legacy "htpr.<query>.<reason>" source names, next to the latency
  // histograms.
  latency_hist_.clear();
  for (std::size_t q = 0; q < n; ++q) {
    const std::string& qn = queries_[q].name;
    auto& m = asic_.metrics();
    m.mirror_counter("ht_htpr_query_evaluated_total", [this, q] { return evaluated(q); },
                     {.labels = {{"query", qn}}, .help = "packets evaluated (pre-filter)"});
    m.mirror_counter("ht_htpr_query_matched_total", [this, q] { return matched(q); },
                     {.labels = {{"query", qn}},
                      .help = "packets that survived every operator"});
    m.mirror_counter(
        "ht_htpr_query_checksum_fails_total", [this, q] { return checksum_fails(q); },
        {.labels = {{"query", qn}},
         .help = "packets rejected by checksum re-verification",
         .drop_source = "htpr." + qn + ".checksum_fails"});
    m.mirror_counter(
        "ht_htpr_query_out_of_window_total", [this, q] { return out_of_window(q); },
        {.labels = {{"query", qn}},
         .help = "packets rejected by the plausibility window",
         .drop_source = "htpr." + qn + ".out_of_window"});
    for (std::size_t r = 0; r <= queries_[q].response.rules.size(); ++r) {
      if (queries_[q].response.rules.empty()) break;
      const std::string cls = r < queries_[q].response.rules.size()
                                  ? queries_[q].response.rules[r].cls
                                  : "other";
      m.mirror_counter(
          "ht_htpr_response_class_total",
          [this, q, r] { return response_class_count(q, r); },
          {.labels = {{"query", qn}, {"class", cls}},
           .help = "matched packets by response class"});
    }
    latency_hist_.push_back(&m.histogram(
        "ht_htpr_query_latency_ns",
        {.labels = {{"query", qn}},
         .help = "ingress MAC timestamp to query match, per matched packet"}));
    if (queries_[q].response.sample_latency) {
      request_hist_[q] = &m.histogram(
          "ht_htpr_request_latency_ns",
          {.labels = {{"query", qn}},
           .help = "request->response latency samples (state-based delay)"});
    }
  }

  const std::size_t front_ports = asic_.port_count();
  auto& asic = asic_;

  // Received-traffic queries: ingress pipeline, gated on the monitor port
  // set (never the CPU port or the recirculation loop).
  for (std::size_t q = 0; q < n; ++q) {
    const auto& cfg = queries_[q];
    if (cfg.source != QueryConfig::Source::kReceived) continue;
    auto ports = cfg.ports;
    auto& tbl = asic_.ingress().add_table(
        "htpr_" + cfg.name, {}, 1, [&asic, ports, front_ports](const rmt::Phv& phv) {
          const auto ip = static_cast<std::uint16_t>(phv.get(net::FieldId::kMetaIngressPort));
          if (ip >= front_ports) return false;
          if (ports.empty()) return true;
          for (const auto p : ports) {
            if (p == ip) return true;
          }
          return false;
        });
    tbl.set_hints({.role = rmt::TableHints::Role::kHtprReceived, .query_index = q});
    tbl.set_default([this, q](rmt::ActionContext& ctx) { query_action(q, ctx); });
  }

  // Sent-traffic queries: egress pipeline, gated on the trigger's template
  // id leaving a front-panel port. Installed after the editor, so they see
  // the final test packets.
  for (std::size_t q = 0; q < n; ++q) {
    const auto& cfg = queries_[q];
    if (cfg.source != QueryConfig::Source::kSent) continue;
    const std::uint32_t tid = cfg.template_id;
    auto& tbl = asic_.egress().add_table(
        "htpr_" + cfg.name, {}, 1, [tid, front_ports](const rmt::Phv& phv) {
          return phv.get(net::FieldId::kMetaEgressPort) < front_ports &&
                 phv.get(net::FieldId::kMetaTemplateId) == tid;
        });
    tbl.set_hints({.role = rmt::TableHints::Role::kHtprSent,
                   .query_index = q,
                   .template_id = tid});
    tbl.set_default([this, q](rmt::ActionContext& ctx) { query_action(q, ctx); });
  }

  // Maintenance: recirculating template packets drive one cuckoo-move pass
  // per store per loop (Fig 5's "recirculated packet pops the FIFO").
  bool any_store = false;
  for (const auto& s : stores_) any_store |= s != nullptr;
  if (any_store) {
    auto& tbl = asic_.ingress().add_table(
        "htpr_maintenance", {}, 1, [&asic](const rmt::Phv& phv) {
          return asic.is_recirc_port(
              static_cast<std::uint16_t>(phv.get(net::FieldId::kMetaIngressPort)));
        });
    tbl.set_hints({.role = rmt::TableHints::Role::kHtprMaintenance});
    tbl.set_default([this](rmt::ActionContext& ctx) {
      for (auto& s : stores_) {
        if (s) s->maintenance_pass(ctx);
      }
    });
  }

  // Structural resource accounting for the query blocks (filter is nearly
  // free; keyed aggregation costs were declared by the stores themselves).
  for (std::size_t q = 0; q < n; ++q) {
    for (const auto& op : queries_[q].ops) {
      if (std::holds_alternative<FilterOp>(op)) {
        asic_.resources().add("htpr." + queries_[q].name + ".filter",
                              {.match_crossbar_bits = 8, .hash_bits = 6, .gateway = 1});
      }
    }
    bool has_agg = false;
    for (const auto& op : queries_[q].ops) {
      has_agg |= std::holds_alternative<ReduceOp>(op) || std::holds_alternative<DistinctOp>(op);
    }
    if (stores_[q] == nullptr && has_agg) {
      // Keyless reduce: one 64-bit register + add.
      asic_.resources().add("htpr." + queries_[q].name,
                            {.sram_kb = 0.008, .vliw_slots = 1, .salu = 1});
    }
  }
}

void Receiver::query_action(std::size_t qid, rmt::ActionContext& ctx) {
  PhvQueryCtx a{{ctx}};
  query_core(qid, a);
}

CounterStore* Receiver::store(std::size_t qid) { return stores_.at(qid).get(); }
const CounterStore* Receiver::store(std::size_t qid) const { return stores_.at(qid).get(); }

std::uint64_t Receiver::keyless_total(std::size_t qid) const { return totals_->read(qid); }
std::uint64_t Receiver::matched(std::size_t qid) const { return matched_->read(qid); }
std::uint64_t Receiver::evaluated(std::size_t qid) const { return evaluated_->read(qid); }
std::uint64_t Receiver::checksum_fails(std::size_t qid) const { return chk_fail_->read(qid); }
std::uint64_t Receiver::out_of_window(std::size_t qid) const { return out_of_window_->read(qid); }

std::uint64_t Receiver::response_class_count(std::size_t qid, std::size_t rule_index) const {
  return class_counts_.at(qid) ? class_counts_[qid]->read(rule_index) : 0;
}

}  // namespace ht::htpr
