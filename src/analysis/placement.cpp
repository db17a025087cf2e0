#include "analysis/placement.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/analyzer.hpp"

namespace ht::analysis {

namespace {

double kb(double bytes) { return bytes / 1024.0; }

double bits(net::FieldId f) { return static_cast<double>(net::field_width(f)); }

/// log2 of the (power-of-two) bucket count: index bits the hash feeds.
double index_bits(std::size_t buckets) {
  return buckets <= 1 ? 0.0 : std::log2(static_cast<double>(buckets));
}

/// The state-register size the Sender allocates for timestamp recording
/// and state-delay reads (htps::EditOp::state_size default).
constexpr std::size_t kStateRegisterEntries = 1 << 16;

class UnitBuilder {
 public:
  explicit UnitBuilder(const AnalysisInput& in) : in_(in) {}

  std::vector<LogicalUnit> build() {
    // Ingress thread, in the generated control-flow order: sender tables,
    // then received-traffic query programs, then trigger-FIFO extraction.
    for (std::size_t t = 0; t < in_.compiled.templates.size(); ++t) sender_unit(t);
    for (std::size_t q = 0; q < in_.compiled.queries.size(); ++q) {
      if (in_.compiled.queries[q].config.source == htpr::QueryConfig::Source::kReceived) {
        query_units(q, Thread::kIngress, PacketClass{PacketClass::kForeign}, -1);
      }
    }
    for (const auto& w : in_.compiled.fifos) fifo_push_unit(w);
    // Egress thread: editor programs, then sent-traffic queries (deployed
    // after the editor so they observe the final test packets).
    for (std::size_t t = 0; t < in_.compiled.templates.size(); ++t) editor_units(t);
    for (std::size_t q = 0; q < in_.compiled.queries.size(); ++q) {
      const auto& cfg = in_.compiled.queries[q].config;
      if (cfg.source == htpr::QueryConfig::Source::kSent) {
        const int tid = static_cast<int>(cfg.template_id);
        query_units(q, Thread::kEgress, PacketClass{tid}, last_edit_unit_of(tid));
      }
    }
    return std::move(units_);
  }

 private:
  int add(LogicalUnit u) {
    units_.push_back(std::move(u));
    return static_cast<int>(units_.size() - 1);
  }

  int last_edit_unit_of(int trigger) const {
    for (int i = static_cast<int>(units_.size()) - 1; i >= 0; --i) {
      if (units_[static_cast<std::size_t>(i)].trigger == trigger &&
          units_[static_cast<std::size_t>(i)].edit >= 0) {
        return i;
      }
    }
    return -1;
  }

  void sender_unit(std::size_t t) {
    const auto& cfg = in_.compiled.templates[t];
    LogicalUnit u;
    u.name = "t_sender_" + std::to_string(t);
    u.where = "trigger[" + std::to_string(t) + "]";
    u.thread = Thread::kIngress;
    u.traffic = PacketClass{static_cast<int>(t)};
    u.trigger = static_cast<int>(t);
    // Matches ht_meta.template_id; one SALU gates the fire decision
    // (timer compare or FIFO pop), one maintains the fires/loop counter.
    u.usage.match_crossbar_bits = 16;
    u.usage.sram_kb = kb(4 * 8);
    u.usage.vliw_slots = 2;
    u.usage.gateway = 1;
    u.usage.salu = 2;
    const std::string id = std::to_string(t);
    if (cfg.mode == htps::TemplateConfig::Mode::kFifoTriggered) {
      u.registers.push_back({"trigfifo." + id + ".front", true});
    } else {
      u.registers.push_back({"r_last_tx_" + id, true});
    }
    u.registers.push_back({"r_fires_" + id, true});
    add(std::move(u));
  }

  void editor_units(std::size_t t) {
    const auto& cfg = in_.compiled.templates[t];
    const std::string id = std::to_string(t);
    // Stage index of the unit that last wrote each field, for the
    // record-timestamp data dependency (the backend splits the stage so
    // the recorded index observes the edited value).
    std::vector<std::pair<net::FieldId, int>> writers;
    for (std::size_t j = 0; j < cfg.edits.size(); ++j) {
      const auto& e = cfg.edits[j];
      LogicalUnit u;
      u.name = "t_edit_" + id + "_" + std::to_string(j);
      u.where = "trigger[" + id + "].edit[" + std::to_string(j) + "]";
      u.thread = Thread::kEgress;
      u.traffic = PacketClass{static_cast<int>(t)};
      u.trigger = static_cast<int>(t);
      u.edit = static_cast<int>(j);
      u.usage.match_crossbar_bits = 32;  // keyed on ht_meta.packet_id
      u.usage.vliw_slots = 1;
      u.usage.gateway = 1;
      const std::string ej = id + "_" + std::to_string(j);
      switch (e.kind) {
        case htps::EditOp::Kind::kList:
          u.usage.sram_kb = kb(static_cast<double>(e.values.size()) * 8);
          u.usage.salu = 1;  // sequence register read-modify-write
          u.registers.push_back({"r_editor_" + ej, true});
          u.writes.push_back(e.field);
          break;
        case htps::EditOp::Kind::kRange:
          u.usage.sram_kb = kb(8);
          u.usage.salu = 1;
          u.registers.push_back({"r_editor_" + ej, true});
          u.writes.push_back(e.field);
          break;
        case htps::EditOp::Kind::kRandom:
          u.usage.hash_bits = e.distribution.rng_bits();
          u.usage.tcam_kb =
              kb(static_cast<double>(e.distribution.bucket_count()) *
                 (e.distribution.rng_bits() / 8.0 + 1));
          u.writes.push_back(e.field);
          break;
        case htps::EditOp::Kind::kFromTrigger:
          // Record lanes ride bridged metadata popped by the sender table;
          // no register access here.
          u.writes.push_back(e.field);
          break;
        case htps::EditOp::Kind::kFromMetadata:
          u.reads.push_back(e.meta_source);
          u.writes.push_back(e.field);
          break;
        case htps::EditOp::Kind::kRecordTimestamp: {
          u.usage.salu = 1;
          u.usage.sram_kb = kb(static_cast<double>(kStateRegisterEntries) * 8);
          u.registers.push_back({e.state_register, true});
          u.reads.push_back(e.field);  // the field is the register index
          for (const auto& [field, unit] : writers) {
            if (field == e.field) u.depends_on = unit;
          }
          break;
        }
      }
      const int idx = add(std::move(u));
      if (e.kind != htps::EditOp::Kind::kRecordTimestamp) {
        writers.emplace_back(e.field, idx);
      }
    }
  }

  void query_units(std::size_t q, Thread thread, PacketClass traffic, int dep) {
    const auto& cq = in_.compiled.queries[q];
    const std::string id = std::to_string(q);
    const std::string where = "query[" + id + "]";
    std::vector<net::FieldId> keys;
    std::size_t step = 0;
    for (const auto& op : cq.config.ops) {
      const std::string sid = id + "_" + std::to_string(step++);
      if (const auto* f = std::get_if<htpr::FilterOp>(&op)) {
        LogicalUnit u;
        u.name = "t_filter_" + sid;
        u.where = where;
        u.thread = thread;
        u.traffic = traffic;
        u.query = static_cast<int>(q);
        u.depends_on = dep;
        u.usage.gateway = 1;
        u.usage.vliw_slots = 1;
        if (!f->on_result) {
          u.usage.match_crossbar_bits = bits(f->field);
          u.usage.tcam_kb = kb(2 * (bits(f->field) / 8.0 + 1));
          u.reads.push_back(f->field);
        }
        dep = add(std::move(u));
      } else if (const auto* m = std::get_if<htpr::MapOp>(&op)) {
        keys = m->keys;
        LogicalUnit u;
        u.name = "t_map_" + sid;
        u.where = where;
        u.thread = thread;
        u.traffic = traffic;
        u.query = static_cast<int>(q);
        u.depends_on = dep;
        u.usage.vliw_slots = 1 + (m->value_field ? 1 : 0) + (m->minus_field ? 1 : 0);
        for (const auto k : keys) {
          u.usage.match_crossbar_bits += bits(k);
          u.reads.push_back(k);
        }
        if (!keys.empty()) {
          u.usage.hash_bits = cq.config.store.hash.digest_bits +
                              index_bits(cq.config.store.hash.buckets);
        }
        if (m->value_field) u.reads.push_back(*m->value_field);
        if (m->minus_field) u.reads.push_back(*m->minus_field);
        if (!m->state_register.empty()) {
          u.usage.salu = 1;
          u.usage.sram_kb = kb(static_cast<double>(kStateRegisterEntries) * 8);
          u.registers.push_back({m->state_register, false});
          if (m->state_index_field) u.reads.push_back(*m->state_index_field);
        }
        dep = add(std::move(u));
      } else if (std::holds_alternative<htpr::ReduceOp>(op) ||
                 std::holds_alternative<htpr::DistinctOp>(op)) {
        dep = aggregate_units(q, sid, thread, traffic, keys, dep);
      }
    }
  }

  /// The counter-store table chain of a keyed aggregation (Fig 4): exact
  /// key matching, then the fingerprint array, then the counter array,
  /// then the KV FIFO push — sequential, one stage apart. Keyless
  /// aggregation is a single plain-register SALU.
  int aggregate_units(std::size_t q, const std::string& sid, Thread thread,
                      PacketClass traffic, const std::vector<net::FieldId>& keys, int dep) {
    const auto& cq = in_.compiled.queries[q];
    const std::string id = std::to_string(q);
    const std::string where = "query[" + id + "]";
    const auto base = [&](const std::string& name) {
      LogicalUnit u;
      u.name = name;
      u.where = where;
      u.thread = thread;
      u.traffic = traffic;
      u.query = static_cast<int>(q);
      u.usage.salu = 1;
      return u;
    };
    if (keys.empty()) {
      auto u = base("t_reduce_" + sid);
      u.depends_on = dep;
      u.usage.sram_kb = kb(8);
      u.registers.push_back({"r_total_" + id, true});
      return add(std::move(u));
    }
    const auto& store = cq.config.store;
    double key_bits = 0;
    for (const auto k : keys) key_bits += bits(k);

    auto exact = base("t_exact_key_" + id);
    exact.depends_on = dep;
    exact.usage.match_crossbar_bits = key_bits;
    exact.usage.sram_kb =
        kb(static_cast<double>(store.exact_capacity) * (8 + key_bits / 8.0));
    exact.registers.push_back({"r_exact_" + id, true});
    dep = add(std::move(exact));

    auto fp = base("t_cuckoo_fp_" + id);
    fp.depends_on = dep;
    fp.usage.match_crossbar_bits = store.hash.digest_bits;
    fp.usage.sram_kb = kb(static_cast<double>(store.hash.buckets) * store.hash.digest_bits / 8.0);
    fp.registers.push_back({"r_fp_" + id, true});
    dep = add(std::move(fp));

    auto cnt = base("t_cuckoo_cnt_" + id);
    cnt.depends_on = dep;
    cnt.usage.sram_kb = kb(static_cast<double>(store.hash.buckets) * 8);
    cnt.registers.push_back({"r_cnt_" + id, true});
    dep = add(std::move(cnt));

    auto push = base("t_kvfifo_" + id);
    push.depends_on = dep;
    push.usage.sram_kb = kb(static_cast<double>(store.fifo_capacity) * 16);
    push.registers.push_back({"r_kvfifo_" + id, true});
    return add(std::move(push));
  }

  void fifo_push_unit(const ntapi::FifoWiring& w) {
    LogicalUnit u;
    const std::string tid = std::to_string(w.trigger_index);
    u.name = "t_trigfifo_push_" + tid;
    u.where = "query[" + std::to_string(w.query_index) + "]";
    u.thread = Thread::kIngress;
    u.traffic = PacketClass{PacketClass::kForeign};
    u.query = static_cast<int>(w.query_index);
    u.usage.salu = 1;  // rear-counter RMW gates the lane writes
    u.usage.vliw_slots = static_cast<double>(w.lanes.size());
    u.usage.sram_kb =
        kb(static_cast<double>(w.capacity * (w.lanes.size() + 2)) * 8);
    u.registers.push_back({"trigfifo." + tid + ".rear", true});
    for (const auto lane : w.lanes) u.reads.push_back(lane);
    // Runs after the driving query's last operator.
    u.depends_on = last_unit_of_query(static_cast<int>(w.query_index));
    add(std::move(u));
  }

  int last_unit_of_query(int q) const {
    for (int i = static_cast<int>(units_.size()) - 1; i >= 0; --i) {
      if (units_[static_cast<std::size_t>(i)].query == q) return i;
    }
    return -1;
  }

  const AnalysisInput& in_;
  std::vector<LogicalUnit> units_;
};

}  // namespace

std::vector<LogicalUnit> build_units(const AnalysisInput& in) {
  return UnitBuilder(in).build();
}

Placement place_pipeline(const AnalysisInput& in) {
  Placement pl;
  pl.units = build_units(in);
  pl.stage_of.assign(pl.units.size(), 0);
  const rmt::ResourceUsage cap = rmt::stage_capacity();

  for (std::size_t i = 0; i < pl.units.size(); ++i) {
    const auto& u = pl.units[i];
    std::size_t earliest = 0;
    if (u.depends_on >= 0) {
      earliest = static_cast<std::size_t>(pl.stage_of[static_cast<std::size_t>(u.depends_on)]) + 1;
    }
    const bool oversized = !rmt::exceeded_classes(u.usage, cap).empty();
    std::size_t s = earliest;
    for (;; ++s) {
      if (s >= pl.stage_usage.size()) pl.stage_usage.resize(s + 1);
      // A unit too big for any stage still gets one of its own; the
      // stage-fit pass reports it rather than looping forever here.
      if (oversized) {
        rmt::ResourceUsage empty;
        if (rmt::exceeded_classes(pl.stage_usage[s], empty).empty()) break;
        continue;
      }
      rmt::ResourceUsage trial = pl.stage_usage[s];
      trial += u.usage;
      if (rmt::exceeded_classes(trial, cap).empty()) break;
    }
    pl.stage_of[i] = static_cast<int>(s);
    pl.stage_usage[s] += u.usage;
  }
  return pl;
}

}  // namespace ht::analysis
