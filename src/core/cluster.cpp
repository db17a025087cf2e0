#include "core/cluster.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "net/headers.hpp"
#include "sim/snapshot.hpp"

namespace ht {

TesterCluster::TesterCluster(ClusterConfig cfg) : group_(cfg.shards, cfg.seed) {}

HyperTester& TesterCluster::add_tester(TesterConfig cfg, std::size_t shard) {
  if (shard >= group_.size()) {
    throw std::out_of_range("TesterCluster::add_tester: shard index out of range");
  }
  // Construction allocates on the calling thread; bind the target shard's
  // pool so anything created here is already shard-local.
  net::PoolBinding bind(&group_.shard(shard).pool());
  testers_.push_back(std::make_unique<HyperTester>(cfg, group_.shard(shard)));
  placement_.push_back(shard);
  return *testers_.back();
}

telemetry::Report TesterCluster::telemetry_report() const {
  std::vector<telemetry::RegistrySection> sections;
  sections.reserve(testers_.size());
  for (std::size_t i = 0; i < testers_.size(); ++i) {
    sections.push_back({&testers_[i]->metrics(),
                        {{"tester", "t" + std::to_string(i)}}});
  }
  return telemetry::make_report(sections);
}

void TesterCluster::write_state(sim::SnapshotWriter& w) {
  group_.write_state(w);
  for (std::size_t i = 0; i < testers_.size(); ++i) {
    testers_[i]->write_state(w, "t" + std::to_string(i));
  }
}

std::uint64_t TesterCluster::state_digest() {
  sim::SnapshotWriter w;
  write_state(w);
  return w.digest();
}

double expected_packet_rate(const ntapi::Task& task, const rmt::AsicConfig& asic) {
  double total = 0.0;
  for (const auto& trig : task.triggers()) {
    if (trig.source_query()) continue;  // echo-driven: rate set by the DUT

    std::size_t ports = 1;
    if (const auto* b = trig.find(net::FieldId::kPort)) {
      if (const auto* v = std::get_if<ntapi::Value>(&b->source)) {
        ports = std::max<std::size_t>(1, v->stream_length());
      }
    }

    // Effective inter-departure time: the steepest ramp step, or the
    // configured interval (random distributions contribute their first
    // parameter — the mean for the shapes the DSL offers).
    std::uint64_t interval_ns = 0;
    if (!trig.ramp().empty()) {
      interval_ns = trig.ramp().front().interval_ns;
      for (const auto& step : trig.ramp()) {
        interval_ns = std::min(interval_ns, step.interval_ns);
      }
    } else if (const auto* b = trig.find(net::FieldId::kInterval)) {
      if (const auto* v = std::get_if<ntapi::Value>(&b->source)) {
        interval_ns = v->initial_value();
      }
    }

    double per_port;
    if (interval_ns == 0) {
      std::size_t pkt_len = 64;
      if (const auto* b = trig.find(net::FieldId::kPktLen)) {
        if (const auto* v = std::get_if<ntapi::Value>(&b->source)) {
          pkt_len = std::max<std::size_t>(1, v->initial_value());
        }
      }
      per_port = asic.port_rate_gbps * 1e9 / (static_cast<double>(pkt_len + 24) * 8.0);
    } else {
      per_port = 1e9 / static_cast<double>(interval_ns);
    }
    total += per_port * static_cast<double>(ports);
  }
  return total;
}

std::vector<std::size_t> TesterCluster::auto_place(
    const std::vector<const ntapi::Task*>& tasks, const rmt::AsicConfig& asic) const {
  std::vector<double> rate;
  rate.reserve(tasks.size());
  for (const auto* t : tasks) rate.push_back(expected_packet_rate(*t, asic));

  // Longest-processing-time: heaviest first (stable, so equal-rate tasks
  // keep their arrival order and the assignment degrades to round-robin).
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return rate[a] > rate[b]; });

  std::vector<double> load(group_.size(), 0.0);
  std::vector<std::size_t> placement(tasks.size(), 0);
  for (const std::size_t i : order) {
    const std::size_t shard = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    placement[i] = shard;
    load[shard] += rate[i];
  }
  return placement;
}

}  // namespace ht
