#include "switchcpu/controller.hpp"

#include <cmath>

namespace ht::switchcpu {

Controller::Controller(rmt::SwitchAsic& asic) : asic_(asic) {
  asic_.digests().set_receiver([this](const rmt::DigestMessage& msg) { on_digest(msg); });
}

void Controller::read_counters(const std::string& reg, bool batched,
                               std::function<void(std::vector<std::uint64_t>)> done) {
  if (partitioned_) {
    ++rpc_lost_;  // the RPC vanishes: `done` never fires
    return;
  }
  auto& array = asic_.registers().get(reg);
  const std::size_t n = array.size();
  const double latency =
      batched ? pull_model_.batched_ns(n) : pull_model_.one_by_one_ns(n);
  asic_.events().schedule_in(
      static_cast<sim::TimeNs>(std::llround(latency)), [&array, n, done = std::move(done)]() {
        std::vector<std::uint64_t> values(n);
        for (std::size_t i = 0; i < n; ++i) values[i] = array.read(i);
        done(std::move(values));
      });
}

void Controller::subscribe(std::uint32_t type,
                           std::function<void(const rmt::DigestMessage&)> fn) {
  subscribers_[type].push_back(std::move(fn));
}

void Controller::register_metrics(telemetry::MetricsRegistry& reg) {
  reg.mirror_counter(
      "ht_controller_rpc_lost_total", [this] { return rpc_lost_; },
      {.help = "control-plane read RPCs swallowed by injected loss",
       .drop_source = "controller.rpc_lost"});
  reg.mirror_counter("ht_controller_digests_total", [this] { return digest_count_; },
                     {.help = "push-mode digest messages received by the switch CPU"});
}

void Controller::on_digest(const rmt::DigestMessage& msg) {
  ++digest_count_;
  if (msg.type == eviction_type_ && msg.values.size() >= 2) {
    evicted_[msg.values[0]] += msg.values[1];
  }
  const auto it = subscribers_.find(msg.type);
  if (it != subscribers_.end()) {
    for (const auto& fn : it->second) fn(msg);
  }
}

}  // namespace ht::switchcpu
