#include "sim/fault.hpp"

#include <stdexcept>

#include "sim/port.hpp"

namespace ht::sim {

FaultInjector::FaultInjector(EventQueue& ev, FaultConfig cfg)
    : ev_(&ev), cfg_(cfg), rng_(cfg.seed) {}

void FaultInjector::attach(Port& src) {
  if (src.peer() == nullptr) {
    throw std::logic_error("sim::FaultInjector: attach before the link is connected");
  }
  // Rebind to the RECEIVING queue: on a cross-shard link the ShardGroup
  // drain schedules the hook at the stamped arrival on the destination
  // shard, so every injector mutation (RNG, chain, flap flag, the flap
  // schedule armed below) happens on the thread that owns src.peer().
  ev_ = &src.peer()->ev();
  arm_flaps();
  src.wire_hook = [this](net::PacketPtr pkt, Port& dst) { process(std::move(pkt), dst); };
}

void FaultInjector::arm_flaps() {
  if (!cfg_.flap.enabled() || flaps_armed_) return;
  flaps_armed_ = true;
  for (unsigned i = 0; i < cfg_.flap.count; ++i) {
    const TimeNs down_at = cfg_.flap.first_down_at + TimeNs{i} * cfg_.flap.period_ns;
    ev_->schedule_at(down_at, [this] { link_up_ = false; });
    ev_->schedule_at(down_at + cfg_.flap.down_ns, [this] { link_up_ = true; });
  }
}

bool FaultInjector::draw_loss() {
  if (cfg_.gilbert.enabled()) {
    // Advance the two-state chain once per packet, then draw loss from the
    // state's own probability (the chain advances even for packets that
    // survive — burst lengths are a property of the chain, not the draws).
    if (gilbert_bad_) {
      if (rng_.bernoulli(cfg_.gilbert.p_bad_to_good)) gilbert_bad_ = false;
    } else {
      if (rng_.bernoulli(cfg_.gilbert.p_good_to_bad)) gilbert_bad_ = true;
    }
    const double p = gilbert_bad_ ? cfg_.gilbert.loss_bad : cfg_.gilbert.loss_good;
    return p > 0.0 && rng_.bernoulli(p);
  }
  return cfg_.loss.rate > 0.0 && rng_.bernoulli(cfg_.loss.rate);
}

void FaultInjector::corrupt_in_place(net::PacketPtr& pkt) {
  if (pkt->size() == 0) return;
  // Templates and multicast prototypes are shared; corrupting them in
  // place would poison every future replica. Copy-on-corrupt keeps the
  // damage confined to this one wire crossing.
  if (pkt.use_count() > 1) pkt = net::make_packet(*pkt);
  ++stats_.corrupted;
  const unsigned flips =
      cfg_.corrupt.max_bit_flips <= 1
          ? 1
          : static_cast<unsigned>(rng_.uniform_range(1, cfg_.corrupt.max_bit_flips));
  auto bytes = pkt->bytes();
  for (unsigned f = 0; f < flips; ++f) {
    const std::uint64_t bit = rng_.uniform(static_cast<std::uint64_t>(bytes.size()) * 8);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

void FaultInjector::process(net::PacketPtr pkt, Port& dst) {
  ++stats_.offered;
  if (!link_up_) {
    ++stats_.flap_drops;
    return;
  }
  if (draw_loss()) {
    ++stats_.lost;
    return;
  }
  if (cfg_.corrupt.rate > 0.0 && rng_.bernoulli(cfg_.corrupt.rate)) corrupt_in_place(pkt);
  if (cfg_.duplicate.rate > 0.0 && rng_.bernoulli(cfg_.duplicate.rate)) {
    ++stats_.duplicated;
    ++stats_.delivered;
    auto copy = net::make_packet(*pkt);
    // The duplicate trails the original by one event at the same
    // timestamp, modelling back-to-back wire copies.
    ev_->schedule_in(0, [&dst, copy = std::move(copy)]() mutable { dst.deliver(std::move(copy)); });
  }
  if (cfg_.reorder.rate > 0.0 && rng_.bernoulli(cfg_.reorder.rate)) {
    ++stats_.reordered;
    ++stats_.delivered;
    const TimeNs lo = cfg_.reorder.min_delay_ns;
    const TimeNs hi = cfg_.reorder.max_delay_ns < lo ? lo : cfg_.reorder.max_delay_ns;
    const TimeNs extra = lo == hi ? lo : rng_.uniform_range(lo, hi);
    ev_->schedule_in(extra, [&dst, pkt = std::move(pkt)]() mutable { dst.deliver(std::move(pkt)); });
    return;
  }
  ++stats_.delivered;
  dst.deliver(std::move(pkt));
}

const char* to_string(CrashKind kind) {
  switch (kind) {
    case CrashKind::kTesterCrash: return "tester_crash";
    case CrashKind::kSwitchReboot: return "switch_reboot";
    case CrashKind::kControllerPartition: return "controller_partition";
    case CrashKind::kShardStall: return "shard_stall";
  }
  return "unknown";
}

}  // namespace ht::sim
