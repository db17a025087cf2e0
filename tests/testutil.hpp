// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/tasks.hpp"
#include "net/packet.hpp"
#include "rmt/asic.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"

namespace ht::test {

/// One packet a sink received: when it arrived and its bytes.
struct Arrival {
  sim::TimeNs at = 0;
  std::vector<std::uint8_t> bytes;
  bool operator==(const Arrival&) const = default;
};

/// A device-side port that records everything arriving from the switch.
class PortSink {
 public:
  PortSink(sim::EventQueue& ev, std::uint16_t id, double rate_gbps)
      : port(ev, id, rate_gbps) {
    port.on_receive = [this, &ev](net::PacketPtr pkt) {
      arrival_times.push_back(ev.now());
      packets.push_back(std::move(pkt));
    };
  }

  /// Every received packet as an arrival record, in arrival order.
  std::vector<Arrival> arrivals() const {
    std::vector<Arrival> out;
    out.reserve(packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const auto bytes = packets[i]->bytes();
      out.push_back({arrival_times[i], {bytes.begin(), bytes.end()}});
    }
    return out;
  }

  /// Cross-connect with a switch port.
  void attach(sim::Port& switch_port, sim::TimeNs propagation_ns = 0) {
    switch_port.connect(&port, propagation_ns);
    port.connect(&switch_port, propagation_ns);
  }

  sim::Port port;
  std::vector<net::PacketPtr> packets;
  std::vector<sim::TimeNs> arrival_times;
};

/// One named task of the byte-identity catalog.
struct CatalogCase {
  std::string name;
  ntapi::Task task;
};

/// The 11 catalog tasks that every "run it N ways and compare" suite
/// replays: fast path vs interpreted, shard counts, kill-and-restore, and
/// the symbolic oracle's conformance suite.
inline std::vector<CatalogCase> catalog() {
  using namespace apps;
  std::vector<CatalogCase> out;
  out.push_back({"throughput", throughput_test(1, 2, {0}).task});
  out.push_back({"delay", delay_test(1, 2, {0}, {1}, 2000).task});
  out.push_back({"delay_state", delay_test_state_based(1, 2, {0}, {1}, 2000).task});
  out.push_back({"ip_scan", ip_scan(0x0A000000, 16, 80, {0}).task});
  out.push_back({"syn_flood", syn_flood(1, 80, {0, 1}).task});
  out.push_back({"web", web_test(1, 80, 0x01010001, 4, {0}, 2000, 2).task});
  out.push_back({"udp_flood", udp_flood(1, 53, {0}).task});
  out.push_back({"dns_amp", dns_amplification(1, 0x08080800, 8, {0}).task});
  out.push_back({"loss", loss_test(1, 2, {0}, {1}, 16, 1000).task});
  out.push_back({"port_bw", port_bandwidth().task});
  out.push_back({"ping_sweep", ping_sweep(0x0A000000, 8, {0}).task});
  return out;
}

/// Testbed fixture: one ASIC plus one sink per front-panel port.
struct AsicTestbed {
  explicit AsicTestbed(rmt::AsicConfig cfg = {}) : asic(ev, cfg) {
    sinks.reserve(asic.port_count());
    for (std::size_t i = 0; i < asic.port_count(); ++i) {
      sinks.push_back(std::make_unique<PortSink>(ev, static_cast<std::uint16_t>(i),
                                                 cfg.port_rate_gbps));
      sinks.back()->attach(asic.port(static_cast<std::uint16_t>(i)));
    }
  }

  sim::EventQueue ev;
  rmt::SwitchAsic asic;
  std::vector<std::unique_ptr<PortSink>> sinks;
};

}  // namespace ht::test
