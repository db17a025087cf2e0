// Forwarder: a store-and-forward device under test.
//
// Models the second Tofino switch of the paper's testbed (Fig 8) as seen
// by the tester: packets entering one port leave another after a
// configurable forwarding delay (optionally jittered). Used by delay
// testing (Fig 18) and loss testing (a loss rate can be injected).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"
#include "sim/random.hpp"

namespace ht::dut {

class Forwarder {
 public:
  struct Config {
    std::size_t num_ports = 2;
    double port_rate_gbps = 100.0;
    double forward_delay_ns = 600.0;  ///< switching latency
    double delay_jitter_ns = 0.0;
    double loss_rate = 0.0;  ///< i.i.d. packet loss probability
    std::uint64_t seed = 7;
  };

  Forwarder(sim::EventQueue& ev, Config cfg);

  sim::Port& port(std::size_t i) { return *ports_.at(i); }

  /// Route packets arriving on `in` out of `out` (defaults: 0<->1).
  void set_route(std::size_t in, std::size_t out);

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t lost() const { return lost_; }

 private:
  void on_packet(std::size_t in_port, net::PacketPtr pkt);

  sim::EventQueue& ev_;
  Config cfg_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<sim::Port>> ports_;
  std::vector<std::size_t> route_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace ht::dut
