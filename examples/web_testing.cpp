// Web testing (§5.4, Table 4): emulate 100K clients/s fetching a page
// from an HTTP server — SYN, handshake ACK, HTTP request, data ACKs, FIN —
// with *stateless connections*: the tester stores no per-connection state;
// every response packet is generated from a trigger record the receiver
// extracted.
//
//   $ ./web_testing
//
// Exits nonzero when no page completed: the server answered no request,
// or the tester closed no connection.
#include <cstdio>

#include "apps/tasks.hpp"
#include "core/hypertester.hpp"
#include "dut/stateful/workload_server.hpp"
#include "net/packet_builder.hpp"

int main() {
  using namespace ht;

  HyperTester tester;
  // The device under test: an HTTP server on :80 whose 6000-byte page goes
  // out as five MSS-sized PSH+ACK segments.
  dut::stateful::WorkloadConfig wcfg;
  wcfg.response_bytes = 6000;
  wcfg.tcb.capacity = 1 << 12;
  dut::stateful::WorkloadServer server(tester.events(), wcfg);
  server.attach(0, tester.asic().port(1));
  server.start();

  // 100K new clients per second = one SYN every 10us (the paper's rate).
  auto app = apps::web_test(net::ipv4_address("5.5.5.5"), 80,
                            net::ipv4_address("1.1.0.1"), /*clients=*/4096, {1},
                            /*new_clients_interval_ns=*/10'000,
                            /*data_packets_per_page=*/5);
  tester.load(app.task);
  std::printf("web test compiled: %zu triggers, %zu queries, %zu trigger FIFOs, %zu P4 LoC\n",
              tester.compiled().templates.size(), tester.compiled().queries.size(),
              tester.compiled().fifos.size(), tester.compiled().p4_loc);

  tester.start();
  const sim::TimeNs window = sim::ms(50);
  tester.run_for(window);

  const double secs = static_cast<double>(window) / 1e9;
  std::printf("\n-- server's view (ground truth) --\n");
  std::printf("SYNs received:        %llu (%.0f/s)\n",
              static_cast<unsigned long long>(server.syns_received()),
              static_cast<double>(server.syns_received()) / secs);
  std::printf("handshakes completed: %llu\n",
              static_cast<unsigned long long>(server.handshakes_completed()));
  std::printf("requests served:      %llu\n",
              static_cast<unsigned long long>(server.requests_served()));
  std::printf("connections closed:   %llu\n",
              static_cast<unsigned long long>(server.connections_closed()));

  const std::uint64_t pages = tester.trigger_fires(app.t_fin);
  std::printf("\n-- tester's view (queries, no connection state held) --\n");
  std::printf("answered connections (Q5, SYN+ACK count): %llu\n",
              static_cast<unsigned long long>(tester.query_matched(app.q_handshakes)));
  std::printf("handshake ACK trigger fired:  %llu\n",
              static_cast<unsigned long long>(tester.trigger_fires(app.t_ack)));
  std::printf("HTTP request trigger fired:   %llu\n",
              static_cast<unsigned long long>(tester.trigger_fires(app.t_request)));
  std::printf("data-ACK trigger fired:       %llu\n",
              static_cast<unsigned long long>(tester.trigger_fires(app.t_data_ack)));
  std::printf("FIN trigger fired:            %llu (pages completed)\n",
              static_cast<unsigned long long>(pages));
  if (server.requests_served() == 0 || pages == 0) {
    std::fprintf(stderr, "web_testing: no page completed\n");
    return 1;
  }
  return 0;
}
