// Unit tests for the simulation substrate: event queue, stats, ports.
#include <gtest/gtest.h>

#include <array>

#include "net/packet_builder.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace ht::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenFifo) {
  EventQueue ev;
  std::vector<int> order;
  ev.schedule_at(100, [&] { order.push_back(2); });
  ev.schedule_at(50, [&] { order.push_back(1); });
  ev.schedule_at(100, [&] { order.push_back(3); });  // same time: FIFO
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ev.now(), 100u);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue ev;
  int fired = 0;
  ev.schedule_at(10, [&] { ++fired; });
  ev.schedule_at(20, [&] { ++fired; });
  ev.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(ev.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ev.now(), 20u);
  ev.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(ev.now(), 100u);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue ev;
  ev.schedule_at(100, [] {});
  ev.run_all();
  bool ran = false;
  ev.schedule_at(5, [&] { ran = true; });  // in the past
  ev.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(ev.now(), 100u);
}

TEST(EventQueue, SelfReschedulingRunsUntilDeadline) {
  EventQueue ev;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    ev.schedule_in(10, tick);
  };
  ev.schedule_at(0, tick);
  ev.run_until(95);
  EXPECT_EQ(ticks, 10);  // t = 0,10,...,90
}

// Pins the clock-advance contract documented on run_until: a deadline at or
// ahead of the entry clock always leaves now() == deadline (even when the
// queue drains early or was empty), and a deadline in the past runs nothing
// and never moves the clock backward.
TEST(EventQueue, RunUntilClockAdvanceContract) {
  EventQueue ev;
  // Empty queue: the clock still advances all the way to the deadline.
  EXPECT_EQ(ev.run_until(50), 0u);
  EXPECT_EQ(ev.now(), 50u);
  // Deadline in the past: nothing runs, the clock never moves backward.
  EXPECT_EQ(ev.run_until(10), 0u);
  EXPECT_EQ(ev.now(), 50u);
  // Deadline == now: a no-op that keeps the clock in place.
  EXPECT_EQ(ev.run_until(50), 0u);
  EXPECT_EQ(ev.now(), 50u);
  // Queue drains before the deadline: clock ends at the deadline, not at
  // the last event.
  bool ran = false;
  ev.schedule_at(60, [&] { ran = true; });
  EXPECT_EQ(ev.run_until(100), 1u);
  EXPECT_TRUE(ran);
  EXPECT_EQ(ev.now(), 100u);
  // An event scheduled exactly at a later deadline is included.
  int fired = 0;
  ev.schedule_at(200, [&] { ++fired; });
  ev.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ev.now(), 200u);
}

TEST(EventQueue, SameTimestampEnqueueDuringDrainRunsInOrder) {
  EventQueue ev;
  std::vector<int> order;
  ev.schedule_at(10, [&] {
    order.push_back(1);
    // Scheduled while the t=10 bucket is draining: lands at the tail of
    // the ready list and runs before the clock moves on.
    ev.schedule_at(10, [&] { order.push_back(3); });
  });
  ev.schedule_at(10, [&] { order.push_back(2); });
  ev.schedule_at(11, [&] { order.push_back(4); });
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, FarFutureEventsBeyondWheelHorizon) {
  // The timer wheel covers 2^40 ns; later timestamps park in the overflow
  // heap and must still execute in (time, sequence) order.
  constexpr TimeNs kHorizon = TimeNs{1} << 40;
  EventQueue ev;
  std::vector<int> order;
  ev.schedule_at(2 * kHorizon + 3, [&] { order.push_back(4); });
  ev.schedule_at(kHorizon + 5, [&] { order.push_back(2); });
  ev.schedule_at(100, [&] { order.push_back(1); });
  ev.schedule_at(kHorizon + 5, [&] { order.push_back(3); });  // same time: FIFO
  EXPECT_EQ(ev.pending(), 4u);
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(ev.now(), 2 * kHorizon + 3);
}

TEST(EventQueue, SlabReusesNodesAndCountsHighWater) {
  EventQueue ev;
  for (int i = 0; i < 100; ++i) {
    ev.schedule_in(1, [] {});
    ev.run_all();
  }
  const auto& s = ev.slab_stats();
  // One node carved fresh, then recycled through the freelist every round.
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 99u);
  EXPECT_EQ(s.high_water, 1u);
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.heap_closures, 0u);
}

TEST(EventQueue, OversizedClosureFallsBackToHeap) {
  EventQueue ev;
  std::array<std::uint64_t, 16> big{};  // 128B capture: too big for the node
  big[15] = 7;
  std::uint64_t seen = 0;
  ev.schedule_at(5, [big, &seen] { seen = big[15]; });
  EXPECT_EQ(ev.slab_stats().heap_closures, 1u);
  ev.run_all();
  EXPECT_EQ(seen, 7u);
  // Unexecuted oversized closures must also be destroyed cleanly.
  ev.schedule_at(1000, [big, &seen] { seen = big[0]; });
  EXPECT_EQ(ev.slab_stats().heap_closures, 2u);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(ErrorMetrics, KnownValues) {
  // Samples around a target of 10: errors are computable by hand.
  const std::vector<double> samples = {9.0, 11.0, 10.0, 12.0};
  const ErrorMetrics m = compute_error_metrics(samples, 10.0);
  EXPECT_DOUBLE_EQ(m.mae, (1 + 1 + 0 + 2) / 4.0);
  // mean = 10.5 -> |dev| = 1.5, .5, .5, 1.5
  EXPECT_DOUBLE_EQ(m.mad, 1.0);
  EXPECT_NEAR(m.rmse, std::sqrt((1 + 1 + 0 + 4) / 4.0), 1e-12);
}

TEST(ErrorMetrics, EmptyInput) {
  const ErrorMetrics m = compute_error_metrics({}, 10.0);
  EXPECT_EQ(m.samples, 0u);
  EXPECT_EQ(m.mae, 0.0);
}

TEST(InterDeparture, Deltas) {
  const auto d = inter_departure_times({100, 110, 125, 135});
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 10.0);
  EXPECT_EQ(d[1], 15.0);
  EXPECT_EQ(d[2], 10.0);
  EXPECT_TRUE(inter_departure_times({42}).empty());
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_NEAR(percentile(xs, 50), 50.5, 1e-9);
  EXPECT_NEAR(percentile(xs, 0), 1.0, 1e-9);
  EXPECT_NEAR(percentile(xs, 100), 100.0, 1e-9);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.push(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Port, SerializationPacesLineRate) {
  EventQueue ev;
  Port tx(ev, 0, 100.0);  // 100G
  Port rx(ev, 1, 100.0);
  tx.connect(&rx);
  rx.connect(&tx);
  std::vector<TimeNs> arrivals;
  rx.on_receive = [&](net::PacketPtr) { arrivals.push_back(ev.now()); };
  // 64B frames: line size 88B -> 7.04ns serialization at 100G.
  for (int i = 0; i < 1000; ++i) tx.send(net::make_packet(64));
  ev.run_all();
  ASSERT_EQ(arrivals.size(), 1000u);
  const double total = static_cast<double>(arrivals.back() - arrivals.front());
  EXPECT_NEAR(total / 999.0, 7.04, 0.02);
  EXPECT_NEAR(tx.tx_line_rate_gbps(), 100.0, 1.0);
}

TEST(Port, MacTimestampsOnDelivery) {
  EventQueue ev;
  Port tx(ev, 0, 10.0);
  Port rx(ev, 7, 10.0);
  tx.connect(&rx, 500);  // 500ns propagation
  rx.connect(&tx, 500);
  net::PacketPtr got;
  rx.on_receive = [&](net::PacketPtr p) { got = std::move(p); };
  tx.send(net::make_packet(64));
  ev.run_all();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->meta().ingress_port, 7);
  // 88B at 10G = 70.4ns serialization + 500ns propagation.
  EXPECT_NEAR(static_cast<double>(got->meta().ingress_tstamp_ns), 570.4, 1.0);
}

TEST(Port, DropsWithoutPeer) {
  EventQueue ev;
  Port p(ev, 0, 10.0);
  p.send(net::make_packet(64));
  EXPECT_EQ(p.dropped_no_peer(), 1u);
  EXPECT_EQ(p.tx_packets(), 0u);
}

TEST(Port, TransmitHookReportsStartTimes) {
  EventQueue ev;
  Port tx(ev, 0, 100.0);
  Port rx(ev, 1, 100.0);
  tx.connect(&rx);
  std::vector<TimeNs> starts;
  tx.on_transmit = [&](const net::Packet&, TimeNs t) { starts.push_back(t); };
  tx.send(net::make_packet(64));
  tx.send(net::make_packet(64));
  ev.run_all();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 7u);  // rounded 7.04
}

}  // namespace
}  // namespace ht::sim
