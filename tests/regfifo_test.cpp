// Unit tests for the §6.1 register FIFO.
#include <gtest/gtest.h>

#include "regfifo/register_fifo.hpp"

namespace ht::regfifo {
namespace {

TEST(RegisterFifo, FifoOrder) {
  rmt::RegisterFile rf;
  RegisterFifo q(rf, "q", 8, 2);
  q.enqueue({1, 10});
  q.enqueue({2, 20});
  q.enqueue({3, 30});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.dequeue(), (std::vector<std::uint64_t>{1, 10}));
  EXPECT_EQ(q.dequeue(), (std::vector<std::uint64_t>{2, 20}));
  EXPECT_EQ(q.dequeue(), (std::vector<std::uint64_t>{3, 30}));
  EXPECT_TRUE(q.empty());
}

TEST(RegisterFifo, UnderflowGuard) {
  rmt::RegisterFile rf;
  RegisterFifo q(rf, "q", 4, 1);
  EXPECT_EQ(q.dequeue(), std::nullopt);  // the front-counter gate
  q.enqueue({7});
  EXPECT_EQ(q.dequeue(), std::vector<std::uint64_t>{7});
  EXPECT_EQ(q.dequeue(), std::nullopt);
  EXPECT_EQ(q.dequeued(), 1u);
}

TEST(RegisterFifo, OverflowDropsAndCounts) {
  rmt::RegisterFile rf;
  RegisterFifo q(rf, "q", 4, 1);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue({i}));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.enqueue({99}));  // the §6.1 overflow limitation
  EXPECT_EQ(q.overflows(), 1u);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.dequeue(), std::vector<std::uint64_t>{0});
}

TEST(RegisterFifo, WrapAroundManyTimes) {
  rmt::RegisterFile rf;
  RegisterFifo q(rf, "q", 4, 1);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.enqueue({i}));
    const auto rec = q.dequeue();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ((*rec)[0], i);
  }
  EXPECT_EQ(q.enqueued(), 1000u);
  EXPECT_EQ(q.dequeued(), 1000u);
}

TEST(RegisterFifo, MultiLaneRecordsStayAligned) {
  rmt::RegisterFile rf;
  RegisterFifo q(rf, "q", 16, 4);
  for (std::uint64_t i = 0; i < 10; ++i) q.enqueue({i, i * 2, i * 3, i * 4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto rec = q.dequeue();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(*rec, (std::vector<std::uint64_t>{i, i * 2, i * 3, i * 4}));
  }
}

TEST(RegisterFifo, RejectsBadShapes) {
  rmt::RegisterFile rf;
  EXPECT_THROW(RegisterFifo(rf, "bad1", 3, 1), std::invalid_argument);  // not power of two
  EXPECT_THROW(RegisterFifo(rf, "bad2", 8, 0), std::invalid_argument);  // no lanes
  RegisterFifo q(rf, "ok", 8, 2);
  EXPECT_THROW(q.enqueue({1}), std::invalid_argument);  // arity mismatch
}

TEST(RegisterFifo, BuiltFromRegisterArrays) {
  // The FIFO must be implementable with plain registers: its state is
  // visible through the register file, as on real hardware.
  rmt::RegisterFile rf;
  RegisterFifo q(rf, "vis", 8, 1);
  EXPECT_EQ(q.name(), "vis");
  q.enqueue({123});
  EXPECT_EQ(rf.get("vis.rear").read(0), 1u);
  EXPECT_EQ(rf.get("vis.front").read(0), 0u);
  EXPECT_EQ(rf.get("vis.lane0").read(0), 123u);
}

}  // namespace
}  // namespace ht::regfifo
