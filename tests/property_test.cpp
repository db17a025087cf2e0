// Property-style parameterized sweeps (TEST_P) over the library's
// invariants: packet round-trips, FIFO semantics across shapes, counter
// exactness across store geometries, inverse-transform moments across
// distributions, rate-control accuracy across intervals, and hash
// uniformity across seeds.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <type_traits>

#include "htpr/false_positive.hpp"
#include "htps/inverse_transform.hpp"
#include "htps/sender.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "regfifo/register_fifo.hpp"
#include "rmt/hashing.hpp"
#include "sim/stats.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

using net::FieldId;

// --- packet round-trips over the full protocol/size grid ----------------------

// gtest names each case by dumping the struct's bytes, so the struct must
// have no padding: uninitialised padding bytes made the case names (and the
// ctest names built from them) change from one run to the next.
struct PacketCase {
  net::HeaderKind l4;
  std::array<std::uint8_t, 7> zero{};
  std::size_t size;
};
static_assert(std::has_unique_object_representations_v<PacketCase>);

class PacketRoundTrip : public ::testing::TestWithParam<PacketCase> {};

TEST_P(PacketRoundTrip, BuildParseDeparsePreservesFields) {
  const net::HeaderKind l4 = GetParam().l4;
  const std::size_t size = GetParam().size;
  net::PacketBuilder builder(l4, size);
  builder.set(FieldId::kIpv4Sip, 0x0A0B0C0D).set(FieldId::kIpv4Dip, 0x01020304);
  net::Packet pkt = builder.build();
  ASSERT_EQ(pkt.size(), std::max(size, net::min_packet_size(l4)));
  EXPECT_TRUE(net::verify_checksums(pkt));

  // Through the programmable parser and back.
  auto shared = net::make_packet(pkt);
  auto phv = rmt::Parser::default_graph().parse(shared);
  EXPECT_TRUE(phv.header_valid(l4));
  EXPECT_EQ(phv.get(FieldId::kIpv4Sip), 0x0A0B0C0Du);
  phv.set(FieldId::kIpv4Ttl, 13);
  rmt::Parser::deparse(phv);
  EXPECT_EQ(net::get_field(*shared, FieldId::kIpv4Ttl), 13u);
  // Untouched fields survived the round trip.
  EXPECT_EQ(net::get_field(*shared, FieldId::kIpv4Dip), 0x01020304u);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, PacketRoundTrip,
                         ::testing::Values(PacketCase{.l4 = net::HeaderKind::kUdp, .size = 64},
                                           PacketCase{.l4 = net::HeaderKind::kUdp, .size = 128},
                                           PacketCase{.l4 = net::HeaderKind::kUdp, .size = 1500},
                                           PacketCase{.l4 = net::HeaderKind::kTcp, .size = 64},
                                           PacketCase{.l4 = net::HeaderKind::kTcp, .size = 512},
                                           PacketCase{.l4 = net::HeaderKind::kTcp, .size = 1500},
                                           PacketCase{.l4 = net::HeaderKind::kIcmp, .size = 64},
                                           PacketCase{.l4 = net::HeaderKind::kIcmp, .size = 256}));

// --- FIFO semantics across geometries ------------------------------------------

struct FifoCase {
  std::size_t capacity;
  std::size_t lanes;
};

class FifoSweep : public ::testing::TestWithParam<FifoCase> {};

TEST_P(FifoSweep, OrderUnderflowOverflowInvariant) {
  const auto [capacity, lanes] = GetParam();
  rmt::RegisterFile rf;
  regfifo::RegisterFifo fifo(rf, "f", capacity, lanes);

  // Interleaved enqueue/dequeue with a reference model.
  std::deque<std::vector<std::uint64_t>> model;
  sim::Rng rng(capacity * 131 + lanes);
  for (int step = 0; step < 2000; ++step) {
    if (rng.bernoulli(0.55)) {
      std::vector<std::uint64_t> rec(lanes);
      for (auto& v : rec) v = rng.next_u64() & 0xFFFF;
      const bool ok = fifo.enqueue(rec);
      EXPECT_EQ(ok, model.size() < capacity);
      if (ok) model.push_back(std::move(rec));
    } else {
      const auto got = fifo.dequeue();
      if (model.empty()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, model.front());
        model.pop_front();
      }
    }
    EXPECT_EQ(fifo.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, FifoSweep,
                         ::testing::Values(FifoCase{2, 1}, FifoCase{8, 1}, FifoCase{8, 3},
                                           FifoCase{64, 2}, FifoCase{256, 6},
                                           FifoCase{1024, 4}));

// --- counter-store exactness across geometries ---------------------------------

// No padding, for the same reason as PacketCase.
struct StoreCase {
  std::size_t buckets;
  std::uint32_t digest_bits;
  std::uint32_t zero = 0;
  std::size_t flows;
};
static_assert(std::has_unique_object_representations_v<StoreCase>);

class CounterStoreSweep : public ::testing::TestWithParam<StoreCase> {};

TEST_P(CounterStoreSweep, ExactnessHoldsForEveryGeometry) {
  const std::size_t buckets = GetParam().buckets;
  const unsigned digest = GetParam().digest_bits;
  const std::size_t flows = GetParam().flows;
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  htpr::CounterStoreConfig cfg;
  cfg.name = "sweep";
  cfg.hash.key_fields = {FieldId::kIpv4Sip, FieldId::kUdpSport};
  cfg.hash.buckets = buckets;
  cfg.hash.digest_bits = digest;
  cfg.fifo_capacity = 1 << 10;
  cfg.exact_capacity = 1 << 14;
  htpr::CounterStore store(asic, cfg);

  std::vector<std::vector<std::uint64_t>> keys;
  keys.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) keys.push_back({0x01000000 + i * 3, 1 + i % 60000});
  store.install_exact_entries(htpr::analyze_collisions(cfg.hash, keys).exact_keys);

  std::map<std::uint64_t, std::uint64_t> cpu;
  rmt::Phv phv;
  phv.packet = net::make_packet(64);
  rmt::ActionContext ctx{phv, asic.registers(), asic.rng(), 0,
                         [&cpu](std::uint32_t, std::vector<std::uint64_t> v) {
                           cpu[v[0]] += v[1];
                         }};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t rep = 0; rep < i % 4 + 1; ++rep) {
      phv.set(FieldId::kIpv4Sip, keys[i][0]);
      phv.set(FieldId::kUdpSport, keys[i][1]);
      store.update(ctx, 2);
      store.maintenance_pass(ctx);
    }
  }
  while (!store.fifo().empty()) store.maintenance_pass(ctx);

  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(store.total_for_key(keys[i], cpu), 2 * (i % 4 + 1))
        << "flow " << i << " buckets=" << buckets << " digest=" << digest;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CounterStoreSweep,
    ::testing::Values(StoreCase{.buckets = 1 << 8, .digest_bits = 16, .flows = 2'000},
                      StoreCase{.buckets = 1 << 10, .digest_bits = 16, .flows = 5'000},
                      StoreCase{.buckets = 1 << 12, .digest_bits = 16, .flows = 10'000},
                      StoreCase{.buckets = 1 << 10, .digest_bits = 32, .flows = 5'000},
                      StoreCase{.buckets = 1 << 12, .digest_bits = 32, .flows = 20'000}));

// --- inverse-transform moments across distributions ------------------------------

struct DistCase {
  const char* name;
  double p1, p2;
  double expect_mean;
  double expect_stddev;  // < 0 = don't check
};

// Names the case by its fields; the default byte dump would include the
// address of `name`, which differs from run to run.
void PrintTo(const DistCase& c, std::ostream* os) {
  *os << c.name << '_' << c.p1 << '_' << c.p2;
}

class InverseTransformSweep : public ::testing::TestWithParam<DistCase> {};

TEST_P(InverseTransformSweep, MomentsMatch) {
  const auto& c = GetParam();
  htps::InverseTransformTable itt;
  if (std::string_view(c.name) == "normal") {
    itt = htps::InverseTransformTable::normal(c.p1, c.p2, 512, 20);
  } else if (std::string_view(c.name) == "exponential") {
    itt = htps::InverseTransformTable::exponential(c.p1, 512, 20);
  } else {
    itt = htps::InverseTransformTable::uniform(static_cast<std::uint64_t>(c.p1),
                                               static_cast<std::uint64_t>(c.p2), 512, 20);
  }
  sim::Rng rng(99);
  sim::RunningStats s;
  for (int i = 0; i < 40'000; ++i) {
    s.push(static_cast<double>(itt.sample(static_cast<std::uint32_t>(rng.next_u64()))));
  }
  EXPECT_NEAR(s.mean(), c.expect_mean, std::max(2.0, c.expect_mean * 0.02));
  if (c.expect_stddev >= 0) {
    EXPECT_NEAR(s.stddev(), c.expect_stddev, std::max(2.0, c.expect_stddev * 0.05));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, InverseTransformSweep,
    ::testing::Values(DistCase{"normal", 10'000, 1'000, 10'000, 1'000},
                      DistCase{"normal", 50'000, 200, 50'000, 200},
                      DistCase{"exponential", 4'000, 0, 4'000, 4'000},
                      DistCase{"exponential", 100, 0, 100, -1},
                      DistCase{"uniform", 0, 1'000, 500, 1'000 / std::sqrt(12.0)},
                      DistCase{"uniform", 60'000, 65'000, 62'500, 5'000 / std::sqrt(12.0)}));

// --- rate control across the interval spectrum -----------------------------------

class RateSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RateSweep, AchievedRateWithinOnePercent) {
  const std::uint64_t interval = GetParam();
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  htps::Sender sender(tb.asic);
  htps::TemplateConfig cfg;
  cfg.spec.l4 = net::HeaderKind::kUdp;
  cfg.spec.header_init = {{FieldId::kIpv4Sip, 1}, {FieldId::kIpv4Dip, 2}};
  cfg.egress_ports = {1};
  cfg.interval_ns = interval;
  sender.add_template(std::move(cfg));
  sender.install();
  sender.start();
  const sim::TimeNs window =
      std::max<sim::TimeNs>(sim::ms(2), static_cast<sim::TimeNs>(interval * 2'000));
  tb.ev.run_until(window);
  // The §5.1 timer records the *new* departure time, so the effective
  // interval quantizes up to the template arrival granularity (6.4ns for
  // 64B).
  const double granule = tb.asic.timing().min_arrival_interval_ns(64);
  const double effective = std::ceil(static_cast<double>(interval) / granule) * granule;
  const double expected = static_cast<double>(window) / effective;
  EXPECT_NEAR(static_cast<double>(tb.sinks[1]->packets.size()), expected,
              expected * 0.025 + 5);
}

INSTANTIATE_TEST_SUITE_P(Intervals, RateSweep,
                         ::testing::Values(100u, 1'000u, 10'000u, 100'000u));

// --- hash uniformity across seeds -------------------------------------------------

class HashUniformity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HashUniformity, BucketsAreBalancedOnStructuredKeys) {
  // Sequential keys (the worst case for linear hashes) must still spread
  // evenly: no bucket may exceed 3x the expected occupancy.
  const rmt::HashUnit h(GetParam());
  constexpr std::size_t kBuckets = 256;
  constexpr std::size_t kKeys = 64 * kBuckets;
  std::vector<std::uint32_t> counts(kBuckets, 0);
  const net::FieldId fields[] = {FieldId::kIpv4Sip};
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::uint64_t key[] = {0x0A000000 + i};
    ++counts[h.hash_fields(key, fields, 32) % kBuckets];
  }
  const double expected = static_cast<double>(kKeys) / kBuckets;
  double chi2 = 0;
  for (const auto c : counts) {
    EXPECT_LT(c, expected * 3);
    EXPECT_GT(c, expected / 3);
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // Chi-square with 255 dof: mean 255, stddev ~22.6; allow a wide margin.
  EXPECT_LT(chi2, 255 + 8 * 22.6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashUniformity,
                         ::testing::Values(0u, 1u, 0x9E3779B9u, 0x85EBCA6Bu, 12345u));

// --- editor field coverage ---------------------------------------------------------

class EditorFieldSweep : public ::testing::TestWithParam<net::FieldId> {};

TEST_P(EditorFieldSweep, RangeEditAppliesToAnyHeaderField) {
  const net::FieldId field = GetParam();
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  htps::Sender sender(tb.asic);
  htps::TemplateConfig cfg;
  cfg.spec.l4 = net::field_header(field) == net::HeaderKind::kTcp ? net::HeaderKind::kTcp
                                                                  : net::HeaderKind::kUdp;
  cfg.egress_ports = {1};
  cfg.interval_ns = 10'000;
  const std::uint64_t max = net::FieldRegistry::instance().max_value(field);
  const std::uint64_t hi = std::min<std::uint64_t>(max, 20);
  cfg.edits.push_back(htps::EditOp{.field = field,
                                   .kind = htps::EditOp::Kind::kRange,
                                   .start = 1,
                                   .end = hi,
                                   .step = 1});
  sender.add_template(std::move(cfg));
  sender.install();
  sender.start();
  tb.ev.run_until(sim::ms(1));
  ASSERT_GE(tb.sinks[1]->packets.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net::get_field(*tb.sinks[1]->packets[i], field), 1 + i % hi);
    EXPECT_TRUE(net::verify_checksums(*tb.sinks[1]->packets[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(HeaderFields, EditorFieldSweep,
                         ::testing::Values(FieldId::kIpv4Sip, FieldId::kIpv4Dip,
                                           FieldId::kIpv4Ttl, FieldId::kIpv4Id,
                                           FieldId::kUdpSport, FieldId::kUdpDport,
                                           FieldId::kTcpSeqNo, FieldId::kTcpWindow));

}  // namespace
}  // namespace ht
