// The draw layer under sim::Rng (DESIGN.md §8, ctest label `rng`).
//
// sim::Rng runs its own mt19937_64 engine and computes Marsaglia pairs a
// block at a time. Both must reproduce, bit for bit, the stream of the
// scalar Marsaglia loop over std::mt19937_64 that the simulator's pinned
// outputs were produced with. These tests compare against that reference
// directly: the fast-path/reference-path checks elsewhere run both paths
// on one Rng, so a generator fault would move both sides alike.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <tuple>

#include "sim/random.hpp"

namespace ht {
namespace {

using sim::Mt19937_64;
using sim::Rng;

/// The pre-block Rng: every draw straight from std::mt19937_64, Gaussian
/// pairs from the scalar Marsaglia polar loop with its spare cached.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }
  std::uint64_t uniform(std::uint64_t bound) {
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }
  std::uint64_t uniform_range(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }
  double uniform01() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  double gaussian(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform01() - 1.0;
      v = 2.0 * uniform01() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * f;
    has_spare_ = true;
    return mean + stddev * u * f;
  }
  double exponential(double rate) { return std::exponential_distribution<double>(rate)(engine_); }
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// The text Rng::state_string() must equal: std's engine text, then the
  /// spare flag and the spare's bit pattern.
  std::string state_string() const {
    std::ostringstream os;
    os << engine_ << ' ' << has_spare_ << ' ' << std::bit_cast<std::uint64_t>(spare_);
    return os.str();
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

constexpr std::uint64_t kSeeds[] = {0, 1, 0xfeed, ~std::uint64_t{0}};

// Bit equality, so that a NaN or a signed zero cannot compare equal by value.
std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// One draw of every method, chosen by `which`, on `a` and `b`; checks
/// that both return the same bits.
template <class A, class B>
void draw_same(int which, A& a, B& b, const std::string& where) {
  switch (which) {
    case 0:
      ASSERT_EQ(a.next_u64(), b.next_u64()) << where;
      break;
    case 1:
      ASSERT_EQ(a.uniform(1000003), b.uniform(1000003)) << where;
      break;
    case 2:
      ASSERT_EQ(a.uniform_range(5, 17), b.uniform_range(5, 17)) << where;
      break;
    case 3:
      ASSERT_EQ(bits(a.uniform01()), bits(b.uniform01())) << where;
      break;
    case 4:
      ASSERT_EQ(bits(a.exponential(0.25)), bits(b.exponential(0.25))) << where;
      break;
    case 5:
      ASSERT_EQ(a.bernoulli(0.3), b.bernoulli(0.3)) << where;
      break;
    default:  // Gaussians are the common draw: weight them up
      ASSERT_EQ(bits(a.gaussian(570.0, 3.5)), bits(b.gaussian(570.0, 3.5))) << where;
      break;
  }
}
constexpr int kDrawKinds = 10;

TEST(RngEngine, MatchesStdMt19937_64ForAMillionWords) {
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(RngEngine, StreamTextIsStdText) {
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (const int draws : {0, 1, 155, 156, 311}) {
      for (int i = 0; i < draws; ++i) ASSERT_EQ(ours(), ref());
      std::ostringstream a, b;
      a << ours;
      b << ref;
      ASSERT_EQ(a.str(), b.str()) << "seed " << seed;
      // And std's text restores into our engine (and ours into std's).
      Mt19937_64 restored(seed ^ 1);
      std::istringstream(b.str()) >> restored;
      std::mt19937_64 ref_restored(seed ^ 1);
      std::istringstream(a.str()) >> ref_restored;
      for (int i = 0; i < 400; ++i) ASSERT_EQ(restored(), ref_restored());
    }
  }
}

TEST(RngState, StateStringIsStdTextAtEveryPosition) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    ReferenceRng ref(seed);
    // Fresh: the seeded state, position 312 until the first draw.
    EXPECT_EQ(rng.state_string(), ref.state_string());
    // Mid-way through the 312 state words.
    for (int i = 0; i < 157; ++i) ASSERT_EQ(rng.next_u64(), ref.next_u64());
    EXPECT_EQ(rng.state_string(), ref.state_string());
    // Position 312: every word is used and the next draw refills.
    for (int i = 157; i < 312; ++i) ASSERT_EQ(rng.next_u64(), ref.next_u64());
    EXPECT_EQ(rng.state_string(), ref.state_string());
    EXPECT_NE(rng.state_string().find(" 312 0 0"), std::string::npos);
    // Just after a Gaussian popped from a block: the position is where
    // the scalar loop stopped and the spare is pending.
    ASSERT_EQ(bits(rng.gaussian(0.0, 1.0)), bits(ref.gaussian(0.0, 1.0)));
    EXPECT_EQ(rng.state_string(), ref.state_string());
    ASSERT_EQ(bits(rng.gaussian(0.0, 1.0)), bits(ref.gaussian(0.0, 1.0)));
    ASSERT_EQ(bits(rng.gaussian(0.0, 1.0)), bits(ref.gaussian(0.0, 1.0)));
    EXPECT_EQ(rng.state_string(), ref.state_string());
  }
}

TEST(RngState, PositionZeroFromTextDrawsLikeStd) {
  // std's engine never rests at position 0 (a draw refills and moves on),
  // but its text can say 0; both engines then read the words from the start.
  ReferenceRng ref(0xfeed);
  for (int i = 0; i < 312; ++i) ref.next_u64();
  ref.engine()();  // refill, position 1
  std::string text = ref.state_string();
  const auto tail = text.size() - 6;
  ASSERT_EQ(text.substr(tail), " 1 0 0");
  text.replace(tail, 6, " 0 0 0");
  std::istringstream(text) >> ref.engine();
  Rng rng(1);
  rng.set_state_string(text);
  EXPECT_EQ(rng.state_string(), ref.state_string());
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(bits(rng.gaussian(0.0, 1.0)), bits(ref.gaussian(0.0, 1.0)));
    ASSERT_EQ(rng.state_string(), ref.state_string()) << "gaussian " << i;
  }
}

TEST(RngGaussian, MatchesScalarMarsagliaAcrossManyRefills) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    ReferenceRng ref(seed);
    // ~1.27 attempts (2.5 words) per pair: 200k draws cross ~800 refills,
    // so pairs straddling a refill and blocks cut short at the end of the
    // state both occur many times.
    for (int i = 0; i < 200'000; ++i) {
      ASSERT_EQ(bits(rng.gaussian(1.0, 2.0)), bits(ref.gaussian(1.0, 2.0)))
          << "seed " << seed << " draw " << i;
    }
    EXPECT_EQ(rng.state_string(), ref.state_string());
  }
}

TEST(RngGaussian, RunsCutOffByAnotherDrawMatchTheScalarReference) {
  // A run of k Gaussians pops about k/2 pairs from blocks that double in
  // size up to the 64-pair cap; the draw that ends the run drops the
  // unpopped ones. Every k up to 300, ended by each other draw in turn.
  Rng rng(0xfeed);
  ReferenceRng ref(0xfeed);
  for (int k = 1; k <= 300; ++k) {
    for (int i = 0; i < k; ++i) {
      ASSERT_EQ(bits(rng.gaussian(0.0, 1.0)), bits(ref.gaussian(0.0, 1.0))) << "run " << k;
    }
    draw_same(k % 6, rng, ref, "after run " + std::to_string(k));
    if (HasFatalFailure()) return;
    ASSERT_EQ(rng.state_string(), ref.state_string()) << "after run " << k;
  }
}

TEST(RngGaussian, InterleavedDrawsMatchTheScalarReference) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    ReferenceRng ref(seed);
    std::mt19937 order(static_cast<std::uint32_t>(seed) ^ 0x5eedu);
    for (int i = 0; i < 100'000; ++i) {
      const int which = static_cast<int>(order() % kDrawKinds);
      draw_same(which, rng, ref, "seed " + std::to_string(seed) + " draw " + std::to_string(i));
      if (HasFatalFailure()) return;
      if (i % 997 == 0) {
        ASSERT_EQ(rng.state_string(), ref.state_string()) << "draw " << i;
      }
    }
  }
}

TEST(RngState, RoundTripAndCopyWithABlockPending) {
  Rng rng(0xfeed);
  ReferenceRng ref(0xfeed);
  for (int i = 0; i < 5; ++i) rng.next_u64(), ref.next_u64();
  // Nine Gaussians: blocks of 1, 1, 2 and 4 pairs, the fifth pair popped
  // and its spare pending, three pairs of the last block unpopped.
  for (int i = 0; i < 9; ++i) ASSERT_EQ(bits(rng.gaussian(0.0, 1.0)), bits(ref.gaussian(0.0, 1.0)));
  const std::string state = rng.state_string();
  ASSERT_EQ(state, ref.state_string());

  Rng copy = rng;  // carries the pending block
  Rng restored(7);  // holds a block of another stream, dropped on restore
  for (int i = 0; i < 9; ++i) restored.gaussian(0.0, 1.0);
  restored.set_state_string(state);
  ReferenceRng ref_for_restored = ref;
  for (auto [out, expect, name] : {std::tuple{&copy, &ref, "copy"},
                                   std::tuple{&restored, &ref_for_restored, "restored"}}) {
    // Gaussians first: the spare, then a pop, which must come from the
    // restored engine, not from the block `restored` held before.
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(bits(out->gaussian(0.0, 1.0)), bits(expect->gaussian(0.0, 1.0))) << name;
    }
    std::mt19937 order(29);
    for (int i = 0; i < 20'000; ++i) {
      draw_same(static_cast<int>(order() % kDrawKinds), *out, *expect,
                std::string(name) + " draw " + std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(copy.state_string(), ref.state_string());
  EXPECT_EQ(restored.state_string(), ref_for_restored.state_string());
}

}  // namespace
}  // namespace ht
