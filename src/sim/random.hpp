// Deterministic randomness for the simulation.
//
// Every stochastic component (MAC jitter, baseline-tester timing noise,
// workload generators) draws from an Rng seeded explicitly, so experiments
// are reproducible and tests can assert exact statistics.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <string>

namespace ht::sim {

/// The 64-bit Mersenne Twister, word for word std::mt19937_64: the same
/// seeding, recurrence, tempering and stream text (`<<` writes, and `>>`
/// reads, exactly libstdc++'s 312 state words and position), so a state
/// captured from either engine restores into the other. The refill selects
/// the twist matrix with a mask instead of a branch on each word's low
/// bit, which a branch predictor gets wrong half the time. Rng, a friend,
/// reads the state words ahead of the position for its Gaussian block and
/// moves the position past the words a popped pair used.
class Rng;

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kWords) refill();
    return temper(x_[pos_++]);
  }

  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e);

 private:
  friend class Rng;

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }
  /// Regenerate all 312 state words and rewind the position to 0: what
  /// the next draw does when the position has reached kWords.
  void refill();

  std::array<result_type, kWords> x_;
  std::size_t pos_ = kWords;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedull) : engine_(seed) {}

  /// One step of the splitmix64 sequence starting at `state` (Steele et
  /// al., "Fast splittable pseudorandom number generators"). Advances
  /// `state` and returns a fully mixed 64-bit output. Used as the seed
  /// fanout below and available to callers that need a cheap stateless
  /// mix (hash of an id, derived stream keys).
  static std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Seed for stream `stream` of run seed `run_seed`: the (stream+1)-th
  /// splitmix64 output of the run seed. This is how per-shard (and
  /// per-tester) Rng streams are derived from one run seed. splitmix64's
  /// full-avalanche finalizer decorrelates the streams: unlike the naive
  /// `run_seed + stream` seeding, two derived seeds never feed the
  /// mt19937_64 initializer with near-identical values, so neighbouring
  /// shards do not start in correlated engine states.
  static std::uint64_t stream_seed(std::uint64_t run_seed, std::uint64_t stream) {
    std::uint64_t state = run_seed;
    std::uint64_t out = splitmix64(state);
    for (std::uint64_t i = 0; i < stream; ++i) out = splitmix64(state);
    return out;
  }

  /// An Rng on the derived stream: `Rng::for_stream(seed, shard_id)`.
  static Rng for_stream(std::uint64_t run_seed, std::uint64_t stream) {
    return Rng(stream_seed(run_seed, stream));
  }

  // Every draw other than gaussian() consumes engine words at the
  // position, so it first drops the pending Gaussian block (see below).
  std::uint64_t next_u64() {
    drop_block();
    return engine_();
  }
  /// Uniform in [0, bound) — bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) {
    drop_block();
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }
  /// Uniform in [lo, hi] inclusive.
  std::uint64_t uniform_range(std::uint64_t lo, std::uint64_t hi) {
    drop_block();
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }
  /// Uniform in [0, 1): the top 53 bits of one engine draw, scaled. One
  /// engine step per call, no distribution-object overhead — this is the
  /// innermost call of every stochastic hot path (MAC jitter, chaos).
  double uniform01() {
    drop_block();
    return to_unit(engine_());
  }
  /// Marsaglia polar with the spare value cached across calls: the
  /// rejection loop and the log/sqrt pair are paid once per *two* draws.
  /// (std::normal_distribution computes the same pair but a fresh
  /// distribution object per call would discard the spare.)
  ///
  /// The pairs come a block at a time: fill_block() runs the rejection
  /// loop ahead over the words already in the engine's state, without
  /// moving it, and each pair records the position the scalar loop would
  /// have reached after accepting it. A pop moves the engine there, so
  /// every draw and every state_string() equals the scalar loop's. A
  /// block holds as many pairs as the current run of Gaussians has popped
  /// (one to start), so a run that another draw cuts off wastes fewer
  /// pairs than it used.
  double gaussian(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return mean + stddev * spare_;
    }
    if (block_left_ == 0 && !fill_block()) return scalar_pair(mean, stddev);
    const std::size_t i = block_len_ - block_left_--;
    engine_.pos_ = block_.end[i];
    spare_ = block_.spare[i];
    has_spare_ = true;
    return mean + stddev * block_.u[i] * block_.f[i];
  }
  double exponential(double rate) {
    drop_block();
    return std::exponential_distribution<double>(rate)(engine_);
  }
  bool bernoulli(double p) {
    drop_block();
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Full generator state (mt19937_64 state words + position + the cached
  /// Marsaglia spare) as a portable text record, for run-state snapshots
  /// (sim/snapshot.hpp). Round-trips exactly: after set_state_string the
  /// next draws are identical to the captured generator's. The Gaussian
  /// block and its run count are not part of it: they set how many pairs
  /// are computed ahead, never what a draw returns.
  std::string state_string() const;
  void set_state_string(const std::string& s);

 private:
  /// Most pairs per Gaussian block; 64 accepted pairs take about 163
  /// words, about half of the engine's 312.
  static constexpr std::size_t kBlockPairs = 64;

  static double to_unit(std::uint64_t w) { return static_cast<double>(w >> 11) * 0x1.0p-53; }

  /// The scalar Marsaglia loop: one pair straight from the engine, the
  /// path for a pair that straddles a refill.
  double scalar_pair(double mean, double stddev);
  /// Compute max(1, run_) pairs, at most kBlockPairs, from the words
  /// between the engine's position and the end of its state, refilling
  /// first only when the position is already at the end (the next word
  /// drawn would refill anyway). False when no pair completes before the
  /// end.
  bool fill_block();
  void drop_block() {
    block_left_ = 0;
    run_ = 0;
  }

  Mt19937_64 engine_;
  double spare_ = 0.0;
  bool has_spare_ = false;
  /// Pairs of the block not yet popped; pair i of block_len_ is popped as
  /// block_len_ - block_left_. Zero means no block is pending.
  std::uint8_t block_left_ = 0;
  std::uint8_t block_len_ = 0;
  /// Pairs computed since the last other draw, capped at kBlockPairs. A
  /// block is filled only when the previous one is used up, so every one
  /// of them was popped.
  std::uint8_t run_ = 0;
  // u and f stay apart because the scalar loop returns
  // `mean + stddev * u * f`, and a product u * f rounds differently.
  struct Block {
    double u[kBlockPairs];
    double f[kBlockPairs];           ///< sqrt(-2 ln s / s)
    double spare[kBlockPairs];       ///< v * f
    std::uint16_t end[kBlockPairs];  ///< engine position after the pair
  } block_{};
};

}  // namespace ht::sim
