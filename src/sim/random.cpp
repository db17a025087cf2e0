#include "sim/random.hpp"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ht::sim {

void Mt19937_64::refill() {
  constexpr std::size_t kShift = 156;  // the recurrence's middle distance m
  constexpr result_type kMatrixA = 0xb5026f5aa96619e9ull;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  // x[k] = x[k+m] ^ (y >> 1) ^ (y odd ? a : 0), y = upper bits of x[k] and
  // lower bits of x[k+1]; `-(y & 1) & a` is the odd case without a branch.
  const auto twist = [](result_type xk, result_type xk1, result_type xkm) {
    const result_type y = (xk & kUpper) | (xk1 & kLower);
    return xkm ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
  };
  for (std::size_t k = 0; k < kWords - kShift; ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift]);
  }
  for (std::size_t k = kWords - kShift; k < kWords - 1; ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift - kWords]);
  }
  x_[kWords - 1] = twist(x_[kWords - 1], x_[0], x_[kShift - 1]);
  pos_ = 0;
}

// The text of libstdc++'s mersenne_twister_engine operators: each state
// word followed by a space, then the position, in decimal.
std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
  const auto flags = os.flags();
  const auto fill = os.fill();
  os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  os.fill(' ');
  for (const auto w : e.x_) os << w << ' ';
  os << e.pos_;
  os.flags(flags);
  os.fill(fill);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& e) {
  const auto flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  for (auto& w : e.x_) is >> w;
  is >> e.pos_;
  is.flags(flags);
  return is;
}

std::string Rng::state_string() const {
  std::ostringstream os;
  // The spare travels as its bit pattern: decimal formatting of a double
  // would not round-trip it exactly.
  os << engine_ << ' ' << has_spare_ << ' ' << std::bit_cast<std::uint64_t>(spare_);
  return os.str();
}

void Rng::set_state_string(const std::string& s) {
  drop_block();
  std::istringstream is(s);
  std::uint64_t spare_bits = 0;
  is >> engine_ >> has_spare_ >> spare_bits;
  if (!is) throw std::invalid_argument("sim::Rng: malformed state string");
  spare_ = std::bit_cast<double>(spare_bits);
}

double Rng::scalar_pair(double mean, double stddev) {
  double u, v, s;
  do {
    u = 2.0 * to_unit(engine_()) - 1.0;
    v = 2.0 * to_unit(engine_()) - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * f;
  has_spare_ = true;
  return mean + stddev * u * f;
}

bool Rng::fill_block() {
  if (engine_.pos_ >= Mt19937_64::kWords) engine_.refill();
  const std::uint64_t* x = engine_.x_.data();
  std::size_t pos = engine_.pos_;
  double v[kBlockPairs];
  double s[kBlockPairs];
  const std::size_t want = std::max<std::size_t>(run_, 1);
  std::size_t n = 0;
  // The rejection loop with the accept test folded into the count: every
  // attempt is written at slot n, and an accepted one keeps it. The test
  // is two flags ANDed as integers: written as `!(s >= 1 || s == 0)` the
  // compiler branches on it, and about one attempt in five is rejected.
  while (n < want && pos + 2 <= Mt19937_64::kWords) {
    const double u = 2.0 * to_unit(Mt19937_64::temper(x[pos])) - 1.0;
    const double w = 2.0 * to_unit(Mt19937_64::temper(x[pos + 1])) - 1.0;
    pos += 2;
    const double ss = u * u + w * w;
    block_.u[n] = u;
    v[n] = w;
    s[n] = ss;
    block_.end[n] = static_cast<std::uint16_t>(pos);
    n += static_cast<std::size_t>(ss < 1.0) & static_cast<std::size_t>(ss != 0.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double f = std::sqrt(-2.0 * std::log(s[i]) / s[i]);
    block_.f[i] = f;
    block_.spare[i] = v[i] * f;
  }
  block_len_ = static_cast<std::uint8_t>(n);
  block_left_ = block_len_;
  run_ = static_cast<std::uint8_t>(std::min(run_ + n, kBlockPairs));
  return n != 0;
}

}  // namespace ht::sim
