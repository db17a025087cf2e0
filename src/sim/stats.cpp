#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ht::sim {

void RunningStats::push(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

ErrorMetrics compute_error_metrics(const std::vector<double>& samples, double target) {
  ErrorMetrics m;
  m.samples = samples.size();
  if (samples.empty()) return m;
  double sum = 0.0;
  for (double x : samples) sum += x;
  const double mean = sum / static_cast<double>(samples.size());
  double abs_err = 0.0, abs_dev = 0.0, sq_err = 0.0;
  for (double x : samples) {
    abs_err += std::abs(x - target);
    abs_dev += std::abs(x - mean);
    sq_err += (x - target) * (x - target);
  }
  const double n = static_cast<double>(samples.size());
  m.mae = abs_err / n;
  m.mad = abs_dev / n;
  m.rmse = std::sqrt(sq_err / n);
  return m;
}

std::vector<double> inter_departure_times(const std::vector<std::uint64_t>& timestamps_ns) {
  std::vector<double> deltas;
  if (timestamps_ns.size() < 2) return deltas;
  deltas.reserve(timestamps_ns.size() - 1);
  for (std::size_t i = 1; i < timestamps_ns.size(); ++i) {
    deltas.push_back(static_cast<double>(timestamps_ns[i]) -
                     static_cast<double>(timestamps_ns[i - 1]));
  }
  return deltas;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace ht::sim
