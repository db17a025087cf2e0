// Statistics accumulators used by every benchmark.
//
// The paper quantifies rate-control accuracy with three inter-departure-time
// error metrics (§7.2): mean absolute error (MAE) against the configured
// interval, mean absolute deviation (MAD) around the observed mean, and root
// mean squared error (RMSE) against the configured interval.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace ht::sim {

/// Streaming mean/variance/min/max (Welford).
class RunningStats {
 public:
  void push(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// The paper's three rate-control error metrics, computed over a sample set
/// against a target value.
struct ErrorMetrics {
  double mae = 0.0;   ///< mean |x - target|
  double mad = 0.0;   ///< mean |x - mean(x)|
  double rmse = 0.0;  ///< sqrt(mean (x - target)^2)
  std::uint64_t samples = 0;
};

/// Compute the metrics over `samples` against `target`.
ErrorMetrics compute_error_metrics(const std::vector<double>& samples, double target);

/// Convert a monotonically increasing timestamp series into inter-departure
/// deltas (ns). Fewer than two timestamps yields an empty vector.
std::vector<double> inter_departure_times(const std::vector<std::uint64_t>& timestamps_ns);

/// Exact percentile (nearest-rank) of a sample set; p in [0,100].
double percentile(std::vector<double> samples, double p);

}  // namespace ht::sim
