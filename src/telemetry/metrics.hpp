// Telemetry metrics: log-linear histograms, counter and gauge mirrors,
// and the registry that names and exports them.
//
// The paper's whole evaluation (Figs. 9-14) is about *measuring* the
// tester; this layer is the uniform way the reproduction records those
// measurements. Design constraints, in order:
//
//  * Determinism. Two identical runs must produce byte-identical metric
//    dumps. Histograms therefore use a FIXED log-linear bucket layout
//    (no adaptive resizing, no sampling) and quantiles are derived from
//    bucket counts only.
//  * Cheap hot path. A counter is a plain integer the component bumps;
//    a histogram record is a handful of arithmetic ops and two array
//    increments, no allocation ever after construction.
//  * Single source of truth. Every counter and gauge is owned by the
//    component that updates it (ASIC drop counters, port MAC counters,
//    HTPR integrity registers) and *mirrored* into the registry with a
//    sampling callback, so every report — Prometheus text, JSON dump,
//    the drop audit trail (drop_counters()) — is derived from one place
//    and cannot diverge. Histograms are the only registry-owned cells.
//
// Naming scheme: `ht_<component>_<name>` with Prometheus-style labels,
// e.g. `ht_port_wire_latency_ns{port="1"}` (DESIGN.md §10).
//
// Threading: nothing here is atomic. A component (and the histograms it
// records into) is written only by its own shard's thread; reports are
// read between ShardGroup::run_until calls, after the epoch barrier's
// acquire/release has published every shard's writes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ht::telemetry {

/// Log-linear histogram over non-negative integer samples (typically
/// nanoseconds). Fixed bucket layout, HdrHistogram-style:
///
///   * values 0..15 get exact unit buckets;
///   * every power-of-two octave [2^e, 2^(e+1)) above that is split into
///     16 linear sub-buckets, so the worst-case relative error of any
///     reported quantile is 1/16 (6.25%) plus half a sub-bucket.
///
/// The layout covers the full uint64 range in 976 buckets (7.8 KB), is
/// identical in every process, and never changes at runtime — which is
/// what keeps metric dumps byte-stable across identical runs.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 4;                    // 16 sub-buckets/octave
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;  // 976

  void record(std::uint64_t v) {
    ++counts_[bucket_index(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Nearest-rank quantile over the bucket counts; q in [0, 1]. Returns
  /// the representative value (midpoint) of the bucket holding the
  /// q-ranked sample — exact for values < 16, within 1/16 relative error
  /// above. Deterministic: depends only on bucket counts.
  std::uint64_t quantile(double q) const;

  /// Bucket layout (exposed for the bucket-math tests and the
  /// Prometheus cumulative-bucket exporter).
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
    return ((e - kSubBits + 1) << kSubBits) +
           static_cast<std::size_t>((v >> (e - kSubBits)) & (kSub - 1));
  }
  static std::uint64_t bucket_lo(std::size_t idx);
  static std::uint64_t bucket_hi(std::size_t idx);  ///< inclusive upper bound
  const std::array<std::uint64_t, kBuckets>& buckets() const { return counts_; }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// One `key="value"` metric label.
struct Label {
  std::string key;
  std::string value;
};

/// Registration options shared by every metric kind.
struct MetricOpts {
  std::vector<Label> labels;
  std::string help;
  /// When set, this metric is part of the drop/overflow/corruption audit
  /// trail under this legacy source name (e.g. "port1.queue_full") and is
  /// returned by MetricsRegistry::drop_counters().
  std::string drop_source;
};

/// Named collection of metrics. Components register their metrics here
/// once at construction/install time; exporters walk the registry.
///
/// Counters and gauges are mirrors: the entry samples a component-owned
/// integer through a callback at read time, so the hot path is a plain
/// increment and the component stays authoritative while the registry is
/// the single aggregation point. The callback must outlive every sampling
/// call. Histograms are cells the registry owns; a component keeps the
/// returned reference for hot-path records.
///
/// Entries are stored in a deque so references stay stable for the life
/// of the registry. Registration order is deterministic and preserved in
/// drop_counters(); exporters sort by full name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Histogram& histogram(std::string name, MetricOpts opts = {});

  /// Mirror a component-owned counter/gauge into the registry.
  void mirror_counter(std::string name, std::function<std::uint64_t()> sample,
                      MetricOpts opts = {});
  void mirror_gauge(std::string name, std::function<std::int64_t()> sample,
                    MetricOpts opts = {});

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;          ///< base name, ht_<component>_<name>
    std::string full_name;     ///< name plus rendered {labels}
    std::string help;
    std::string drop_source;   ///< non-empty: part of the drop report
    Kind kind = Kind::kCounter;
    std::optional<Histogram> histogram;
    std::function<std::uint64_t()> sample_counter;  ///< counter entries
    std::function<std::int64_t()> sample_gauge;     ///< gauge entries

    std::uint64_t counter_value() const { return sample_counter(); }
    std::int64_t gauge_value() const { return sample_gauge(); }
  };

  std::size_t size() const { return entries_.size(); }
  /// Walk entries in registration order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e);
  }

  /// Look up a counter entry's current value by full name (labels
  /// included), sampling mirrors. nullopt when absent — callers that
  /// aggregate bench numbers use this instead of re-deriving totals.
  std::optional<std::uint64_t> counter_value(const std::string& full_name) const;
  std::optional<std::int64_t> gauge_value(const std::string& full_name) const;
  const Histogram* find_histogram(const std::string& full_name) const;

  /// The drop/overflow/corruption audit trail: every entry registered
  /// with a drop_source, in registration order, as (source, count).
  std::vector<std::pair<std::string, std::uint64_t>> drop_counters() const;

 private:
  Entry& add_entry(std::string name, MetricOpts opts, Kind kind);

  std::deque<Entry> entries_;
};

/// Render `name{k1="v1",k2="v2"}` (no braces when labels are empty).
std::string render_name(const std::string& name, const std::vector<Label>& labels);

}  // namespace ht::telemetry
