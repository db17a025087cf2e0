#include "telemetry/metrics.hpp"

#include <cmath>

namespace ht::telemetry {

std::uint64_t Histogram::bucket_lo(std::size_t idx) {
  if (idx < kSub) return idx;
  const unsigned e = static_cast<unsigned>(idx >> kSubBits) + kSubBits - 1;
  const std::uint64_t sub = idx & (kSub - 1);
  return (kSub + sub) << (e - kSubBits);
}

std::uint64_t Histogram::bucket_hi(std::size_t idx) {
  if (idx < kSub) return idx;
  const unsigned e = static_cast<unsigned>(idx >> kSubBits) + kSubBits - 1;
  const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
  return bucket_lo(idx) + width - 1;
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank: the ceil(q*n)-th sample in ascending order (1-based).
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      // Midpoint representative; clamp to the observed extremes so the
      // reported quantile never exceeds max() or undercuts min().
      const std::uint64_t mid = bucket_lo(i) + (bucket_hi(i) - bucket_lo(i)) / 2;
      const std::uint64_t lo = count_ ? min_ : 0;
      if (mid < lo) return lo;
      if (mid > max_) return max_;
      return mid;
    }
  }
  return max_;
}

std::string render_name(const std::string& name, const std::vector<Label>& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].key;
    out += "=\"";
    out += labels[i].value;
    out += '"';
  }
  out += '}';
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::add_entry(std::string name, MetricOpts opts,
                                                   Kind kind) {
  // The deque keeps references stable, so a component may hold a
  // histogram reference for the life of the registry.
  Entry& e = entries_.emplace_back();
  e.full_name = render_name(name, opts.labels);
  e.name = std::move(name);
  e.help = std::move(opts.help);
  e.drop_source = std::move(opts.drop_source);
  e.kind = kind;
  return e;
}

Histogram& MetricsRegistry::histogram(std::string name, MetricOpts opts) {
  Entry& e = add_entry(std::move(name), std::move(opts), Kind::kHistogram);
  e.histogram.emplace();
  return *e.histogram;
}

void MetricsRegistry::mirror_counter(std::string name, std::function<std::uint64_t()> sample,
                                     MetricOpts opts) {
  Entry& e = add_entry(std::move(name), std::move(opts), Kind::kCounter);
  e.sample_counter = std::move(sample);
}

void MetricsRegistry::mirror_gauge(std::string name, std::function<std::int64_t()> sample,
                                   MetricOpts opts) {
  Entry& e = add_entry(std::move(name), std::move(opts), Kind::kGauge);
  e.sample_gauge = std::move(sample);
}

std::optional<std::uint64_t> MetricsRegistry::counter_value(const std::string& full_name) const {
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kCounter && e.full_name == full_name) return e.counter_value();
  }
  return std::nullopt;
}

std::optional<std::int64_t> MetricsRegistry::gauge_value(const std::string& full_name) const {
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kGauge && e.full_name == full_name) return e.gauge_value();
  }
  return std::nullopt;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& full_name) const {
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kHistogram && e.full_name == full_name) return &*e.histogram;
  }
  return nullptr;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::drop_counters() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const Entry& e : entries_) {
    if (e.drop_source.empty() || e.kind != Kind::kCounter) continue;
    out.emplace_back(e.drop_source, e.counter_value());
  }
  return out;
}

}  // namespace ht::telemetry
