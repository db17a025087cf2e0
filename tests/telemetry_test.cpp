// Tests for the telemetry subsystem (DESIGN.md §10): histogram bucket
// and quantile math, exporter byte-stability across identical runs, the
// Chrome trace golden file, and the runtime disable switch.
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "apps/tasks.hpp"
#include "core/hypertester.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ht;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::TraceRecorder;

// ---------------------------------------------------------------------------
// Histogram bucket math

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < Histogram::kSub; ++v) {
    const std::size_t idx = Histogram::bucket_index(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(Histogram::bucket_lo(idx), v);
    EXPECT_EQ(Histogram::bucket_hi(idx), v);
  }
}

TEST(HistogramBuckets, EveryValueFallsInsideItsBucket) {
  // Sweep representative values across the full range, including octave
  // boundaries where off-by-one bugs live.
  std::vector<std::uint64_t> vs;
  for (unsigned e = 0; e < 64; ++e) {
    const std::uint64_t p = std::uint64_t{1} << e;
    vs.push_back(p);
    vs.push_back(p - 1);
    vs.push_back(p + 1);
    vs.push_back(p + p / 3);
  }
  vs.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : vs) {
    const std::size_t idx = Histogram::bucket_index(v);
    ASSERT_LT(idx, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucket_lo(idx), v) << "v=" << v;
    EXPECT_GE(Histogram::bucket_hi(idx), v) << "v=" << v;
  }
}

TEST(HistogramBuckets, BucketsAreContiguousAndOrdered) {
  for (std::size_t idx = 0; idx + 1 < 400; ++idx) {
    EXPECT_EQ(Histogram::bucket_hi(idx) + 1, Histogram::bucket_lo(idx + 1)) << "idx=" << idx;
  }
}

TEST(HistogramBuckets, RelativeErrorBoundedBySubBucketWidth) {
  // Above the exact range a bucket spans [lo, lo + lo/16) at most, so the
  // midpoint representative is within ~1/32 of any sample in the bucket.
  for (const std::uint64_t v : {std::uint64_t{100}, std::uint64_t{1000}, std::uint64_t{12345},
                                std::uint64_t{1} << 30, std::uint64_t{987654321}}) {
    const std::size_t idx = Histogram::bucket_index(v);
    const std::uint64_t width = Histogram::bucket_hi(idx) - Histogram::bucket_lo(idx) + 1;
    EXPECT_LE(width, Histogram::bucket_lo(idx) / (Histogram::kSub / 2) + 1) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Histogram quantiles

TEST(HistogramQuantiles, UniformRangeQuantilesWithinLayoutError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Worst-case relative error of the log-linear layout: one sub-bucket
  // (1/16) plus the midpoint offset — allow 10% against the exact rank.
  const struct {
    double q;
    double exact;
  } cases[] = {{0.5, 500.0}, {0.9, 900.0}, {0.99, 990.0}, {0.999, 999.0}};
  for (const auto& c : cases) {
    const auto got = static_cast<double>(h.quantile(c.q));
    EXPECT_NEAR(got, c.exact, c.exact * 0.10) << "q=" << c.q;
  }
  // Quantiles are clamped to the observed extremes.
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(HistogramQuantiles, SingleSampleAndEmpty) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.record(777);
  for (const double q : {0.0, 0.5, 0.999, 1.0}) EXPECT_EQ(h.quantile(q), 777u) << q;
}

TEST(HistogramQuantiles, SmallValuesExactQuantiles) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(3);
  for (int i = 0; i < 10; ++i) h.record(7);
  EXPECT_EQ(h.quantile(0.25), 3u);
  EXPECT_EQ(h.quantile(0.75), 7u);
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistry, LookupAndDropCounters) {
  MetricsRegistry reg;
  std::uint64_t dropped = 0;
  reg.mirror_counter("ht_test_drops_total", [&dropped] { return dropped; },
                     {.labels = {{"port", "0"}}, .drop_source = "port0.test"});
  std::uint64_t shadow = 41;
  reg.mirror_counter("ht_test_mirror_total", [&shadow] { return shadow; },
                     {.drop_source = "test.mirror"});
  dropped += 3;
  ++shadow;
  EXPECT_EQ(reg.counter_value("ht_test_drops_total{port=\"0\"}"), 3u);
  EXPECT_EQ(reg.counter_value("ht_test_mirror_total"), 42u);
  EXPECT_FALSE(reg.counter_value("ht_test_absent_total").has_value());
  // Drop sources surface in registration order.
  const auto drops = reg.drop_counters();
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops[0].first, "port0.test");
  EXPECT_EQ(drops[0].second, 3u);
  EXPECT_EQ(drops[1].first, "test.mirror");
  EXPECT_EQ(drops[1].second, 42u);
}

// ---------------------------------------------------------------------------
// Exporter determinism: two identical runs must dump byte-identical
// metrics (fixed bucket layout + sorted exporters + deterministic sim).

telemetry::Report run_throughput_once() {
  HyperTester tester;
  auto app = apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(1));
  return tester.telemetry_report();
}

TEST(TelemetryDeterminism, IdenticalRunsProduceIdenticalDumps) {
  const auto a = run_throughput_once();
  const auto b = run_throughput_once();
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.prometheus, b.prometheus);
}

TEST(TelemetryDeterminism, ReportCarriesPipelineAndPortSeries) {
  const auto rep = run_throughput_once();
  // The acceptance surface of the fig9 `telemetry` block: per-port wire
  // latency quantiles and TM queue-depth gauges, plus the ASIC counters.
  // (JSON keys escape the label quotes, hence the doubled backslashes.)
  EXPECT_NE(rep.json.find("ht_asic_egress_packets_total"), std::string::npos);
  EXPECT_NE(rep.json.find("ht_port_wire_latency_ns{port=\\\"1\\\"}"), std::string::npos);
  EXPECT_NE(rep.json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(rep.json.find("ht_tm_queue_depth{port=\\\"1\\\"}"), std::string::npos);
  EXPECT_NE(rep.prometheus.find("# TYPE ht_port_wire_latency_ns summary"), std::string::npos);
  EXPECT_NE(rep.prometheus.find("ht_port_wire_latency_ns{port=\"1\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(rep.prometheus.find("ht_tm_queue_depth{port=\"1\"}"), std::string::npos);
  EXPECT_NE(rep.prometheus.find("ht_htps_fires_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST(TraceRecorder, ChromeTraceMatchesGoldenFile) {
  TraceRecorder tr(8);
  tr.set_enabled(true);
  tr.set_process_name("hypertester: golden");
  tr.set_track_name(TraceRecorder::kTrackTask, "task");
  tr.set_track_name(TraceRecorder::kTrackIngress, "ingress pipeline");
  tr.set_track_name(TraceRecorder::kTrackPortBase + 1, "port 1 wire");
  tr.instant("load task 'golden'", 0, TraceRecorder::kTrackTask);
  tr.complete("ingress", 1000, 250, TraceRecorder::kTrackIngress);
  tr.complete("tx", 1250, 672, TraceRecorder::kTrackPortBase + 1);
  tr.complete("run_for", 0, 2000000, TraceRecorder::kTrackTask);

  std::ifstream golden(HT_SOURCE_DIR "/tests/golden/telemetry_trace.json");
  ASSERT_TRUE(golden.is_open());
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(tr.chrome_trace_json(), want.str());
}

TEST(TraceRecorder, DisabledByDefaultAndRingKeepsNewest) {
  TraceRecorder tr(4);
  tr.instant("dropped", 0, 0);  // recorder off: nothing lands
  EXPECT_EQ(tr.size(), 0u);
  tr.set_enabled(true);
  for (std::uint64_t i = 0; i < 6; ++i) tr.complete("e" + std::to_string(i), i * 100, 10, 0);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.overwritten(), 2u);
  const std::string json = tr.chrome_trace_json();
  EXPECT_EQ(json.find("\"e0\""), std::string::npos);  // overwritten
  EXPECT_EQ(json.find("\"e1\""), std::string::npos);
  // Survivors appear oldest-first.
  EXPECT_LT(json.find("\"e2\""), json.find("\"e5\""));
}

TEST(TraceRecorder, RunTraceContainsTaskAnnotationsAndSpans) {
  HyperTester tester;
  tester.trace().set_enabled(true);  // before load(), like ntapi_cli stats --trace
  // Loopback-wire the ports so TX actually happens (an unconnected port
  // drops on no_peer before the wire span is recorded).
  for (std::size_t p = 0; p < tester.asic().port_count(); ++p) {
    auto& port = tester.asic().port(static_cast<std::uint16_t>(p));
    port.connect(&port);
  }
  auto app = apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0);
  tester.load(app.task);
  tester.start();
  tester.run_for(sim::us(50));
  const std::string json = tester.trace().chrome_trace_json();
  EXPECT_NE(json.find("\"install trigger 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ingress\""), std::string::npos);
  EXPECT_NE(json.find("\"tx\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track metadata present
}

}  // namespace
