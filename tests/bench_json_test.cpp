// BenchJson sidecar format: a flat list of {series, value, unit} entries
// whose values are the shortest text that reads back as the same double,
// so a paper-claims check can compare them exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchJson, WritesExactValuesUnderSeriesValueUnitOnly) {
  const std::string path = testing::TempDir() + "bench_json_test.json";
  ht::bench::BenchJson json("l7_cps_rps", path);
  json.add("l7_cps_high_water_connections", 1081344.0, "connections");
  json.add("l7_rps_responses_per_sec", 24458000.0 / 3.0, "resp/s");
  json.add("loss_rate", 0.1, "ratio");
  json.add("ht_100g_gbps_64B", 99.52624, "gbps");
  ASSERT_TRUE(json.write());
  EXPECT_EQ(read_file(path),
            "{\n"
            "  \"bench\": \"l7_cps_rps\",\n"
            "  \"entries\": [\n"
            "    {\"series\": \"l7_cps_high_water_connections\", \"value\": 1081344, "
            "\"unit\": \"connections\"},\n"
            "    {\"series\": \"l7_rps_responses_per_sec\", \"value\": 8152666.666666667, "
            "\"unit\": \"resp/s\"},\n"
            "    {\"series\": \"loss_rate\", \"value\": 0.1, \"unit\": \"ratio\"},\n"
            "    {\"series\": \"ht_100g_gbps_64B\", \"value\": 99.52624, \"unit\": \"gbps\"}\n"
            "  ]\n"
            "}\n");
  std::remove(path.c_str());
}

}  // namespace
