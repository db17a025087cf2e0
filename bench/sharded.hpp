// Fig. 10(c) sharded-engine workload, shared between the fig10 harness
// and perf_micro (which records the series into BENCH_perf.json).
//
// Eight independent single-port 100G testers placed round-robin over N
// shards, each blasting 64B frames at line rate into a count-only
// capture sink on its own shard. No cross-shard links: the workload is
// embarrassingly parallel (the paper's fig10 story — one port per core),
// so wall-clock scaling measures the worker engine itself, not mailbox
// traffic. Results are byte-identical across shard counts regardless
// (tests/determinism_test.cpp pins the linked-topology case).
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "apps/tasks.hpp"
#include "common.hpp"
#include "core/cluster.hpp"

namespace ht::bench {

struct ShardedRun {
  std::uint64_t packets = 0;
  double wall_s = 0.0;
  double pkts_per_sec = 0.0;
};

inline ShardedRun run_sharded_throughput(std::size_t nshards, std::size_t testers = 8,
                                         sim::TimeNs window = sim::ms(2)) {
  using clock = std::chrono::steady_clock;
  TesterCluster cluster({.shards = nshards, .seed = 42});
  // Build the whole fleet's tasks first so auto_place can balance them;
  // equal line-rate workloads place round-robin (the old t % nshards
  // layout), keeping the pinned determinism digests valid.
  std::vector<apps::ThroughputTest> workload;
  workload.reserve(testers);
  std::vector<const ntapi::Task*> tasks;
  tasks.reserve(testers);
  for (std::size_t t = 0; t < testers; ++t) {
    workload.push_back(apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0));
    tasks.push_back(&workload.back().task);
  }
  const std::vector<std::size_t> placement = cluster.auto_place(tasks);
  std::vector<std::unique_ptr<dut::Capture>> sinks;
  for (std::size_t t = 0; t < testers; ++t) {
    const std::size_t s = placement[t];
    TesterConfig cfg;
    cfg.asic.num_ports = 2;
    cfg.asic.port_rate_gbps = 100.0;
    cfg.asic.seed = 1 + t;
    auto& tester = cluster.add_tester(cfg, s);
    sinks.push_back(std::make_unique<dut::Capture>(cluster.shards().shard(s).ev(),
                                                   static_cast<std::uint16_t>(1000 + t), 100.0));
    sinks.back()->set_count_only(true);
    sinks.back()->attach(tester.asic().port(1));
    tester.load(workload[t].task);
    tester.start();
  }
  const auto t0 = clock::now();
  cluster.run_for(window);
  ShardedRun out;
  out.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  for (std::size_t t = 0; t < cluster.size(); ++t) {
    out.packets += cluster.tester(t).asic().egress_packets();
  }
  out.pkts_per_sec = static_cast<double>(out.packets) / out.wall_s;
  return out;
}

}  // namespace ht::bench
