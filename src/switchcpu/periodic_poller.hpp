// Periodic pull-mode collection (§5.2 "the pull mode").
//
// Real deployments sample data-plane counters on a schedule to build time
// series (throughput over time, per-flow growth). The poller issues one
// batched read per period through the Controller's latency model and
// stores the sampled series, so reporting honestly pays the control-plane
// cost Fig 16b measures.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "switchcpu/controller.hpp"

namespace ht::switchcpu {

class PeriodicPoller {
 public:
  struct Sample {
    sim::TimeNs requested_at = 0;  ///< when the poll was issued
    sim::TimeNs delivered_at = 0;  ///< when the values arrived at the CPU
    std::vector<std::uint64_t> values;
  };

  /// Polls `reg` every `period` using the batched API. Sampling starts on
  /// start() and continues until stop() (or forever).
  PeriodicPoller(Controller& controller, std::string reg, sim::TimeNs period);

  void start();
  void stop() { running_ = false; }
  bool running() const { return running_; }

  const std::vector<Sample>& samples() const { return samples_; }
  std::size_t sample_count() const { return samples_.size(); }

  /// Per-period delta of one counter index across consecutive samples —
  /// e.g. bytes/period for a throughput time series. Empty with <2 samples.
  std::vector<double> rate_series(std::size_t index) const;

  /// Optional hook invoked as each sample lands.
  std::function<void(const Sample&)> on_sample;

  // --- degradation handling --------------------------------------------------
  /// Arm per-attempt timeouts with capped-exponential-backoff retries.
  /// Without a policy the poller behaves exactly as before (a lost RPC
  /// would silently skip one sample); with one, a read that misses its
  /// deadline is retried up to `max_retries` times and a final miss is
  /// recorded as a structured FailureReport. Polling cadence is unchanged
  /// either way — retries ride between periods.
  void set_retry_policy(sim::RetryPolicy policy) {
    policy_ = policy;
    retry_enabled_ = true;
  }

  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failures() const { return failures_; }
  const std::vector<sim::FailureReport>& failure_reports() const { return failure_reports_; }

  /// Invoked when one poll exhausts its retries.
  std::function<void(const sim::FailureReport&)> on_failure;

  /// Mirror the poller's degradation counters into `reg`, labeled with the
  /// polled register's name; timeouts and failures join the drop audit
  /// trail ("poller.<reg>.timeouts" / ".failures"). Call once per poller
  /// — HyperTester does not own pollers, so the owner wires this.
  void register_metrics(telemetry::MetricsRegistry& reg);

 private:
  void poll();
  void issue_attempt(sim::TimeNs first_requested, unsigned attempt);

  Controller& controller_;
  std::string reg_;
  sim::TimeNs period_;
  bool running_ = false;
  bool retry_enabled_ = false;
  sim::RetryPolicy policy_;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<Sample> samples_;
  std::vector<sim::FailureReport> failure_reports_;
};

}  // namespace ht::switchcpu
