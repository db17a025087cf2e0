// Periodic pull-mode collection (§5.2 "the pull mode").
//
// Real deployments sample data-plane counters on a schedule to build time
// series (throughput over time, per-flow growth). The poller issues one
// batched read per period through the Controller's latency model and
// stores the sampled series, so reporting honestly pays the control-plane
// cost Fig 16b measures. With a RetryPolicy armed it also degrades
// gracefully: reads that miss their deadline are retried with capped
// exponential backoff, and a read that exhausts its retries leaves a
// FailureReport.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "switchcpu/controller.hpp"

namespace ht::switchcpu {

/// Timeout + capped exponential backoff for control-plane reads.
/// `backoff(0)` is the delay before the first retry; each further retry
/// doubles it up to `backoff_cap_ns`.
struct RetryPolicy {
  sim::TimeNs timeout_ns = 1'000'000;      ///< per-attempt deadline (1 ms)
  unsigned max_retries = 4;                ///< retries after the first attempt
  sim::TimeNs backoff_base_ns = 100'000;   ///< first retry delay (100 us)
  sim::TimeNs backoff_cap_ns = 10'000'000; ///< backoff saturation (10 ms)

  sim::TimeNs backoff(unsigned retry) const {
    // Shift with saturation: past 63 doublings everything is capped.
    if (retry >= 63) return backoff_cap_ns;
    const sim::TimeNs d = backoff_base_ns << retry;
    return d > backoff_cap_ns || d < backoff_base_ns ? backoff_cap_ns : d;
  }
};

/// Structured give-up record: what faulted, when it was first tried, and
/// when the caller gave up. The drop audit trail at give-up time is the
/// owner's metrics registry (MetricsRegistry::drop_counters()).
struct FailureReport {
  std::string component;  ///< e.g. "PeriodicPoller"
  std::string what;       ///< human-readable description of the failure
  sim::TimeNs first_attempt_ns = 0;
  sim::TimeNs gave_up_ns = 0;
  unsigned attempts = 0;
};

/// One-line rendering for logs: "PeriodicPoller: batched read of register
/// 'ctr' timed out (5 attempts, t=1000000..9800000 ns)".
std::string format_failure(const FailureReport& report);

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
  void set_retry_policy(RetryPolicy policy) {
    policy_ = policy;
    retry_enabled_ = true;
  }

  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failures() const { return failures_; }
  const std::vector<FailureReport>& failure_reports() const { return failure_reports_; }

  /// Invoked when one poll exhausts its retries.
  std::function<void(const FailureReport&)> on_failure;

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
  RetryPolicy policy_;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<Sample> samples_;
  std::vector<FailureReport> failure_reports_;
};

}  // namespace ht::switchcpu
