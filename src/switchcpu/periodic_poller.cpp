#include "switchcpu/periodic_poller.hpp"

#include <cstdio>
#include <memory>
#include <utility>

namespace ht::switchcpu {

std::string format_failure(const FailureReport& report) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s: %s (%u attempts, t=%llu..%llu ns)",
                report.component.c_str(), report.what.c_str(), report.attempts,
                static_cast<unsigned long long>(report.first_attempt_ns),
                static_cast<unsigned long long>(report.gave_up_ns));
  return line;
}

PeriodicPoller::PeriodicPoller(Controller& controller, std::string reg, sim::TimeNs period)
    : controller_(controller), reg_(std::move(reg)), period_(period) {}

void PeriodicPoller::start() {
  if (running_) return;
  running_ = true;
  poll();
}

void PeriodicPoller::poll() {
  if (!running_) return;
  auto& ev = controller_.asic().events();
  if (retry_enabled_) {
    issue_attempt(ev.now(), 0);
  } else {
    Sample sample;
    sample.requested_at = ev.now();
    controller_.read_counters(reg_, /*batched=*/true,
                              [this, sample](std::vector<std::uint64_t> values) mutable {
                                sample.delivered_at = controller_.asic().events().now();
                                sample.values = std::move(values);
                                samples_.push_back(sample);
                                if (on_sample) on_sample(samples_.back());
                              });
  }
  ev.schedule_in(period_, [this] { poll(); });
}

void PeriodicPoller::issue_attempt(sim::TimeNs first_requested, unsigned attempt) {
  auto& ev = controller_.asic().events();
  // One settled flag per attempt: set by whichever of {delivery, timeout}
  // wins, so a straggler delivery after the deadline is discarded instead
  // of producing a duplicate sample.
  auto settled = std::make_shared<bool>(false);
  Sample sample;
  sample.requested_at = first_requested;
  controller_.read_counters(
      reg_, /*batched=*/true,
      [this, sample, settled](std::vector<std::uint64_t> values) mutable {
        if (*settled) return;
        *settled = true;
        sample.delivered_at = controller_.asic().events().now();
        sample.values = std::move(values);
        samples_.push_back(std::move(sample));
        if (on_sample) on_sample(samples_.back());
      });
  ev.schedule_in(policy_.timeout_ns, [this, settled, first_requested, attempt] {
    if (*settled) return;
    *settled = true;
    ++timeouts_;
    if (!running_) return;
    if (attempt < policy_.max_retries) {
      ++retries_;
      controller_.asic().events().schedule_in(
          policy_.backoff(attempt), [this, first_requested, attempt] {
            if (running_) issue_attempt(first_requested, attempt + 1);
          });
      return;
    }
    FailureReport report;
    report.component = "PeriodicPoller";
    report.what = "batched read of register '" + reg_ + "' timed out";
    report.first_attempt_ns = first_requested;
    report.gave_up_ns = controller_.asic().events().now();
    report.attempts = attempt + 1;
    ++failures_;
    failure_reports_.push_back(std::move(report));
    if (on_failure) on_failure(failure_reports_.back());
  });
}

void PeriodicPoller::register_metrics(telemetry::MetricsRegistry& reg) {
  const std::vector<telemetry::Label> labels = {{"reg", reg_}};
  reg.mirror_counter("ht_poller_timeouts_total", [this] { return timeouts_; },
                     {.labels = labels,
                      .help = "poll attempts that missed their deadline",
                      .drop_source = "poller." + reg_ + ".timeouts"});
  reg.mirror_counter("ht_poller_retries_total", [this] { return retries_; },
                     {.labels = labels, .help = "timed-out polls retried with backoff"});
  reg.mirror_counter("ht_poller_failures_total", [this] { return failures_; },
                     {.labels = labels,
                      .help = "polls that exhausted every retry (FailureReport emitted)",
                      .drop_source = "poller." + reg_ + ".failures"});
}

std::vector<double> PeriodicPoller::rate_series(std::size_t index) const {
  std::vector<double> out;
  if (samples_.size() < 2) return out;
  out.reserve(samples_.size() - 1);
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const double prev = index < samples_[i - 1].values.size()
                            ? static_cast<double>(samples_[i - 1].values[index])
                            : 0.0;
    const double curr =
        index < samples_[i].values.size() ? static_cast<double>(samples_[i].values[index]) : 0.0;
    out.push_back(curr - prev);
  }
  return out;
}

}  // namespace ht::switchcpu
