// Loss measurement over a degraded link.
//
// Runs the same NTAPI loss-measurement task (apps::loss_test) twice:
// first over a clean store-and-forward DUT, then with a chaos profile on
// the task — a Gilbert-Elliott bursty-loss link plus mild reordering.
// The sent/received query pair gives the measured loss rate, and the
// registry's drop counters show where every missing packet went. Both runs
// reproduce bit-identically from the profile seed (DESIGN.md §9).
//
//   $ ./loss_measurement
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/tasks.hpp"
#include "core/hypertester.hpp"
#include "dut/forwarder.hpp"

namespace {

struct Result {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::vector<std::pair<std::string, std::uint64_t>> drops;
};

/// Tester port 0 -> store-and-forward DUT -> tester port 1, driving a
/// 20k-probe loss_test. `chaos` is applied to the task when non-null.
Result run(const ht::ntapi::ChaosSpec* chaos) {
  using namespace ht;
  auto app = apps::loss_test(0x02020202, 0x01010101, /*tx=*/{0}, /*rx=*/{1},
                             /*probe_count=*/20'000, /*interval_ns=*/200);
  if (chaos != nullptr) app.task.set_chaos(*chaos);

  TesterConfig cfg;
  cfg.asic.num_ports = 2;
  HyperTester tester(cfg);
  dut::Forwarder::Config fcfg;
  fcfg.num_ports = 2;
  fcfg.forward_delay_ns = 600.0;
  dut::Forwarder fwd(tester.events(), fcfg);
  tester.asic().port(0).connect(&fwd.port(0));
  fwd.port(0).connect(&tester.asic().port(0));
  tester.asic().port(1).connect(&fwd.port(1));
  fwd.port(1).connect(&tester.asic().port(1));
  fwd.set_route(0, 1);

  tester.load(app.task);
  tester.start();
  tester.run_for(sim::ms(10));

  Result r;
  r.sent = tester.query_total(app.q_sent);
  r.received = tester.query_total(app.q_received);
  r.drops = tester.metrics().drop_counters();
  return r;
}

void report(const char* label, const Result& r) {
  const double loss =
      r.sent > 0 ? 100.0 * static_cast<double>(r.sent - r.received) / static_cast<double>(r.sent)
                 : 0.0;
  std::printf("%s\n  sent %llu, received %llu -> measured loss %.2f%%\n  drop report:\n",
              label, static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.received), loss);
  bool any = false;
  for (const auto& [source, count] : r.drops) {
    if (count == 0) continue;
    std::printf("  %s: %llu\n", source.c_str(), static_cast<unsigned long long>(count));
    any = true;
  }
  std::printf("%s\n", any ? "" : "no drops");
}

}  // namespace

int main() {
  using namespace ht;

  report("clean link:", run(nullptr));

  // A chaos profile: Gilbert-Elliott bursty loss (~3% average) plus mild
  // reordering. One seed reproduces the whole degraded run.
  ntapi::ChaosSpec chaos;
  chaos.config.seed = 0xC0FFEE;
  chaos.config.gilbert.p_good_to_bad = 0.005;
  chaos.config.gilbert.p_bad_to_good = 0.25;
  chaos.config.gilbert.loss_good = 0.005;
  chaos.config.gilbert.loss_bad = 1.0;
  chaos.config.reorder = {.rate = 0.05, .min_delay_ns = 100, .max_delay_ns = 2'000};
  report("gilbert-elliott link (seed 0xC0FFEE):", run(&chaos));
  return 0;
}
