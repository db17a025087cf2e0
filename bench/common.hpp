// Shared utilities for the table/figure regeneration harnesses.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (§7) and prints the series the paper reports, plus the
// paper's reference values where meaningful. Absolute agreement is not
// the goal (the substrate is a simulator, see DESIGN.md); the shape —
// who wins, by how much, where things saturate — is.
#pragma once

#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/hypertester.hpp"
#include "dut/capture.hpp"

namespace ht::bench {

/// Pull a boolean flag (e.g. `--crash`) out of argv, compacting argv so
/// later argument parsing never sees it. Returns true when the flag was
/// present.
inline bool take_flag(int& argc, char** argv, const char* flag) {
  bool present = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      present = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return present;
}

/// Pull `<flag> <value>` out of argv (same contract as take_flag) and
/// parse the value with `parse`, which returns false on a malformed
/// value. Returns `fallback` when the flag is absent; a flag with no value
/// or a value `parse` rejects ends the process with exit status 2.
template <typename T, typename Parse>
T take_value(int& argc, char** argv, const char* flag, T fallback, Parse parse) {
  T value = fallback;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) {
      argv[out++] = argv[i];
      continue;
    }
    if (i + 1 >= argc || !parse(argv[i + 1], value)) {
      std::fprintf(stderr, "%s: bad or missing value for %s\n", argv[0], flag);
      std::exit(2);
    }
    ++i;
  }
  argc = out;
  return value;
}

/// `<flag> <path>`; "" when absent.
inline std::string take_path(int& argc, char** argv, const char* flag) {
  return take_value(argc, argv, flag, std::string(), [](const char* s, std::string& v) {
    v = s;
    return !v.empty();
  });
}

/// `<flag> <n>` for a whole number n >= 0; `fallback` when absent. Signs,
/// fractions, exponents and trailing characters are rejected.
inline std::size_t take_count(int& argc, char** argv, const char* flag, std::size_t fallback) {
  return take_value(argc, argv, flag, fallback, [](const char* s, std::size_t& v) {
    if (*s < '0' || *s > '9') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(s, &end, 10);
    if (*end != '\0' || errno == ERANGE) return false;
    v = static_cast<std::size_t>(n);
    return true;
  });
}

/// `<flag> <p>` for a probability p in [0, 1]; `fallback` when absent.
inline double take_rate(int& argc, char** argv, const char* flag, double fallback) {
  return take_value(argc, argv, flag, fallback, [](const char* s, double& v) {
    char* end = nullptr;
    v = std::strtod(s, &end);
    return end != s && *end == '\0' && v >= 0.0 && v <= 1.0;
  });
}

/// Machine-readable sidecar for a bench binary: a flat JSON list of
/// `{series, value, unit}` entries (see scripts/bench.sh). Each value is
/// printed as the shortest text that reads back as the same double, so
/// counts stay exact integers. Per-run wall-clock cost is recorded by
/// perfbench and perf_micro, and the registry dump by `ntapi_cli stats
/// --json`, not here.
class BenchJson {
 public:
  explicit BenchJson(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  void add(const std::string& series, double value, const std::string& unit) {
    entries_.push_back(Entry{series, unit, value});
  }

  /// Write the file (no-op without --json). Returns false on I/O failure.
  bool write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"entries\": [\n", bench_.c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[32];
      const auto res = std::to_chars(value, value + sizeof value, e.value);
      std::fprintf(f, "    {\"series\": \"%s\", \"value\": %.*s, \"unit\": \"%s\"}%s\n",
                   e.series.c_str(), static_cast<int>(res.ptr - value), value, e.unit.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Entry {
    std::string series;
    std::string unit;
    double value = 0.0;
  };
  std::string bench_;
  std::string path_;
  std::vector<Entry> entries_;
};

inline void headline(const std::string& what, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", what.c_str());
  if (!paper_ref.empty()) std::printf("(paper: %s)\n", paper_ref.c_str());
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

/// A tester with capture sinks attached to every front-panel port.
struct Testbed {
  explicit Testbed(std::size_t ports = 4, double rate_gbps = 100.0,
                   std::size_t recirc_channels = 1, bool fastpath = true) {
    TesterConfig cfg;
    cfg.asic.num_ports = ports;
    cfg.asic.port_rate_gbps = rate_gbps;
    cfg.asic.num_recirc_channels = recirc_channels;
    cfg.fastpath = fastpath;
    tester = std::make_unique<HyperTester>(cfg);
    for (std::size_t i = 0; i < ports; ++i) {
      sinks.push_back(std::make_unique<dut::Capture>(tester->events(),
                                                     static_cast<std::uint16_t>(1000 + i),
                                                     rate_gbps));
      sinks.back()->set_count_only(true);
      sinks.back()->attach(tester->asic().port(static_cast<std::uint16_t>(i)));
    }
  }

  std::unique_ptr<HyperTester> tester;
  std::vector<std::unique_ptr<dut::Capture>> sinks;
};

/// Record TX-start timestamps on a switch port (for inter-departure-time
/// analysis) after a warmup count.
struct TxRecorder {
  explicit TxRecorder(sim::Port& port, std::size_t warmup = 200) : warmup_(warmup) {
    port.on_transmit = [this](const net::Packet&, sim::TimeNs t) {
      if (seen_++ >= warmup_) times.push_back(t);
    };
  }
  std::vector<std::uint64_t> times;

 private:
  std::size_t warmup_;
  std::size_t seen_ = 0;
};

}  // namespace ht::bench
