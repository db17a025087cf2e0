// htester: run a textual NTAPI script (Table 2 syntax) on a simulated
// testbed.
//
//   $ ./ntapi_cli <script.nt> [--ms N] [--p4] [--loopback]
//   $ ./ntapi_cli lint <script.nt>
//   $ ./ntapi_cli testgen <script.nt> [--out suite.json]
//   $ ./ntapi_cli stats <script.nt> [--ms N] [--loopback] [--json] [--trace out.json]
//   $ ./ntapi_cli snapshot <script.nt> --out run.htsnap [--ms N] [--loopback]
//   $ ./ntapi_cli resume <run.htsnap> [--ms N]
//
// Options:
//   --ms N       simulated run time in milliseconds (default 10)
//   --p4         print the generated P4 program and exit
//   --loopback   wire every switch port back to itself through a cable,
//                so received-traffic queries see the sent traffic
//
// The `stats` subcommand runs the script exactly as the plain run does,
// prints one `engine:` line of event-slab, packet-pool and lap-skeleton
// facts (host numbers from the tester's ShardGroup and ASIC, never part of
// the registry or a digest), and dumps the tester's metrics registry — Prometheus exposition
// text by default, compact JSON with --json. The registry carries every
// drop counter, the controller's lost-RPC count among them. With
// `--trace out.json` it also records the run's tracing spans and writes a
// Chrome trace_event file loadable in https://ui.perfetto.dev (task
// annotations, pipeline walks, per-port TX, recirculation loops).
//
// The `snapshot` subcommand runs the script for --ms and serializes the
// full run state — script text, every register cell, port/ASIC/HTPR/HTPS
// counters, RNG streams, Prometheus text — into a versioned, checksummed
// snapshot file (sim/snapshot.hpp). `resume` rebuilds the testbed from the
// embedded script, deterministically replays to the snapshot time,
// byte-attests the replayed state against every stored section (a corrupt
// file or a diverging replay fails loudly, naming the section), then
// continues the run for --ms more and prints the final query results —
// the kill-and-resume workflow of DESIGN.md §14.
//
// The `lint` subcommand runs htlint — validation plus the static pipeline
// analyzer — over the script without executing it, and prints one coded
// diagnostic per line (HT1xx = error, HT2xx/HT3xx = warning), e.g.
//
//   HT102 error trigger[0]: register 'delaystate.0' read after write ...
//
// Exit status: 0 clean (warnings allowed), 1 errors found.
//
// The `testgen` subcommand compiles the script and runs the symbolic path
// oracle over the compiled artifacts, emitting a ConformanceSuite as JSON:
// concrete input packets per feasible path with the exact per-query counter
// state each must produce, the expected editor replica bytes (with per-byte
// care masks), and a path/rule coverage block.
//
// Without --loopback every port is terminated by an absorbing capture
// device. After the run, every query's totals are printed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis/symx/oracle.hpp"
#include "core/hypertester.hpp"
#include "dut/capture.hpp"
#include "ntapi/compiler.hpp"
#include "ntapi/text/parser.hpp"
#include "sim/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace {

/// The standard CLI testbed: every front-panel port either looped back to
/// itself or terminated by a count-only capture sink. snapshot and resume
/// must wire identically — replay-based restore attests byte equality.
void wire_testbed(ht::HyperTester& tester, bool loopback,
                  std::vector<std::unique_ptr<ht::dut::Capture>>& sinks) {
  for (std::size_t p = 0; p < tester.asic().port_count(); ++p) {
    if (loopback) {
      tester.asic().port(static_cast<std::uint16_t>(p))
          .connect(&tester.asic().port(static_cast<std::uint16_t>(p)));
    } else {
      sinks.push_back(std::make_unique<ht::dut::Capture>(
          tester.events(), static_cast<std::uint16_t>(1000 + p), 100.0));
      sinks.back()->set_count_only(true);
      sinks.back()->attach(tester.asic().port(static_cast<std::uint16_t>(p)));
    }
  }
}

/// Read a whole file (a script or a snapshot); prints the CLI's "cannot
/// open" message and returns nullopt when it cannot be read.
std::optional<std::string> read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The final result block of a run: every trigger's fire count, then every
/// query's match count with its total or distinct-key count.
void print_results(ht::HyperTester& tester, const ht::ntapi::text::ParsedProgram& prog) {
  for (const auto& [name, handle] : prog.triggers) {
    std::printf("trigger %-8s fired %llu times%s\n", name.c_str(),
                static_cast<unsigned long long>(tester.trigger_fires(handle)),
                tester.trigger_done(handle) ? " (complete)" : "");
  }
  for (const auto& [name, handle] : prog.queries) {
    const auto* store = tester.receiver().store(handle.index);
    if (store != nullptr) {
      std::printf("query   %-8s matched %llu packets, %llu distinct keys\n", name.c_str(),
                  static_cast<unsigned long long>(tester.query_matched(handle)),
                  static_cast<unsigned long long>(tester.query_distinct(handle)));
    } else {
      std::printf("query   %-8s matched %llu packets, total %llu\n", name.c_str(),
                  static_cast<unsigned long long>(tester.query_matched(handle)),
                  static_cast<unsigned long long>(tester.query_total(handle)));
    }
  }
}

/// Serialize one CLI run: the inputs needed to rebuild it (script text and
/// path — task names embed the path — run length, wiring) plus the engine
/// and full tester state.
void serialize_cli_run(ht::HyperTester& tester, const std::string& script,
                       const std::string& script_path, long run_ms, bool loopback,
                       ht::sim::SnapshotWriter& w) {
  w.begin_section("cli.meta");
  w.str(script);
  w.str(script_path);
  w.u64(static_cast<std::uint64_t>(run_ms));
  w.u8(loopback ? 1 : 0);
  tester.shard_group().write_state(w);
  tester.write_state(w, "t0");
}

int snapshot_script(const char* path, long run_ms, bool loopback, const char* out_path) {
  using namespace ht;
  const auto text = read_file(path);
  if (!text) return 2;
  const std::string& script = *text;
  try {
    auto prog = ntapi::text::parse_ntapi(script, path);
    HyperTester tester;
    std::vector<std::unique_ptr<dut::Capture>> sinks;
    wire_testbed(tester, loopback, sinks);
    tester.load(prog.task);
    tester.start();
    tester.run_for(sim::ms(static_cast<std::uint64_t>(run_ms)));

    sim::SnapshotWriter w;
    serialize_cli_run(tester, script, path, run_ms, loopback, w);
    const std::uint64_t digest = w.digest();
    const std::size_t section_count = w.sections().size();
    const auto bytes = w.finish();
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 2;
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("wrote %s: %zu bytes, %zu sections, t=%lldns, state digest %016llx\n", out_path,
                bytes.size(), section_count,
                static_cast<long long>(tester.events().now()),
                static_cast<unsigned long long>(digest));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int resume_snapshot(const char* snap_path, long extra_ms) {
  using namespace ht;
  const auto file = read_file(snap_path);
  if (!file) return 2;
  std::vector<std::uint8_t> bytes(file->begin(), file->end());
  try {
    sim::SnapshotReader reader(std::move(bytes));  // validates every checksum
    reader.open_section("cli.meta");
    const std::string script = reader.str();
    const std::string script_path = reader.str();
    const long run_ms = static_cast<long>(reader.u64());
    const bool loopback = reader.u8() != 0;

    auto prog = ntapi::text::parse_ntapi(script, script_path);
    HyperTester tester;
    std::vector<std::unique_ptr<dut::Capture>> sinks;
    wire_testbed(tester, loopback, sinks);
    tester.load(prog.task);
    tester.start();
    // Deterministic replay to the snapshot time, then byte-attestation of
    // every stored section against the replayed state. A divergence means
    // the snapshot does not describe this build — refuse to continue.
    tester.run_for(sim::ms(static_cast<std::uint64_t>(run_ms)));
    sim::SnapshotWriter actual;
    serialize_cli_run(tester, script, script_path, run_ms, loopback, actual);
    sim::attest_sections(reader, actual);
    std::printf("restored %s: replayed %ldms, attested %zu sections byte-exact\n", snap_path,
                run_ms, actual.sections().size());

    tester.run_for(sim::ms(static_cast<std::uint64_t>(extra_ms)));
    std::printf("resumed +%ldms simulated (t=%lldns, %llu events)\n\n", extra_ms,
                static_cast<long long>(tester.events().now()),
                static_cast<unsigned long long>(tester.events().executed()));
    print_results(tester, prog);
    return 0;
  } catch (const ht::sim::SnapshotError& e) {
    std::fprintf(stderr, "snapshot error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int lint_script(const char* path) {
  using namespace ht;
  const auto script = read_file(path);
  if (!script) return 2;
  try {
    const auto prog = ntapi::text::parse_ntapi(*script, path);
    const auto report = ntapi::Compiler().lint(prog.task);
    for (const auto& d : report.diagnostics) {
      std::printf("%s\n", analysis::format(d).c_str());
    }
    if (report.diagnostics.empty()) {
      std::printf("%s: no issues found\n", path);
    } else {
      std::printf("%s: %zu error(s), %zu warning(s)\n", path, report.error_count(),
                  report.warning_count());
    }
    return report.has_errors() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

int testgen_script(const char* path, const char* out_path) {
  using namespace ht;
  const auto script = read_file(path);
  if (!script) return 2;
  try {
    const auto prog = ntapi::text::parse_ntapi(*script, path);
    const rmt::AsicConfig asic;
    const auto compiled = ntapi::Compiler(asic).compile(prog.task);
    analysis::symx::TaskModel model(prog.task, compiled, asic);
    analysis::symx::Oracle oracle(model);
    const std::string json =
        oracle.suite_json(compiled.name.empty() ? std::string(path) : compiled.name);
    if (out_path != nullptr) {
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 2;
      }
      out << json << '\n';
      const auto cov = oracle.coverage();
      std::fprintf(stderr, "wrote %s: %zu inject cases, %zu/%zu feasible paths\n", out_path,
                   oracle.injects().size(), cov.paths_feasible, cov.paths_total);
    } else {
      std::printf("%s\n", json.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ht;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <script.nt> [--ms N] [--p4] [--loopback]\n"
                 "       %s lint <script.nt>\n"
                 "       %s testgen <script.nt> [--out suite.json]\n"
                 "       %s stats <script.nt> [--ms N] [--loopback] [--json] [--trace out.json]\n"
                 "       %s snapshot <script.nt> --out run.htsnap [--ms N] [--loopback]\n"
                 "       %s resume <run.htsnap> [--ms N]\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  if (std::strcmp(argv[1], "lint") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s lint <script.nt>\n", argv[0]);
      return 2;
    }
    return lint_script(argv[2]);
  }
  if (std::strcmp(argv[1], "testgen") == 0) {
    const char* out_path = nullptr;
    if (argc == 5 && std::strcmp(argv[3], "--out") == 0) {
      out_path = argv[4];
    } else if (argc != 3) {
      std::fprintf(stderr, "usage: %s testgen <script.nt> [--out suite.json]\n", argv[0]);
      return 2;
    }
    return testgen_script(argv[2], out_path);
  }
  if (std::strcmp(argv[1], "snapshot") == 0) {
    const char* out_path = nullptr;
    long snap_ms = 10;
    bool snap_loopback = false;
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s snapshot <script.nt> --out run.htsnap [--ms N] [--loopback]\n",
                   argv[0]);
      return 2;
    }
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        out_path = argv[++i];
      } else if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
        snap_ms = std::atol(argv[++i]);
      } else if (std::strcmp(argv[i], "--loopback") == 0) {
        snap_loopback = true;
      } else {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        return 2;
      }
    }
    if (out_path == nullptr) {
      std::fprintf(stderr, "snapshot: --out <file> is required\n");
      return 2;
    }
    return snapshot_script(argv[2], snap_ms, snap_loopback, out_path);
  }
  if (std::strcmp(argv[1], "resume") == 0) {
    long extra_ms = 10;
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s resume <run.htsnap> [--ms N]\n", argv[0]);
      return 2;
    }
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
        extra_ms = std::atol(argv[++i]);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        return 2;
      }
    }
    return resume_snapshot(argv[2], extra_ms);
  }
  const bool stats_mode = std::strcmp(argv[1], "stats") == 0;
  if (stats_mode && argc < 3) {
    std::fprintf(stderr, "usage: %s stats <script.nt> [--ms N] [--loopback] [--json] [--trace out.json]\n",
                 argv[0]);
    return 2;
  }
  const char* path = argv[stats_mode ? 2 : 1];
  long run_ms = 10;
  bool print_p4 = false, loopback = false, stats_json = false;
  const char* trace_path = nullptr;
  for (int i = stats_mode ? 3 : 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      run_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--p4") == 0 && !stats_mode) {
      print_p4 = true;
    } else if (std::strcmp(argv[i], "--loopback") == 0) {
      loopback = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && stats_mode) {
      stats_json = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && stats_mode && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    }
  }

  const auto script = read_file(path);
  if (!script) return 2;

  try {
    auto prog = ntapi::text::parse_ntapi(*script, path);
    HyperTester tester;
    std::vector<std::unique_ptr<dut::Capture>> sinks;
    wire_testbed(tester, loopback, sinks);

    // Trace recording must be on before load() so the compiled task's
    // annotation instants (trigger/query installs) land in the buffer.
    if (trace_path != nullptr) tester.trace().set_enabled(true);

    tester.load(prog.task);
    if (print_p4) {
      std::fputs(tester.compiled().p4_source.c_str(), stdout);
      return 0;
    }
    std::printf("loaded %s: %zu triggers, %zu queries, %zu NTAPI LoC -> %zu P4 LoC\n", path,
                prog.task.triggers().size(), prog.task.queries().size(),
                tester.compiled().ntapi_loc, tester.compiled().p4_loc);
    for (const auto& w : tester.compiled().warnings) std::printf("warning: %s\n", w.c_str());

    tester.start();
    tester.run_for(sim::ms(static_cast<std::uint64_t>(run_ms)));
    std::printf("ran %ldms simulated (%llu events)\n", run_ms,
                static_cast<unsigned long long>(tester.events().executed()));

    if (stats_mode) {
      const auto slab = tester.shard_group().aggregate_slab_stats();
      const auto pool = tester.shard_group().aggregate_pool_stats();
      std::printf(
          "engine: slab %llu hits / %llu misses, high-water %llu, %llu heap closures; "
          "pool %llu hits / %llu misses, high-water %llu; %llu idle laps elided\n\n",
          static_cast<unsigned long long>(slab.hits), static_cast<unsigned long long>(slab.misses),
          static_cast<unsigned long long>(slab.high_water),
          static_cast<unsigned long long>(slab.heap_closures),
          static_cast<unsigned long long>(pool.hits), static_cast<unsigned long long>(pool.misses),
          static_cast<unsigned long long>(pool.high_water),
          static_cast<unsigned long long>(tester.asic().elided_laps()));
      const auto report = tester.telemetry_report();
      std::fputs(stats_json ? report.json.c_str() : report.prometheus.c_str(), stdout);
      if (stats_json) std::fputc('\n', stdout);
      if (trace_path != nullptr) {
        std::ofstream tf(trace_path);
        if (!tf) {
          std::fprintf(stderr, "cannot write %s\n", trace_path);
          return 2;
        }
        tester.trace().write_chrome_trace(tf);
        std::fprintf(stderr, "wrote %zu trace events to %s (load in ui.perfetto.dev)\n",
                     tester.trace().size(), trace_path);
      }
      return 0;
    }

    std::putchar('\n');
    print_results(tester, prog);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
