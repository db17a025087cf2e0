#!/usr/bin/env sh
# Regenerate the machine-readable bench sidecars. Wall-clock cost is
# recorded only in BENCH_perf.json and BENCH_wall.jsonl (plus fig10's own
# sharded-engine series); every other BENCH_*.json is a flat list of
# {series, value, unit} sim-time results. The metrics-registry dump is
# `ntapi_cli stats --json`, not a sidecar.
#
#   BENCH_perf.json  perf_micro: hot-path micro-benchmarks, written by
#                    google-benchmark's JSON reporter (host context plus
#                    mean/median/stddev/cv over 5 repetitions)
#   BENCH_wall.jsonl perfbench/run.py --record: simulator wall-clock
#                    throughput, set-up time and peak RSS for every
#                    workload in BENCHMARK.json, one JSON line per workload
#                    with provenance and every repetition's raw record
#                    (compare two files with `perfbench/run.py --compare`)
#   BENCH_fig9.json  fig9_throughput_single_port: achieved Gbps per packet
#                    size on 100G/40G ports, with MoonGen's 40G model
#   BENCH_fig9_lossy.json  the same 100G sweep through a chaos link with
#                    1% Bernoulli loss: delivered goodput + drop counters
#                    (DESIGN.md sec. 9)
#   BENCH_fig9_crash.json  the sweep under the supervised run lifecycle
#                    (DESIGN.md sec. 14): tester killed at 50%, restored
#                    from the newest attested snapshot. Reports delivered
#                    packets, result completeness vs an uninterrupted
#                    supervised run (must be 1.0), and recovery counts;
#                    the binary exits nonzero if the recovered final state
#                    is not byte-identical to the clean run's
#   BENCH_fig10.json fig10_throughput_multi_port: per-port line-rate table
#                    plus the sharded-engine wall-clock scaling sweep, five
#                    interleaved runs per shard count
#                    (fig10_pkts_per_sec_shards{1,2,4,8} medians with
#                    their _min/_max, fig10_repetitions, and
#                    fig10_scaling_efficiency from medians over
#                    min(8, cores), with fig10_host_cores; DESIGN.md
#                    sec. 13). Pass
#                    `--shards N` through to measure a single shard count
#                    and `--testers N` to grow the fleet beyond the
#                    default 8 (auto-placed over the shards).
#   BENCH_l7.json    l7_cps_rps (with --l7): the stateful L4-L7 scenario
#                    axis (DESIGN.md sec. 15) — CPS high-water against the
#                    million-connection TCB store, request/response RPS
#                    with p99 latency clean and under chaos, and the
#                    shard-count determinism check (the binary exits
#                    nonzero if any shard count diverges)
#
#   scripts/bench.sh [build-dir] [--shards N] [--testers N] [--l7]
#
# The build dir must already be configured+built (default: build). Output
# files land in the repo root. Wall-clock numbers depend on machine load;
# prefer an otherwise idle machine.
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="build"
SHARDS_ARGS=""
TESTERS_ARGS=""
RUN_L7=0
while [ $# -gt 0 ]; do
  case "$1" in
    --shards) SHARDS_ARGS="--shards $2"; shift 2 ;;
    --testers) TESTERS_ARGS="--testers $2"; shift 2 ;;
    --l7) RUN_L7=1; shift ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done

if [ ! -x "$BUILD_DIR/bench/perf_micro" ]; then
  echo "bench.sh: $BUILD_DIR/bench/perf_micro not built (run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

"$BUILD_DIR/bench/perf_micro" --benchmark_out=BENCH_perf.json --benchmark_out_format=json \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
"$BUILD_DIR/bench/fig9_throughput_single_port" --json BENCH_fig9.json
"$BUILD_DIR/bench/fig9_throughput_single_port" --loss 0.01 --json BENCH_fig9_lossy.json
"$BUILD_DIR/bench/fig9_throughput_single_port" --crash --json BENCH_fig9_crash.json
# shellcheck disable=SC2086 -- SHARDS_ARGS/TESTERS_ARGS are deliberately word-split
"$BUILD_DIR/bench/fig10_throughput_multi_port" $SHARDS_ARGS $TESTERS_ARGS --json BENCH_fig10.json

# perfbench builds its own Release tree from src/; --record appends, so
# start from an empty file.
rm -f BENCH_wall.jsonl
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  python3 perfbench/run.py --workload "$w" --record BENCH_wall.jsonl
done

WROTE="BENCH_perf.json BENCH_wall.jsonl BENCH_fig9.json BENCH_fig9_lossy.json BENCH_fig9_crash.json BENCH_fig10.json"
if [ "$RUN_L7" = 1 ]; then
  "$BUILD_DIR/bench/l7_cps_rps" --json BENCH_l7.json
  WROTE="$WROTE BENCH_l7.json"
fi

echo
echo "wrote $WROTE"
