#!/usr/bin/env python3
"""Wall-clock benchmark of the HyperTester simulator.

One run measures one workload for --seconds seconds and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed and
metrics:

  python3 perfbench/run.py --workload fig9_fused --seed 1 --seconds 24 --trace 0

Each repetition is a fresh process of the driver (driver.cpp, built here
from the repository's sources into $CARGO_TARGET_DIR or .bench_build):
set-up, warm-up, then a timed phase of fixed simulated length. A repetition
is one operation; it fails when any simulated output differs from its
expected value: the values pinned in expected.json for the default seed, the
outputs of the workload's reference path for any other seed. With --trace 0
the metrics are the end-to-end ones (summaries over the repetitions); with
--trace 1 untraced and traced repetitions alternate and the metrics are the
per-layer ones plus the tracing overhead.

Other modes:
  --pin                    rewrite expected.json from the default seed, after
                           checking every workload against its reference path
  --compare OLD NEW        verdict per workload x end-to-end metric between two
                           result sets recorded with --record FILE

README.md next to this file defines the workloads and every metric.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1
EXPECTED = HERE / "expected.json"
# Outputs the reference path must reproduce; the pinned default seed also
# pins event counts and the digests that include path-specific series.
REFERENCE_KEYS = ("passes", "queries", "dut", "telemetry")
PINNED_KEYS = REFERENCE_KEYS + ("events", "state_digest", "server_fingerprint")
MIN_REPS = 3
REP_TIMEOUT_S = 120

END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_threads(workload, prov):
    """Refuse a workload that needs more worker threads (shards) than CPUs."""
    threads = prov["shards"][workload]
    if threads > prov["nproc"]:
        raise BenchError(f"{workload} runs {threads} threads but only {prov['nproc']} "
                         "CPUs are available")


# --- build ------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    out = 2  # build output goes to the process's stderr; stdout carries the result
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release",
                        "-DHT_TELEMETRY=ON"], stdout=out, check=True, timeout=600)
    jobs = str(min(4, available_cpus()))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench_driver", "-j", jobs],
                   stdout=out, check=True, timeout=1500)
    return bdir / "perfbench_driver"


def source_digest():
    """SHA-256 over the library sources and the benchmark (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() or None


def provenance(driver):
    p = subprocess.run([str(driver), "--provenance"], capture_output=True, text=True,
                       check=True, timeout=60)
    info = json.loads(p.stdout)
    info["nproc"] = available_cpus()
    info["cpu_model"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info["git_rev"] = git_rev()
    info["source_sha256"] = source_digest()
    return info


# --- repetitions ------------------------------------------------------------

def run_rep(driver, workload, seed, trace=False, reference=False):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    spawned = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError(f"driver exited {p.returncode}: {' '.join(cmd)}")
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    # Set-up runs from the spawn of an empty process to ready-to-run.
    rec["setup_s"] = rec["ready_monotonic_s"] - spawned
    return rec


def mismatches(outputs, expected, keys):
    return [k for k in keys if outputs.get(k) != expected.get(k)]


def expected_outputs(driver, workload, seed):
    """(expected outputs, keys to compare, where they came from)."""
    if seed == DEFAULT_SEED:
        pinned = json.loads(EXPECTED.read_text())
        if workload not in pinned:
            raise BenchError(f"{EXPECTED} pins no outputs for {workload}")
        return pinned[workload], PINNED_KEYS, "pinned"
    ref = run_rep(driver, workload, seed, reference=True)
    return ref["outputs"], REFERENCE_KEYS, "reference path"


def measure(driver, args):
    expected, keys, source = expected_outputs(driver, args.workload, args.seed)
    reps = []
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        rec = run_rep(driver, args.workload, args.seed, trace=traced)
        bad = mismatches(rec["outputs"], expected, keys)
        rec["failed"] = bool(bad)
        if bad:
            log(f"MISMATCH rep {len(reps)}: {', '.join(bad)} differ from the {source} values")
            for k in bad:
                log(f"  {k}: got {rec['outputs'].get(k)!r}, expected {expected.get(k)!r}")
        reps.append(rec)
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        enough = len(reps) >= (2 * MIN_REPS if args.trace else MIN_REPS)
        if enough and elapsed + per_rep > args.seconds:
            break
    return reps, source


def end_to_end(reps):
    # Interference on a shared host only ever slows a repetition down, and it
    # comes and goes between processes: the 90th percentile tracks the
    # simulator's own speed more steadily than the median (README, "Noise").
    rates = [r["timed_passes"] / r["timed_wall_s"] for r in reps]
    return {
        "sim_pkts_per_s": statistics.quantiles(rates, n=10, method="inclusive")[8],
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps):
    traced = [r for r in reps if "trace" in r]
    plain = [r for r in reps if "trace" not in r]
    out = {name: statistics.median(r["trace"][name] for r in traced)
           for name in PER_LAYER_UNITS if name != "trace.overhead"}
    out["trace.overhead"] = (statistics.median(r["timed_wall_s"] for r in traced) /
                             statistics.median(r["timed_wall_s"] for r in plain))
    return out


def with_units(values, units):
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def bench(args):
    driver = build()
    prov = provenance(driver)
    print("provenance " + json.dumps(prov, sort_keys=True))
    check_threads(args.workload, prov)
    reps, source = measure(driver, args)
    failed = sum(1 for r in reps if r["failed"])
    if args.trace:
        metrics = with_units(per_layer(reps), PER_LAYER_UNITS)
    else:
        metrics = with_units(end_to_end(reps), END_TO_END_UNITS)
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"outputs checked against the {source} values, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "provenance": prov,
                                "result": result, "reps": reps}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def pin():
    """Pin the default seed's outputs, each checked against its reference path."""
    driver = build()
    prov = provenance(driver)
    pinned = {}
    for workload in WORKLOADS:
        check_threads(workload, prov)
        out = run_rep(driver, workload, DEFAULT_SEED)["outputs"]
        ref = run_rep(driver, workload, DEFAULT_SEED, reference=True)["outputs"]
        bad = mismatches(out, ref, REFERENCE_KEYS)
        if bad:
            raise BenchError(f"{workload}: {', '.join(bad)} differ from the reference path")
        pinned[workload] = {k: out[k] for k in PINNED_KEYS if k in out}
        log(f"pinned {workload}")
    EXPECTED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


# --- compare ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, bound, better, more_failures=False):
    """better / worse / within-bound / unresolved for one workload x metric.

    unresolved: either side's quartile spread exceeds the bound and the runs
    interleave, so no median difference can be trusted.
    worse: the new side fails more of its operations than the old, or its
    median is worse than the old by more than the bound.
    better: the new median wins by more than the old runs' quartile spread,
    and the new side wins at least nine tenths of all old x new pairs.
    """
    if more_failures:
        return "worse"
    sign = 1.0 if better == "higher" else -1.0
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    gain = sign * (nm - om) / om
    pairs = [sign * (n - o) for o in old for n in new]
    wins = sum(d > 0 for d in pairs) / len(pairs)
    losses = sum(d < 0 for d in pairs) / len(pairs)
    if max((o3 - o1) / om, (n3 - n1) / nm) > bound and wins < 1.0 and losses < 1.0:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > (o3 - o1) / om and wins >= 0.9:
        return "better"
    return "within-bound"


def load_results(path):
    """{workload: untraced results}, each with its metrics, attempted and failed."""
    by_workload = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        by_workload.setdefault(rec["workload"], []).append(rec["result"])
    return by_workload


def failure_share(results):
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def compare(args):
    old, new = load_results(args.compare[0]), load_results(args.compare[1])
    print(f"{'workload':16s} {'metric':16s} {'old q1/median/q3':>34s} "
          f"{'new q1/median/q3':>34s} {'change':>8s} {'failed old/new':>16s}  verdict")
    for workload in sorted(set(old) & set(new)):
        fails = [f"{sum(r['failed'] for r in side)}/{sum(r['attempted'] for r in side)}"
                 for side in (old[workload], new[workload])]
        more_failures = failure_share(new[workload]) > failure_share(old[workload])
        for m in SPEC["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in old[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in new[workload]]
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            print(f"{workload:16s} {m['name']:16s} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>34s} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>34s} {change:+8.2%} "
                  f"{' '.join(fails):>16s}  "
                  f"{verdict(a, b, m['bound'], m['better'], more_failures)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run's result and provenance to a JSONL file")
    ap.add_argument("--pin", action="store_true", help=pin.__doc__)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(args)
        if args.pin:
            return pin()
        if not args.workload:
            ap.error("--workload is required")
        return bench(args)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
