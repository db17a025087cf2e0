#!/usr/bin/env python3
"""The benchmark's own test.

  python3 perfbench/selftest.py

Checks, each with a short run of fig9_fused:
  1. the default seed passes against the pinned outputs;
  2. a perturbed pinned value is caught: every repetition fails, `correct`
     is false and run.py exits 1;
  3. another seed passes against the reference path;
  4. the traced run reports every per-layer metric of BENCHMARK.json;
  5. without the library sources run.py exits nonzero and prints no result;
and, without running anything, that a workload needing more threads than
CPUs is refused and that the compare verdicts come out as documented.
Scratch files go under the benchmark's build directory.
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def bench(*args, root=run.ROOT):
    p = subprocess.run([sys.executable, str(Path(root) / "perfbench" / "run.py"), *args],
                       capture_output=True, text=True, timeout=900, cwd=root)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


def bench_in_process(*args, expected):
    """run.main with the pinned outputs read from `expected` instead."""
    out, err = io.StringIO(), io.StringIO()
    saved, run.EXPECTED = run.EXPECTED, Path(expected)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run.main(list(args))
    finally:
        run.EXPECTED = saved
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return rc, result, out.getvalue() + err.getvalue()


def names(section):
    return {m["name"] for m in run.SPEC[section]}


def test_runs(scratch):
    quick = ["--workload", "fig9_fused", "--seconds", "1"]

    rc, res, out = bench(*quick, "--seed", str(run.DEFAULT_SEED), "--trace", "0")
    check(rc == 0 and res is not None and res["correct"] and res["failed"] == 0 and
          res["attempted"] >= run.MIN_REPS and "pinned values" in out,
          "default seed matches the pinned outputs")
    check(res is not None and set(res["metrics"]) == names("end_to_end"),
          "untraced run reports every end-to-end metric")

    pinned = json.loads(run.EXPECTED.read_text())
    pinned["fig9_fused"]["passes"] += 1
    perturbed = scratch / "perturbed_expected.json"
    perturbed.write_text(json.dumps(pinned))
    rc, res, out = bench_in_process(*quick, "--seed", str(run.DEFAULT_SEED), expected=perturbed)
    check(rc == 1 and res is not None and not res["correct"] and
          res["failed"] == res["attempted"] >= 1 and "passes: got" in out,
          "a perturbed pinned value fails every repetition and exits 1")

    rc, res, out = bench(*quick, "--seed", "2")
    check(rc == 0 and res is not None and res["correct"] and "reference path values" in out,
          "a non-default seed matches the reference path")

    rc, res, out = bench(*quick, "--seed", "2", "--trace", "1")
    check(rc == 0 and res is not None and set(res["metrics"]) == names("per_layer"),
          "traced run reports every per-layer metric")
    if res is not None:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        check(m.get("rmt.fused_share", 0) > 0.99 and m.get("sim.shard.epochs") == 0,
              "fig9_fused runs fused with no epochs")

    bare = scratch / "bare_tree"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    rc, res, out = bench(*quick, "--seed", "1", root=bare)
    check(rc != 0 and res is None, "without library sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def test_threads():
    try:
        run.check_threads("l7_cps_linked", {"shards": {"l7_cps_linked": 2}, "nproc": 1})
        refused = False
    except run.BenchError:
        refused = True
    check(refused, "a 2-thread workload is refused on 1 CPU")


def test_verdicts():
    old = [100.0, 101.0, 99.0, 100.5, 102.0, 98.0, 100.0, 101.5, 99.5, 100.0]
    bound = 0.2
    check(run.verdict(old, [v * 1.3 for v in old], bound, "higher") == "better",
          "compare: 30 % more throughput is better")
    check(run.verdict(old, [v * 0.7 for v in old], bound, "higher") == "worse",
          "compare: 30 % less throughput is worse")
    check(run.verdict(old, [v * 1.3 for v in old], bound, "lower") == "worse",
          "compare: 30 % more set-up time is worse")
    check(run.verdict(old, [v * 1.01 for v in old], bound, "higher") == "within-bound",
          "compare: a 1 % change is within the bound")
    wide = [60.0, 140.0, 75.0, 125.0, 90.0, 110.0, 65.0, 135.0, 80.0, 120.0]
    check(run.verdict(wide, [v * 1.05 for v in reversed(wide)], bound, "higher") == "unresolved",
          "compare: spreads wider than the bound are unresolved")
    check(run.verdict(wide, [v * 0.75 for v in reversed(wide)], bound, "higher") == "unresolved",
          "compare: a median drop inside interleaving wide spreads is unresolved, not worse")
    check(run.verdict(old, [v * 1.3 for v in old], bound, "higher", more_failures=True) ==
          "worse", "compare: a gain with more failed operations is worse")


def main():
    scratch = run.build_dir() / "selftest"
    run.build()
    scratch.mkdir(parents=True, exist_ok=True)
    test_threads()
    test_verdicts()
    test_runs(scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
