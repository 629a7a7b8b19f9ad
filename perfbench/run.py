#!/usr/bin/env python3
"""perfbench — the repository benchmark.

Builds the library and the perfbench client from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload for a fixed time and
prints every metric with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics of BENCHMARK.json's "end_to_end"
list; --trace 1 makes a separate traced run and reports the "per_layer"
list. An untraced run starts the client SETUPS times, one after another;
each process sets up from nothing and serves an equal share of the timed
ops. --corrupt-reference flips one bit of a reference output after set-up,
to show that the output checks fail.
"""

import argparse
import json
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("pipeline", "quotes", "whatif", "outofcore")
SETUPS = 3
TIME_LIMIT_S = 170  # the whole run, build excluded


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build(out_dir):
    """Configures once, then builds perfbench and its self-test; returns
    False (after printing the tool output) on failure."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir)])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for step in steps:
        try:
            proc = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log("perfbench: cannot run %s: %s" % (step[0], e))
            return False
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build step failed: %s" % " ".join(step))
            return False
    return True


def units():
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def selftest(bin_dir):
    ok = subprocess.run([str(bin_dir / "perfbench_selftest")]).returncode == 0
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() and ok
    return 0 if ok else 1


def merge(records):
    """One run's record from its client processes' records."""
    return {
        "provenance": records[0]["provenance"],
        "setup_s": [r["setup_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "warmup_failures": sum(not r["warmup_ok"] for r in records),
        "ops": [o for r in records for o in r["ops"]],
        # Only a traced run records spans, and it runs one process, so span
        # op ids index its ops.
        "spans": [s for r in records for s in r["spans"]],
    }


def report(args, result):
    """Prints the human-readable summary, then the result line."""
    ops = result["ops"]
    failed = sum(not o["ok"] for o in ops) + result["warmup_failures"]
    attempted = len(ops) + len(result["setup_s"])
    for i, o in enumerate(ops):
        if not o["ok"]:
            log("op %d failed: %s" % (i, o["error"]))
    prov = dict(result["provenance"], git_sha=git_sha())
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("ops: %d timed in %d s, set-ups: %d, error_rate: %.6g (%d of %d failed)"
          % (len(ops), args.seconds, len(result["setup_s"]), failed / attempted, failed,
             attempted))
    walls = [o["wall_s"] for o in ops]
    tail, beyond = metrics.tail_percentile(len(walls))
    if tail is None:
        print("tail: fewer than %d ops beyond the median; no tail percentile (n=%d)"
              % (metrics.MIN_BEYOND, len(walls)))
    else:
        print("tail: p%g = %.6g s with %d of n=%d ops beyond it"
              % (tail, metrics.quantile(walls, tail / 100.0), beyond, len(walls)))
    if args.trace:
        values, coverages = metrics.per_layer(result)
        for i, c in enumerate(coverages):
            if c < 0.9:
                print("trace: traced op %d covers only %.3f of its wall time" % (i, c))
    else:
        values = metrics.end_to_end(result)
        if metrics.samples_beyond(len(walls), 90.0) < metrics.MIN_BEYOND:
            print("note: op_p90_s rests on fewer than %d ops beyond it" % metrics.MIN_BEYOND)
    unit = units()
    for name, value in values.items():
        print("%-30s %.6g %s" % (name, value, unit[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in values.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seconds < 1):
        parser.error("--workload, --seed and --seconds (>= 1) are required")

    out_dir = build_root() / "perfbench"
    if not build(out_dir):
        return 1
    if args.selftest:
        return selftest(out_dir)

    work = build_root() / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    processes = 1 if args.trace else SETUPS
    records = []
    start = time.monotonic()
    for part in range(processes):
        out = work / ("%s-%d-%d-%d.json" % (args.workload, args.seed, args.trace, part))
        if out.exists():
            out.unlink()
        cmd = [str(out_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / processes),
               "--trace", str(args.trace), "--workdir", str(work), "--out", str(out)]
        if args.corrupt_reference:
            cmd.append("--corrupt-reference")
        left = TIME_LIMIT_S - (time.monotonic() - start)
        try:
            code = subprocess.run(cmd, timeout=max(left, 1),
                                  env=dict(os.environ, TMPDIR=str(out_dir / "tmp"))).returncode
        except subprocess.TimeoutExpired:
            log("perfbench: no result within %d s" % TIME_LIMIT_S)
            return 1
        if code != 0 or not out.exists():
            log("perfbench: the client exited with code %d" % code)
            return 1
        records.append(json.loads(out.read_text()))
    log("perfbench: %s run took %.1f s" % (args.workload, time.monotonic() - start))
    report(args, merge(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
