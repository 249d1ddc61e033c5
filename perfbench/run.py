#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload chat|rag --seed N --seconds S --trace 0|1

Run it from the root of the repository. With --trace 0 it runs PARTS
benchmark processes one after another, each on its own slice of the
seed's inputs for S/PARTS seconds, and prints every end-to-end metric.
With --trace 1 it runs the first slice once, traced, and prints every
per-layer metric. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; its metrics are the gated
ones listed in BENCHMARK.json. The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

PARTS = 3
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
PART_TIMEOUT_S = 150
MIN_BEYOND = 10


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root (dune-project and lib/ not found)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed", 1)


def run_part(workload, seed, seconds, trace):
    """One benchmark process; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=PART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("a benchmark process ran past %d s" % PART_TIMEOUT_S, 1)
    lines = r.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        die("a benchmark process printed no result (exit %d)" % r.returncode, 1)
    return r.returncode, lines


def pct(samples, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(samples)
    i = max(0, min(len(xs) - 1, math.ceil(q * len(xs)) - 1))
    return (xs[i] if xs else float("nan")), len(xs) - 1 - i


def gated(raws):
    """Metrics that the regression gate compares: set-up and memory as the
    median over processes, kernel rates at the median of every timed run."""
    med = statistics.median
    rows = [("setup_s", "s", med(r["setup_s"] for r in raws),
             "median of %d set-ups" % len(raws)),
            ("rss_peak_mb", "MB", med(r["rss_peak_mb"] for r in raws),
             "median VmHWM of %d processes" % len(raws))]
    for name in raws[0]["kernels"]:
        times = [t for r in raws for t in r["kernels"][name]["seconds"]]
        rows.append((name, "GFLOP/s",
                     raws[0]["kernels"][name]["flops"] / med(times) / 1e9,
                     "median of %d runs" % len(times)))
    return rows


def serving(raws):
    """Serving metrics over the pooled samples. They are printed but not
    gated: on a host whose virtual CPUs are taken away now and then,
    they move far more from run to run than any bound allows."""
    rows = []
    for name, key, q in (("ttft_p50_ms", "ttft_ms", 0.50),
                         ("ttft_p95_ms", "ttft_ms", 0.95),
                         ("tpot_p50_ms", "gaps_ms", 0.50),
                         ("tpot_p99_ms", "gaps_ms", 0.99)):
        xs = [x for r in raws for x in r[key]]
        v, beyond = pct(xs, q)
        if beyond < MIN_BEYOND:
            v = float("nan")
        rows.append((name, "ms", v, "n=%d beyond=%d" % (len(xs), beyond)))
    met = sum(r["slo_met"] for r in raws)
    offered = sum(r["open_attempted"] for r in raws)
    rows.append(("slo_met_share", "fraction", met / offered,
                 "%d of %d open-loop requests" % (met, offered)))
    tokens = sum(r["window_tokens"] for r in raws)
    window = sum(r["window_s"] for r in raws)
    rows.append(("tokens_per_s", "tok/s", tokens / window,
                 "%d tokens in %.3f s" % (tokens, window)))
    return rows


def steal_ticks():
    """Clock ticks the hypervisor took from this machine's CPUs."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=["chat", "rag"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")
    build()
    slice_s = a.seconds / PARTS
    # slice k of seed s runs on process seed 10*s + k
    if a.trace:
        code, lines = run_part(a.workload, 10 * a.seed, slice_s, 1)
        print("\n".join(lines))
        sys.exit(code)
    parts = []
    steal0, t0 = steal_ticks(), time.monotonic()
    for k in range(PARTS):
        _, lines = run_part(a.workload, 10 * a.seed + k, slice_s, 0)
        parts.append(json.loads(lines[-1]))
    steal = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    wall = time.monotonic() - t0
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    correct = all(p["correct"] for p in parts)
    raws = [p["raw"] for p in parts]
    rows = gated(raws)
    print("perfbench workload=%s seed=%d seconds=%d processes=%d"
          % (a.workload, a.seed, a.seconds, PARTS))
    for name, unit, value, note in rows:
        print("%-18s %12.6g %-9s %s" % (name, value, unit, note))
    print("-- not gated --")
    for name, unit, value, note in serving(raws):
        print("%-18s %12.6g %-9s %s" % (name, value, unit, note))
    print("%-18s %12.6g %-9s %d of %d requests and kernel cases"
          % ("failed_share", failed / attempted, "fraction", failed, attempted))
    print("%-18s %12.6g %-9s %.2f s of %.1f s wall, all CPUs"
          % ("host_steal_share", steal / wall, "fraction", steal, wall))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in rows}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
