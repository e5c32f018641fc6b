#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds perfbench/main.exe with dune, runs one workload in a fresh
      process and prints its output; the last line is the result JSON.

  python3 perfbench/run.py --steadiness [--runs 10] [--sets 2] [--workload NAME ...]
      Runs every workload (or the named ones) on seeds 1..RUNS, SETS
      times, and reports each end-to-end metric's spread (interquartile
      range over median) and the drift between the sets' medians,
      against the metric's bound in BENCHMARK.json.

  python3 perfbench/run.py --make-refs A-B [--workload NAME ...]
      Rewrites perfbench/ref/<workload>.txt, for every workload or the
      named ones, with the reference-pass fingerprints of seeds A..B.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ".", "-j", "2", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit(f"perfbench: build failed (dune exit {done.returncode})")


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Runs main.exe; returns its stdout, or exits on failure."""
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {' '.join(args)}: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(args)}: exit {done.returncode}")
    return done.stdout


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def result_line(stdout, trace):
    """The result JSON: main.exe's last line, with each metric given the
    unit BENCHMARK.json declares for it.  A per-layer metric the
    workload does not produce (a layer it never calls) reads 0."""
    lines = stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit(f"perfbench: last line is not JSON: {e}")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        sys.exit(f"perfbench: malformed result: {lines[-1]}")
    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    values = result["metrics"]
    if not set(values) <= names or not trace and set(values) != names:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 + " ".join(sorted(set(values) ^ names)))
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0),
                                     "unit": m["unit"]} for m in declared}
    return "\n".join(lines[:-1] + [json.dumps(result)]) + "\n", result


def run_workload(workload, seed, seconds, trace):
    out = run_exe(["-workload", workload, "-seed", str(seed),
                   "-seconds", str(seconds), "-trace", str(trace)])
    return result_line(out, trace)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def steadiness(args):
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for seed in range(1, args.runs + 1):
                _, result = run_workload(workload, seed, bench["run_seconds"], 0)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect output", flush=True)
                    ok = False
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                      flush=True)
            sets.append(values)
        print(f"\n{workload} ({args.runs} seeds x {args.sets} sets)")
        print(f"  {'metric':<20} {'bound':>6} {'median':>14} "
              + " ".join(f"{'spread' + str(i + 1):>8}" for i in range(args.sets))
              + f" {'drift':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [spread(v[name]) for v in sets]
            medians = [statistics.median(v[name]) for v in sets]
            drift = max((worse_by(medians[0], med, m["better"])
                         for med in medians[1:]), default=0.0)
            spread_ok = name == "setup_s" or all(s <= bound for s in spreads)
            steady = name == "setup_s" or all(s <= bound / 3 for s in spreads)
            verdict = ("steady" if steady and drift <= bound else
                       "ok" if spread_ok and drift <= bound else "OVER")
            ok = ok and verdict != "OVER"
            print(f"  {name:<20} {bound:>6.3f} {medians[0]:>14.6g} "
                  + " ".join(f"{s:>8.4f}" for s in spreads)
                  + f" {drift:>8.4f}  {verdict}", flush=True)
    return 0 if ok else 1


def make_refs(args):
    lo, hi = args.make_refs.split("-")
    bench = load_benchmark()
    os.makedirs(os.path.join(HERE, "ref"), exist_ok=True)
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        out = run_exe(["-workload", name, "-fingerprints", f"{lo}-{hi}"],
                      timeout=None)
        with open(os.path.join(HERE, "ref", name + ".txt"), "w") as f:
            f.write(out)
        print(f"{name}: {len(out.splitlines())} fingerprints", flush=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--make-refs")
    args = p.parse_args()
    build()
    if args.steadiness:
        return steadiness(args)
    if args.make_refs:
        return make_refs(args)
    if not args.workload or len(args.workload) != 1:
        p.error("exactly one --workload is required")
    out, _ = run_workload(args.workload[0], args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
