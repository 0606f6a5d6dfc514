#!/usr/bin/env python3
"""Steadiness check: run workloads under several seeds and report spreads.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds 25] [--json out.json] [--against earlier.json]

Runs every workload once per seed, taking the workloads in turn for each
seed, so that every workload's runs spread over the same stretch of time and
a slow phase of the host does not fall on one workload alone. For every
end-to-end metric prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, next
to the metric's bound from BENCHMARK.json. With --against, also compares
each median with the one in an earlier --json summary. Exits non-zero if a
run fails, a spread exceeds its bound, or a median is worse than the earlier
one by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    started = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect output or failed ops: {lines[-1]}")
    return result, time.monotonic() - started


def worse_by(metric, median, earlier):
    """How much worse `median` is than `earlier`, as a share of `earlier`."""
    change = (median - earlier) / earlier
    return -change if metric["better"] == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", default="", help="also write the summary here")
    parser.add_argument("--against", default="", help="an earlier --json summary to compare with")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {name: [] for name in metrics} for w in workloads}
    walls = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            result, wall = run_once(workload, seed, args.seconds)
            walls[workload].append(wall)
            for name in metrics:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in metrics), flush=True)

    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    summary = {}
    steady = True
    for workload in workloads:
        summary[workload] = {"wall_s": walls[workload]}
        for name, vals in values[workload].items():
            bound = metrics[name]["bound"]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            notes = [] if spread <= bound else ["SPREAD OVER BOUND"]
            shift = ""
            if workload in earlier and name in earlier[workload]:
                worse = worse_by(metrics[name], med, earlier[workload][name]["median"])
                shift = f"  worse by {100 * worse:+6.1f}%"
                if worse > bound:
                    notes.append("MEDIAN WORSE THAN EARLIER BY MORE THAN BOUND")
            steady = steady and not notes
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": bound, "values": vals}
            print(f"  {workload:16s} {name:13s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}  bound {bound:.2f}{shift}"
                  f"{''.join('  ' + n for n in notes)}", flush=True)
        print(f"  {workload:16s} wall time per run: median {statistics.median(walls[workload]):.1f} s,"
              f" max {max(walls[workload]):.1f} s", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
