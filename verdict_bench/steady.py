#!/usr/bin/env python3
"""Steadiness check for the time-to-verdict benchmark.

    python3 verdict_bench/steady.py [--sets 1|2]

Runs the benchmark command from BENCHMARK.json ten times per workload
on the same build, one seed per run (100, 101, ...), and prints for
each end-to-end metric x workload the median, the quartiles
(statistics.quantiles, n=4) and their spread (Q3 - Q1) / median
against the metric's bound.  A spread above the bound fails the
check; one above a third of the bound is noted.  With --sets 2 the
runs are repeated and the second set's median is compared with the
first's: worse by more than the bound fails the check too.  Exits 1
when the check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10
SEED_BASE = 100


def one_run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                  proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: incorrect run" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def worse_by(metric, first, second):
    """Relative worsening of the second median against the first."""
    if metric["better"] == "lower":
        return second / first - 1
    return first / second - 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]

    flagged = False
    print("%-18s %-17s %12s %12s %12s %7s %6s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "note"))
    for workload in names:
        sets = []
        for _ in range(args.sets):
            runs = []
            for i in range(RUNS):
                seed = SEED_BASE + i
                runs.append(one_run(bench, workload, seed))
                print("# %s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.6g" % kv for kv in sorted(runs[-1].items()))),
                    flush=True)
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for runs in sets:
                med, q1, q3, spr = spread([r[name] for r in runs])
                medians.append(med)
                note = ""
                if spr > bound:
                    note, flagged = "SPREAD > BOUND", True
                elif spr > bound / 3:
                    note = "spread > bound/3"
                print("%-18s %-17s %12.6g %12.6g %12.6g %6.1f%% %5.0f%% %s"
                      % (workload, name, med, q1, q3, 100 * spr,
                         100 * bound, note))
            if len(medians) == 2:
                w = worse_by(metric, medians[0], medians[1])
                if w > bound:
                    flagged = True
                print("%-18s %-17s second set vs first: %+.1f%%%s" % (
                    workload, name, 100 * w,
                    "  WORSE THAN BOUND" if w > bound else ""))
        sys.stdout.flush()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
