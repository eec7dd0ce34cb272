#!/usr/bin/env python3
"""Time-to-verdict benchmark for the Anvil stack.

    python3 verdict_bench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the harness (verdict_bench/CMakeLists.txt) into .bench_build/,
then launches fresh-process jobs of workload W at seed N, one after
another, for about S seconds.  Every job gets a private, empty TMPDIR
(and ANVIL_CACHE_DIR / XDG_CACHE_HOME), so no JIT cache can turn a
cold start warm and nothing is written outside .bench_build/.

Every job's verdict digest is checked: all jobs of a run must agree,
a seed recorded in expected.json must reproduce its digest, the first
job re-runs a prefix against rtl::RefSim, and a compiled workload may
neither fall back to the interpreter nor find its kernel in a cache.
The exact counts (events, nets, node evaluations, kernel and stream
bytes) must repeat bit-for-bit across the run's jobs.

The last stdout line is one JSON object: correct, attempted, failed
(a job is one process, or one worker of a farm) and metrics — the
end-to-end metrics with --trace 0, the per-layer ledger with
--trace 1.  See verdict_bench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "verdict_bench")
JOB = os.path.join(BUILD, "verdict_job")
SCRATCH = os.path.join(ROOT, ".bench_build", "verdict_tmp")
EXPECTED = os.path.join(HERE, "expected.json")

JOB_TIMEOUT_S = 120
# A run (after the build) ends within this many seconds, whatever
# its jobs do.
RUN_DEADLINE_S = 150

# Per workload: farm workers per job, the fewest untraced jobs a run
# makes (medians need several; the repeat check needs two), and the
# oracle prefix the first job re-runs against RefSim.
WORKLOADS = {
    "aes_cold_compiled": {"workers": 1, "min_jobs": 3, "oracle": 1000},
    "encrypt_farm3": {"workers": 3, "min_jobs": 5, "oracle": 20000},
}

E2E = {
    "verdict_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Layer self-times: disjoint spans that, with run.unattributed_s, add
# up to the traced job's wall time.
SELF_TIMES = [
    "lang.parse_s", "ir.elaborate_s", "types.check_s", "ir.optimize_s",
    "codegen.rtl_s", "formal.contracts_s", "rtl.netlist_s",
    "codegen.emit_s", "codegen.jit_s", "tb.setup_s",
    "tb.drive_s", "rtl.sweep_s", "rtl.kernel_s", "rtl.commit_s",
    "obs.feed_s", "obs.coverage_s", "obs.contracts_s", "obs.flight_s",
    "obs.triage_s", "obs.activity_s", "obs.merge_s",
]

# Exact counts: identical in every job of a run.
EXACT_COUNTS = {
    "ir.events": "count",
    "rtl.nets": "count",
    "rtl.levels": "count",
    "rtl.nodes_evaluated": "count",
    "rtl.nets_changed": "count",
    "rtl.activity_pct": "%",
    "codegen.kernel_bytes": "bytes",
    "obs.stream_bytes": "bytes",
}

PER_LAYER_OTHER = {
    "codegen.cache_hit": "count",
    "run.unattributed_s": "s",
    "trace.verdict_s": "s",
    "trace.overhead_frac": "frac",
    "run.job_s.median": "s",
    "run.job_s.max": "s",
    "run.fanout_s": "s",
    "jobs_failed_frac": "frac",
}

# Farm timers (summed over workers by obs::Merger) -> ledger names.
FARM_TIMERS = {
    "phase.sweep": "rtl.sweep_s",
    "phase.kernel": "rtl.kernel_s",
    "phase.commit": "rtl.commit_s",
    "obs.coverage": "obs.coverage_s",
    "obs.contracts": "obs.contracts_s",
    "obs.flight": "obs.flight_s",
    "obs.triage": "obs.triage_s",
    "obs.activity": "obs.activity_s",
}


def per_layer_units():
    units = {name: "s" for name in SELF_TIMES}
    units.update(EXACT_COUNTS)
    units.update(PER_LAYER_OTHER)
    return units


def log(msg):
    print("verdict_bench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "anvil",
                                       "sim_runner.cpp")):
        log("no Anvil sources next to the benchmark (expected "
            "src/ beside verdict_bench/)")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr)
    return res.returncode == 0 and os.path.isfile(JOB)


def job_env(tmp):
    env = dict(os.environ)
    env.pop("ANVIL_CXX", None)   # the workload names the system compiler
    env["TMPDIR"] = tmp
    env["ANVIL_CACHE_DIR"] = os.path.join(tmp, "cache")
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg-cache")
    return env


def run_job(workload, seed, trace, index, oracle=0, extra=(),
            timeout=JOB_TIMEOUT_S):
    """One fresh-process job; returns (record or None, why)."""
    tmp = os.path.join(SCRATCH, "job-%d-%d" % (os.getpid(), index))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [JOB, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if oracle:
        cmd += ["--oracle", str(oracle)]
    cmd += list(extra)
    # Own process group: a timeout also stops the JIT's compiler.
    proc = subprocess.Popen(cmd, env=job_env(tmp), cwd=tmp,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %.0f s" % timeout
    except BaseException:
        # Interrupted (SIGINT, or SIGTERM through main's handler): the
        # job and its compiler go down with the run.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if stderr:
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "exit %d, no record" % proc.returncode
    if proc.returncode != 0 or rec.get("error"):
        return None, "exit %d: %s" % (proc.returncode,
                                       rec.get("error", ""))
    return rec, ""


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def job_failures(rec, workload, seed, expected, reference):
    """Reasons this job's verdict is wrong (empty: correct)."""
    why = []
    want = expected.get(workload, {}).get(str(seed))
    if want is not None and rec["digest"] != want:
        why.append("digest %s != expected %s" % (rec["digest"], want))
    if reference is not None and rec["digest"] != reference["digest"]:
        why.append("digest differs from the run's first job")
    if rec["e2e"]["fallback"]:
        why.append("compiled backend fell back to the interpreter")
    if rec["counts"].get("codegen.cache_hit"):
        why.append("JIT served from a cache: the start was not cold")
    oracle = rec.get("oracle")
    if oracle is not None and oracle["mismatch"]:
        why.append("RefSim prefix check: " + oracle["mismatch"])
    return why


def counts_of(rec):
    """The job's counts; a farm's sweep activity comes from the merged
    worker metrics."""
    counts = dict(rec["counts"])
    fm = rec.get("farm_metrics")
    if fm is not None:
        counts["rtl.nodes_evaluated"] = fm["counters"][
            "sweep.nodes_evaluated"]
        counts["rtl.nets_changed"] = fm["counters"]["sweep.nets_changed"]
        counts["rtl.activity_pct"] = fm["gauges"]["sweep.activity_pct"]
    return counts


def exact_counts(rec):
    return {k: v for k, v in counts_of(rec).items() if k in EXACT_COUNTS}


def layers_of(rec, workers):
    """Per-layer values of one traced job (self-times add up to its
    wall time with run.unattributed_s)."""
    layers = dict(rec["layers"])
    fm = rec.get("farm_metrics")
    if fm is not None:
        # Worker timers are summed over the farm; the mean per worker
        # is each layer's share of the farm's wall time.
        for timer, name in FARM_TIMERS.items():
            layers[name] = (layers.get(name, 0.0) +
                            fm["timers_ns"].get(timer, 0) * 1e-9 / workers)
    out = {name: 0.0 for name in per_layer_units()}
    for source in (layers, counts_of(rec)):
        out.update({k: v for k, v in source.items() if k in out})
    wall = rec["e2e"]["verdict_s"]
    out["trace.verdict_s"] = wall
    out["run.unattributed_s"] = wall - sum(out[n] for n in SELF_TIMES)
    job_walls = [j["wall_s"] for j in rec["jobs"]]
    out["run.job_s.median"] = statistics.median(job_walls)
    out["run.job_s.max"] = max(job_walls)
    out["run.fanout_s"] = rec["e2e"]["run_s"] - max(job_walls)
    return out


def cycles_per_s(rec):
    return rec["digest"]["cycles"] / rec["e2e"]["run_s"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    if not build():
        log("build failed")
        return 2
    try:
        expected = load_expected()
    except (OSError, ValueError) as e:
        log("cannot read %s: %s" % (EXPECTED, e))
        return 2

    wl = WORKLOADS[args.workload]
    workers = wl["workers"]
    os.makedirs(SCRATCH, exist_ok=True)

    # Untraced jobs (and, with --trace 1, a traced job after each),
    # until the next job would overrun the measuring window.
    plain, traced, problems = [], [], []
    attempted = failed = 0
    reference = None
    t0 = time.monotonic()
    index = 0
    modes = (0, 1) if args.trace else (0,)
    out_of_time = False
    while not out_of_time:
        for mode in modes:
            left = RUN_DEADLINE_S - (time.monotonic() - t0)
            if left < 1:
                out_of_time = True
                break
            oracle = wl["oracle"] if index == 0 else 0
            rec, why = run_job(args.workload, args.seed, mode, index,
                               oracle, timeout=min(JOB_TIMEOUT_S, left))
            index += 1
            attempted += workers
            if rec is None:
                failed += workers
                problems.append("job %d: %s" % (index, why))
                continue
            bad = job_failures(rec, args.workload, args.seed, expected,
                               reference)
            if reference is None and not bad:
                reference = rec
            workers_failed = sum(1 for j in rec["jobs"] if not j["ok"])
            if bad:
                workers_failed = workers
                problems += ["job %d: %s" % (index, b) for b in bad]
            failed += workers_failed
            if workers_failed == 0:
                (traced if mode else plain).append(rec)
        elapsed = time.monotonic() - t0
        done = len(plain) + len(traced)
        if not done and attempted >= 2 * workers:
            break                    # nothing is succeeding: give up
        per_round = elapsed / max(1, index // len(modes))
        enough = len(plain) >= (1 if args.trace else wl["min_jobs"])
        if enough and elapsed + per_round > args.seconds:
            break
        if elapsed + per_round > RUN_DEADLINE_S:
            break                    # failing jobs: stay inside 180 s

    # Exact counts repeat bit-for-bit across every job of the run.
    counted = plain + traced
    if counted:
        first = exact_counts(counted[0])
        for rec in counted[1:]:
            if exact_counts(rec) != first:
                problems.append(
                    "exact counts differ between jobs: %s vs %s"
                    % (first, exact_counts(rec)))
                break

    for p in problems:
        log("FAILED " + p)
    correct = not problems and bool(plain) and (
        not args.trace or bool(traced))

    metrics = {}
    if plain and not args.trace:
        vals = {
            "verdict_s": [r["e2e"]["verdict_s"] for r in plain],
            "setup_s": [r["e2e"]["setup_s"] for r in plain],
            "sim_cycles_per_s": [cycles_per_s(r) for r in plain],
            "peak_rss_mb": [r["e2e"]["peak_rss_mb"] for r in plain],
        }
        for name, unit in E2E.items():
            metrics[name] = {"value": statistics.median(vals[name]),
                             "unit": unit}
        log("%d jobs; verdict_s %s" % (
            len(plain), " ".join("%.3f" % v for v in vals["verdict_s"])))
    elif plain and traced:
        # The traced job at the median wall time supplies the ledger,
        # so its self-times sum exactly to its own wall time.
        walls = sorted(traced, key=lambda r: r["e2e"]["verdict_s"])
        chosen = walls[(len(walls) - 1) // 2]
        ledger = layers_of(chosen, workers)
        ledger["trace.overhead_frac"] = (
            statistics.median(r["e2e"]["verdict_s"] for r in traced) /
            statistics.median(r["e2e"]["verdict_s"] for r in plain) - 1)
        ledger["jobs_failed_frac"] = failed / max(1, attempted)
        units = per_layer_units()
        for name in units:
            metrics[name] = {"value": ledger[name], "unit": units[name]}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
