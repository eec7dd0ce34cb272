#!/usr/bin/env python3
"""Record the expected verdict digests in verdict_bench/expected.json.

    python3 verdict_bench/record.py

Runs every workload once per seed and stores its verdict digest.
aes_cold_compiled is recorded from the interpreter backend, so the
compiled kernel is later judged against an independent engine.  Each
recording job also re-runs a prefix of its stimulus side by side with
rtl::RefSim and refuses to record on any mismatch.  The first seed is
the default one; the second is held out from benchmark development.
"""

import json
import sys

import run


SEEDS = (1, 17)


def main():
    if not run.build():
        run.log("build failed")
        return 2
    expected = {}
    for workload, wl in sorted(run.WORKLOADS.items()):
        extra = ("--backend", "interp")
        for seed in SEEDS:
            rec, why = run.run_job(workload, seed, 0, 0,
                                   oracle=wl["oracle"], extra=extra)
            if rec is None:
                run.log("%s seed %d: %s" % (workload, seed, why))
                return 1
            if rec["oracle"]["mismatch"]:
                run.log("%s seed %d: RefSim prefix check: %s"
                        % (workload, seed, rec["oracle"]["mismatch"]))
                return 1
            expected.setdefault(workload, {})[str(seed)] = rec["digest"]
            run.log("%s seed %d: %s" % (workload, seed, rec["digest"]))
    with open(run.EXPECTED, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
