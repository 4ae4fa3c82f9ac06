#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py

Run it only on a commit whose outputs are known to be right; the file it
writes, perfbench/refs.json, pins every later commit to the same bytes.  It
holds the pool of words the solver_sweep workload draws from (20 per weight
8..12, each starting and ending in y, so both shuffle and star
regularization do real work), the sha256 of the stdout of every job any seed
can produce outside `check`, and the text of the double zeta relations that
`check` must print.
"""

import hashlib
import itertools
import json
import random
import sys
import time

import run

POOL_WEIGHTS = range(8, 13)
POOL_PER_WEIGHT = 20


def pool() -> dict:
    out = {}
    for n in POOL_WEIGHTS:
        words = ["y" + "".join(mid) + "y" for mid in itertools.product("xy", repeat=n - 2)]
        out[str(n)] = sorted(random.Random(f"pool-{n}").sample(words, POOL_PER_WEIGHT))
    return out


def main() -> int:
    refs = {"regularize_pool": pool()}
    jobs = run.exact_sweep(None, refs) + list(run.SOLVER_FIXED)
    for words in refs["regularize_pool"].values():
        for w in words:
            jobs += [run.cli("regularize", "--word", w), run.cli("regularize", "--word", w, "--star")]
    zeta = [run.cli("relations", "--weight", k, "--kind", "zeta") for k in run.ZETA_SCALARS]
    p = run.run_pass(jobs + zeta, False, time.perf_counter() + 600)
    bad = [run.job_key(j) for j, r in zip(jobs + zeta, p["results"])
           if r is None or r["exit"] != 0 or r["error"]]
    if bad:
        print(f"error: jobs failed: {bad}", file=sys.stderr)
        return 1
    refs["digests"] = {run.job_key(j): hashlib.sha256(r["stdout"].encode()).hexdigest()
                       for j, r in zip(jobs, p["results"])}
    refs["zeta_relations"] = {str(k): r["stdout"].splitlines()
                              for k, r in zip(run.ZETA_SCALARS, p["results"][len(jobs):])}
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs['digests'])} digests to {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
