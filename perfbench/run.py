#!/usr/bin/env python3
"""dshuffle benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's jobs pass after pass until S seconds have been measured.
Every pass runs in a fresh single-threaded worker process, so the package's
caches start cold as they do for a CLI user; one worker runs at a time.
Every job's output is checked here, outside the program.  With --trace 0 the
last stdout line reports the end-to-end metrics; with --trace 1 untraced and
traced passes alternate and it reports the per-layer metrics of the traced
passes plus the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFS = HERE / "refs.json"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 10       # set-up-only workers per run, besides one per pass
HARD_LIMIT_S = 160.0    # the run must print its result within 180 s

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB",
}

LAYER_METRICS = (
    ("words.stuffle", ("calls", "busy_s")),
    ("words.shuffle", ("calls", "busy_s")),
    ("words.pair", ("calls", "busy_s")),
    ("words.concat", ("calls", "busy_s")),
    ("lie.ds_solve", ("busy_s", "self_s")),
    ("lie.lie_basis", ("busy_s",)),
    ("lie.admissible_stuffle_pairs", ("busy_s",)),
    ("lie.odot", ("busy_s",)),
    ("lie.derivation_apply", ("busy_s",)),
    ("lie.lyndon_bracket", ("hit_ratio",)),
    ("linalg.Mat.rref", ("calls", "cells", "busy_s")),
    ("linalg.kernel", ("busy_s",)),
    ("linalg.same_span", ("busy_s",)),
    ("linalg.build_A_symbolic", ("busy_s",)),
    ("linalg.conjugate_M", ("busy_s",)),
    ("linalg.symmetry_product", ("busy_s",)),
    ("linalg.Mat.inverse", ("busy_s",)),
    ("linalg.Mat.matmul", ("busy_s",)),
    ("periodpoly.ek_basis", ("calls", "busy_s")),
    ("periodpoly.q_vector", ("calls", "busy_s")),
    ("regularization.fz_quotient_dim", ("self_s",)),
    ("regularization.sh_basis_dim", ("self_s",)),
    ("regularization.stuffle_relation", ("calls", "busy_s")),
    ("regularization.star_regularize", ("calls", "busy_s")),
    ("regularization.shuffle_regularize", ("busy_s", "hit_ratio")),
    ("relations.correspondence_report", ("busy_s", "self_s")),
    ("relations.gkz_relations", ("busy_s", "self_s")),
    ("relations.ihara_relations", ("busy_s", "self_s")),
    ("numzeta.verify_relation", ("calls", "busy_s")),
    ("numzeta.zeta_double", ("calls", "busy_s")),
    ("numzeta.zeta_single", ("calls", "busy_s")),
    ("numzeta.mpmath_zeta", ("calls",)),
    ("cli.main", ("calls", "self_s")),
)
LAYER_UNITS = {"calls": "count", "cells": "count", "busy_s": "s", "self_s": "s",
               "hit_ratio": "ratio"}
OVERHEAD = "trace.overhead_s"


def per_layer_units() -> dict:
    units = {f"{name}.{kind}": LAYER_UNITS[kind]
             for name, kinds in LAYER_METRICS for kind in kinds}
    units[OVERHEAD] = "s"
    return units


# -- workloads -------------------------------------------------------------


def cli(*argv) -> dict:
    return {"cli": [str(a) for a in argv]}


def exact_sweep(rng, refs) -> list:
    return [cli("report", "--from", 12, "--to", 40)] + [
        cli("relations", "--weight", k) for k in range(12, 41, 2)]


SOLVER_FIXED = (cli("ds-solve", "--weight", 9), cli("fz-dim", "--weight", 8),
                {"call": "regularization.sh_basis_dim", "args": [8]})


def solver_sweep(rng, refs) -> list:
    jobs = list(SOLVER_FIXED)
    pool = refs["regularize_pool"]
    for n in sorted(pool, key=int):
        for w in rng.sample(pool[n], 2):
            jobs += [cli("regularize", "--word", w), cli("regularize", "--word", w, "--star")]
    return jobs


def numeric_check(rng, refs) -> list:
    return [cli("check", "--weight", 12, "--digits", 30),
            cli("check", "--weight", 16, "--digits", 30),
            cli("check", "--weight", 12, "--digits", 20)]


WORKLOADS = {f.__name__: f for f in (exact_sweep, solver_sweep, numeric_check)}


def make_jobs(workload: str, seed: int, refs: dict) -> list:
    """The workload's jobs in the order the seed gives them."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng, refs)
    rng.shuffle(jobs)
    return jobs


# -- output checks -----------------------------------------------------------

# Known values of the double zeta relations' scalars, (sum q Z(r, s)) / Z(k).
ZETA_SCALARS = {12: [Fraction(5197, 691)], 16: [Fraction(157934, 3617)]}
CHECK_LINE = re.compile(r"^\S+ (.+)  scalar = (\S+)  residual = (\S+)$")


def job_key(job: dict) -> str:
    if "cli" in job:
        return " ".join(job["cli"])
    return f"{job['call']}({', '.join(map(str, job['args']))})"


def check_numeric(argv: list, stdout: str, refs: dict):
    """Check `check` output on its own terms: the printed status word is
    ignored, since `check` passes vacuously at --digits <= 10."""
    weight = int(argv[argv.index("--weight") + 1])
    digits = int(argv[argv.index("--digits") + 1])
    bound = Fraction(1, 10 ** (digits - 10))
    relations = refs["zeta_relations"][str(weight)]
    lines = stdout.splitlines()
    if len(lines) != len(relations):
        return f"expected {len(relations)} lines, got {len(lines)}"
    for line, rel, scalar in zip(lines, relations, ZETA_SCALARS[weight]):
        m = CHECK_LINE.match(line)
        if not m:
            return f"unparsed line {line!r}"
        if m[1] != rel:
            return f"relation {m[1]!r} != {rel!r}"
        try:
            got, residual = Fraction(m[2]), Fraction(m[3])
        except ValueError:
            return f"unparsed numbers in {line!r}"
        if got != scalar:
            return f"scalar {m[2]} != {scalar}"
        if not abs(residual) < bound:
            return f"residual {m[3]} not below 1e-{digits - 10}"
    return None


def check_output(job: dict, result: dict | None, refs: dict):
    """None when the job's result is right, else why it is not."""
    if result is None:
        return "no result (timeout or worker crash)"
    if result["error"]:
        return result["error"]
    if result["exit"] != 0:
        return f"exit code {result['exit']}"
    if job.get("cli", [None])[0] == "check":
        return check_numeric(job["cli"], result["stdout"], refs)
    want = refs["digests"].get(job_key(job))
    if want is None:
        return "no reference output"
    if hashlib.sha256(result["stdout"].encode()).hexdigest() != want:
        return "output differs from the reference"
    return None


# -- workers ----------------------------------------------------------------


class Worker:
    """A worker process.  ``ready`` blocks until dshuffle is imported."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER)], cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, encoding="utf-8")
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def recv(self):
        """Next message; None at end of output or past the deadline."""
        try:
            line = self.lines.get(timeout=max(self.deadline - time.perf_counter(), 0))
        except queue.Empty:
            return None
        return None if line is None else json.loads(line)

    def ready(self):
        """Set-up time, wall and calibrated, and the worker's environment;
        None if the worker never got ready."""
        msg = self.recv()
        if not msg or "ready" not in msg:
            return None
        wall = time.perf_counter() - self.spawned
        return {"wall": wall - sum(msg["units"]), "cal": hostclock.calibrated(wall, msg["units"]),
                "env": msg["ready"]}

    def send(self, request: dict):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 1))
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def probe(deadline: float):
    """Spawn a worker, wait for its import, let it exit."""
    w = Worker(deadline)
    try:
        return w.ready()
    finally:
        w.close()


def run_pass(jobs: list, trace: bool, deadline: float, spans=None) -> dict:
    w = Worker(deadline)
    try:
        ready = w.ready()
        results = [None] * len(jobs)
        done = None
        if ready is not None:
            names = [name for name, _ in LAYER_METRICS] if trace else []
            w.send({"jobs": jobs, "trace": names, "spans": spans})
            while (msg := w.recv()) is not None:
                if "job" in msg:
                    results[msg["job"]] = msg
                else:
                    done = msg
                    break
    finally:
        w.close()
    return {"setup": ready, "results": results, "done": done}


# -- statistics and report ----------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def environment(worker_env: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {**worker_env, "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (ROOT / "src" / "dshuffle" / "__init__.py").is_file():
        print(f"error: no dshuffle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads(REFS.read_text())
    jobs = make_jobs(args.workload, args.seed, refs)
    OUT.mkdir(exist_ok=True)

    # The first spawn compiles the package's bytecode, which a CLI user pays
    # only once; it is not a sample.
    warm = probe(deadline)
    if warm is None:
        print("error: worker did not start; cannot import dshuffle", file=sys.stderr)
        return 1
    env = environment(warm["env"])
    setups = []
    for _ in range(SETUP_PROBES):
        sample = probe(deadline)
        if sample is None:
            print("error: set-up probe failed", file=sys.stderr)
            return 1
        setups.append(sample)

    measure_start = time.perf_counter()
    passes = {False: [], True: []}
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            spans = None
            if traced:
                spans = str(OUT / f"spans-{args.workload}-seed{args.seed}-{len(passes[True])}.tsv")
            passes[traced].append(run_pass(jobs, traced, deadline, spans))
        if (time.perf_counter() - measure_start >= args.seconds
                or time.perf_counter() >= deadline):
            break

    attempted = failed = 0
    reasons = {}
    for p in passes[False] + passes[True]:
        for job, result in zip(jobs, p["results"]):
            attempted += 1
            why = check_output(job, result, refs)
            if why:
                failed += 1
                reasons.setdefault(job_key(job), why)
    complete = [p for p in passes[False] if p["done"] is not None]
    complete_traced = [p for p in passes[True] if p["done"] is not None]
    setups += [p["setup"] for p in passes[False] + passes[True] if p["setup"] is not None]
    if not complete or (args.trace and not complete_traced):
        print(f"error: no pass completed; {reasons}", file=sys.stderr)
        return 1

    pass_s = [p["done"]["pass_s"] for p in complete]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} jobs/pass={len(jobs)}",
             "env " + json.dumps(env)]
    if args.trace:
        metrics = layer_metrics(complete_traced)
        traced_s = [p["done"]["pass_s"] for p in complete_traced]
        overhead = statistics.median(traced_s) - statistics.median(pass_s)
        metrics[OVERHEAD] = {"value": overhead, "unit": "s"}
        lines.append(f"tracing overhead {overhead:.4f} s: traced pass_s median "
                     f"{statistics.median(traced_s):.4f} s (n={len(traced_s)}) - untraced "
                     f"{statistics.median(pass_s):.4f} s (n={len(pass_s)})")
        lines += [f"  {name:48s} {m['value']:>14.6g} {m['unit']}"
                  for name, m in metrics.items()]
    else:
        slowest_job = max(zip(complete[0]["results"], jobs),
                          key=lambda rj: rj[0]["seconds"])[1]
        # (calibrated samples, wall samples); see hostclock.py
        samples = {
            "setup_s": ([s["cal"] for s in setups], [s["wall"] for s in setups]),
            "pass_s": ([p["done"]["pass_cal_s"] for p in complete], pass_s),
            "slowest_job_s": ([max(p["done"]["jobs_cal_s"]) for p in complete],
                              [max(r["seconds"] for r in p["results"]) for p in complete]),
            "peak_rss_mb": ([p["done"]["rss_kb"] / 1024 for p in complete], None),
        }
        lines.append("  times in calibrated seconds (perfbench/hostclock.py), wall time after ';'")
        metrics = {}
        for name, (values, wall) in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": END_TO_END[name]}
            line = (f"  {name:14s} {med:12.6f} {END_TO_END[name]:3s} median of "
                    f"{len(values)} (q1 {q1:.6f}, q3 {q3:.6f})")
            if wall:
                q1, med, q3 = quartiles(wall)
                line += f"; wall {med:.6f} (q1 {q1:.6f}, q3 {q3:.6f})"
            lines.append(line)
        lines.append(f"  {'':14s} slowest job in the first pass: {job_key(slowest_job)}")
    lines.append(f"  {'failed_ratio':14s} {failed / attempted:12.6f} ratio  "
                 f"{failed} of {attempted} jobs failed")
    for key, why in reasons.items():
        lines.append(f"  FAILED {key}: {why}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def layer_metrics(traced: list) -> dict:
    """Counts from the first traced pass (every pass runs the same jobs),
    times as medians over the traced passes."""
    first = traced[0]["done"]["trace"]
    out = {}
    for name, kinds in LAYER_METRICS:
        for kind in kinds:
            if kind == "hit_ratio":
                value = first["hit_ratio"][name]
            elif kind in ("calls", "cells"):
                value = first["layers"][name][kind]
            else:
                value = statistics.median(p["done"]["trace"]["layers"][name][kind]
                                          for p in traced)
            out[f"{name}.{kind}"] = {"value": value, "unit": LAYER_UNITS[kind]}
    return out


if __name__ == "__main__":
    sys.exit(main())
