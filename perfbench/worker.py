"""One benchmark pass in a fresh interpreter.

Protocol, one JSON object per line:
  worker -> runner  {"ready": env, "units": [s, ...]}
                    once ``import dshuffle`` is done; the calibration units
                    (hostclock.py) ran just before the import
  runner -> worker  {"jobs": [...], "trace": [names], "spans": path or null}
                    (end of input instead means: exit, this was a set-up probe)
  worker -> runner  {"job": i, "exit": code, "seconds": s, "stdout": text,
                     "error": text or null}                      per job
  worker -> runner  {"pass_s": s, "pass_cal_s": s, "jobs_cal_s": [s, ...],
                     "rss_kb": n, "trace": summary or null}

Untraced passes are timed with a HostClock: "seconds" and "pass_s" exclude
the time spent in calibration units, and the *_cal_s times are calibrated.
Traced passes run without it, and their *_cal_s are null.

A job is {"cli": argv}, run through dshuffle.cli.main(argv) with stdout and
stderr captured, or {"call": "module.function", "args": [...]}, whose output
is repr(result).  Outputs go back verbatim; the runner (run.py) checks them.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import hostclock

SETUP_UNITS = [hostclock.unit() for _ in range(3)]
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dshuffle  # noqa: E402  (the import is what set-up time measures)
import dshuffle.cli  # noqa: E402
import mpmath  # noqa: E402


def run_job(job: dict):
    if "cli" in job:
        return dshuffle.cli.main(job["cli"])
    module, func = job["call"].split(".")
    result = getattr(getattr(dshuffle, module), func)(*job["args"])
    print(repr(result))
    return 0


def main() -> int:
    out = sys.stdout
    env = {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
           "backend": mpmath.libmp.BACKEND}
    out.write(json.dumps({"ready": env, "units": SETUP_UNITS}) + "\n")
    out.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    request = json.loads(line)
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(request["trace"])
    clock = hostclock.HostClock() if tracer is None else None
    if clock is not None:
        clock.start()
    windows = []
    start = time.perf_counter()
    for i, job in enumerate(request["jobs"]):
        if tracer is not None:
            tracer.job = i
        captured = io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = run_job(job)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failing job is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        windows.append((t0, t1))
        seconds = t1 - t0 - (clock.spent(t0, t1) if clock else 0)
        out.write(json.dumps({"job": i, "exit": code, "seconds": seconds,
                              "stdout": captured.getvalue(), "error": error}) + "\n")
        out.flush()
    end = time.perf_counter()
    pass_s = end - start
    pass_cal_s = jobs_cal_s = None
    if clock is not None:
        clock.stop()
        pass_s -= clock.spent(start, end)
        pass_cal_s = clock.interval(start, end)
        jobs_cal_s = [clock.interval(t0, t1) for t0, t1 in windows]
    summary = None
    if tracer is not None:
        summary = {"layers": tracer.summary(), "hit_ratio": tracer.hit_ratios()}
        if request.get("spans"):
            tracer.write(request["spans"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"pass_s": pass_s, "pass_cal_s": pass_cal_s, "jobs_cal_s": jobs_cal_s,
                          "rss_kb": rss_kb, "trace": summary}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
