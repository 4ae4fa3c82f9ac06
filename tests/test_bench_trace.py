"""The benchmark's traced mode must find every name it wraps.

perfbench/worker.py wraps each name of perfbench/run.py's LAYER_METRICS in
the loaded package and crashes if one is gone, so deleting or renaming a
traced function would break the benchmark while every other test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402


def test_worker_traces_every_layer_metric():
    names = [name for name, _ in run.LAYER_METRICS]
    request = {"jobs": [], "trace": names, "spans": None}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py")],
                          input=json.dumps(request) + "\n", capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout.splitlines()[-1])["trace"]
    assert set(trace["layers"]) == set(names)
    cached = {name for name, kinds in run.LAYER_METRICS if "hit_ratio" in kinds}
    assert cached <= set(trace["hit_ratio"])
