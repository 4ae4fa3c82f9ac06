"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q -p no:cacheprovider

The end-to-end tests run the benchmark on copies of the tree under
.perfbench/selftest and take about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCRATCH = run.OUT / "selftest"


def bench(tree: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=tree, capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(name: str, with_src: bool = True) -> Path:
    tree = SCRATCH / name
    shutil.rmtree(tree, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(run.HERE, tree / "perfbench", ignore=skip)
    shutil.copy(run.ROOT / "BENCHMARK.json", tree)
    if with_src:
        shutil.copytree(run.ROOT / "src", tree / "src", ignore=skip)
    return tree


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def refs():
    return json.loads(run.REFS.read_text())


def check_line(rel, scalar, residual, status="ok"):
    return f"{status} {rel}  scalar = {scalar}  residual = {residual}\n"


def test_numeric_check_is_judged_independently(refs):
    argv = ["check", "--weight", "12", "--digits", "30"]
    rel = refs["zeta_relations"]["12"][0]
    assert run.check_numeric(argv, check_line(rel, "5197/691", "0.0"), refs) is None
    assert run.check_numeric(argv, check_line(rel, "5197/691", "3.1e-23"), refs) is None
    # wrong scalar, residual above 1e-20, status word trusted, missing line
    assert run.check_numeric(argv, check_line(rel, "5196/691", "0.0"), refs)
    assert run.check_numeric(argv, check_line(rel, "5197/691", "2.0e-15"), refs)
    assert run.check_numeric(argv, check_line(rel, "5197/691", "0.5"), refs)
    assert run.check_numeric(argv, "", refs)
    other = refs["zeta_relations"]["16"][0]
    assert run.check_numeric(argv, check_line(other, "5197/691", "0.0"), refs)


def test_corrupted_output_raises_failed_ratio():
    tree = copy_tree("corrupt")
    rel = tree / "src" / "dshuffle" / "relations.py"
    text = rel.read_text()
    assert "≡ 0 (mod depth 3)" in text
    rel.write_text(text.replace("≡ 0 (mod depth 3)", "= 0 (mod depth 3)"))
    out = last_json(bench(tree, "--workload", "exact_sweep", "--seed", 1,
                          "--seconds", 1, "--trace", 0))
    assert out["correct"] is False
    # every `relations` job but weight 14 (no relations) prints a bracket
    # relation; the report job does not
    assert 0 < out["failed"] < out["attempted"]


def test_traced_counts_repeat_with_the_seed():
    def counts():
        out = last_json(bench(run.ROOT, "--workload", "solver_sweep", "--seed", 5,
                              "--seconds", 1, "--trace", 1))
        assert out["correct"] and out["failed"] == 0
        return {k: m["value"] for k, m in out["metrics"].items()
                if m["unit"] in ("count", "ratio")}

    first, second = counts(), counts()
    assert first == second
    assert first["words.pair.calls"] > 0 and first["linalg.Mat.rref.cells"] > 0
    assert 0 < first["lie.lyndon_bracket.hit_ratio"] < 1
    assert first["numzeta.mpmath_zeta.calls"] == first["numzeta.zeta_double.calls"] == 0


def test_fails_without_sources():
    tree = copy_tree("bare", with_src=False)
    proc = bench(tree, "--workload", "exact_sweep", "--seed", 1, "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
