import ast
import contextlib
import graphlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dshuffle
from dshuffle import linalg, numzeta, periodpoly, relations
from dshuffle.cli import main
from dshuffle.linalg import Mat
from dshuffle.words import ConsistencyError, NcPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_relations_text_golden(capsys):
    code, out, _ = run(capsys, "relations", "--weight", "12", "--kind", "zeta")
    assert code == 0
    assert out.strip() == "28 Z(9,3) + 150 Z(7,5) + 168 Z(5,7) ≡ 0 (mod Z(12))"


def test_relations_all_includes_bracket(capsys):
    code, out, _ = run(capsys, "relations", "--weight", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "{f3, f9} - 3 {f5, f7} ≡ 0 (mod depth 3)"
    assert len(lines) == 2


def test_relations_json(capsys):
    code, out, _ = run(capsys, "relations", "--weight", "16", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert {d["kind"] for d in docs} == {"bracket", "double_zeta"}
    assert all(d["weight"] == 16 for d in docs)


def test_relations_csv(capsys):
    code, out, _ = run(capsys, "relations", "--weight", "12", "--kind", "zeta",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,kind,r,s,coeff"
    assert "12,double_zeta,9,3,28" in lines


def test_period_basis(capsys):
    code, out, _ = run(capsys, "period-basis", "--weight", "12")
    assert code == 0
    assert "(X^8 - X^2)" in out
    assert "a = (1, -3, 3, -1)" in out


def test_relation_kinds_reject_the_same_weights(capsys):
    for k in range(-2, 65):
        codes = {kind: run(capsys, "relations", "--weight", str(k), "--kind", kind)[0]
                 for kind in ("bracket", "zeta", "all")}
        assert len(set(codes.values())) == 1, (k, codes)
    code, out, err = run(capsys, "relations", "--weight", "10", "--kind", "bracket")
    assert code == 2
    assert out == ""
    assert "weight must be even and >= 12" in err


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--which", "A", "--weight", "12",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[0] == "1,6,15,28"
    # the symbolic A has no weight cap of its own
    _, sym, _ = run(capsys, "matrix", "--which", "Asym", "--weight", "32")
    assert sym == run(capsys, "matrix", "--which", "A", "--weight", "32")[1]


def test_matrix_tADB_json(capsys):
    code, out, _ = run(capsys, "matrix", "--which", "tADB", "--weight", "12",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0][0] == "1/45"  # 14/630


def test_check_weight12(capsys):
    code, out, _ = run(capsys, "check", "--weight", "12", "--digits", "25")
    assert code == 0
    assert "scalar = 5197/691" in out
    assert out.startswith("ok ")


@pytest.mark.parametrize("weight, scalar", [
    (18, "125643662/43867"), (20, "111230333/174611"),
    (22, "1265143726/77683"), (24, "2922134203997/236364091"),
    (26, "965024376420/657931"), (28, "8107925374084785/3392780147"),
    (32, "393749430603472426710/7709321041217"),
    (36, "9535907207271261577674766462/26315271553053477373"),
    (40, "2381600221812841209121364988938/261082718496449122051"),
])
def test_check_high_weights(capsys, weight, scalar):
    code, out, _ = run(capsys, "check", "--weight", str(weight), "--digits", "30")
    assert code == 0
    assert out.startswith("ok ")
    assert f"scalar = {scalar}  " in out


def test_check_weight40_at_40_digits(capsys):
    code, out, _ = run(capsys, "check", "--weight", "40", "--digits", "40")
    assert code == 0
    assert len(out.splitlines()) == 3
    assert all(line.startswith("ok ") for line in out.splitlines())


def test_check_fails_below_requested_digits(capsys, monkeypatch):
    # values off by 10^-25 must not pass a 30-digit check
    exact = numzeta._holder_zetas

    def perturbed(words, digits):
        with mp.workdps(digits + numzeta.GUARD_DIGITS):
            return {w: z + mp.mpf(10) ** -25 for w, z in exact(words, digits).items()}

    monkeypatch.setattr(numzeta, "_holder_zetas", perturbed)
    code, out, _ = run(capsys, "check", "--weight", "12", "--digits", "30")
    assert code == 1
    assert out.startswith("FAIL ")


def test_check_weight14_vacuous(capsys):
    code, out, _ = run(capsys, "check", "--weight", "14")
    assert code == 0
    assert "no double zeta relations" in out


def test_report_sweep(capsys):
    code, out, _ = run(capsys, "report", "--from", "12", "--to", "16")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["weight"] for d in docs] == [12, 14, 16]
    assert all(d["all_ok"] for d in docs)


def test_ds_solve(capsys):
    code, out, _ = run(capsys, "ds-solve", "--weight", "3")
    assert code == 0
    assert out.splitlines()[0] == "dim ds_3 (depth-graded solver) = 1"


def test_regularize(capsys):
    code, out, _ = run(capsys, "regularize", "--word", "yxy")
    assert code == 0
    assert out.strip() == "-2 Z(2, 1)"


def test_regularize_star(capsys):
    code, out, _ = run(capsys, "regularize", "--word", "yy", "--star")
    assert code == 0
    assert out.strip() == "-1/2 Z(2)"


def test_regularize_empty_word_is_one(capsys):
    code, out, _ = run(capsys, "regularize", "--word", "")
    assert code == 0
    assert out == "1\n"


def test_fz_dim(capsys):
    code, out, _ = run(capsys, "fz-dim", "--weight", "4")
    assert code == 0
    assert out.splitlines()[0] == "dim weight-4 formal zeta quotient = 1"


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "matrix", "--which", "A", "--weight", "11")
    assert code == 2
    assert "error:" in err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("digits", ["-3", "10", "41", "45"])
def test_check_digits_out_of_range_exit_2(capsys, digits):
    code, out, err = run(capsys, "check", "--weight", "12", "--digits", digits)
    assert code == 2
    assert out == ""
    assert "15" in err and "40" in err


def test_regularize_word_over_cap_exit_2(capsys):
    code, out, err = run(capsys, "regularize", "--word", "y" * 7 + "x" * 8)
    assert code == 2
    assert out == ""
    assert "at most 14 letters" in err


def test_regularize_14_letter_word_exits_0(capsys):
    code, out, _ = run(capsys, "regularize", "--word", "y" * 6 + "x" * 8)
    assert code == 0
    assert out == "-Z(9, 1, 1, 1, 1, 1)\n"


@pytest.mark.parametrize("m, lead", [(13, "1/13 Z(13)"), (14, "-1/14 Z(14)")],
                         ids=["y13", "y14"])
def test_star_regularize_up_to_14_letters_exit_0(capsys, m, lead):
    code, out, _ = run(capsys, "regularize", "--word", "y" * m, "--star")
    assert code == 0
    assert out.startswith(lead)


def test_star_regularize_y15_exit_2(capsys):
    code, out, err = run(capsys, "regularize", "--word", "y" * 15, "--star")
    assert code == 2
    assert out == ""
    assert "at most 14 letters" in err


@pytest.mark.parametrize("which", ["A", "Asym", "B", "D", "M", "S", "T", "tADB"])
def test_matrix_weight_over_cap_exit_2(capsys, which):
    # the builders cost about k^3, so weight 100 000 would build a
    # 49 998 x 49 998 matrix
    code, out, err = run(capsys, "matrix", "--which", which, "--weight", "202")
    assert code == 2
    assert out == ""
    assert "at most 200" in err
    code, out, _ = run(capsys, "matrix", "--which", which, "--weight", "200")
    assert code == 0
    assert len(out.splitlines()) == 98


@pytest.mark.parametrize("start, stop", [("58", "62"), ("10", "12"), ("20", "12")])
def test_report_bad_range_exit_2(capsys, start, stop):
    code, out, err = run(capsys, "report", "--from", start, "--to", stop)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("module, name, fake, argv", [
    ("relations", "same_span", lambda vs, ws: False, ["relations", "--weight", "12"]),
    ("periodpoly", "ek_dim_formula", lambda k: -1, ["period-basis", "--weight", "12"]),
    ("regularization", "shuffle_regularize", lambda w: NcPoly.word(""),
     ["fz-dim", "--weight", "4"]),
])
def test_consistency_failure_exit_1(capsys, monkeypatch, module, name, fake, argv):
    monkeypatch.setattr(importlib.import_module(f"dshuffle.{module}"), name, fake)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert not issubclass(ConsistencyError, ValueError)


def bumped(M, i, j):
    rows = [list(r) for r in M.rows]
    rows[i][j] += 1
    return Mat(rows)


def q_bumped(P):
    q = periodpoly.q_vector(P)
    return (q[0] + 1,) + q[1:]


REPORT_12 = ["report", "--from", "12", "--to", "12"]


# No check passes vacuously: one perturbation per failure condition that no
# other test fires, each tripping its own message and no other.  A report
# row lists the whole failures list, so a fake that starts to trip an
# earlier check shows up; the other rows name their command's error.
@pytest.mark.parametrize("module, name, fake, argv, messages", [
    ("relations", "build_A_symbolic", lambda k: bumped(linalg.build_A_symbolic(k), -1, -1),
     REPORT_12, ["symbolic A differs from closed form"]),
    ("relations", "conjugate_M", lambda k: bumped(linalg.conjugate_M(k), 0, 0),
     REPORT_12, ["block structure violated"]),
    ("relations", "same_span", lambda vs, ws: False,
     REPORT_12, ["Ker tA != DB Ker A"]),
    ("relations", "q_vector", q_bumped, REPORT_12, ["q_vector != DB a"]),
    ("relations", "ek_dim_formula", lambda k: periodpoly.ek_dim_formula(k) + 1,
     REPORT_12, ["dimension mismatch"]),
    ("relations", "q_vector", q_bumped,
     ["relations", "--weight", "12"], ["emitted relations do not span Ker tA"]),
    ("relations", "stuffle", lambda u, v: NcPoly(),
     ["check", "--weight", "12", "--digits", "15"], ["no unique scalar"]),
    ("periodpoly", "kernel", lambda M: [[1, 2, 3, 4]],
     ["period-basis", "--weight", "12"], ["E_12 basis vector violates antisymmetry"]),
    ("periodpoly", "kernel", lambda M: [[1, 2, 3, 4]],
     ["relations", "--weight", "12", "--kind", "bracket"],
     ["E_12 basis vector violates antisymmetry"]),
    # the first basis element, ad_x^4(y), is no weight-5 solution
    ("lie", "kernel", lambda M: [[1] + [0] * (M.ncols - 1)],
     ["ds-solve", "--weight", "5"], ["ds_solve(5) returned f with (f | y * xxxy) != 0"]),
], ids=["symbolic", "block", "duality", "q_equals_DBa", "dims", "span_ker_tA", "scalar",
        "antisymmetry", "antisymmetry_bracket", "ds_certificate"])
def test_every_check_can_fire(capsys, monkeypatch, module, name, fake, argv, messages):
    monkeypatch.setattr(importlib.import_module(f"dshuffle.{module}"), name, fake)
    code, out, err = run(capsys, *argv)
    assert code == 1
    if argv[0] == "report":
        rep = json.loads(out)
        assert rep["all_ok"] is False
        assert rep["failures"] == messages
    else:
        assert out == ""
        [message] = messages
        assert err.startswith(f"error: {message}")


def test_check_failure_on_a_later_relation_leaves_stdout_empty(capsys, monkeypatch):
    # weight 24 has two relations: the first one's ok line must not be
    # printed when the second breaks an invariant
    calls = []

    def second_call_raises(rel):
        calls.append(rel)
        if len(calls) == 2:
            raise ConsistencyError("no unique scalar")
        return relations.gkz_scalar(rel)
    monkeypatch.setattr(numzeta, "gkz_scalar", second_call_raises)
    code, out, err = run(capsys, "check", "--weight", "24", "--digits", "15")
    assert len(calls) == 2
    assert code == 1
    assert out == ""
    assert err.startswith("error: no unique scalar")


def test_closed_pipe_ends_quietly():
    # tADB at weight 200 prints 1.3 MB, more than a pipe holds, so the
    # writer is still writing when the reader closes its end
    src = str(Path(dshuffle.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "dshuffle.cli", "matrix", "--which", "tADB", "--weight", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


def test_report_reads_D(capsys, monkeypatch):
    # report builds DB in ints from the entries of D, and one that wrote the
    # binomials C(k-2, 2i) in place of D would miss this change.  Not D_11:
    # row 0 of A12 equals row 0 of B, so scaling D_11 keeps tADB symmetric.
    def changed_D(k):
        rows = [list(r) for r in linalg.build_D(k).rows]
        rows[1][1] *= 2
        return Mat(rows)
    monkeypatch.setattr(relations, "build_D", changed_D)
    code, out, _ = run(capsys, *REPORT_12)
    assert code == 1
    assert "tADB not symmetric" in json.loads(out)["failures"]


def test_too_large_weight_is_rejected_before_eliminating_tA(capsys, monkeypatch):
    # a weight ek_basis rejects (k > 60) must be rejected before Ker tA is
    # taken, which runs for minutes at k = 500
    def no_kernel(M):
        raise AssertionError(f"kernel of a {M.nrows} x {M.ncols} matrix")
    monkeypatch.setattr(relations, "kernel", no_kernel)
    for argv in (["relations", "--weight", "62", "--kind", "zeta"],
                 ["check", "--weight", "62", "--digits", "30"],
                 ["report", "--from", "62", "--to", "62"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "4 <= k <= 60" in err


GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def spy_kernels(monkeypatch):
    """The rows of the matrices periodpoly and relations hand to kernel, in
    call order."""
    seen = {periodpoly: [], relations: []}
    for module, calls in seen.items():
        def spy(M, calls=calls):
            calls.append(M.rows)
            return linalg.kernel(M)
        monkeypatch.setattr(module, "kernel", spy)
    return seen


def run_golden(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert [hashlib.sha256(out.encode()).hexdigest(), code] == GOLDEN[" ".join(argv)]


def test_relations_solves_E_k_once(capsys, monkeypatch):
    # ihara_relations and gkz_relations read one solved basis
    seen = spy_kernels(monkeypatch)
    run_golden(capsys, "relations", "--weight", "16", "--format", "text")
    assert len(seen[periodpoly]) == 1


# report 12..40 has a recorded digest and includes weight 16
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_relations_and_report_share_each_E_k(capsys, monkeypatch, order):
    # every E_k is solved once per process, whichever command asks first;
    # each command still eliminates its own A and tA
    seen = spy_kernels(monkeypatch)
    argvs = [["relations", "--weight", "16", "--format", "text"],
             ["report", "--from", "12", "--to", "40"]]
    for i in order:
        run_golden(capsys, *argvs[i])
    weights = range(12, 41, 2)
    solved = seen[periodpoly]
    assert len({repr(rows) for rows in solved}) == len(solved) == len(weights)
    As = {k: linalg.build_A(k) for k in weights}
    expected = Counter(repr(M.rows) for A in As.values() for M in (A, A.transpose()))
    expected[repr(As[16].transpose().rows)] += 1
    assert Counter(map(repr, seen[relations])) == expected


@pytest.mark.parametrize("argv, scalar_systems", [
    (["check", "--weight", "40", "--digits", "15"], 3),
    (["relations", "--weight", "40", "--kind", "zeta"], 0),
    (["relations", "--weight", "40"], 0),
])
def test_gkz_side_eliminates_only_tA(capsys, monkeypatch, argv, scalar_systems):
    # Ker tA is the only kernel of A or tA the double zeta side reads; check
    # adds one scalar system of k - 1 rows per relation (dim E_40 = 3)
    seen = spy_kernels(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert len(seen[periodpoly]) == 1
    assert seen[relations][0] == linalg.build_A(40).transpose().rows
    assert [len(rows) for rows in seen[relations][1:]] == [39] * scalar_systems


def test_cached_bases_survive_every_reading_command(capsys):
    # callers get copies of the shared bases: after every command that reads
    # them, at every weight, each still equals a fresh solve
    weights = range(12, 61, 2)
    argvs = [["relations", "--weight", str(k), "--format", f]
             for k in weights for f in ("text", "json", "csv")]
    argvs += [["report", "--from", "12", "--to", "60"]]
    argvs += [[cmd, "--weight", str(k)] + extra for k in weights
              for cmd, extra in (("period-basis", []), ("check", ["--digits", "15"]))]
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0
    misses = periodpoly._solve_ek.cache_info().misses
    assert misses == len(weights)
    for k in weights:
        assert periodpoly._solve_ek(k) == periodpoly._solve_ek.__wrapped__(k)
    assert periodpoly._solve_ek.cache_info().misses == misses


def test_report_and_matrix_products_take_int_operands(capsys, monkeypatch):
    # Mat products are plain dot products, so a Fraction factor would make
    # Fraction sums; D enters report and tADB only as the int matrix L D B
    operands = []
    matmul, mul_vec = Mat.__matmul__, Mat.mul_vec

    def spy_matmul(self, other):
        operands.extend((self.rows, other.rows))
        return matmul(self, other)

    def spy_mul_vec(self, v):
        operands.extend((self.rows, [v]))
        return mul_vec(self, v)

    monkeypatch.setattr(Mat, "__matmul__", spy_matmul)
    monkeypatch.setattr(Mat, "mul_vec", spy_mul_vec)
    argvs = [["report", "--from", "12", "--to", "40"]]
    argvs += [["matrix", "--which", m, "--weight", str(k)]
              for k in range(12, 41, 2) for m in ("tADB", "M")]
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0
    assert operands
    assert all(type(c) is int for rows in operands for row in rows for c in row)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 15 ms of
    # start-up for every command
    src = str(Path(dshuffle.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import dshuffle.cli; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "dshuffle.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_parser_is_built_on_the_first_main_call_and_only_once():
    # one parser and its 8 subparsers per process, none at import, so an
    # in-process job pays only for its own work
    src = str(Path(dshuffle.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import argparse, contextlib, io, sys
        sys.path.insert(0, sys.argv[1])
        built = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        import dshuffle.cli
        print(len(built))
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [dshuffle.cli.main(["regularize", "--word", "yxy"]) for _ in range(2)]
        print(len(built), *codes)
    """)
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.splitlines() == ["0", "9 0 0"]


def test_shared_parser_carries_nothing_between_calls(capsys):
    # rejected argv first, then a command with non-default options, then the
    # defaults: each must print what a fresh parser prints
    golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())

    def matches(key, code, out):
        return [hashlib.sha256(out.encode()).hexdigest(), code] == golden[key]

    for argv in ([], ["relations", "--weight", "abc"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "regularize", "--word", "z")[:2] == (2, "")
    code, zeta_csv, _ = run(capsys, "relations", "--weight", "16", "--kind", "zeta",
                            "--format", "csv")
    assert code == 0
    assert matches("relations --weight 16 --format text",
                   *run(capsys, "relations", "--weight", "16")[:2])
    code, all_csv, _ = run(capsys, "relations", "--weight", "16", "--format", "csv")
    assert matches("relations --weight 16 --format csv", code, all_csv)
    lines = all_csv.splitlines()
    assert zeta_csv.splitlines() == lines[:1] + [x for x in lines if ",double_zeta," in x]


def package_imports():
    """(functions that import in their body, modules that import
    regularization, {module: the dshuffle modules its top imports})."""
    inside, importers, graph = set(), set(), {}
    for path in Path(dshuffle.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(fn)):
                    inside.add(f"{path.stem}.{fn.name}")
            if isinstance(fn, ast.ImportFrom) and "regularization" in (
                    fn.module, *(a.name for a in fn.names)):
                importers.add(path.stem)
        graph[path.stem] = {name for node in tree.body
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            for name in ([node.module] if node.module
                                         else [a.name for a in node.names])}
    return inside, importers, graph


def test_imports_sit_at_module_top_and_form_no_cycle():
    # a module-level binding is the one that monkeypatching and the
    # benchmark's tracer replace, so no function body imports.  The
    # module-top imports among dshuffle modules form no cycle, and linalg
    # builds on words alone.  And report, relations and check never call
    # into the regularization toolkit: only cli imports it
    inside, importers, graph = package_imports()
    assert inside == set()
    graphlib.TopologicalSorter(graph).prepare()   # raises CycleError on a cycle
    assert graph["linalg"] == {"words"}
    assert importers == {"cli"}


def test_importing_a_module_loads_only_its_import_closure():
    # the package __init__ imports nothing, so a fresh `import dshuffle.<m>`
    # loads the modules <m> reaches through its module-top imports and no
    # other, and mpmath only through relations
    _, _, graph = package_imports()
    src = str(Path(dshuffle.__file__).resolve().parents[1])
    code = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
            "importlib.import_module(sys.argv[2]); "
            "print(*[m for m in sys.modules if m.startswith('dshuffle') or m == 'mpmath'])")
    for stem in graph:
        closure, todo = set(), [stem]
        while todo:
            closure.add(module := todo.pop())
            todo += graph[module] - closure
        closure.discard("__init__")
        name = "dshuffle" if stem == "__init__" else f"dshuffle.{stem}"
        proc = subprocess.run([sys.executable, "-c", code, src, name], capture_output=True,
                              text=True, timeout=60, check=True)
        expected = {"dshuffle", *(f"dshuffle.{m}" for m in closure)}
        if "relations" in closure:
            expected.add("mpmath")
        assert set(proc.stdout.split()) == expected, stem


def cheap_argvs():
    """Command lines of every subcommand that run in well under a second,
    valid or not: no ds-solve 9..11, no fz-dim 8..10, no numeric check, and no
    weight near the matrix builders' cap of 200, where M, tADB and Asym
    take about 0.2-0.4 s."""
    def ints(lo, hi):
        return st.sampled_from(range(lo, hi + 1))   # uniform, unlike st.integers

    def matrix(m, k, f):
        return ["matrix", "--which", m, "--weight", str(k), "--format", f]

    def check(k, d):
        return ["check", "--weight", str(k), "--digits", str(d)]

    weights = ints(-2, 64)
    fmt = st.sampled_from(["text", "json", "csv"])
    # weights with no double zeta relation, or rejected before any numeric work
    no_numeric_work = st.sampled_from([k for k in range(-2, 65)
                                       if k < 12 or k % 2 or k == 14])
    return st.one_of(
        st.builds(lambda k, kind, f: ["relations", "--weight", str(k), "--kind", kind,
                                      "--format", f],
                  weights, st.sampled_from(["bracket", "zeta", "all"]), fmt),
        st.builds(lambda k: ["period-basis", "--weight", str(k)], weights),
        st.builds(matrix, st.sampled_from("ABDST"), weights, fmt),
        st.builds(matrix, st.sampled_from(["M", "tADB", "Asym"]), ints(-2, 44), fmt),
        st.builds(check, weights, ints(-5, 14) | ints(41, 60)),
        st.builds(check, no_numeric_work, ints(15, 40)),
        st.builds(lambda a, d: ["report", "--from", str(a), "--to", str(a + d)],
                  weights, ints(-4, 6)),
        st.builds(lambda n: ["ds-solve", "--weight", str(n)], ints(-2, 8) | ints(12, 64)),
        st.builds(lambda n: ["fz-dim", "--weight", str(n)], ints(-2, 7) | ints(11, 64)),
        st.builds(lambda w, star: ["regularize", "--word", w] + star,
                  st.text(alphabet="xy", max_size=8) | st.sampled_from(["z", "xyz", "1", " "])
                  | st.text(alphabet="xy", min_size=15, max_size=24),
                  st.sampled_from([[], ["--star"]])),
    )


@given(argv=cheap_argvs())
@settings(max_examples=250, deadline=None)
def test_exit_code_contract(argv):
    # Valid input exits 0 and bad input exits 2 before any output; exit 1
    # (a failed check or a broken invariant) and escaping exceptions are
    # defects.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
