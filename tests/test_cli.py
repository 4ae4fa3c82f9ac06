import contextlib
import importlib
import io
import json

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dshuffle import numzeta
from dshuffle.cli import main
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
    exact = numzeta.zeta_double
    monkeypatch.setattr(numzeta, "zeta_double",
                        lambda r, s, digits: exact(r, s, digits) + mp.mpf(10) ** -25)
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


def test_star_regularize_y13_exit_2(capsys):
    code, out, err = run(capsys, "regularize", "--word", "y" * 13, "--star")
    assert code == 2
    assert out == ""
    assert "star units are truncated at weight 12" in err


@pytest.mark.parametrize("start, stop", [("38", "44"), ("20", "12")])
def test_report_bad_range_exit_2(capsys, start, stop):
    code, out, err = run(capsys, "report", "--from", start, "--to", stop)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("module, name, fake, argv", [
    ("relations", "same_span", lambda vs, ws: False, ["relations", "--weight", "12"]),
    ("periodpoly", "ek_dim_formula", lambda k: -1, ["period-basis", "--weight", "12"]),
    ("regularization", "weight_relations", lambda n: [NcPoly.one()],
     ["fz-dim", "--weight", "4"]),
])
def test_consistency_failure_exit_1(capsys, monkeypatch, module, name, fake, argv):
    monkeypatch.setattr(importlib.import_module(f"dshuffle.{module}"), name, fake)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert not issubclass(ConsistencyError, ValueError)


def cheap_argvs():
    """Command lines of every subcommand that run in well under a second,
    valid or not: no ds-solve 9/10, no fz-dim 8..10, no numeric check, and no
    large weight for the matrix builders that have no upper cap."""
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
        st.builds(lambda n: ["ds-solve", "--weight", str(n)], ints(-2, 8) | ints(11, 64)),
        st.builds(lambda n: ["fz-dim", "--weight", str(n)], ints(-2, 7) | ints(11, 64)),
        st.builds(lambda w, star: ["regularize", "--word", w] + star,
                  st.text(alphabet="xy", max_size=8) | st.sampled_from(["z", "xyz", "1", " "]),
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
