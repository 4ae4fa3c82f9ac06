import json
from collections import Counter
from fractions import Fraction

import jsonschema
import mpmath as mp
import pytest

from dshuffle import linalg, relations
from dshuffle.linalg import Mat, build_A, kernel, normalize_vector, same_span
from dshuffle.numzeta import verify_relation
from dshuffle.lie import ds_solve
from dshuffle.periodpoly import _solve_ek, ek_basis, ek_dim_formula, q_vector
from dshuffle.regularization import fz_quotient_dim, sh_basis_dim
from dshuffle.relations import (Relation, correspondence_report,
                                gkz_relations, gkz_scalar, ihara_relations)
from dshuffle.words import ConsistencyError

RELATION_SCHEMA = {
    "type": "object",
    "required": ["weight", "kind", "terms", "scalar_estimate"],
    "properties": {
        "weight": {"type": "integer"},
        "kind": {"enum": ["bracket", "double_zeta"]},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["r", "s", "coeff"],
                "properties": {
                    "r": {"type": "integer"},
                    "s": {"type": "integer"},
                    "coeff": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                },
            },
        },
        "scalar_estimate": {"type": "null"},
    },
}


def test_ihara_weight12_golden():
    rels = ihara_relations(12)
    assert len(rels) == 1
    rel = rels[0]
    assert rel.terms == (((3, 9), 1), ((5, 7), -3))
    assert str(rel) == "{f3, f9} - 3 {f5, f7} ≡ 0 (mod depth 3)"


def test_ihara_weight16_golden():
    rels = ihara_relations(16)
    assert len(rels) == 1
    assert rels[0].terms == (((3, 13), 2), ((5, 11), -7), ((7, 9), 11))
    assert str(rels[0]) == "2 {f3, f13} - 7 {f5, f11} + 11 {f7, f9} ≡ 0 (mod depth 3)"


def test_ihara_weight14_empty():
    assert ihara_relations(14) == []


def test_gkz_weight12_golden():
    rels = gkz_relations(12)
    assert len(rels) == 1
    rel = rels[0]
    assert rel.terms == (((9, 3), 28), ((7, 5), 150), ((5, 7), 168), ((3, 9), 0))
    assert str(rel) == "28 Z(9,3) + 150 Z(7,5) + 168 Z(5,7) ≡ 0 (mod Z(12))"


def test_gkz_vectors_lie_in_ker_tA_and_span_it():
    for k in range(12, 26, 2):
        rels = gkz_relations(k)
        At = build_A(k).transpose()
        ker = kernel(At)
        assert len(rels) == len(ker)
        vecs = []
        for rel in rels:
            # rebuild the q-vector in ascending-r order
            by_r = {r: c for (r, s), c in rel.terms}
            v = [by_r[2 * j + 1] for j in range(1, len(by_r) + 1)]
            assert all(c == 0 for c in At.mul_vec(v))
            vecs.append(v)
        if vecs:
            assert same_span(vecs, ker)


def test_normalized_q_vectors_never_end_negative():
    # gkz_relations flips no sign to keep the Z(k-3, 3) coefficient from
    # being negative: normalize_vector already does.  It is 0 for 37 of the
    # 61 vectors, the first at k = 24, and positive for the rest.
    ends = [normalize_vector(q_vector(p))[-1] for k in range(12, 61, 2) for p in ek_basis(k)]
    assert min(ends) == 0
    assert sum(c > 0 for c in ends) == 24


@pytest.mark.parametrize("k", range(12, 42, 2))
def test_gkz_scalar_of_sum_formula_is_one(k):
    # sum_{r=2..k-1} Z(r, k-r) = Z(k) is none of the rows; c is unique only
    # if Z(k) itself is not a relation, which c = 1 shows: were Z(k) in the
    # rows' span, so would be this relation, and c would be free.  The zero
    # relation holds whatever the space, so it is rejected
    terms = tuple(((r, k - r), 1) for r in range(2, k))
    assert gkz_scalar(Relation(k, "double_zeta", terms)) == 1
    with pytest.raises(ValueError, match="no nonzero term"):
        gkz_scalar(Relation(k, "double_zeta", (((k - 3, 3), 0),)))


@pytest.mark.parametrize("k", [12, 16, 28, 40])
def test_gkz_scalar_rejects_a_single_double_zeta(k):
    with pytest.raises(ConsistencyError):
        gkz_scalar(Relation(k, "double_zeta", (((k - 3, 3), 1),)))


@pytest.fixture
def no_formal_space(monkeypatch):
    def forbidden(*args):
        raise AssertionError("built the formal space for a rejected relation")
    for name in ("shuffle", "stuffle", "kernel"):
        monkeypatch.setattr(relations, name, forbidden)


# malformed terms of a weight-12 relation, each with its error and message
MALFORMED_TERMS = {
    (((9, 4), 1),): (ValueError, "weight 12"),                 # weight 13
    (((9, 3), 1), ((1, 11), 1)): (ValueError, "weight 12"),    # Z(1, 11) diverges
    (((12, 0), 1),): (ValueError, "weight 12"),                # not a double zeta
    (((9, 3), 1), ((9.5, 2.5), 1)): (ValueError, "admissible composition"),
    (((7, 5), 1), ((9, 3), 0.5)): (TypeError, "not a rational scalar: 0.5"),
    # terms that sum to 0 hold in any formal space, so their scalar shows nothing
    (): (ValueError, "no nonzero term"),
    (((9, 3), 0),): (ValueError, "no nonzero term"),
    (((9, 3), 1), ((7, 5), 0), ((9, 3), -1)): (ValueError, "no nonzero term"),
}


@pytest.mark.parametrize("terms", MALFORMED_TERMS)
def test_gkz_scalar_rejects_terms_off_weight_before_building(no_formal_space, terms):
    error, match = MALFORMED_TERMS[terms]
    with pytest.raises(error, match=match):
        gkz_scalar(Relation(12, "double_zeta", terms))


def test_gkz_scalar_rejects_an_odd_or_non_int_weight_before_building(no_formal_space):
    # B_13 = 0, and the Euler column divides by B_k
    for k, s in ((13, 4), (12.0, 3), ("12", 3)):
        with pytest.raises(ValueError, match=f"even int weight {k!r}"):
            gkz_scalar(Relation(k, "double_zeta", (((9, s), 1),)))


def test_gkz_scalar_rejects_a_bracket_relation_before_building(no_formal_space):
    # its terms read as Z(r, s) of weight k, so the formal space was built
    # before a ConsistencyError, the error the CLI reports as a defect
    with pytest.raises(ValueError, match="not a relation among Z"):
        gkz_scalar(ihara_relations(12)[0])


def test_gkz_scalar_sums_a_repeated_term():
    # every term listed twice is the relation doubled, as verify_relation
    # reads it by summing every term
    rel = gkz_relations(12)[0]
    assert gkz_scalar(rel) == Fraction(5197, 691)
    twice = Relation(12, "double_zeta", rel.terms * 2)
    assert gkz_scalar(twice) == Fraction(10394, 691)
    assert verify_relation(twice, 30)[0] < mp.mpf(10) ** -30


def test_relation_counts_match_dimension():
    from dshuffle.periodpoly import ek_dim_formula
    for k in range(12, 32, 2):
        assert len(ihara_relations(k)) == ek_dim_formula(k)
        assert len(gkz_relations(k)) == ek_dim_formula(k)


def test_relation_json_schema():
    for rel in ihara_relations(12) + gkz_relations(12) + gkz_relations(24):
        doc = json.loads(json.dumps(rel.to_dict()))
        jsonschema.validate(doc, RELATION_SCHEMA)


def test_report_weight12_all_ok():
    rep = correspondence_report(12)
    assert rep["all_ok"]
    assert rep["dim_formula"] == rep["dim_ek"] == rep["dim_ker_A"] == rep["dim_ker_tA"] == 1
    assert rep["symbolic_agrees"] is True
    assert rep["symmetry_ok"] and rep["block_ok"] and rep["duality_span_ok"]
    assert rep["q_equals_DBa"]
    assert rep["ker_A"] == [["1", "-3", "3", "-1"]]
    assert rep["failures"] == []


def test_report_checks_ker_A_is_a_of_basis(monkeypatch):
    # right dimension, wrong space: caught only by comparing the vectors
    monkeypatch.setattr(relations, "ek_basis", lambda k: [[1, 0, 0, -1]])
    rep = correspondence_report(12)
    assert rep["dims_agree"]
    assert not rep["all_ok"]
    assert "Ker A != a(E_k)" in rep["failures"]


def test_report_builds_each_matrix_once(monkeypatch):
    calls = Counter()
    for name in ("build_A", "build_D", "build_B"):
        def spy(k, name=name, original=getattr(linalg, name)):
            calls[name] += 1
            return original(k)
        monkeypatch.setattr(linalg, name, spy)
        monkeypatch.setattr(relations, name, spy)
    assert correspondence_report(24)["all_ok"]
    # one A for the report, one inside conjugate_M
    assert calls["build_A"] <= 2
    assert calls["build_D"] == calls["build_B"] == 1


def test_report_checks_symmetry(monkeypatch):
    def skewed_B(k):
        rows = [list(r) for r in linalg.build_B(k).rows]
        rows[0][1] += 1
        return Mat(rows)
    monkeypatch.setattr(relations, "build_B", skewed_B)
    rep = correspondence_report(12)
    assert not rep["symmetry_ok"]
    assert "tADB not symmetric" in rep["failures"]


def test_report_weight14_zero_dimensional():
    rep = correspondence_report(14)
    assert rep["all_ok"]
    assert rep["dim_ek"] == 0


def test_report_dict_round_trips_through_json():
    doc = correspondence_report(16)
    again = json.loads(json.dumps(doc))
    assert again["weight"] == 16
    assert again["all_ok"] is True
    assert again["ker_A"] == [["2", "-7", "11", "-11", "7", "-2"]]


def test_report_symbolic_skipped_above_30():
    rep = correspondence_report(32)
    assert rep["symbolic_agrees"] is None
    assert rep["all_ok"]


def test_report_weight_guard(monkeypatch):
    with pytest.raises(ValueError):
        correspondence_report(10)
    with pytest.raises(ValueError):
        correspondence_report(13)
    # ek_basis runs first, so a weight above its 60 is rejected before A
    # (248 x 248 at weight 500) is built or any kernel taken
    def forbidden(*args):
        raise AssertionError("built a matrix for a weight the report rejects")
    for name in ("build_A", "kernel"):
        monkeypatch.setattr(relations, name, forbidden)
    for k in (62, 500):
        with pytest.raises(ValueError, match="k <= 60"):
            correspondence_report(k)


# the calls whose size is n: an int n in range and its range's message
N_RANGES = {ds_solve: (9, "3 <= n <= 10"), fz_quotient_dim: (4, "2 <= n <= 10"),
            sh_basis_dim: (4, "2 <= n <= 8")}


@pytest.mark.parametrize("weight", [12.0, "12"])
@pytest.mark.parametrize("call", [ek_basis, ihara_relations, gkz_relations,
                                  correspondence_report, build_A, ek_dim_formula,
                                  *N_RANGES])
def test_non_int_weight_is_rejected(call, weight):
    # the weight is checked before the cached solve, which positional and
    # keyword calls reach alike: 12.0 == 12 would read the k = 12 entry
    assert ek_basis(12) == ek_basis(k=12) == [[1, -3, 3, -1]]
    key, match = "k", "weight must be even"
    if call in N_RANGES:
        n, match = N_RANGES[call]
        key, weight = "n", type(weight)(n)  # 9.0 or "9" for ds_solve
    for args, kwargs in (((weight,), {}), ((), {key: weight})):
        with pytest.raises(ValueError, match=match):
            call(*args, **kwargs)
    assert _solve_ek.cache_info().currsize == 1


def test_a_changed_basis_changes_nothing_later():
    # every caller gets its own lists, so a library caller that edits one
    # leaves the shared basis, the relations and the report as they were
    def results():
        return ([str(r) for r in ihara_relations(16) + gkz_relations(16)],
                correspondence_report(16))
    before = results()
    basis = ek_basis(16)
    basis[0][0] = 5
    basis.append([0] * 6)
    assert ek_basis(16) == [[2, -7, 11, -11, 7, -2]]
    assert results() == before
    assert before[1]["all_ok"]
