import json
from collections import Counter
from fractions import Fraction

import jsonschema
import pytest

from dshuffle import linalg, relations
from dshuffle.linalg import Mat, build_A, kernel, same_span
from dshuffle.periodpoly import PeriodPoly
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
        "scalar_estimate": {
            "type": ["string", "null"],
            "pattern": r"^-?\d+(/\d+)?$",
        },
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


@pytest.mark.parametrize("k", range(12, 42, 2))
def test_gkz_scalar_of_sum_formula_is_one(k):
    # sum_{r=2..k-1} Z(r, k-r) = Z(k) is none of the rows; c is unique only
    # if Z(k) itself is not a relation, which the zero relation's 0 shows
    terms = tuple(((r, k - r), 1) for r in range(2, k))
    assert gkz_scalar(Relation(k, "double_zeta", terms)) == 1
    assert gkz_scalar(Relation(k, "double_zeta", (((k - 3, 3), 0),))) == 0


@pytest.mark.parametrize("k", [12, 16, 28, 40])
def test_gkz_scalar_rejects_a_single_double_zeta(k):
    with pytest.raises(ConsistencyError):
        gkz_scalar(Relation(k, "double_zeta", (((k - 3, 3), 1),)))


@pytest.mark.parametrize("terms", [
    (((9, 4), 1),),                      # weight 13 in a weight-12 relation
    (((9, 3), 1), ((1, 11), 1)),         # Z(1, 11) diverges
    (((12, 0), 1),),                     # not a double zeta
])
def test_gkz_scalar_rejects_terms_off_weight_before_building(monkeypatch, terms):
    def forbidden(*args):
        raise AssertionError("built the formal space for a malformed relation")
    monkeypatch.setattr(relations, "stuffle_relation", forbidden)
    monkeypatch.setattr(relations, "kernel", forbidden)
    with pytest.raises(ValueError, match="weight 12"):
        gkz_scalar(Relation(12, "double_zeta", terms))


def test_relation_counts_match_dimension():
    from dshuffle.periodpoly import ek_dim_formula
    for k in range(12, 32, 2):
        assert len(ihara_relations(k)) == ek_dim_formula(k)
        assert len(gkz_relations(k)) == ek_dim_formula(k)


def test_relation_json_schema():
    for rel in ihara_relations(12) + gkz_relations(12) + gkz_relations(24):
        doc = json.loads(json.dumps(rel.to_dict()))
        jsonschema.validate(doc, RELATION_SCHEMA)


def test_relation_with_scalar_estimate_serializes():
    rel = Relation(weight=12, kind="double_zeta",
                   terms=(((9, 3), Fraction(28)),),
                   scalar_estimate=Fraction(5197, 691))
    doc = rel.to_dict()
    assert doc["scalar_estimate"] == "5197/691"
    jsonschema.validate(doc, RELATION_SCHEMA)


def test_relation_coefficients_helper():
    rel = gkz_relations(12)[0]
    assert rel.coefficients() == [28, 150, 168, 0]


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
    monkeypatch.setattr(relations, "ek_basis", lambda k: [PeriodPoly(12, (1, 0, 0, -1))])
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


def test_report_weight_guard():
    with pytest.raises(ValueError):
        correspondence_report(10)
    with pytest.raises(ValueError):
        correspondence_report(13)
