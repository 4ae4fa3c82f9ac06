from fractions import Fraction

import pytest

from conftest import satisfies_period_equations
from dshuffle.linalg import build_B, build_D
from dshuffle.periodpoly import PeriodPoly, a_vector, ek_basis, ek_dim_formula, q_vector


def test_dim_formula_table():
    # first nonzero dimension at 12, then 16, 18, 20, 22; two at 24 is false:
    # dims are 1,0,1,1,1,1,2 for k = 12..24
    assert [ek_dim_formula(k) for k in range(12, 26, 2)] == [1, 0, 1, 1, 1, 1, 2]
    assert ek_dim_formula(4) == 0
    with pytest.raises(ValueError):
        ek_dim_formula(13)


def test_weight12_basis_golden():
    basis = ek_basis(12)
    assert len(basis) == 1
    P = basis[0]
    assert P.coeffs == (1, -3, 3, -1)
    assert str(P) == "-(X^8 - X^2) + 3(X^6 - X^4)"


def test_weight16_basis_golden():
    basis = ek_basis(16)
    assert len(basis) == 1
    assert a_vector(basis[0])[:3] == [2, -7, 11]


def test_weight14_empty():
    assert ek_basis(14) == []


def test_basis_satisfies_functional_equations():
    for k in range(12, 30, 2):
        for P in ek_basis(k):
            assert P.is_antisymmetric()
            assert satisfies_period_equations(P)
            assert P.coeffs[0] == 0 or P.coeffs[0] > 0
            assert all(c.denominator == 1 for c in P.coeffs)


def test_non_solution_fails_functional_equations():
    P = PeriodPoly(12, (1, 0, 0, -1))
    assert P.is_antisymmetric()
    assert not satisfies_period_equations(P)
    Q = PeriodPoly(12, (1, 2, 3, 4))
    assert not Q.is_antisymmetric()
    assert not satisfies_period_equations(Q)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PeriodPoly(11, (1,))
    with pytest.raises(ValueError):
        PeriodPoly(12, (1, 2, 3))


def test_a_vector_requires_antisymmetry():
    with pytest.raises(ValueError):
        a_vector(PeriodPoly(12, (1, 2, 3, 4)))
    assert a_vector(ek_basis(12)[0]) == [1, -3, 3, -1]


def test_q_vector_weight12():
    q = q_vector(ek_basis(12)[0])
    # q = DB a exactly
    DB = build_D(12) @ build_B(12)
    assert list(q) == DB.mul_vec([1, -3, 3, -1])
    # primitive integer form of q is (0, 84, 75, 14) up to sign
    from dshuffle.linalg import normalize_vector
    assert normalize_vector(q) in ([0, 84, 75, 14], [0, -84, -75, -14])
    # entry j is q_(2j+1, k-2j-1): the relation pairs each entry with it
    from dshuffle.relations import gkz_relations
    terms = sorted(gkz_relations(12)[0].terms)
    assert [p for p, _ in terms] == [(3, 9), (5, 7), (7, 5), (9, 3)]
    assert [c for _, c in terms] == [2 * c for c in normalize_vector(q)]


def test_q_equals_DB_a_sweep():
    for k in range(12, 32, 2):
        DB = build_D(k) @ build_B(k)
        for P in ek_basis(k):
            assert list(q_vector(P)) == DB.mul_vec(a_vector(P))


def test_str_zero():
    assert str(PeriodPoly(12, (0, 0, 0, 0))) == "0"


def test_basis_coefficients_are_ints():
    assert all(type(c) is int for c in ek_basis(12)[0].coeffs)
