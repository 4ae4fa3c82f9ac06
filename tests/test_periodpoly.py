from fractions import Fraction

import pytest

from conftest import satisfies_period_equations
from dshuffle.linalg import build_A, build_B, build_D, kernel
from dshuffle.periodpoly import ek_basis, ek_dim_formula, period_str, q_vector


def is_antisymmetric(p):
    """p_2i = -p_(k-2-2i) for all i."""
    return all(p[i] == -p[-1 - i] for i in range(len(p)))


def test_dim_formula_table():
    # first nonzero dimension at 12, then 16, 18, 20, 22; two at 24 is false:
    # dims are 1,0,1,1,1,1,2 for k = 12..24
    assert [ek_dim_formula(k) for k in range(12, 26, 2)] == [1, 0, 1, 1, 1, 1, 2]
    assert ek_dim_formula(4) == 0
    with pytest.raises(ValueError):
        ek_dim_formula(13)


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_ek_basis_is_empty_below_12(k):
    # at k = 4 the matrix has no rows and no columns, and kernel gives []
    assert ek_basis(k) == []


def test_weight12_basis_golden():
    basis = ek_basis(12)
    assert len(basis) == 1
    assert basis == [[1, -3, 3, -1]]
    assert period_str(basis[0]) == "-(X^8 - X^2) + 3(X^6 - X^4)"


def test_weight16_basis_golden():
    basis = ek_basis(16)
    assert len(basis) == 1
    assert basis[0][:3] == [2, -7, 11]


def test_weight14_empty():
    assert ek_basis(14) == []


def test_basis_satisfies_functional_equations():
    for k in range(12, 30, 2):
        for p in ek_basis(k):
            assert is_antisymmetric(p)
            assert satisfies_period_equations(p)
            assert p[0] == 0 or p[0] > 0
            assert all(c.denominator == 1 for c in p)


def test_non_solution_fails_functional_equations():
    p = [1, 0, 0, -1]
    assert is_antisymmetric(p)
    assert not satisfies_period_equations(p)
    q = [1, 2, 3, 4]
    assert not is_antisymmetric(q)
    assert not satisfies_period_equations(q)


def test_basis_is_kernel_of_A():
    # at every weight ek_basis takes, as the report compares them
    for k in range(12, 61, 2):
        assert ek_basis(k) == kernel(build_A(k))


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
        for p in ek_basis(k):
            assert list(q_vector(p)) == DB.mul_vec(p)


def test_str_zero():
    assert period_str([0, 0, 0, 0]) == "0"


def test_basis_coefficients_are_ints():
    assert all(type(c) is int for c in ek_basis(12)[0])
