from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fraction_inverse, fraction_kernel, fraction_matmul,
                      fraction_rref, rationals, rref_rank)
from dshuffle import linalg, periodpoly, relations
from dshuffle.lie import ds_solve
from dshuffle.linalg import (Mat, block_check, build_A, build_A_symbolic,
                             build_B, build_D, build_S, build_T, conjugate_M,
                             kernel, normalize_vector, same_span,
                             symmetry_product)
from dshuffle.periodpoly import ek_basis
from dshuffle.regularization import fz_quotient_dim, sh_basis_dim
from dshuffle.relations import correspondence_report, gkz_relations, gkz_scalar

A12 = Mat([
    [1, 6, 15, 28],
    [0, 1, 15, 42],
    [0, 0, -14, -42],
    [0, -6, -15, -27],
])

M12 = Mat([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [-28, -21, -27, -9],
    [-42, -15, -42, -14],
])

TADB12 = Mat([[Fraction(c, 630) for c in row] for row in [
    [14, 84, 210, 392],
    [84, 507, 1305, 2478],
    [210, 1305, 3783, 7644],
    [392, 2478, 7644, 15890],
]])


def _mats(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(rationals(), min_size=n, max_size=n),
                           min_size=1, max_size=4).map(Mat))


def test_rref_and_rank():
    M = Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = M.rref()
    assert pivots == [0, 1]
    assert M.rank() == 2
    assert red.rows[2] == [0, 0, 0]


def test_rref_and_rank_read_the_kernel(monkeypatch):
    # rref takes the kernel of M, rank that of whichever of M and M^t has
    # fewer columns
    shapes = []

    def spy(M):
        shapes.append((M.nrows, M.ncols))
        return kernel(M)

    monkeypatch.setattr(linalg, "kernel", spy)
    wide = Mat([[1, 2, 3, 4], [0, 1, 1, 1]])
    assert wide.rank() == wide.transpose().rank() == 2
    assert wide.rref()[1] == [0, 1]
    assert shapes == [(4, 2), (4, 2), (2, 4)]


@given(_mats())
@settings(max_examples=40)
def test_rank_matches_plain_elimination(M):
    assert M.rank() == rref_rank(M.rows)


@st.composite
def _rational_rows(draw, min_rows=1, max_dim=6):
    """Up to max_dim x max_dim, tall, square or wide, mixing int and Fraction
    entries (Fraction(n, 1) among them), zero rows, unit rows (one nonzero
    entry), duplicate rows and rows that are combinations of earlier ones."""
    nr, nc = draw(st.integers(min_rows, max_dim)), draw(st.integers(1, max_dim))
    entries = st.one_of(st.just(0), st.integers(-9, 9), rationals(),
                        st.integers(-9, 9).map(lambda n: Fraction(n, 1)))
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["random", "zero", "unit", "duplicate", "combination"]))
        if kind == "zero":
            rows.append([0] * nc)
        elif kind == "unit":
            row = [0] * nc
            row[draw(st.integers(0, nc - 1))] = draw(entries.filter(bool))
            rows.append(row)
        elif kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(rationals()), draw(rationals())
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(entries, min_size=nc, max_size=nc)))
    return rows


@given(_rational_rows())
@settings(max_examples=300, deadline=None)
def test_rref_matches_fraction_oracle(rows):
    red, pivots = Mat(rows).rref()
    assert (red.rows, pivots) == fraction_rref(rows)


@given(_rational_rows(), st.data())
@settings(max_examples=200, deadline=None)
def test_rref_is_row_order_invariant(rows, data):
    # rref works row by row, so its intermediate basis depends on the row
    # order; the reduced form of the row space must not.
    shuffled = data.draw(st.permutations(rows))
    red, pivots = Mat(shuffled).rref()
    assert (red.rows, pivots) == fraction_rref(rows)


@pytest.mark.parametrize("solve, n", [(fz_quotient_dim, 7), (sh_basis_dim, 6)])
def test_rref_matches_fraction_oracle_on_solver_matrices(monkeypatch, solve, n):
    # fz_quotient_dim asks for an rref of a tall matrix and sh_basis_dim for
    # the rank of a wide one, read off the kernel of its transpose; ds_solve
    # asks for a kernel, checked on the real traffic below
    rref, rank = Mat.rref, Mat.rank
    seen = []

    def spy(method):
        def spied(M):
            seen.append(M.rows)
            return method(M)
        return spied

    monkeypatch.setattr(Mat, "rref", spy(rref))
    monkeypatch.setattr(Mat, "rank", spy(rank))
    solve(n)
    assert seen
    for rows in seen:
        red, pivots = rref(Mat(rows))
        assert (red.rows, pivots) == fraction_rref(rows)
        assert rank(Mat(rows)) == rref_rank(rows)


@given(_rational_rows(min_rows=0, max_dim=8), st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_oracle(rows, data):
    # kernel cuts the identity row by row, so its intermediate basis depends
    # on the row order; the canonical basis it returns must not
    expected = fraction_kernel(rows)
    assert kernel(Mat(rows)) == expected
    assert kernel(Mat(data.draw(st.permutations(rows)))) == expected


def test_kernel_of_empty_and_zero_matrices():
    assert kernel(Mat([])) == fraction_kernel([]) == []
    assert kernel(Mat([[0, 0, 0]] * 2)) == fraction_kernel([[0, 0, 0]] * 2) == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _gkz_scalars(k):
    for rel in gkz_relations(k):
        gkz_scalar(rel)


@pytest.mark.parametrize("call, arg", [
    (ds_solve, 7), (ds_solve, 8), (ds_solve, 9),
    (ek_basis, 12), (ek_basis, 40), (ek_basis, 60),
    (correspondence_report, 12), (correspondence_report, 24), (correspondence_report, 40),
    (_gkz_scalars, 16),
], ids=lambda p: getattr(p, "__name__", str(p)).lstrip("_"))
def test_kernel_matches_fraction_oracle_on_real_traffic(monkeypatch, call, arg):
    # every kernel the solver, the period basis, the report and the exact
    # scalars ask for; ds_solve imports kernel from linalg when called
    seen = []

    def spy(M):
        seen.append((M.rows, kernel(M)))
        return seen[-1][1]

    for module in (linalg, relations, periodpoly):
        monkeypatch.setattr(module, "kernel", spy)
    call(arg)
    assert seen
    for rows, ker in seen:
        assert ker == fraction_kernel(rows)


def _mixed_rows(nrows, ncols):
    """Rows of ints, Fractions with denominators 1..9 and Fraction(n, 1),
    some of them zero rows."""
    entry = st.one_of(st.integers(min_value=-9, max_value=9), rationals(),
                      st.integers(min_value=-9, max_value=9).map(lambda n: Fraction(n, 1)))
    row = st.one_of(st.lists(entry, min_size=ncols, max_size=ncols), st.just([0] * ncols))
    return st.lists(row, min_size=nrows, max_size=nrows)


_dim = st.integers(min_value=1, max_value=6)


@settings(max_examples=200, deadline=None)
@given(st.tuples(_dim, _dim, _dim).flatmap(
    lambda s: st.tuples(_mixed_rows(s[0], s[1]), _mixed_rows(s[1], s[2]))))
def test_matmul_matches_fraction_oracle(factors):
    a, b = factors
    expected = fraction_matmul(a, b)
    assert (Mat(a) @ Mat(b)).rows == expected
    for j, col in enumerate(zip(*b)):
        assert Mat(a).mul_vec(col) == [row[j] for row in expected]


def test_correspondence_products_match_fraction_oracle():
    for k in range(12, 61, 2):
        A, B, D, T = build_A(k), build_B(k), build_D(k), build_T(k)
        tA = A.transpose().rows
        cols = list(zip(*T.rows))
        # conjugate_M inverts T by its orthogonal columns
        assert all(sum(map(mul, s, t)) == 0 for i, s in enumerate(cols) for t in cols[:i])
        assert conjugate_M(k).rows == fraction_matmul(
            fraction_matmul(fraction_inverse(T.rows), A.rows), T.rows)
        assert symmetry_product(k).rows == fraction_matmul(fraction_matmul(tA, D.rows), B.rows)
        assert (D @ B).rows == fraction_matmul(D.rows, B.rows)


def test_matmul_dimension_guard():
    M = Mat([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        M @ M


def test_rank_clears_mixed_denominators():
    assert Mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]).rank() == 1


def test_inverse_roundtrip():
    M = Mat([[2, 1], [7, 4]])
    assert M @ M.inverse() == Mat.identity(2)
    assert M.inverse() @ M == Mat.identity(2)
    T = build_T(18)
    assert T.inverse().rows == fraction_inverse(T.rows)
    with pytest.raises(ValueError):
        Mat([[1, 1], [1, 1]]).inverse()


def test_normalize_vector():
    assert normalize_vector([Fraction(1, 2), Fraction(-3, 4)]) == [2, -3]
    assert normalize_vector([0, -4, 6]) == [0, 2, -3]
    assert normalize_vector([0, 0]) == [0, 0]
    assert normalize_vector([Fraction(-2, 7)]) == [1]


def test_kernel_canonical_and_annihilating():
    M = Mat([[1, 2, 3], [2, 4, 6]])
    ker = kernel(M)
    assert len(ker) == 2
    for v in ker:
        assert M.mul_vec(v) == [0, 0]
        nz = [c for c in v if c]
        assert nz[0] > 0
        assert all(c.denominator == 1 for c in v)


@given(_mats())
@settings(max_examples=40)
def test_rank_nullity(M):
    assert M.rank() + len(kernel(M)) == M.ncols


def test_same_span():
    assert same_span([[1, 0], [0, 1]], [[1, 1], [1, -1]])
    assert not same_span([[1, 0]], [[0, 1]])
    assert not same_span([[1, 0]], [[1, 0], [0, 1]])
    assert same_span([], [])
    assert not same_span([], [[1, 0]])


def test_A_weight12_golden():
    assert build_A(12) == A12


def test_A_symbolic_matches_closed_form():
    for k in range(12, 41, 2):
        assert build_A_symbolic(k) == build_A(k)


def test_ker_A12_golden():
    assert kernel(build_A(12)) == [[1, -3, 3, -1]]


def test_ker_tA12_golden():
    # canonical (content 1) representative of the printed generator
    assert kernel(build_A(12).transpose()) == [[0, 84, 75, 14]]


def test_M_weight12_golden_and_blocks():
    M = conjugate_M(12)
    assert M == M12
    assert block_check(M, 12)
    for k in range(12, 26, 2):
        assert block_check(conjugate_M(k), k)


@pytest.mark.parametrize("k", range(12, 42, 2))
def test_block_check_rejects_any_changed_top_entry(k):
    M = conjugate_M(k)
    assert block_check(M, k)
    for i in range((k - 2) // 4):
        for j in range(M.ncols):
            rows = [list(row) for row in M.rows]
            rows[i][j] += 1
            assert not block_check(Mat(rows), k)


def test_S_is_involution_and_T_diagonalizes_it():
    for k in (12, 14, 16, 18):
        S = build_S(k)
        n = S.nrows
        assert S @ S == Mat.identity(n)
        T = build_T(k)
        D = fraction_matmul(fraction_matmul(fraction_inverse(T.rows), S.rows), T.rows)
        neg = (k - 4) // 4 + (1 if k % 4 == 2 else 0)
        diag = [-1] * neg + [1] * (n - neg)
        assert D == [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_tADB_weight12_golden_and_symmetric():
    P = symmetry_product(12)
    assert P == TADB12
    for k in range(12, 32, 2):
        assert symmetry_product(k).is_symmetric()


def test_tADB_kernel_matches_ker_A():
    for k in (12, 16, 18):
        assert same_span(kernel(symmetry_product(k)), kernel(build_A(k)))


def test_duality_ker_tA_equals_DB_ker_A():
    for k in range(12, 26, 2):
        DB = build_D(k) @ build_B(k)
        lhs = kernel(build_A(k).transpose())
        rhs = [normalize_vector(DB.mul_vec(v)) for v in kernel(build_A(k))]
        assert same_span(lhs, rhs)


def test_D_and_B_definitions():
    D = build_D(12)
    assert D.rows[0][0] == Fraction(1, 45)   # 1 / C(10, 2)
    assert D.rows[3][3] == Fraction(1, 45)   # 1 / C(10, 8)
    B = build_B(12)
    assert B.rows[0][1] == 6                 # C(4, 2)
    assert B.rows[1][0] == 0                 # C(2, 4)


def test_weight_guard():
    for bad in (11, 10, 13):
        with pytest.raises(ValueError):
            build_A(bad)
    with pytest.raises(ValueError):
        build_A_symbolic(13)


def test_serialization():
    M = Mat([[1, Fraction(-1, 2)], [0, 3]])
    assert M.to_csv() == "1,-1/2\n0,3"
    assert M.to_json() == '[["1", "-1/2"], ["0", "3"]]'
    assert str(M).splitlines()[0].startswith("[")


def test_integral_matrices_and_kernels_hold_ints():
    for M in (build_A(12), build_B(12), build_T(14)):
        assert all(type(c) is int for row in M.rows for c in row)
    assert all(type(c) is int for c in kernel(build_A(12))[0])


def test_int_products_hold_ints():
    A, B = build_A(12), build_B(12)
    assert all(type(c) is int for row in (A @ B).rows for c in row)
    assert all(type(c) is int for c in A.mul_vec([1, -3, 3, -1]))
