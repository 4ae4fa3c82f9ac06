"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
"ACCEPT <name>: PASS" line on success (pytest -s / -v shows them);
a failure raises before the line is printed.
"""

import time
from fractions import Fraction

import mpmath as mp

from conftest import rref_rank
from dshuffle.lie import (admissible_stuffle_pairs, ds_check, ds_solve,
                          lie_basis, poisson)
from dshuffle.linalg import (Mat, block_check, build_A, build_A_symbolic,
                             build_B, build_D, conjugate_M, kernel,
                             normalize_vector, same_span, symmetry_product)
from dshuffle.numzeta import verify_relation
from dshuffle.periodpoly import a_vector, ek_basis, ek_dim_formula, q_vector
from dshuffle.regularization import (sh_basis_dim, shuffle_regularize,
                                     weight_relations)
from dshuffle.relations import gkz_relations, ihara_relations
from dshuffle.words import pair, stuffle

A12_PRINTED = Mat([
    [1, 6, 15, 28],
    [0, 1, 15, 42],
    [0, 0, -14, -42],
    [0, -6, -15, -27],
])

M12_PRINTED = Mat([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [-28, -21, -27, -9],
    [-42, -15, -42, -14],
])

TADB12_PRINTED = Mat([[Fraction(c, 630) for c in row] for row in [
    [14, 84, 210, 392],
    [84, 507, 1305, 2478],
    [210, 1305, 3783, 7644],
    [392, 2478, 7644, 15890],
]])

EVEN_WEIGHTS = list(range(12, 42, 2))


def _announce(name):
    print(f"ACCEPT {name}: PASS")


def test_criterion_01_golden_matrices():
    start = time.monotonic()
    assert build_A(12) == A12_PRINTED
    assert conjugate_M(12) == M12_PRINTED
    assert time.monotonic() - start < 1.0
    _announce("golden matrices A(12), T^-1 A T(12)")


def test_criterion_02_golden_kernels():
    assert kernel(build_A(12)) == [[1, -3, 3, -1]]
    # the published generator (0, 168, 150, 28) has content 2; compare
    # canonical form to canonical form
    published = normalize_vector([0, 168, 150, 28])
    assert kernel(build_A(12).transpose()) == [published]
    assert published == [0, 84, 75, 14]
    _announce("golden kernels of A(12) and tA(12)")


def test_criterion_03_symmetry_product():
    start = time.monotonic()
    assert symmetry_product(12) == TADB12_PRINTED
    for k in EVEN_WEIGHTS:
        assert symmetry_product(k).is_symmetric()
    assert time.monotonic() - start < 10.0
    _announce("tADB golden at 12 and symmetric for 12..40")


def test_criterion_04_symbolic_equals_closed_form():
    start = time.monotonic()
    for k in range(12, 32, 2):
        assert build_A_symbolic(k) == build_A(k)
    assert time.monotonic() - start < 60.0
    _announce("symbolic A = closed-form A for 12..30")


def test_criterion_05_dimension_sweep():
    for k in EVEN_WEIGHTS:
        expected = (k - 4) // 4 - (k - 2) // 6
        assert ek_dim_formula(k) == expected
        assert len(kernel(build_A(k))) == expected
        assert len(ek_basis(k)) == expected
    _announce("kernel/period-basis dimensions match formula for 12..40")


def test_criterion_06_block_structure():
    for k in EVEN_WEIGHTS:
        assert block_check(conjugate_M(k), k)
    _announce("block structure of T^-1 A T for 12..40")


def test_criterion_07_duality():
    for k in EVEN_WEIGHTS:
        DB = build_D(k) @ build_B(k)
        image = [normalize_vector(DB.mul_vec(v)) for v in kernel(build_A(k))]
        assert same_span(image, kernel(build_A(k).transpose()))
        for P in ek_basis(k):
            assert list(q_vector(P)) == DB.mul_vec(a_vector(P))
    _announce("Ker tA = DB Ker A and q = DB a for 12..40")


def test_criterion_08_golden_relations():
    assert ihara_relations(12)[0].terms == (((3, 9), 1), ((5, 7), -3))
    assert ihara_relations(16)[0].terms == (
        ((3, 13), 2), ((5, 11), -7), ((7, 9), 11))
    assert gkz_relations(12)[0].terms == (
        ((9, 3), 28), ((7, 5), 150), ((5, 7), 168), ((3, 9), 0))
    _announce("golden bracket relations (12, 16) and double zeta relation (12)")


def test_criterion_09_numeric_weight12():
    start = time.monotonic()
    rel = gkz_relations(12)[0]
    residual, scalar = verify_relation(rel, 30)
    assert scalar == Fraction(5197, 691)
    with mp.workdps(45):
        # residual is relative to zeta(12); zeta(12) > 1, so the absolute
        # combination residual is below the same bound
        assert residual < mp.mpf(10) ** -20
    assert time.monotonic() - start < 10.0
    _announce("numeric: 28 Z(9,3)+150 Z(7,5)+168 Z(5,7) = (5197/691) Z(12)")


def test_criterion_10_regularization():
    assert not shuffle_regularize("x")
    assert not shuffle_regularize("y")
    # Euler: Z(2,1) - Z(3) lies in the span of the weight-3 stuffle relations
    rels = weight_relations(3)
    symbols = ["xxy", "xyy"]  # Z(3), Z(2,1)
    rows = [[rel.coeff(w) for w in symbols] for rel in rels]
    euler = [Fraction(-1), Fraction(1)]
    assert rref_rank(rows) == rref_rank(rows + [euler])
    for n in range(2, 9):
        assert sh_basis_dim(n) == 2 ** (n - 2)
    _announce("regularization: Z(x)=Z(y)=0, Euler relation, 2^(n-2) dims")


def test_criterion_11_ds_closure():
    start = time.monotonic()
    dims = {}
    for n in range(3, 8):
        sols = ds_solve(n)
        dims[n] = len(sols)
        # independent oracle: plain dense elimination on the raw constraints
        basis = lie_basis(n)
        rows = [[pair(b, stuffle(u, v)) for b in basis]
                for u, v in admissible_stuffle_pairs(n)]
        assert len(sols) == len(basis) - rref_rank(rows)
    assert dims == {3: 1, 4: 0, 5: 1, 6: 0, 7: 1}
    f3, f5 = ds_solve(3)[0], ds_solve(5)[0]
    assert ds_check(poisson(f3, f5)) == []
    assert time.monotonic() - start < 30.0
    _announce("ds solver dims (1,0,1,0,1) vs oracle; {f3, f5} closes")
