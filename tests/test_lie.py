import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (ds_check, dynkin, homogeneous_polys, is_lie, necklace_count,
                      poly_weight, rref_rank)
from dshuffle.lie import (admissible_stuffle_pairs, ds_solve, lie_basis, lyndon_bracket,
                          lyndon_words, poisson)
from dshuffle.words import (NcPoly, ad_x_pow, bracket, derivation_apply, odot, pair,
                            stuffle)

X = NcPoly.word("x")
Y = NcPoly.word("y")


def test_bracket_basics():
    assert bracket(X, Y) == NcPoly({"xy": 1, "yx": -1})
    assert bracket(X, X) == NcPoly()


@given(homogeneous_polys(2), homogeneous_polys(2), homogeneous_polys(3))
@settings(max_examples=40)
def test_jacobi_identity(f, g, h):
    total = (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f))
             + bracket(h, bracket(f, g)))
    assert total == NcPoly()


@given(homogeneous_polys(2), homogeneous_polys(3))
@settings(max_examples=40)
def test_bracket_antisymmetric(f, g):
    assert bracket(f, g) == -bracket(g, f)


def test_ad_x_pow_closed_form():
    # ad_x^n(y) expands with alternating binomial coefficients
    assert ad_x_pow(0) == Y
    assert ad_x_pow(1) == bracket(X, Y)
    assert ad_x_pow(2) == NcPoly({"xxy": 1, "xyx": -2, "yxx": 1})
    f = Y
    for n in range(1, 7):
        f = bracket(X, f)
        assert f == ad_x_pow(n)
        assert ad_x_pow(n).coeff("x" * (n - 1) + "yx") == -n


def test_ad_x_pow_guard():
    # n is an int, as every size guard takes it, so 2.0 is a ValueError
    for n in (-1, 2.0, "2"):
        with pytest.raises(ValueError, match="nonnegative int"):
            ad_x_pow(n)


def test_dynkin_and_is_lie():
    assert dynkin(NcPoly.word("xy")) == bracket(X, Y)
    assert is_lie(bracket(X, Y))
    assert is_lie(ad_x_pow(5))
    assert not is_lie(NcPoly.word("xy"))
    assert not is_lie(NcPoly.word("xyx"))
    assert is_lie(NcPoly())
    with pytest.raises(ValueError):
        dynkin(NcPoly.word(""))


@given(homogeneous_polys(3), homogeneous_polys(4))
@settings(max_examples=30)
def test_bracket_of_lie_is_lie(f, g):
    # project onto Lie elements via Dynkin first
    lf, lg = dynkin(f), dynkin(g)
    assert is_lie(bracket(lf, lg))


def test_derivation_leibniz():
    f = ad_x_pow(2)
    g = NcPoly.word("xy")
    h = NcPoly.word("yxx")
    from dshuffle.words import concat
    lhs = derivation_apply(f, concat(g, h))
    rhs = concat(derivation_apply(f, g), h) + concat(g, derivation_apply(f, h))
    assert lhs == rhs


def test_derivation_on_generators():
    f = ad_x_pow(2)
    assert derivation_apply(f, X) == NcPoly()
    assert derivation_apply(f, Y) == bracket(Y, f)


def test_poisson_weight2_example():
    # {x, y} = [x, y] + D_x(y) - D_y(x) = [x, y] + [y, x] - 0 = 0
    assert poisson(X, Y) == NcPoly()


@given(homogeneous_polys(2, max_terms=2), homogeneous_polys(3, max_terms=2))
@settings(max_examples=25)
def test_poisson_antisymmetric(f, g):
    assert poisson(f, g) == -poisson(g, f)


def test_odot_decomposition():
    f = ad_x_pow(2)
    g = ad_x_pow(4)
    from dshuffle.words import concat
    assert odot(f, g) == concat(f, g) + derivation_apply(f, g)


def test_lyndon_words_small():
    assert lyndon_words(1) == ["x", "y"]
    assert lyndon_words(2) == ["xy"]
    assert sorted(lyndon_words(3)) == ["xxy", "xyy"]
    assert sorted(lyndon_words(4)) == ["xxxy", "xxyy", "xyyy"]


def test_lyndon_counts_match_necklace_formula():
    for n in range(1, 13):
        ws = lyndon_words(n)
        assert len(ws) == necklace_count(n)
        # the ds_solve basis, and so its recorded digests, follow this order
        assert ws == sorted(ws)
        assert len(set(ws)) == len(ws)
        for w in ws:
            # Lyndon: strictly smaller than all proper rotations
            assert all(w < w[i:] + w[:i] for i in range(1, len(w)))


def test_lyndon_bracket_is_lie_and_leading_term():
    for n in range(2, 8):
        for w in lyndon_words(n):
            b = lyndon_bracket(w)
            assert is_lie(b)
            assert b.coeff(w) == 1


def test_lie_basis_independent():
    for n in range(2, 8):
        basis = lie_basis(n)
        from dshuffle.words import words_of_weight
        all_words = words_of_weight(n)
        rows = [[b.coeff(w) for w in all_words] for b in basis]
        assert rref_rank(rows) == necklace_count(n) == len(basis)


def test_admissible_pairs_weight4():
    pairs = admissible_stuffle_pairs(4)
    assert ("y", "xxy") in pairs
    assert ("xy", "xy") in pairs
    assert ("y", "yyy") not in pairs  # both plain y-powers
    assert all(u.endswith("y") and v.endswith("y") for u, v in pairs)


def test_ds_check_weight3_element():
    f3 = ds_solve(3)[0]
    assert ds_check(f3) == []
    assert ds_check(NcPoly.word("xxy")) != []


def test_ds_solve_weight3_closed_form():
    sols = ds_solve(3)
    assert len(sols) == 1
    f = sols[0]
    expected = ad_x_pow(2) - bracket(Y, bracket(X, Y))
    assert f == expected


def test_ds_solve_dimensions():
    assert [len(ds_solve(n)) for n in range(3, 8)] == [1, 0, 1, 0, 1]


def test_ds_solve_dimensions_independent_oracle():
    # re-derive the dimension by plain elimination on the full constraint
    # matrix, bypassing the package's kernel routine
    for n in range(3, 9):
        basis = lie_basis(n)
        rows = [[pair(b, stuffle(u, v)) for b in basis]
                for u, v in admissible_stuffle_pairs(n)]
        expected = len(basis) - rref_rank(rows)
        assert len(ds_solve(n)) == expected


def test_ds_solve_rows_are_the_pairings(monkeypatch):
    # rows are paired only where supports meet; they must still be the full
    # matrix (b | u * v), and kernel must see exactly that matrix
    from dshuffle import lie
    seen = []
    real_kernel = lie.kernel

    def kernel_spy(m):
        seen.append([list(r) for r in m.rows])
        return real_kernel(m)

    monkeypatch.setattr(lie, "kernel", kernel_spy)
    for n in range(3, 10):
        seen.clear()
        ds_solve(n)
        basis = lie_basis(n)
        assert seen == [[[pair(b, stuffle(u, v)) for b in basis]
                         for u, v in admissible_stuffle_pairs(n)]]
    # pair stays the one pairing: perfbench's
    # test_traced_counts_repeat_with_the_seed asserts words.pair.calls > 0
    # on solver_sweep, so the rows must not be built without it
    calls = 0

    def counting_pair(f, g):
        nonlocal calls
        calls += 1
        return pair(f, g)

    monkeypatch.setattr(lie, "pair", counting_pair)
    ds_solve(9)
    assert 0 < calls < len(admissible_stuffle_pairs(9)) * len(lie_basis(9))


def test_poisson_of_solutions_stays_in_ds():
    f3 = ds_solve(3)[0]
    f5 = ds_solve(5)[0]
    g = poisson(f3, f5)
    assert poly_weight(g) == 8
    assert ds_check(g) == []


def test_ds_solve_range_guard():
    with pytest.raises(ValueError):
        ds_solve(2)
    with pytest.raises(ValueError):
        ds_solve(11)


def test_cached_brackets_survive_solver():
    # Accumulating sums must never write into a cached Lyndon bracket.
    for n in range(3, 8):
        ds_solve(n)
    ws = [w for n in range(1, 8) for w in lyndon_words(n)]
    cached = [lyndon_bracket(w) for w in ws]
    lyndon_bracket.cache_clear()
    assert cached == [lyndon_bracket(w) for w in ws]


def test_lie_basis_has_int_coefficients():
    assert all(type(c) is int for b in lie_basis(5) for c in b.terms.values())
