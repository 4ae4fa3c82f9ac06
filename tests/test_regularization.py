import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (double_sum_regularize_oracle, fraction_rref,
                      fraction_stuffle_relation, poly_weight, shuffle_oracle,
                      star_unit_oracle, stuffle_oracle, words, y_words)
from dshuffle import regularization
from dshuffle.linalg import Mat
from dshuffle.regularization import (_relation_sums, _scaled_star, decompose,
                                     fz_quotient_dim, sh_basis_dim,
                                     shuffle_regularize, star_regularize,
                                     star_units, stuffle_relation, zeta_str)
from dshuffle.words import (NcPoly, _shuffle_words, _stuffle_words, is_convergent,
                            shuffle, shuffle_poly, stuffle, stuffle_pairs,
                            words_of_weight)


def Z(*parts):
    from dshuffle.words import word_of_composition
    return NcPoly.word(word_of_composition(parts))


def test_combo_arithmetic():
    a = Z(2) + Z(3).scale(2)
    b = a - Z(2)
    assert b == Z(3).scale(2)
    assert not a - a
    assert NcPoly.word("").coeff("") == 1


def test_combo_shuffle_product():
    # Z(2) Z(2) = Z(xy sh xy) = 2 Z(2,2) + 4 Z(3,1)
    prod = shuffle_poly(Z(2), Z(2))
    assert prod == Z(2, 2).scale(2) + Z(3, 1).scale(4)
    assert shuffle_poly(NcPoly.word(""), Z(2)) == Z(2)


def test_decompose():
    assert decompose("yyxyxx") == (2, "xy", 2)
    assert decompose("xy") == (0, "xy", 0)
    assert decompose("yyy") == (3, "", 0)
    assert decompose("xx") == (0, "", 2)


def test_regularize_letters_vanish():
    assert not shuffle_regularize("x")
    assert not shuffle_regularize("y")


def test_regularize_empty_word_is_unit():
    # regularization is an algebra map, so Z(empty) = 1
    assert shuffle_regularize("") == NcPoly.word("")


def test_regularize_convergent_identity():
    for n in range(2, 7):
        for w in words_of_weight(n):
            if is_convergent(w):
                assert shuffle_regularize(w) == NcPoly.word(w)


def test_shuffle_regularize_matches_double_sum_through_length_11():
    # the one-sided formulas against the double sum they replaced, from cold
    # caches, on every word of at most 11 letters
    shuffle_regularize.cache_clear()
    for n in range(12):
        for w in words_of_weight(n):
            assert shuffle_regularize(w).terms == double_sum_regularize_oracle(w), w


def test_shuffle_regularize_takes_no_bilinear_shuffle(monkeypatch):
    # regularize without --star must not slip back to the double sum, whose
    # terms shuffle_poly multiplied out
    def spy(f, g):
        raise AssertionError("shuffle_regularize called shuffle_poly")

    monkeypatch.setattr(regularization, "shuffle_poly", spy)
    shuffle_regularize.cache_clear()
    for n in range(10):
        for w in words_of_weight(n):
            shuffle_regularize(w)


def test_regularize_goldens():
    # Z(yxy) = -2 Z(2,1)
    assert shuffle_regularize("yxy") == Z(2, 1).scale(-2)
    # Z(xyx) = -2 Z(3) + ... check exact value against the shuffle identity
    # x sh xy = 2xxy + xyx  =>  Z(xyx) = Z(x)Z(xy) - 2Z(xxy) = -2 Z(3)
    assert shuffle_regularize("xyx") == Z(3).scale(-2)


@given(y_words(max_size=6))
@settings(max_examples=60)
def test_regularization_is_shuffle_homomorphic(w):
    # Z(y sh w) = Z(y) Z(w) = 0 after regularization
    from dshuffle.words import shuffle
    combo = NcPoly()
    for t, c in shuffle("y", w).terms.items():
        combo = combo + shuffle_regularize(t).scale(c)
    assert not combo


def test_regularization_kills_x_shuffles_too():
    from dshuffle.words import shuffle
    for n in range(2, 6):
        for w in words_of_weight(n):
            combo = NcPoly()
            for t, c in shuffle("x", w).terms.items():
                combo = combo + shuffle_regularize(t).scale(c)
            assert not combo


def test_star_units_low_weight():
    # F_r = r! Z*(1^r)
    units = star_units(4)
    assert units[0] == NcPoly.word("")
    assert not units[1]                 # Z*(1) = Z(y) = 0
    assert units[2] == Z(2).scale(-1)   # Z*(1,1) = -Z(2)/2
    assert units[3] == Z(3).scale(2)    # Z*(1,1,1) = Z(3)/3


def test_star_units_match_exponential_expansion():
    assert list(star_units(14)) == [star_unit_oracle(N).scale(math.factorial(N))
                                    for N in range(15)]


def y_words_up_to(n):
    return [w for k in range(1, n + 1) for w in words_of_weight(k) if w.endswith("y")]


def test_star_regularize_matches_fraction_mixing_sum():
    """Z*(y^m v) = sum_r Z*(1^r) Z(y^(m-r) v) summed in Fractions, with the
    star units expanded from the exponential series and multiplied by the
    positions formula, against the int path; and each scaled star is in
    lowest terms."""
    units = [star_unit_oracle(N) for N in range(11)]
    for w in y_words_up_to(10):
        m = len(w) - len(w.lstrip("y"))
        out: dict = {}
        for r in range(m + 1):
            for u, a in units[r].terms.items():
                for v, b in shuffle_regularize(w[r:]).terms.items():
                    for t, c in shuffle_oracle(u, v).items():
                        out[t] = out.get(t, 0) + a * b * c
        assert star_regularize(w) == NcPoly(out), w
        z, d = _scaled_star(w)
        assert math.gcd(d, *z.terms.values()) == 1, w


def test_star_values_are_held_in_ints():
    # a Fraction anywhere in the star path would show here
    scaled = [_scaled_star(w)[0] for w in y_words_up_to(10)]
    for f in (*star_units(14), *scaled):
        assert {type(c) for c in f.terms.values()} <= {int}, f


def test_star_regularize_cases():
    assert star_regularize("xy") == Z(2)
    assert star_regularize("yy") == Z(2).scale(Fraction(-1, 2))
    # Z*(1, 2) = Z*(1,1) trick: Z*(y xy) = Z*(1)Z(yxy)... use the mixing sum
    combo = star_regularize("yxy")
    # Z*(1,2) = Z(1,2)_sh + Z*(1) Z(2) = -2 Z(2,1)
    assert combo == Z(2, 1).scale(-2)
    with pytest.raises(ValueError):
        star_regularize("yx")


def test_euler_relation_from_stuffle():
    # Z(1)* Z(2)* - Z*(1 * 2) gives Z(2,1) = Z(3)
    rel = stuffle_relation("y", "xy")
    assert rel == Z(2, 1) - Z(3) or rel == Z(3) - Z(2, 1) or not rel
    assert rel  # it is a nontrivial relation
    # normalize sign via the Z(3) coefficient
    c3 = rel.coeff("xxy")
    assert rel.scale(Fraction(1) / c3) == Z(3) - Z(2, 1)


def test_weight4_relations_give_z31():
    # the weight-4 quotient is 1-dimensional: Z(4) = 4 Z(3,1), Z(2,2) = 3/4 Z(4)
    dim, basis = fz_quotient_dim(4)
    assert dim == 1
    rows = {str(rel) for rel in basis}
    # Z(3,1) is pinned to Z(4)/4 in the reduced basis
    from dshuffle.words import word_of_composition
    target = {word_of_composition((4,)): Fraction(-4), word_of_composition((3, 1)): 1}
    assert any(rel == NcPoly({w: c for w, c in target.items()})
               or rel == NcPoly({w: -c for w, c in target.items()})
               or rel.coeff("xxyy") for rel in basis)


def test_fz_quotient_dims():
    assert [fz_quotient_dim(n)[0] for n in range(2, 6)] == [1, 1, 1, 2]


def test_fz_quotient_dims_are_zagier_dn():
    """d_n, the coefficients of 1/(1 - x^2 - x^3), at n = 6 .. 10."""
    assert [fz_quotient_dim(n)[0] for n in range(6, 11)] == [2, 3, 4, 5, 7]


def test_sh_basis_dims_power_of_two():
    for n in range(2, 9):
        assert sh_basis_dim(n) == 2 ** (n - 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_stuffle_relation_matches_fraction_oracle(n):
    for u, v in stuffle_pairs(n):
        rel, oracle = stuffle_relation(u, v), fraction_stuffle_relation(u, v)
        assert rel == oracle
        assert zeta_str(rel) == zeta_str(oracle)


@pytest.mark.parametrize("k", range(4, 61, 2))
def test_stuffle_relation_of_depth_one_words_is_shuffle_less_stuffle(k):
    # every word of the shuffle and the stuffle of x^(r-1)y and x^(k-r-1)y
    # is convergent, so neither regularization moves it: relations.gkz_scalar
    # builds its double shuffle columns on this, up to weight 60
    for r in range(2, k // 2 + 1):
        u, v = "x" * (r - 1) + "y", "x" * (k - r - 1) + "y"
        assert stuffle_relation(u, v) == shuffle(u, v) - stuffle(u, v)


@pytest.mark.parametrize("n", range(2, 8))
def test_sh_basis_dim_rank_matches_natural_column_order(n):
    # the rows w - reg(w) over the words in canonical order, as one matrix
    # whose elimination fills in: the exact elimination meets the oracle on
    # it, and the identity-first columns give the same rank
    ws = words_of_weight(n)
    rows = [[int(t == w) - shuffle_regularize(w).coeff(t) for t in ws]
            for w in ws if not is_convergent(w)]
    red, pivots = Mat(rows).rref()
    assert (red.rows, pivots) == fraction_rref(rows)
    assert Mat(rows).rank() == len(pivots)
    assert sh_basis_dim(n) == len(ws) - len(pivots)


def spied_fz_rows(monkeypatch, n):
    """The rows fz_quotient_dim(n) hands to Mat."""
    seen = []

    def spy(rows):
        seen.extend(rows)
        return Mat(rows)

    monkeypatch.setattr(regularization, "Mat", spy)
    fz_quotient_dim(n)
    return seen


@pytest.mark.parametrize("n", range(2, 11))
def test_fz_rows_are_finite_double_shuffle_and_hoffman(monkeypatch, n):
    # one row reg(u sh v - u * v) per pair with v convergent and u convergent
    # or y, in stuffle_pairs order, built from the oracles alone; no nonzero
    # row of that family is dropped and none is added
    symbols = [w for w in words_of_weight(n) if is_convergent(w)]
    want = []
    for u, v in stuffle_pairs(n):
        if not is_convergent(v) or not (u == "y" or is_convergent(u)):
            continue
        row = Counter()
        for prod, sign in ((shuffle_oracle(u, v), 1), (stuffle_oracle(u, v), -1)):
            for t, c in prod.items():
                for w, d in double_sum_regularize_oracle(t).items():
                    row[w] += sign * c * d
        assert not row[""]
        if any(row.values()):
            want.append([row[w] for w in symbols])
    assert spied_fz_rows(monkeypatch, n) == want


@pytest.mark.parametrize("n", range(2, 11))
def test_weight_relations_are_multiples_of_stuffle_relations(monkeypatch, n):
    # _relation_sums is the star relation stuffle_relation times its
    # denominator, and the star relations over all of stuffle_pairs(n) have
    # the same rref as fz_quotient_dim's smaller family: its oracle
    sums = []
    for u, v in stuffle_pairs(n):
        s, den = _relation_sums(u, v)
        assert NcPoly(s) == stuffle_relation(u, v).scale(den)
        sums.append(s)
    symbols = [w for w in words_of_weight(n) if is_convergent(w)]
    star_rows = [[s.get(w, 0) for w in symbols] for s in sums if s]

    def reduced(rows):
        red, pivots = Mat(rows).rref()
        return red.rows[: len(pivots)], pivots

    assert reduced(spied_fz_rows(monkeypatch, n)) == reduced(star_rows)


def test_fz_quotient_dim_hands_mat_only_ints(monkeypatch):
    # kernel then has no denominator to clear from the relation rows
    seen = []

    def spy(rows):
        seen.extend(rows)
        return Mat(rows)

    monkeypatch.setattr(regularization, "Mat", spy)
    for n in range(2, 10):
        fz_quotient_dim(n)
    assert seen
    assert all(type(c) is int for row in seen for c in row)


def test_weight_relations_homogeneous():
    for u, v in stuffle_pairs(4):
        sums, _ = _relation_sums(u, v)
        assert "" not in sums
        if sums:
            assert poly_weight(NcPoly(sums)) == 4


def test_range_guards():
    with pytest.raises(ValueError):
        fz_quotient_dim(11)
    with pytest.raises(ValueError):
        sh_basis_dim(1)


def test_star_regularize_reads_only_leading_units():
    # Z*(y v) = E_0 Z(y v) + E_1 Z(v) with E_1 = 0: a 13-letter word needs
    # only the first two star units
    w = "y" + "x" * 11 + "y"
    assert star_regularize(w) == shuffle_regularize(w)


def test_str():
    assert zeta_str(Z(2, 1) - Z(3)) == "-Z(3) + Z(2, 1)"
    assert zeta_str(NcPoly()) == "0"


def test_str_unit_and_scalar():
    assert zeta_str(NcPoly.word("") - Z(2).scale(3)) == "1 - 3 Z(2)"
    assert (zeta_str(NcPoly({"": Fraction(-2, 3)}) + Z(3, 1).scale(Fraction(1, 2)))
            == "-2/3 + 1/2 Z(3, 1)")


def test_cached_values_survive_accumulation():
    # Accumulating sums must never write into a cached result.
    fz_quotient_dim(6)
    ys = [w for n in range(1, 7) for w in words_of_weight(n) if w.endswith("y")]
    ws = [w for n in range(7) for w in words_of_weight(n)]
    cached = [shuffle_regularize(w) for w in ws], star_units(6)
    shuffle_regularize.cache_clear()
    star_units.cache_clear()
    assert cached == ([shuffle_regularize(w) for w in ws], star_units(6))
    scaled_stars = [_scaled_star(w) for w in ys]
    _scaled_star.cache_clear()
    assert scaled_stars == [_scaled_star(w) for w in ys]
    shuffles = [(u, v) for u in ws for v in ws if len(u) + len(v) <= 6]
    stuffles = [(u, v) for u in ys for v in ys if len(u) + len(v) <= 6]
    products = [_shuffle_words(*p) for p in shuffles], [_stuffle_words(*p) for p in stuffles]
    _shuffle_words.cache_clear()
    _stuffle_words.cache_clear()
    assert products == ([_shuffle_words(*p) for p in shuffles],
                        [_stuffle_words(*p) for p in stuffles])


def test_str_rejects_non_convergent_symbols():
    with pytest.raises(ValueError):
        zeta_str(NcPoly.word("yx"))


@given(words(max_size=8), y_words(max_size=8), y_words(max_size=4),
       y_words(max_size=4), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_values_are_on_convergent_or_empty_words(w, y, u, v, n):
    """Every combination of Z symbols the package computes lies on
    convergent words and the empty word (the unit): NcPoly itself accepts
    any word, so this is the only check of it."""
    values = [shuffle_regularize(w), star_regularize(y), stuffle_relation(u, v),
              *(NcPoly(_relation_sums(*p)[0]) for p in stuffle_pairs(n))]
    for f in values:
        assert all(not t or is_convergent(t) for t in f.terms), zeta_str(f)


def test_shuffle_regularize_is_on_convergent_or_empty_words_through_weight_9():
    # exhaustive: with no projection, only the one-sided formulas, the x side
    # stepping onto the y side, keep non-convergent words out
    for n in range(10):
        for w in words_of_weight(n):
            assert all(not t or is_convergent(t) for t in shuffle_regularize(w).terms), w
