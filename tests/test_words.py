import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nc_polys, rationals, words, y_words
from dshuffle.words import (NcPoly, composition_of_word, concat,
                            format_rational, is_convergent, pair, scaled,
                            shuffle, shuffle_poly, stuffle,
                            word_of_composition, words_of_weight)


def test_coeff_lookup():
    f = NcPoly({"xy": 1, "yx": 2})
    assert f.coeff("yx") == 2
    assert f.coeff("xx") == 0
    assert NcPoly.zero().coeff("xyx") == 0


def test_coeff_ad_x_squared():
    # [x, [x, y]] = xxy - 2xyx + yxx, expanded by hand
    from dshuffle.lie import ad_x_pow
    assert ad_x_pow(2).coeff("xyx") == -2


def test_pair_right_linear():
    f = NcPoly({"xy": 1, "yx": 2})
    g = NcPoly({"xy": Fraction(1, 2), "yx": 3, "xx": 7})
    assert pair(f, g) == Fraction(1, 2) + 6


def test_shuffle_examples():
    assert shuffle("x", "y") == NcPoly({"xy": 1, "yx": 1})
    assert shuffle("xxy", "") == NcPoly.word("xxy")
    assert shuffle("", "") == NcPoly.one()
    assert shuffle("y", "xy") == NcPoly({"yxy": 1, "xyy": 2})


@given(words(max_size=4), words(max_size=4))
def test_shuffle_commutative_and_mass(u, v):
    s = shuffle(u, v)
    assert s == shuffle(v, u)
    assert sum(s.terms.values()) == math.comb(len(u) + len(v), len(u))
    assert all(len(w) == len(u) + len(v) for w in s.terms)


def test_shuffle_commutative_exhaustive_weight8():
    for a in range(0, 5):
        for b in range(a, 9 - a):
            for u in words_of_weight(a):
                for v in words_of_weight(b):
                    assert shuffle(u, v) == shuffle(v, u)


@given(words(max_size=3), words(max_size=3), words(max_size=3))
@settings(max_examples=60)
def test_shuffle_associative(u, v, w):
    lhs = shuffle_poly(shuffle(u, v), NcPoly.word(w))
    rhs = shuffle_poly(NcPoly.word(u), shuffle(v, w))
    assert lhs == rhs


def test_shuffle_associative_exhaustive_weight6():
    for a in range(0, 3):
        for b in range(0, 3):
            for c in range(0, 7 - a - b):
                for u in words_of_weight(a):
                    for v in words_of_weight(b):
                        for w in words_of_weight(c):
                            lhs = shuffle_poly(shuffle(u, v), NcPoly.word(w))
                            rhs = shuffle_poly(NcPoly.word(u), shuffle(v, w))
                            assert lhs == rhs


def test_stuffle_examples():
    assert stuffle("y", "y") == NcPoly({"yy": 2, "xy": 1})
    assert stuffle("y", "xy") == NcPoly({"yxy": 1, "xyy": 1, "xxy": 1})


def test_stuffle_rejects_bad_words():
    with pytest.raises(ValueError):
        stuffle("yx", "y")
    with pytest.raises(ValueError):
        stuffle("y", "")


@given(y_words(), y_words())
def test_stuffle_commutative(u, v):
    assert stuffle(u, v) == stuffle(v, u)
    assert all(w.endswith("y") for w in stuffle(u, v).terms)


def test_stuffle_commutative_exhaustive_weight8():
    for a in range(1, 5):
        for b in range(a, 9 - a):
            for u in words_of_weight(a):
                if not u.endswith("y"):
                    continue
                for v in words_of_weight(b):
                    if not v.endswith("y"):
                        continue
                    assert stuffle(u, v) == stuffle(v, u)


def _stuffle_poly(f, g):
    out = NcPoly.zero()
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            out = out + stuffle(u, v).scale(a * b)
    return out


def test_stuffle_associative_exhaustive_weight8():
    ys = {n: [w for w in words_of_weight(n) if w.endswith("y")] for n in range(1, 7)}
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 9 - a - b):
                for u in ys[a]:
                    for v in ys[b]:
                        for w in ys[c]:
                            lhs = _stuffle_poly(stuffle(u, v), NcPoly.word(w))
                            rhs = _stuffle_poly(NcPoly.word(u), stuffle(v, w))
                            assert lhs == rhs


def test_concat():
    assert concat(NcPoly.word("x"), NcPoly.word("y")) == NcPoly.word("xy")
    f = NcPoly({"xy": 1, "yx": 1})
    assert concat(f, NcPoly.one()) == f
    assert concat(f, NcPoly.word("y")) == NcPoly({"xyy": 1, "yxy": 1})


def depth(f):
    """Least number of y's in a word of f; inf for the zero polynomial."""
    return min((w.count("y") for w in f.terms), default=math.inf)


@given(nc_polys(), nc_polys())
@settings(max_examples=50)
def test_concat_depth_additive(f, g):
    if not f or not g:
        assert not concat(f, g)
        return
    # depth additivity needs homogeneity in depth of lowest terms; check
    # the inequality form that holds in general, and equality on words
    assert not concat(f, g) or depth(concat(f, g)) >= depth(f) + depth(g)


def test_depth_additive_on_monomials():
    f = NcPoly.word("xyx")
    g = NcPoly.word("yy")
    assert depth(concat(f, g)) == depth(f) + depth(g) == 3


def test_composition_dictionary():
    assert word_of_composition((2,)) == "xy"
    assert composition_of_word("xy") == (2,)
    assert word_of_composition((3, 9)) == "xxy" + "x" * 8 + "y"
    assert word_of_composition((9, 3)) == "x" * 8 + "y" + "xxy"
    with pytest.raises(ValueError):
        composition_of_word("yxy")
    with pytest.raises(ValueError):
        word_of_composition((1, 2))


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
def test_composition_roundtrip(parts):
    parts[0] = max(parts[0], 2)
    if sum(parts) > 12:
        parts = parts[:1]
    c = tuple(parts)
    assert composition_of_word(word_of_composition(c)) == c


def test_printing():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-5, 7)) == "-5/7"
    assert str(NcPoly({"xy": 1, "yx": -2})) == "xy - 2yx"
    assert str(NcPoly.zero()) == "0"


def test_printing_unit_term():
    assert str(NcPoly.one() - NcPoly.word("xy", 3)) == "1 - 3xy"


def test_shuffle_and_stuffle_have_int_coefficients():
    for p in (shuffle("xy", "y"), stuffle("y", "xy")):
        assert all(type(c) is int for c in p.terms.values())


@given(st.dictionaries(words(max_size=5), st.integers(min_value=-9, max_value=9),
                       max_size=4))
def test_int_and_fraction_coefficients_agree(terms):
    f = NcPoly(terms)
    g = NcPoly({w: Fraction(c) for w, c in terms.items()})
    assert f == g
    assert hash(f) == hash(g)
    assert str(f) == str(g)


def test_scale_rejects_non_rational():
    f = NcPoly.word("xy")
    with pytest.raises(TypeError):
        f * NcPoly.word("y")
    with pytest.raises(TypeError):
        f.scale(0.5)


def test_scaled_int_vector_is_a_new_list_with_scale_1():
    v = [3, 0, -6]
    ints, scale = scaled(v)
    assert (ints, scale) == ([3, 0, -6], 1)
    ints[0] = 99
    assert v == [3, 0, -6]
    assert scaled((4, 5)) == ([4, 5], 1)
    assert scaled([]) == ([], 1)


def test_scaled_fraction_n_over_1_comes_back_as_int():
    ints, scale = scaled([Fraction(4, 1), 2, Fraction(-3, 1)])
    assert (ints, scale) == ([4, 2, -3], 1)
    assert all(type(c) is int for c in ints)
    assert scaled([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)


@given(st.lists(st.one_of(st.integers(-9, 9), rationals()), max_size=6))
def test_scaled_clears_denominators_by_their_lcm(v):
    ints, scale = scaled(v)
    assert scale == math.lcm(*(Fraction(c).denominator for c in v))
    assert all(type(c) is int for c in ints)
    assert [Fraction(n, scale) for n in ints] == v
