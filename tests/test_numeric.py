import itertools
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import holder_zeta_oracle, nsum_zeta_double, reconstruct_rational
from dshuffle import numzeta
from dshuffle.numzeta import _holder_zetas, verify_relation, zeta_double, zeta_single
from dshuffle.words import word_of_composition
from dshuffle.relations import Relation, gkz_relations, gkz_scalar, ihara_relations


def test_zeta_single_known_values():
    with mp.workdps(40):
        assert abs(zeta_single(2, 30) - mp.pi ** 2 / 6) < mp.mpf(10) ** -30
        assert abs(zeta_single(4, 30) - mp.pi ** 4 / 90) < mp.mpf(10) ** -30


def test_zeta_single_guards():
    with pytest.raises(ValueError):
        zeta_single(1, 30)
    with pytest.raises(ValueError):
        zeta_single(2, 101)
    # below one digit the working precision falls under the guard digits:
    # zeta(12) read 1.0 at -30 digits; and 2.5 digits ran at 17.5
    for digits in (0, -30, 2.5):
        with pytest.raises(ValueError):
            zeta_single(12, digits)


def test_zeta_double_euler_z21():
    # zeta(2,1) = zeta(3)
    with mp.workdps(40):
        assert abs(zeta_double(2, 1, 30) - zeta_single(3, 30)) < mp.mpf(10) ** -28


def test_zeta_double_z31():
    # zeta(3,1) = zeta(4)/4 = pi^4/360
    with mp.workdps(40):
        assert abs(zeta_double(3, 1, 30) - mp.pi ** 4 / 360) < mp.mpf(10) ** -28


def test_zeta_double_z22():
    # zeta(2)^2 = zeta(4) + 2 zeta(2,2)  =>  zeta(2,2) = (3/4) zeta(4)
    with mp.workdps(40):
        expected = (zeta_single(2, 30) ** 2 - zeta_single(4, 30)) / 2
        assert abs(zeta_double(2, 2, 30) - expected) < mp.mpf(10) ** -28


def test_zeta_double_stuffle_numeric():
    # zeta(3) zeta(5) = zeta(3,5) + zeta(5,3) + zeta(8)
    with mp.workdps(40):
        lhs = zeta_single(3, 30) * zeta_single(5, 30)
        rhs = (zeta_double(3, 5, 30) + zeta_double(5, 3, 30)
               + zeta_single(8, 30))
        assert abs(lhs - rhs) < mp.mpf(10) ** -28


def test_verify_relation_rejects_terms_off_weight():
    with pytest.raises(ValueError):
        verify_relation(Relation(12, "double_zeta", (((9, 4), 1),)), 30)


def test_zeta_double_guards():
    with pytest.raises(ValueError):
        zeta_double(1, 2, 30)
    with pytest.raises(ValueError):
        zeta_double(2, 0, 30)
    with pytest.raises(ValueError):
        zeta_double(2, 1, 101)
    # zeta(2, 1) = 1.2020... read 1.0234375 at -30 digits; digits is an int
    for digits in (-30, 2.5):
        with pytest.raises(ValueError):
            zeta_double(2, 1, digits)


def test_non_integer_parts_are_rejected():
    # int() used to truncate them: zeta_double(2.9, 1) read zeta(2, 1), and
    # the scalar of Z(9.5, 2.5) read 0
    with pytest.raises(ValueError, match="not an admissible composition"):
        zeta_double(2.9, 1, 20)
    with pytest.raises(ValueError, match="not an admissible composition"):
        gkz_scalar(Relation(12, "double_zeta", (((9.5, 2.5), 1),)))


@pytest.mark.parametrize("digits", [15, 30, 40, 59])
def test_holder_zetas_match_the_one_word_oracle(digits):
    # the shared walk must make exactly the integers of two plain passes
    for k in range(3, 41):
        words = [word_of_composition((r, k - r)) for r in range(2, k)]
        zetas = _holder_zetas(words, digits)
        assert zetas.keys() == set(words)
        assert all(zetas[w] == holder_zeta_oracle(w, digits) for w in words), k


def test_holder_zetas_mix_depths_and_lengths():
    # every convergent word of weight <= 10 in one call: several N and P,
    # and tau images that are themselves words of the call
    words = ["".join(t) for n in range(2, 11) for t in itertools.product("xy", repeat=n)
             if t[0] == "x" and t[-1] == "y"]
    zetas = _holder_zetas(words, 30)
    assert len(zetas) == len(words) == 511
    assert all(zetas[w] == holder_zeta_oracle(w, 30) for w in words)


def test_holder_zetas_reads_an_iterator_once():
    words = ["xxyy", "xyxy", "xxxy"]
    assert _holder_zetas((w for w in words), 20) == _holder_zetas(words, 20)


# The terms of the weight-12 and weight-16 double zeta relations, and the
# s = 1 column, which the oracle sums through zeta'(r).
ORACLE_PAIRS = [(9, 3), (7, 5), (5, 7), (13, 3), (11, 5), (9, 7), (7, 9), (5, 11),
                (2, 1), (3, 1)]


@pytest.mark.parametrize("r, s, digits",
                         [(r, s, 30) for r, s in ORACLE_PAIRS] + [(9, 3, 50)])
def test_zeta_double_matches_nsum_oracle(r, s, digits):
    with mp.workdps(digits + 15):
        error = abs(zeta_double(r, s, digits) - nsum_zeta_double(r, s, digits))
        assert error < mp.mpf(10) ** -(digits + 5)


@pytest.mark.parametrize("k", range(3, 17))
def test_zeta_double_sum_formula(k):
    # sum_{r=2..k-1} zeta(r, k-r) = zeta(k)
    with mp.workdps(55):
        total = mp.fsum(zeta_double(r, k - r, 40) for r in range(2, k))
        assert abs(total - zeta_single(k, 40)) < mp.mpf(10) ** -45


def test_reconstruct_rational():
    with mp.workdps(40):
        assert reconstruct_rational(mp.mpf(1) / 3) == Fraction(1, 3)
        assert reconstruct_rational(mp.mpf(5197) / 691) == Fraction(5197, 691)
        assert reconstruct_rational(mp.mpf("-0.25")) == Fraction(-1, 4)


@pytest.mark.parametrize("k", [12, 16, 18, 20, 22])
def test_reconstructed_ratio_matches_exact_scalar(k):
    # below weight 24 every denominator is under the oracle's 10^6 bound
    for rel in gkz_relations(k):
        with mp.workdps(65):
            total = mp.fsum(c * zeta_double(r, s, 50) for (r, s), c in rel.terms)
            assert reconstruct_rational(total / zeta_single(k, 50)) == gkz_scalar(rel)


def test_verify_weight12_relation():
    rel = gkz_relations(12)[0]
    residual, scalar = verify_relation(rel, 30)
    assert scalar == Fraction(5197, 691)
    with mp.workdps(40):
        assert residual < mp.mpf(10) ** -25


@pytest.mark.parametrize("digits", [15, 40])
def test_verify_keeps_guard_digits_at_weight40(digits):
    # coefficients up to 10^18.4 must not use up the 15 guard digits; the
    # proved error is a few units of 10^-(digits + 15)
    for rel in gkz_relations(40):
        residual, _ = verify_relation(rel, digits)
        with mp.workdps(digits + 20):
            assert residual < mp.mpf(10) ** -(digits + 14)


def test_verify_rejects_working_digits_above_100(monkeypatch):
    # 90 digits plus ceil(log10 sum |q|) = 19 at weight 40 is 109 working digits
    with pytest.raises(ValueError):
        verify_relation(gkz_relations(40)[0], 90)
    # and below one: at -20 digits the residual read 2.0, under 10^20
    with pytest.raises(ValueError):
        verify_relation(gkz_relations(12)[0], -20)
    # digits itself must be an int in 1..100, checked before any work: -2, 0
    # and 2.5 ran at 1, 3 and 5.5 working digits and returned a residual
    rel = gkz_relations(12)[0]

    def forbidden(rel):
        raise AssertionError("computed a scalar for out-of-range digits")
    monkeypatch.setattr(numzeta, "gkz_scalar", forbidden)
    for digits in (-2, 0, 2.5):
        with pytest.raises(ValueError, match="digits must be in 1..100"):
            verify_relation(rel, digits)


def test_check_digits_cap_keeps_working_digits_under_100(monkeypatch):
    # check takes at most 40 digits, and verify_relation adds
    # ceil(log10 sum |q|) for the coefficients: its largest working
    # precision over every relation check takes is under numzeta's 100
    class Stop(Exception):
        pass

    seen = []

    def spy(words, digits):
        seen.append(digits)
        raise Stop

    monkeypatch.setattr(numzeta, "gkz_scalar", lambda rel: Fraction(0))
    monkeypatch.setattr(numzeta, "_holder_zetas", spy)
    peaks = {}
    for k in range(12, 61, 2):
        for rel in gkz_relations(k):
            with pytest.raises(Stop):
                verify_relation(rel, 40)
            peaks[k] = max(peaks.get(k, 0), seen[-1])
    assert max(peaks.values()) == peaks[58] == 76
    assert max(seen) <= 100


def test_verify_rejects_bracket_relations():
    with pytest.raises(ValueError):
        verify_relation(ihara_relations(12)[0], 30)


def test_verify_trivial_relation():
    rel = Relation(weight=12, kind="double_zeta",
                   terms=(((9, 3), Fraction(0)),))
    residual, scalar = verify_relation(rel, 20)
    assert scalar == 0
    assert residual == 0
