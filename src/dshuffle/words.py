"""Words over {x, y} and sparse rational noncommutative polynomials.

Words are plain Python strings over the alphabet "xy" (the empty string is
the empty word).  Canonical ordering is by length, then lexicographic with
x < y, which is exactly the default string order once lengths agree.
Polynomials are immutable sparse maps from words to nonzero rationals: an
int stays an int, and a Fraction appears only where a division happened.

Shuffle and stuffle are one recursion, joined by _join and differing only
in their heads.  The memoized word products return cached dicts that
shuffle and stuffle wrap as is, so callers only read them (see accumulate).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Collection, Iterable, Iterator, Mapping

ALPHABET = "xy"

Word = str


def check_word(w: str) -> str:
    if not isinstance(w, str) or w.strip(ALPHABET):
        raise ValueError(f"not a word over {{x, y}}: {w!r}")
    return w


def is_convergent(w: Word) -> bool:
    """True iff w = x.v.y; the empty word is not convergent."""
    return len(w) >= 2 and w[0] == "x" and w[-1] == "y"


def word_key(w: Word) -> tuple:
    return (len(w), w)


class ConsistencyError(Exception):
    """An identity the construction guarantees failed: a defect, not bad input."""


class NcPoly:
    """Element of Q<x, y>: a finite map word -> nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Rational] | None = None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[check_word(w)] = c
        self.terms: dict = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({"": 1})

    @classmethod
    def word(cls, w: Word, c=1) -> "NcPoly":
        return cls({w: c})

    # -- queries ------------------------------------------------------

    def coeff(self, w: Word) -> Rational:
        return self.terms.get(w, 0)

    def words(self) -> Iterator[Word]:
        return iter(sorted(self.terms, key=word_key))

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _wrap(terms: dict) -> "NcPoly":
        """A polynomial on terms that already hold its invariants (checked
        words, no zero coefficients), taken as is."""
        res = object.__new__(NcPoly)
        res.terms = terms
        return res

    def __add__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms))

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return self._wrap({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NcPoly":
        if not isinstance(c, Rational):
            raise TypeError(f"not a rational scalar: {c!r}")
        return self._wrap({} if not c else {w: c * v for w, v in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"NcPoly({self})"

    def __str__(self) -> str:
        return format_terms((w, self.terms[w]) for w in self.words())


def accumulate(acc: dict, terms: Mapping, c=1) -> dict:
    """acc += c * terms, in place, dropping sums that cancel; returns acc.

    acc must be a dict the caller owns: never the terms of a polynomial
    that a cached function returned.
    """
    times = c != 1
    for w, v in terms.items():
        s = acc.get(w, 0) + (c * v if times else v)
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)
    return acc


def scaled(v: Collection[Rational]) -> tuple:
    """(ints, scale) with v = ints / scale, scale the lcm of the denominators:
    a new list and scale 1 when every entry is an int."""
    if set(map(type, v)) <= {int}:
        return list(v), 1
    den = math.lcm(*(c.denominator for c in v))
    return [c.numerator * (den // c.denominator) for c in v], den


def unscaled(n: int, scale: int) -> Rational:
    """n / scale, an int when scale is 1."""
    return Fraction(n, scale) if scale > 1 else n


def format_rational(c: Rational) -> str:
    """Print a rational as "p/q", or "p" when the denominator is 1."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_terms(terms: Iterable[tuple], sep: str = "") -> str:
    """Print (symbol, coefficient) pairs as "a - b + 2c" in the given order.

    A coefficient of +-1 prints as a bare sign, other coefficients are joined
    to their symbol by sep, an empty symbol prints as the bare rational, and
    zero coefficients are skipped; "0" when nothing is left.
    """
    out = ""
    for sym, c in terms:
        if not c:
            continue
        mag = abs(c)
        if not sym:
            body = format_rational(mag)
        elif mag == 1:
            body = sym
        else:
            body = f"{format_rational(mag)}{sep}{sym}"
        if out:
            out += f" - {body}" if c < 0 else f" + {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"


def pair(f: NcPoly, g: NcPoly) -> Rational:
    """(f | g) extended linearly in g: sum of g_w * (f | w)."""
    total = 0
    for w, c in g.terms.items():
        total += c * f.terms.get(w, 0)
    return total


# -- shuffle and stuffle ------------------------------------------------


def _join(branches: Iterable[tuple]) -> dict:
    """Sum of head + w over the (head, terms) branches, as {word: coefficient}."""
    out: dict = {}
    for head, terms in branches:
        for w, c in terms.items():
            w = head + w
            out[w] = out.get(w, 0) + c
    return out


@lru_cache(maxsize=None)
def _shuffle_words(u: Word, v: Word) -> dict:
    if not u or not v:
        return {u + v: 1}
    return _join(((u[0], _shuffle_words(u[1:], v)), (v[0], _shuffle_words(u, v[1:]))))


def shuffle(u: Word, v: Word) -> NcPoly:
    """Shuffle product of two words."""
    check_word(u), check_word(v)
    return NcPoly._wrap(_shuffle_words(u, v))


def shuffle_poly(f: NcPoly, g: NcPoly) -> NcPoly:
    """Bilinear extension of the shuffle product."""
    out: dict = {}
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            accumulate(out, _shuffle_words(u, v), a * b)
    return NcPoly._wrap(out)


@lru_cache(maxsize=None)
def _stuffle_words(u: Word, v: Word) -> dict:
    if not u or not v:
        return {u + v: 1}
    # the leading blocks a = x^(i-1) y, b = x^(j-1) y merge into x^(i+j-1) y
    a, b = u[:u.index("y") + 1], v[:v.index("y") + 1]
    ua, vb = u[len(a):], v[len(b):]
    return _join(((a, _stuffle_words(ua, v)), (b, _stuffle_words(u, vb)),
                  ("x" * (len(a) + len(b) - 1) + "y", _stuffle_words(ua, vb))))


def stuffle(u: Word, v: Word) -> NcPoly:
    """Stuffle product of two nonempty words ending in y."""
    for w in (u, v):
        if not check_word(w).endswith("y"):
            raise ValueError(f"word does not end in y: {w!r}")
    return NcPoly._wrap(_stuffle_words(u, v))


def concat(f: NcPoly, g: NcPoly) -> NcPoly:
    """Bilinear extension of word concatenation: g spliced after each term of f."""
    out: dict = {}
    for u, a in f.terms.items():
        accumulate(out, {u + v: b for v, b in g.terms.items()}, a)
    return NcPoly._wrap(out)


# -- word <-> composition dictionary -------------------------------------


def word_of_composition(parts) -> Word:
    """(r_1, ..., r_k) -> x^(r_1 - 1) y ... x^(r_k - 1) y."""
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts) or parts[0] < 2:
        raise ValueError(f"not an admissible composition: {parts}")
    return "".join("x" * (i - 1) + "y" for i in parts)


def composition_of_word(w: Word) -> tuple:
    """Inverse of word_of_composition; rejects non-convergent words."""
    if not is_convergent(check_word(w)):
        raise ValueError(f"not a convergent word: {w!r}")
    return tuple(len(b) + 1 for b in w[:-1].split("y"))


def words_of_weight(n: int) -> list:
    """All 2^n words of weight n, in canonical order."""
    return ["".join(p) for p in itertools.product(ALPHABET, repeat=n)]


def stuffle_pairs(n: int) -> list:
    """All (u, v) of nonempty words ending in y with |u| + |v| = n, by
    increasing |u|, with u <= v when |u| = |v|."""
    ys = {m: [w for w in words_of_weight(m) if w.endswith("y")]
          for m in range(1, n)}
    return [(u, v) for a in range(1, n // 2 + 1)
            for u in ys[a] for v in ys[n - a] if a < n - a or u <= v]
