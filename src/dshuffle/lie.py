"""Free Lie algebra operations on Q<x, y>.

Bracket, ad_x powers, the derivation D_f, the Poisson bracket, the
enveloping-algebra product f (.) g = fg + D_f(g), a double-shuffle
membership test, and a small-weight solver for the double shuffle
conditions over a Lyndon-word basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .words import NcPoly, Word, accumulate, concat, pair, stuffle, stuffle_pairs

Y = NcPoly.word("y")


def bracket(f: NcPoly, g: NcPoly) -> NcPoly:
    """[f, g] = fg - gf."""
    return concat(f, g) - concat(g, f)


def ad_x_pow(n: int) -> NcPoly:
    """ad_x^n(y) = sum_i (-1)^i C(n, i) x^(n-i) y x^i; weight n+1, depth 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return NcPoly({
        "x" * (n - i) + "y" + "x" * i: (-1) ** i * math.comb(n, i)
        for i in range(n + 1)
    })


def _dynkin_word(w: Word) -> NcPoly:
    # left-to-right bracketing [...[[l1, l2], l3]..., ln]
    if len(w) == 1:
        return NcPoly.word(w)
    return bracket(_dynkin_word(w[:-1]), NcPoly.word(w[-1]))


def dynkin(f: NcPoly) -> NcPoly:
    """Linear extension of the left-to-right bracketing map."""
    out: dict = {}
    for w, c in f.terms.items():
        if not w:
            raise ValueError("Dynkin map is undefined on the empty word")
        accumulate(out, _dynkin_word(w).terms, c)
    return NcPoly._wrap(out)


def is_lie(f: NcPoly) -> bool:
    """Dynkin criterion: f of weight n is a Lie polynomial iff dynkin(f) = n f."""
    n = f.poly_weight()
    if n is None:
        return True
    if n < 1:
        raise ValueError("weight must be >= 1")
    return dynkin(f) == f.scale(n)


def derivation_apply(f: NcPoly, g: NcPoly) -> NcPoly:
    """D_f(g), where D_f(x) = 0 and D_f(y) = [y, f]."""
    yf = bracket(Y, f)
    out: dict = {}
    for w, c in g.terms.items():
        for p, letter in enumerate(w):
            if letter == "y":
                piece = concat(concat(NcPoly.word(w[:p]), yf), NcPoly.word(w[p + 1:]))
                accumulate(out, piece.terms, c)
    return NcPoly._wrap(out)


def poisson(f: NcPoly, g: NcPoly) -> NcPoly:
    """{f, g} = [f, g] + D_f(g) - D_g(f)."""
    return bracket(f, g) + derivation_apply(f, g) - derivation_apply(g, f)


def odot(f: NcPoly, g: NcPoly) -> NcPoly:
    """f (.) g = fg + D_f(g).

    Only valid as the enveloping-algebra product when f is (the depth-1
    truncation of) a double shuffle element; the caller asserts that.
    """
    return concat(f, g) + derivation_apply(f, g)


# -- double shuffle conditions -------------------------------------------


def admissible_stuffle_pairs(n: int) -> list:
    """Pairs (u, v), u <= v, of nonempty words ending in y with |u| + |v| = n,
    not both powers of y."""
    return [(u, v) for u, v in stuffle_pairs(n) if "x" in u + v]


def ds_check(f: NcPoly) -> list:
    """Violated conditions keeping f out of the double shuffle Lie algebra.

    Returns the admissible stuffle pairs (u, v) with (f | u * v) != 0;
    a failed Dynkin (non-Lie) test is reported as the pair ("dynkin", "dynkin").
    Empty result means f passes every condition.
    """
    n = f.poly_weight()
    if n is None:
        return []
    if n < 3:
        raise ValueError("double shuffle elements have weight >= 3")
    violations = []
    if not is_lie(f):
        violations.append(("dynkin", "dynkin"))
    for u, v in admissible_stuffle_pairs(n):
        if pair(f, stuffle(u, v)):
            violations.append((u, v))
    return violations


# -- Lyndon basis and the solver ------------------------------------------


def lyndon_words(n: int) -> list:
    """Lyndon words of length n over x < y (Duval's generation)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            out.append("".join("xy"[c] for c in w))
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()
    return out


@lru_cache(maxsize=None)
def lyndon_bracket(w: Word) -> NcPoly:
    """Standard (right) bracketing of a Lyndon word."""
    if len(w) == 1:
        return NcPoly.word(w)
    # standard factorization: v is the lexicographically least proper suffix
    v = min(w[i:] for i in range(1, len(w)))
    u = w[: len(w) - len(v)]
    return bracket(lyndon_bracket(u), lyndon_bracket(v))


def lie_basis(n: int) -> list:
    """Basis of Lie_n[x, y]: bracketed Lyndon words of length n."""
    return [lyndon_bracket(w) for w in lyndon_words(n)]


def ds_solve(n: int) -> list:
    """Basis of the weight-n double shuffle solutions inside Lie_n[x, y].

    Solves (f | u * v) = 0 over all admissible stuffle pairs, with f ranging
    over the Lyndon-word basis of Lie_n.  Each solution is normalized so the
    coefficient of x^(n-1) y is 1 when nonzero.
    """
    if not 3 <= n <= 10:
        raise ValueError("ds_solve supports 3 <= n <= 10")
    from .linalg import Mat, kernel

    basis = lie_basis(n)
    rows = []
    for u, v in admissible_stuffle_pairs(n):
        st = stuffle(u, v)
        rows.append([pair(b, st) for b in basis])
    out = []
    for vec in kernel(Mat(rows)):
        terms: dict = {}
        for c, b in zip(vec, basis):
            accumulate(terms, b.terms, c)
        f = NcPoly._wrap(terms)
        lead = f.coeff("x" * (n - 1) + "y")
        if lead:
            f = f.scale(Fraction(1) / lead)
        out.append(f)
    return out
