"""Free Lie algebra operations on Q<x, y>.

Bracket, ad_x powers, the derivation D_f, the Poisson bracket, the
enveloping-algebra product f (.) g = fg + D_f(g), and a small-weight
solver for the double shuffle conditions over a Lyndon-word basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .words import (NcPoly, Word, accumulate, concat, pair, stuffle, stuffle_pairs,
                    words_of_weight)

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


def derivation_apply(f: NcPoly, g: NcPoly) -> NcPoly:
    """D_f(g), where D_f(x) = 0 and D_f(y) = [y, f]."""
    yf = bracket(Y, f).terms
    out: dict = {}
    for w, c in g.terms.items():
        for p, letter in enumerate(w):
            if letter == "y":
                head, tail = w[:p], w[p + 1:]
                accumulate(out, {head + u + tail: d for u, d in yf.items()}, c)
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


# -- Lyndon basis and the solver ------------------------------------------


def lyndon_words(n: int) -> list:
    """Lyndon words of length n over x < y, in lexicographic order: the words
    strictly smaller than each of their proper rotations."""
    return [w for w in words_of_weight(n) if all(w < w[i:] + w[:i] for i in range(1, n))]


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
    # at call time: linalg.build_A_symbolic imports lie, and one module-level
    # import each way would be a cycle
    from .linalg import Mat, kernel

    basis = lie_basis(n)
    support: dict = {}  # word -> indices of the basis elements that hold it
    for j, b in enumerate(basis):
        for w in b.terms:
            support.setdefault(w, set()).add(j)
    rows = []
    for u, v in admissible_stuffle_pairs(n):
        st = stuffle(u, v)
        row = [0] * len(basis)
        for j in set().union(*(support.get(w, ()) for w in st.terms)):
            row[j] = pair(basis[j], st)
        rows.append(row)
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
