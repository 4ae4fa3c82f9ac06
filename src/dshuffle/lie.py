"""The free Lie algebra Lie[x, y] inside Q<x, y>.

The Poisson bracket, the Lyndon-word basis, and a small-weight solver for
the double shuffle conditions over it.  The products it is built from
(bracket, ad_x powers, D_f and f (.) g) are in words, beside concat.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import Mat, kernel
# odot too: the benchmark's tracer wraps it as lie.odot
from .words import (NcPoly, Word, accumulate, bracket, derivation_apply, odot, pair,
                    stuffle, stuffle_pairs, words_of_weight)


def poisson(f: NcPoly, g: NcPoly) -> NcPoly:
    """{f, g} = [f, g] + D_f(g) - D_g(f)."""
    return bracket(f, g) + derivation_apply(f, g) - derivation_apply(g, f)


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
    if not isinstance(n, int) or not 3 <= n <= 10:
        raise ValueError("ds_solve supports 3 <= n <= 10")
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
