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
from .words import (ConsistencyError, NcPoly, Word, accumulate, bracket, derivation_apply,
                    odot, pair, stuffle, stuffle_pairs, words_of_weight)


def poisson(f: NcPoly, g: NcPoly) -> NcPoly:
    """{f, g} = [f, g] + D_f(g) - D_g(f)."""
    return bracket(f, g) + derivation_apply(f, g) - derivation_apply(g, f)


# -- double shuffle conditions -------------------------------------------


def admissible_stuffle_pairs(n: int) -> list:
    """Pairs (u, v) of nonempty words ending in y with |u| + |v| = n, not
    both powers of y, by increasing |u|, with u <= v when |u| = |v|."""
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

    Solves (f | u * v) = 0 with f ranging over the Lyndon-word basis of
    Lie_n, from the admissible stuffle pairs with a depth-1 factor (u or v
    with a single y), which cut the kernel that all of them cut; the rows
    are read off a word index of that basis.  pair certifies each kernel
    combination against u * v for every admissible pair before it is
    normalized, trusting neither the rows nor kernel, and a failure raises
    ConsistencyError (soundness, not completeness).  Each solution is
    normalized so the coefficient of x^(n-1) y is 1 when nonzero.
    """
    if not isinstance(n, int) or not 3 <= n <= 11:
        raise ValueError("ds_solve supports 3 <= n <= 11")
    basis = lie_basis(n)
    index: dict = {}  # word w -> [(j, c)]: c is the coefficient of w in basis[j]
    for j, b in enumerate(basis):
        for w, c in b.terms.items():
            index.setdefault(w, []).append((j, c))
    stuffles = {(u, v): stuffle(u, v) for u, v in admissible_stuffle_pairs(n)}
    rows = []
    for (u, v), st in stuffles.items():
        if min(u.count("y"), v.count("y")) > 1:
            continue
        row = [0] * len(basis)
        for w, c_st in st.terms.items():
            for j, c_b in index.get(w, ()):
                row[j] += c_st * c_b
        rows.append(row)
    out = []
    for vec in kernel(Mat(rows)):
        terms: dict = {}
        for c, b in zip(vec, basis):
            accumulate(terms, b.terms, c)
        f = NcPoly._wrap(terms)
        for (u, v), st in stuffles.items():
            if pair(f, st):
                raise ConsistencyError(f"ds_solve({n}) returned f with (f | {u} * {v}) != 0")
        lead = f.coeff("x" * (n - 1) + "y")
        if lead:
            f = f.scale(Fraction(1) / lead)
        out.append(f)
    return out
