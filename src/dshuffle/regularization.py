"""Shuffle and star regularization of formal zeta symbols.

Z(w) symbols for convergent words span the regularized shuffle algebra; a
combination of them is an NcPoly on convergent words, with the empty word as
the unit Z(empty) = 1 and shuffle_poly as the product.  Non-convergent words
are rewritten onto convergent ones by the double-sum shuffle regularization,
an algebra map that keeps the unit.  Words ending in y additionally get star
values Z*(w), mixed from Z and the star units Z*(1, ..., 1), which Newton's
identity reads off their exponential generating series.
Setting the regularized stuffle products Z*(u) Z*(v) - Z*(u * v) to zero
yields the linear relations defining the small-weight formal zeta quotient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .linalg import Mat
from .words import (ConsistencyError, NcPoly, Word, accumulate, check_word,
                    composition_of_word, format_terms, is_convergent, scaled,
                    shuffle, shuffle_poly, stuffle, stuffle_pairs, unscaled,
                    words_of_weight)


def zeta_str(f: NcPoly) -> str:
    """Print a combination of Z symbols as "1 - 3 Z(2) + Z(2, 1)": each
    convergent word as Z of its composition, the empty word as the bare
    scalar."""
    def symbol(w):
        return f"Z({', '.join(map(str, composition_of_word(w)))})" if w else ""
    return format_terms(((symbol(w), f.terms[w]) for w in f.words()), " ")


def decompose(w: Word) -> tuple:
    """Unique splitting w = y^r . v . x^s with v convergent or empty."""
    check_word(w)
    r = len(w) - len(w.lstrip("y"))
    core = w[r:]
    s = len(core) - len(core.rstrip("x"))
    v = core[: len(core) - s]
    return r, v, s


@lru_cache(maxsize=None)
def shuffle_regularize(w: Word) -> NcPoly:
    """Express Z(w) on convergent words via the double-sum shuffle
    regularization; the identity on already-convergent words, and the unit
    on the empty word, as regularization is an algebra map: Z(empty) = 1.
    The alternating sum over (a, b) is the regularization map itself, so it
    cancels every non-convergent word and needs no projection."""
    if is_convergent(w) or not w:
        return NcPoly.word(w)
    r, v, s = decompose(w)
    out: dict = {}
    for a in range(r + 1):
        for b in range(s + 1):
            inner = "y" * (r - a) + v + "x" * (s - b)
            poly = shuffle_poly(shuffle("y" * a, inner), NcPoly.word("x" * b))
            accumulate(out, poly.terms, -1 if (a + b) % 2 else 1)
    return NcPoly._wrap(out)


@lru_cache(maxsize=None)
def star_units(N: int) -> tuple:
    """Z*(1, ..., 1) with r ones for r = 0 .. N: the y^r coefficients E_r of
    exp( sum_{r>=2} ((-1)^(r-1)/r) Z(r) y^r ), by Newton's identity
    r E_r = sum_{i=2..r} (-1)^(i-1) Z(i) E_(r-i) from E_0 = 1."""
    units = [NcPoly.word("")]
    for r in range(1, N + 1):
        out: dict = {}
        for i in range(2, r + 1):
            term = shuffle_poly(NcPoly.word("x" * (i - 1) + "y"), units[r - i])
            accumulate(out, term.terms, Fraction((-1) ** (i - 1), r))
        units.append(NcPoly._wrap(out))
    return tuple(units)


def star_regularize(w: Word) -> NcPoly:
    """Z*(w) for a word ending in y: identity on convergent words, and the
    mixing sum Z*(y^m v) = sum_r Z*(1^r) Z(y^(m-r) v) otherwise; since
    Z(y^j) = 0 for j >= 1 and Z(empty) = 1, a pure y-power gets its star unit."""
    check_word(w)
    if not w or w[-1] != "y":
        raise ValueError(f"star regularization needs a word ending in y: {w!r}")
    if is_convergent(w):
        return NcPoly.word(w)
    m = len(w) - len(w.lstrip("y"))
    units = star_units(m)
    out: dict = {}
    for r in range(m + 1):
        accumulate(out, shuffle_poly(units[r], shuffle_regularize(w[r:])).terms)
    return NcPoly._wrap(out)


@lru_cache(maxsize=None)
def _scaled_star(w: Word) -> tuple:
    """(Z, d) with Z*(w) = Z / d: star_regularize(w) cleared of denominators
    by their lcm d, so Z has int coefficients.  Cached: callers only read
    its terms."""
    terms = star_regularize(w).terms
    ints, den = scaled(terms.values())
    return NcPoly._wrap(dict(zip(terms, ints))), den


def _relation_sums(u: Word, v: Word) -> tuple:
    """(S, D) with S / D the relation Z*(u) Z*(v) - Z*(u * v): summed in
    ints over the common denominator D of its star terms, the shuffle of the
    two scaled factors times D / (d_u d_v), less c D / d_w times each scaled
    Z*(w) of u * v (coefficient c).  S is a dict of nonzero ints."""
    (zu, du), (zv, dv) = _scaled_star(u), _scaled_star(v)
    stars = [(_scaled_star(w), c) for w, c in stuffle(u, v).terms.items()]
    den = math.lcm(du * dv, *(d for (_, d), _ in stars))
    out = accumulate({}, shuffle_poly(zu, zv).terms, den // (du * dv))
    for (z, d), c in stars:
        accumulate(out, z.terms, -c * (den // d))
    return out, den


def stuffle_relation(u: Word, v: Word) -> NcPoly:
    """The relation Z*(u) Z*(v) - Z*(u * v), resolved onto convergent
    symbols; set to zero in the formal zeta quotient.  Its int sums are
    divided by their common denominator once, at the end."""
    out, den = _relation_sums(u, v)
    return NcPoly._wrap({w: unscaled(c, den) for w, c in out.items()})


def fz_quotient_dim(n: int) -> tuple:
    """Dimension of the weight-n formal zeta quotient and a reduced
    basis of the relation space (rows over convergent symbols).  A row is
    the int sums of a nonzero stuffle_relation(u, v): the same row up to
    scale, with no denominator for kernel to clear."""
    if not isinstance(n, int) or not 2 <= n <= 10:
        raise ValueError("quotient dimensions are desk-scale: 2 <= n <= 10")
    symbols = [w for w in words_of_weight(n) if is_convergent(w)]
    rows = []
    for u, v in stuffle_pairs(n):
        sums, _ = _relation_sums(u, v)
        if "" in sums:
            raise ConsistencyError("weight-homogeneous relation grew a scalar part")
        if sums:
            rows.append([sums.get(w, 0) for w in symbols])
    red, pivots = Mat(rows).rref()
    basis = [NcPoly(dict(zip(symbols, row))) for row in red.rows[: len(pivots)]]
    return len(symbols) - len(pivots), basis


def sh_basis_dim(n: int) -> int:
    """Dimension of the weight-n space of polynomials annihilated by all
    shuffle-regularization relation rows w - reg(w), w non-convergent;
    equals 2^(n-2).  The columns put the non-convergent words first, so the
    matrix is [I | -R].  It is wide, so rank takes the kernel of its
    transpose, whose leading rows are the unit rows e_c of I.  kernel takes
    the rows by their last nonzero column, stably, so e_c is the first row
    to reach column c: it adds e_c to K and drops it, cutting nothing.  So
    K is empty whenever a row of -R^t comes, and those rows cost no dot
    product."""
    if not isinstance(n, int) or not 2 <= n <= 8:
        raise ValueError("2 <= n <= 8")
    columns = sorted(words_of_weight(n), key=is_convergent)  # stable: False first
    index = {w: i for i, w in enumerate(columns)}
    rows = []
    for w in columns:
        if is_convergent(w):
            break
        row = [0] * len(columns)
        row[index[w]] = 1
        for t, c in shuffle_regularize(w).terms.items():
            row[index[t]] -= c
        rows.append(row)
    return len(columns) - Mat(rows).rank()
