"""Shuffle and star regularization of formal zeta symbols.

Z(w) symbols for convergent words span the regularized shuffle algebra; a
combination of them is an NcPoly on convergent words, with the empty word as
the unit Z(empty) = 1 and shuffle_poly as the product.  Non-convergent words
are rewritten onto convergent ones by the one-sided formulas of the shuffle
regularization, an algebra map that keeps the unit.  Words ending in y also
get star values Z*(w), mixed from Z and the star units Z*(1, ..., 1), which
Newton's identity reads off their exponential generating series; both are
kept in ints, scaled by factorials, and divided out once, in lowest terms.
The regularized stuffle products Z*(u) Z*(v) - Z*(u * v) span the relations
of the small-weight formal zeta quotient, and so does the smaller family
reg(u sh v - u * v) that fz_quotient_dim takes, with no star values.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .linalg import Mat
from .words import (ConsistencyError, NcPoly, Word, accumulate, check_word,
                    composition_of_word, format_terms, is_convergent,
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
    """Express Z(w) on convergent words by the shuffle regularization, the
    algebra map that is the identity on convergent words, the unit on the
    empty word, Z(empty) = 1, and 0 on x and y, through its one-sided
    formulas (Ihara, Kaneko and Zagier 2006; proved in tests/conftest.py):
    reg(u y x^s) = (-1)^s reg((u sh x^s) y) takes one cached step to
    reg(y^r x q) = (-1)^r x (q sh y^r), q ending in y, which is convergent."""
    if is_convergent(w) or not w:
        return NcPoly.word(w)
    r, v, s = decompose(w)
    if not w.strip("x") or not w.strip("y"):  # x^s or y^r
        return NcPoly()
    sign = (-1) ** (s or r)
    if s:
        out: dict = {}
        for t, c in shuffle(w[: -s - 1], "x" * s).terms.items():
            accumulate(out, shuffle_regularize(t + "y").terms, sign * c)
        return NcPoly._wrap(out)
    return NcPoly._wrap({"x" + t: sign * c
                         for t, c in shuffle(v[1:], "y" * r).terms.items()})


@lru_cache(maxsize=None)
def star_units(N: int) -> tuple:
    """F_r = r! Z*(1, ..., 1), with r ones, for r = 0 .. N, in ints:
    Z*(1^r) is the y^r coefficient E_r of
    exp( sum_{r>=2} ((-1)^(r-1)/r) Z(r) y^r ), and Newton's identity
    r E_r = sum_{i=2..r} (-1)^(i-1) Z(i) E_(r-i), times (r-1)!, reads
    F_r = sum_{i=2..r} (-1)^(i-1) perm(r-1, i-1) Z(i) F_(r-i) from F_0 = 1."""
    units = [NcPoly.word("")]
    for r in range(1, N + 1):
        out: dict = {}
        for i in range(2, r + 1):
            term = shuffle_poly(NcPoly.word("x" * (i - 1) + "y"), units[r - i])
            accumulate(out, term.terms, (-1) ** (i - 1) * math.perm(r - 1, i - 1))
        units.append(NcPoly._wrap(out))
    return tuple(units)


def star_regularize(w: Word) -> NcPoly:
    """Z*(w) for a word ending in y, read off _scaled_star: identity on
    convergent words, and the mixing sum Z*(y^m v) = sum_r Z*(1^r) Z(y^(m-r) v)
    otherwise; since Z(y^j) = 0 for j >= 1 and Z(empty) = 1, a pure y-power
    gets its star unit."""
    check_word(w)
    if not w or w[-1] != "y":
        raise ValueError(f"star regularization needs a word ending in y: {w!r}")
    z, d = _scaled_star(w)
    return NcPoly._wrap({t: unscaled(c, d) for t, c in z.terms.items()})


@lru_cache(maxsize=None)
def _scaled_star(w: Word) -> tuple:
    """(Z, d) with Z*(w) = Z / d in lowest terms, Z with int coefficients,
    for a word w = y^m v ending in y: m! Z*(w) = sum_r perm(m, m-r) F_r
    sh reg(y^(m-r) v), summed in ints and divided by its gcd with m!.
    Cached: callers only read its terms."""
    m = len(w) - len(w.lstrip("y"))
    units = star_units(m)
    out: dict = {}
    for r in range(m + 1):
        term = shuffle_poly(units[r], shuffle_regularize(w[r:]))
        accumulate(out, term.terms, math.perm(m, m - r))
    g = math.gcd(scale := math.factorial(m), *out.values())
    return NcPoly._wrap({t: c // g for t, c in out.items()}), scale // g


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
    basis of the relation space (rows over convergent symbols).  Its rows
    are reg(u sh v - u * v), in ints, for v convergent and u convergent
    (finite double shuffle) or y (Hoffman's relation), in stuffle_pairs
    order (Ihara, Kaneko and Zagier 2006); a test checks that they span
    what the star relations of all of stuffle_pairs(n) span."""
    if not isinstance(n, int) or not 2 <= n <= 10:
        raise ValueError("quotient dimensions are desk-scale: 2 <= n <= 10")
    symbols = [w for w in words_of_weight(n) if is_convergent(w)]
    rows = []
    for u, v in stuffle_pairs(n):
        if not is_convergent(v) or not (u == "y" or is_convergent(u)):
            continue
        sums: dict = {}
        for prod, sign in ((shuffle(u, v), 1), (stuffle(u, v), -1)):
            for t, c in prod.terms.items():
                accumulate(sums, shuffle_regularize(t).terms, sign * c)
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
