"""High-precision numerical zeta values and relation verification.

Single zetas come from mpmath.  Double zetas are the Hölder convolution
of their word at 1/2 (Borwein, Bradley, Broadhurst and Lisonek, Special
values of multiple polylogarithms, 2001): a sum of products of
polylogarithms Li_u(1/2), nested sums that converge like 2^-m and need
no regularization.  They are truncated by a proved bound and summed in
integers rounded down, so no error bound is guessed.  The words of one
call share one walk over their suffixes, so each common suffix is
summed once.  A relation is compared with its exact scalar,
relations.gkz_scalar, in one pass.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import floordiv, lshift, mul
from os.path import commonprefix

import mpmath as mp

from .relations import Relation, gkz_scalar
from .words import word_of_composition

GUARD_DIGITS = 15
_SWAP = str.maketrans("xy", "yx")


def zeta_single(k: int, digits: int) -> mp.mpf:
    """zeta(k) to the requested number of decimal digits."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"zeta(k) requires an int k >= 2, got {k!r}")
    if not isinstance(digits, int) or not 1 <= digits <= 100:
        raise ValueError(f"digits must be in 1..100, got {digits}")
    with mp.workdps(digits + GUARD_DIGITS):
        return +mp.zeta(k)


def zeta_double(r: int, s: int, digits: int) -> mp.mpf:
    """zeta(r, s) = sum_{m > n > 0} 1 / (m^r n^s), the word x^(r-1) y x^(s-1) y."""
    w = word_of_composition((r, s))
    return _holder_zetas([w], digits)[w]


def _holder_zetas(words, digits: int) -> dict:
    """{w: zeta(w)} for convergent words w (first letter x, last letter y)
    by the Hölder convolution at 1/2,

        zeta(w) = sum_{j=0..n} Li_{tau(w[:j])}(1/2) Li_{w[j:]}(1/2),

    where n = len(w), tau reverses a word and swaps x and y, and Li of the
    empty word is 1.  Li_u(z) = sum_m c_u(m) z^m with c_y(m) = 1/m,
    c_xu(m) = c_u(m) / m and c_yu(m) = (1/m) sum_{l<m} c_u(l), so one
    back-to-front pass over w gives Li at 1/2 of all its suffixes.  The
    tau-prefixes of w are the suffixes of tau(w): a second pass.  The words
    of one length and their tau images share one walk, see _suffix_li.

    Truncation.  The sums stop at m = N.  All c_u(m) >= 0, and for
    1/2 <= rho < 1, Li_u(rho) <= ln(1/(1-rho))^d with d <= n - 1 the number
    of y in u: an x step cannot raise the value at rho, a y step multiplies
    it by at most ln(1/(1-rho)).  rho = 1/2 gives Li_u(1/2) <= 1, and
    rho = 1 - 1/(2N) bounds the tail of each factor,

        sum_{m>N} c_u(m) 2^-m <= (2 rho)^-N Li_u(rho) <= 2^(1-N) ln(2N)^(n-1),

    so each of the n + 1 products loses at most twice that.  N is the least
    N >= 2 with (n + 1) 2^(2-N) ln(2N)^(n-1) <= 10^-D, D = digits + GUARD_DIGITS.

    Roundoff.  The passes run in integers scaled by 2^P and round every
    division down, so each computed quantity is at most its exact value.
    A coefficient of a word of length L is then at most L units of 2^-P
    low, its Li at most L + 1, and a product of two factors (both <= 1) at
    most n + 2.  P = p + bits((n + 1)(n + 2)), with p the bits of precision
    at D digits, keeps the sum of the n + 1 products within 2^-p < 10^-D,
    and the one rounding to an mpf adds at most 10^-D zeta(w) < 1.65 * 10^-D
    (zeta(w) <= zeta(2, 1, ..., 1) = zeta(d + 1) <= zeta(2) term by term, d
    the depth).  The total error is below 4 * 10^-D = 4 * 10^-(digits + 15).
    """
    if not isinstance(digits, int) or not 1 <= digits <= 100:
        raise ValueError(f"digits must be in 1..100, got {digits}")
    words, zetas = list(words), {}  # read once: words may be an iterator
    with mp.workdps(digits + GUARD_DIGITS):
        target = mp.mpf(10) ** -(digits + GUARD_DIGITS)
        for n in {len(w) for w in words}:
            # N = 2 + log2((n + 1) ln(2N)^(n-1) / target) grows like log log N,
            # so iterating it from below stops at the least N after a few steps
            N = 2
            while (need := 2 + int(mp.ceil(mp.log((n + 1) * mp.log(2 * N) ** (n - 1)
                                                  / target, 2)))) > N:
                N = need
            P = mp.mp.prec + ((n + 1) * (n + 2)).bit_length()
            tau = {w: w[::-1].translate(_SWAP) for w in words if len(w) == n}
            li = _suffix_li(tau.keys() | tau.values(), N, P)
            for w, t in tau.items():
                zetas[w] = mp.ldexp(sum(map(mul, li[t], reversed(li[w]))), -2 * P)
    return zetas


def _suffix_li(words, N: int, P: int) -> dict:
    """{u: [2^P Li_v(1/2) summed to m = N, rounded down, for the suffixes v
    of u, shortest first]}.  One walk over the reversed words in sorted order
    keeps only the c vectors of the current path, so a suffix that several
    words share is computed once and memory stays at len(u) + 1 vectors."""
    ranks, shifts = range(1, N + 1), range(N, -1, -1)
    path, values = [[1 << P] + [0] * N], [1 << P]  # the empty word: Li = 1
    li, prev = {}, ""
    for rev in sorted(u[::-1] for u in words):
        i = len(commonprefix((prev, rev)))
        del path[i + 1:], values[i + 1:]
        for letter in rev[i:]:
            c = path[-1]
            # c_x.(m) = c(m) // m and c_y.(m) = (c(0) + ... + c(m-1)) // m
            path.append([0, *map(floordiv, islice(c, 1, None) if letter == "x"
                                 else accumulate(islice(c, N)), ranks)])
            values.append(sum(map(lshift, path[-1], shifts)) >> N)
        li[rev[::-1]], prev = values.copy(), rev
    return li


def verify_relation(rel: Relation, digits: int) -> tuple:
    """Evaluate a double zeta relation numerically.

    Returns (residual, scalar): the exact scalar c = gkz_scalar(rel) with
    sum q_(r,s) zeta(r, s) = c * zeta(k), and the absolute residual
    |sum / zeta(k) - c|.  The zetas are taken ceil(log10 sum |q_(r,s)|)
    digits beyond `digits`, so their error, scaled by the coefficients,
    stays within the guard digits.  One _holder_zetas call takes them all.
    """
    if not isinstance(digits, int) or not 1 <= digits <= 100:
        raise ValueError(f"digits must be in 1..100, got {digits}")
    scalar = gkz_scalar(rel)
    size = sum(abs(c) for _, c in rel.terms)
    d = digits + math.ceil(math.log10(max(size, 1)))
    words = {rs: word_of_composition(rs) for rs, c in rel.terms if c}
    zetas = _holder_zetas(words.values(), d)
    with mp.workdps(d + GUARD_DIGITS):
        total = mp.fsum(mp.mpf(c.numerator) / c.denominator * zetas[words[rs]]
                        for rs, c in rel.terms if c)
        ratio = total / zeta_single(rel.weight, d)
        return +abs(ratio - mp.mpf(scalar.numerator) / scalar.denominator), scalar
