"""High-precision numerical zeta values and relation verification.

Single zetas come from mpmath.  Double zetas are the Hölder convolution
of their word at 1/2 (Borwein, Bradley, Broadhurst and Lisonek, Special
values of multiple polylogarithms, 2001): a sum of products of
polylogarithms Li_u(1/2), nested sums that converge like 2^-m and need
no regularization.  They are truncated by a proved bound and summed in
integers rounded down, so no error bound is guessed.  A relation is
compared with its exact scalar, relations.gkz_scalar, in one pass.
"""

from __future__ import annotations

import math

import mpmath as mp

from .relations import Relation, gkz_scalar

GUARD_DIGITS = 15


def zeta_single(k: int, digits: int) -> mp.mpf:
    """zeta(k) to the requested number of decimal digits."""
    if k < 2:
        raise ValueError("zeta(k) requires k >= 2")
    if digits > 100:
        raise ValueError("digits <= 100")
    with mp.workdps(digits + GUARD_DIGITS):
        return +mp.zeta(k)


def zeta_double(r: int, s: int, digits: int) -> mp.mpf:
    """zeta(r, s) = sum_{m > n > 0} 1 / (m^r n^s), the word x^(r-1) y x^(s-1) y."""
    if r < 2:
        raise ValueError("zeta(r, s) requires r >= 2")
    if s < 1:
        raise ValueError("zeta(r, s) requires s >= 1")
    if digits > 100:
        raise ValueError("digits <= 100")
    return _holder_zeta("x" * (r - 1) + "y" + "x" * (s - 1) + "y", digits)


def _holder_zeta(w: str, digits: int) -> mp.mpf:
    """zeta(w) for a convergent word w (first letter x, last letter y) by
    the Hölder convolution at 1/2,

        zeta(w) = sum_{j=0..n} Li_{tau(w[:j])}(1/2) Li_{w[j:]}(1/2),

    where n = len(w), tau reverses a word and swaps x and y, and Li of the
    empty word is 1.  Li_u(z) = sum_m c_u(m) z^m with c_y(m) = 1/m,
    c_xu(m) = c_u(m) / m and c_yu(m) = (1/m) sum_{l<m} c_u(l), so one
    back-to-front pass over w gives Li at 1/2 of all its suffixes.  The
    tau-prefixes of w are the suffixes of tau(w): a second pass.

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
    n = len(w)
    with mp.workdps(digits + GUARD_DIGITS):
        target = mp.mpf(10) ** -(digits + GUARD_DIGITS)
        # N = 2 + log2((n + 1) ln(2N)^(n-1) / target) grows like log log N,
        # so iterating it from below stops at the least N after a few steps
        N = 2
        while (need := 2 + int(mp.ceil(mp.log((n + 1) * mp.log(2 * N) ** (n - 1)
                                              / target, 2)))) > N:
            N = need
        P = mp.mp.prec + ((n + 1) * (n + 2)).bit_length()
        factors = []
        for u in (w, w[::-1].translate(str.maketrans("xy", "yx"))):
            c = [1 << P] + [0] * N  # the empty word: Li = 1
            values = [1 << P]  # values[i]: Li(1/2) of the suffix of length i
            for letter in reversed(u):
                if letter == "x":
                    c = [0] + [c[m] // m for m in range(1, N + 1)]
                else:
                    total, new = 0, [0]
                    for m in range(1, N + 1):
                        total += c[m - 1]
                        new.append(total // m)
                    c = new
                values.append(sum(cm << (N - m) for m, cm in enumerate(c)) >> N)
            factors.append(values)
        suffixes, tau_prefixes = factors
        return mp.ldexp(sum(a * b for a, b in zip(tau_prefixes, reversed(suffixes))),
                        -2 * P)


def verify_relation(rel: Relation, digits: int) -> tuple:
    """Evaluate a double zeta relation numerically.

    Returns (residual, scalar): the exact scalar c = gkz_scalar(rel) with
    sum q_(r,s) zeta(r, s) = c * zeta(k), and the absolute residual
    |sum / zeta(k) - c|.  The zetas are taken ceil(log10 sum |q_(r,s)|)
    digits beyond `digits`, so their error, scaled by the coefficients,
    stays within the guard digits.
    """
    if rel.kind != "double_zeta":
        raise ValueError("only double_zeta relations can be verified numerically")
    scalar = gkz_scalar(rel)
    size = sum(abs(c) for c in rel.coefficients())
    d = digits + math.ceil(math.log10(max(size, 1)))
    with mp.workdps(d + GUARD_DIGITS):
        total = mp.fsum(mp.mpf(c.numerator) / c.denominator * zeta_double(r, s, d)
                        for (r, s), c in rel.terms if c)
        ratio = total / zeta_single(rel.weight, d)
        return +abs(ratio - mp.mpf(scalar.numerator) / scalar.denominator), scalar
