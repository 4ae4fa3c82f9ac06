"""Restricted even period polynomials.

A weight-k candidate is an even polynomial P(X) = sum p_2i X^2i without
constant term and of degree <= k-4, homogenized to P(X, Y) of degree k-2.
The space E_k is cut out by the two functional equations

    P(X) + X^(k-2) P(1/X) = 0
    P(X) + X^(k-2) P(1 - 1/X) + (X - 1)^(k-2) P(1/(1-X)) = 0

imposed symbolically after clearing denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List

from .linalg import Mat, kernel
from .words import ConsistencyError, format_terms


def period_str(p: list) -> str:
    """The polynomial with coefficients p = (p_2, ..., p_(k-4)), k - 4 = 2 len(p),
    printed as its pairs p_(k-2-2i) (X^(k-2-2i) - X^2i), highest power first."""
    n = len(p)
    return format_terms((f"(X^{2 * i + 2} - X^{2 * n - 2 * i})", p[i])
                        for i in range(n - 1, (n + 1) // 2 - 1, -1))


def ek_dim_formula(k: int) -> int:
    """floor((k-4)/4) - floor((k-2)/6)."""
    if k % 2 or k < 4:
        raise ValueError("weight must be even and >= 4")
    return (k - 4) // 4 - (k - 2) // 6


def _binomial_row_add(row: list, shift: int, power: int):
    # accumulate (X - 1)^power * X^shift into coefficient row
    for t in range(power + 1):
        row[shift + t] += math.comb(power, t) * (-1) ** (power - t)


def _three_term(k: int, i: int) -> list:
    """Coefficients of X^0 .. X^(k-2) in
    X^2i + (X-1)^2i X^(k-2-2i) + (X-1)^(k-2-2i)."""
    row = [0] * (k - 1)
    row[2 * i] += 1
    _binomial_row_add(row, k - 2 - 2 * i, 2 * i)
    _binomial_row_add(row, 0, k - 2 - 2 * i)
    return row


def ek_basis(k: int) -> List[list]:
    """Exact basis of E_k as coefficient vectors (p_2, p_4, ..., p_(k-4)),
    normalized to integers with content 1 and positive first nonzero entry.
    The vector is also the bracket relation's a: a_i = p_2i.  Each call
    returns fresh lists, copied from the basis solved once per weight and
    process."""
    if not isinstance(k, int) or k % 2 or not 4 <= k <= 60:
        raise ValueError(f"weight must be even with 4 <= k <= 60, got {k!r}")
    return [list(p) for p in _solve_ek(k)]


@lru_cache(maxsize=None)
def _solve_ek(k: int) -> tuple:
    """E_k's basis as tuples, solved and checked once per weight: ek_basis
    hands out copies, so no caller can change what the next one reads."""
    n = (k - 4) // 2
    rows = []
    # antisymmetry: p_2i + p_(k-2-2i) = 0
    for i in range(1, n + 1):
        row = [0] * n
        row[i - 1] += 1
        row[n - i] += 1
        rows.append(row)
    # three-term relation: one row per power of X, one column per p_2i
    rows += map(list, zip(*(_three_term(k, i) for i in range(1, n + 1))))
    basis = kernel(Mat(rows))
    if len(basis) != ek_dim_formula(k):
        raise ConsistencyError(f"dim E_{k} = {len(basis)} disagrees with the formula")
    for p in basis:
        if p != [-c for c in reversed(p)]:
            raise ConsistencyError(f"E_{k} basis vector violates antisymmetry: {p}")
    return tuple(map(tuple, basis))


def q_vector(p: list) -> tuple:
    """The entries q_(2j+1, k-2j-1) for j = 1 .. (k-4)/2: expand P(X+Y, Y)
    and divide the coefficient of X^2j Y^(k-2-2j) by C(k-2, 2j), so
    q_(2j+1, k-2j-1) = sum_i p_2i C(2i, 2j) / C(k-2, 2j), k - 2 = 2 len(p) + 2."""
    n = len(p)
    entries = []
    for j in range(1, n + 1):
        num = sum(p[i - 1] * math.comb(2 * i, 2 * j) for i in range(1, n + 1))
        entries.append(num / Fraction(math.comb(2 * n + 2, 2 * j)))
    return tuple(entries)
