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
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .linalg import Mat, kernel
from .words import ConsistencyError, format_terms


@dataclass(frozen=True)
class PeriodPoly:
    """P(X) = sum_{i=1}^{(k-4)/2} coeffs[i-1] X^(2i)."""

    k: int
    coeffs: tuple

    def __post_init__(self):
        if self.k % 2 or self.k < 4:
            raise ValueError("weight must be even and >= 4")
        n = (self.k - 4) // 2
        if len(self.coeffs) != n:
            raise ValueError(f"expected {n} coefficients for weight {self.k}")

    def is_antisymmetric(self) -> bool:
        """p_2i = -p_(k-2-2i) for all i."""
        n = len(self.coeffs)
        return all(self.coeffs[i] == -self.coeffs[n - 1 - i] for i in range(n))

    def __str__(self) -> str:
        n = len(self.coeffs)
        # pair X^(k-2-2i) with X^(2i), highest power first
        return format_terms((f"(X^{2 * i + 2} - X^{self.k - 4 - 2 * i})", self.coeffs[i])
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


def ek_basis(k: int) -> List[PeriodPoly]:
    """Exact basis of E_k, normalized to integer coefficients with content 1
    and positive first (lowest-degree) nonzero coefficient."""
    if k % 2 or not 4 <= k <= 60:
        raise ValueError("weight must be even with 4 <= k <= 60")
    n = (k - 4) // 2
    if n == 0:
        return []
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
    return [PeriodPoly(k, tuple(v)) for v in basis]


def a_vector(P: PeriodPoly) -> list:
    """Dictionary to bracket-relation coefficients: a_i = p_2i."""
    if not P.is_antisymmetric():
        raise ValueError("polynomial violates the antisymmetry constraint")
    return list(P.coeffs)


def q_vector(P: PeriodPoly) -> tuple:
    """The entries q_(2j+1, k-2j-1) for j = 1 .. (k-4)/2: expand P(X+Y, Y)
    and divide the coefficient of X^2j Y^(k-2-2j) by C(k-2, 2j), so
    q_(2j+1, k-2j-1) = sum_i p_2i C(2i, 2j) / C(k-2, 2j)."""
    n = len(P.coeffs)
    entries = []
    for j in range(1, n + 1):
        num = sum(P.coeffs[i - 1] * math.comb(2 * i, 2 * j) for i in range(1, n + 1))
        entries.append(num / Fraction(math.comb(P.k - 2, 2 * j)))
    return tuple(entries)
