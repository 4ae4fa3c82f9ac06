"""Dense exact-rational matrices and the specific matrix constructions
used by the period-polynomial / double-zeta correspondence:

    A       closed-form coefficient matrix (and its symbolic twin computed
            from the enveloping-algebra product of depth-1 Lie elements)
    S, T    antidiagonal involution and its eigenvector basis change
    D, B    the binomial matrices entering the q <- a variable change
    M       T^-1 A T, with its identity/zero block structure
    tADB    the symmetric product

Entries stay ints unless a division (D, M, the pivot rows of an rref, and so
inverses) makes a Fraction.  Products are fraction-free: each row of the
left factor and each column of the right one is cleared of denominators
once, dot products are taken in ints, and each entry is divided once, by
row scale x column scale.

There is one elimination, kernel, and it works by cutting the identity: an
int basis K of Q^ncols loses one vector per independent row of the matrix,
and a dependent row costs |K| dot products, each over the row's nonzero
columns only.  K ends in a reduced echelon form of its own, so kernel bases
are canonical, and reproducible whatever the row order: int entries, content
1, first nonzero positive, one vector per free column.  rref reads the
unique reduced row echelon form off that basis, and rank is ncols - dim
kernel of whichever of M and M^t has fewer columns.  Every matrix the
correspondence and the solvers hand to kernel or rref is tall or square
with a small kernel (ds_solve at weight 9: 508 x 56, rank 55), so |K| is
small for almost every row.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

from .words import format_rational, scaled, unscaled


class Mat:
    """Dense matrix over Q."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(row) for row in rows]
        if self.rows:
            ncols = len(self.rows[0])
            if any(len(r) != ncols for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return Mat(_products(self.rows, [scaled(col) for col in zip(*other.rows)]))

    def transpose(self) -> "Mat":
        return Mat(list(map(list, zip(*self.rows)))) if self.rows else Mat([])

    def mul_vec(self, v: Sequence) -> list:
        return [c for (c,) in _products(self.rows, [scaled(v)])]

    def rref(self) -> tuple:
        """The unique reduced row echelon form; returns (Mat, pivot column
        list).  It is read off the canonical kernel basis: each k_f is nonzero
        at its free column f, its last nonzero entry, and zero at the other
        free columns, so the pivots are the other columns, and pivot row p is
        1 at p, 0 at the other pivots and -k_f[p] / k_f[f] at each free f.
        Pivot rows hold Fractions, and the zero rows follow them as ints."""
        n = self.ncols
        free = {max(compress(range(n), k)): k for k in kernel(self)}
        pivots = [p for p in range(n) if p not in free]
        zero, one = Fraction(0), Fraction(1)
        red = []
        for p in pivots:
            row = [zero] * n
            row[p] = one
            for f, k in free.items():
                if k[p]:
                    row[f] = Fraction(-k[p], k[f])
            red.append(row)
        zeros = [[0] * n for _ in range(self.nrows - len(pivots))]
        return Mat(red + zeros), pivots

    def rank(self) -> int:
        """ncols - dim kernel, taken on whichever of M and M^t has fewer
        columns, as kernel starts from one vector per column."""
        M = self.transpose() if self.nrows < self.ncols else self
        return M.ncols - len(kernel(M))

    def inverse(self) -> "Mat":
        """The inverse, read off the rref of [M | I].  Nothing in the
        package calls it; it stays because the benchmark's traced layers
        name it."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        aug = Mat([row + e for row, e in zip(self.rows, Mat.identity(n).rows)])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Mat([row[n:] for row in red.rows])

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    # -- serialization --------------------------------------------------

    def to_csv(self) -> str:
        return "\n".join(",".join(format_rational(c) for c in row) for row in self.rows)

    def to_json(self) -> str:
        return json.dumps([[format_rational(c) for c in row] for row in self.rows])

    def __str__(self) -> str:
        cells = [[format_rational(c) for c in row] for row in self.rows]
        width = max((len(s) for row in cells for s in row), default=1)
        return "\n".join("[ " + "  ".join(s.rjust(width) for s in row) + " ]"
                         for row in cells)

    def __repr__(self) -> str:
        return f"Mat({self.rows!r})"


def _content_free(ints: list) -> list:
    """An int vector divided by the gcd of its entries."""
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _cut(row: list, f: int, v: list, e: int) -> list:
    """(e/g) row - (f/g) v over its content, g = gcd(e, f): zero under every
    linear form that is f on row and e on v."""
    g = math.gcd(e, f)
    a, b = e // g, f // g
    return _content_free([a * x - b * y for x, y in zip(row, v)])


def _products(rows: Sequence, cols: list) -> list:
    """The dot products of each row with each scaled column (ints, scale),
    taken in ints on the cleared row and divided once; ints stay ints."""
    return [[unscaled(sum(map(mul, r, c)), rs * cs) for c, cs in cols]
            for r, rs in map(scaled, rows)]


def normalize_vector(v: Sequence) -> list:
    """Scale to int entries, content 1, first nonzero entry positive."""
    ints = _content_free(scaled(v)[0])
    return [-c for c in ints] if next((c for c in ints if c), 0) < 0 else ints


def kernel(M: Mat) -> list:
    """Canonical basis of the right null space of M: int entries, content 1,
    first nonzero positive, one vector per free column c of the rref of M,
    zero at the other free columns and after c, listed by c.

    K starts as the int identity basis of Q^ncols, and each of its vectors
    owns the column of the unit vector it started as.  For each int row v of
    M, t_j = v . k_j, summed over the nonzero entries of v.  If every t_j is
    0, v lies in the row space already and K stays.  Otherwise the first k_j0
    with t_j0 != 0 is dropped and every other k_j becomes
    _cut(k_j, t_j, k_j0, t_j0), which v annihilates.  Throughout, K spans the
    null space of the rows seen so far, and each k_j is nonzero at its own
    column, zero at the columns the others own and at every later column.
    Such a basis is unique up to scaling, so the columns still owned at the
    end are the free ones and K, normalized, is the canonical basis.  Once K
    is empty, no later row can change it.  A unit row at column c meets only
    the k_j nonzero at c; when that is one vector, it is dropped and nothing
    is cut."""
    n = M.ncols
    K = [[int(i == j) for j in range(n)] for i in range(n)]
    for row in M.rows:
        if not K:
            break
        v = scaled(row)[0]
        cols, xs = list(compress(range(n), v)), list(compress(v, v))
        ts = [sum(map(mul, xs, map(k.__getitem__, cols))) for k in K]
        j0 = next((j for j, t in enumerate(ts) if t), None)
        if j0 is None:
            continue
        e, k0 = ts.pop(j0), K.pop(j0)
        for j, t in enumerate(ts):
            if t:
                K[j] = _cut(K[j], t, k0, e)
    return [normalize_vector(k) for k in K]


def same_span(vs: list, ws: list) -> bool:
    """Subspace equality via ranks of stacked bases (double inclusion)."""
    if len(vs) != len(ws):
        return False
    rv = Mat(vs).rank()
    rw = Mat(ws).rank()
    return rv == rw == Mat(vs + ws).rank()


# -- correspondence-specific constructions ---------------------------------


def _check_weight(k: int) -> int:
    if k % 2 or k < 12:
        raise ValueError(f"weight must be even and >= 12, got {k}")
    return (k - 4) // 2


def build_A(k: int) -> Mat:
    """Closed form A_ij = C(2j, 2i) - C(2j, k-2-2i) + [i+j = (k-2)/2]."""
    n = _check_weight(k)
    half = (k - 2) // 2
    return Mat([[math.comb(2 * j, 2 * i) - math.comb(2 * j, k - 2 - 2 * i)
                 + (1 if i + j == half else 0)
                 for j in range(1, n + 1)] for i in range(1, n + 1)])


def build_A_symbolic(k: int) -> Mat:
    """A_ij as the coefficient of x^2i y x^(k-2i-2) y in
    ad_x^2j(y) (.) ad_x^(k-2-2j)(y), the depth-1 truncation pairing."""
    n = _check_weight(k)
    from .lie import ad_x_pow, odot

    cols = []
    for j in range(1, n + 1):
        g = odot(ad_x_pow(2 * j), ad_x_pow(k - 2 - 2 * j))
        cols.append([g.coeff("x" * (2 * i) + "y" + "x" * (k - 2 * i - 2) + "y")
                     for i in range(1, n + 1)])
    return Mat(cols).transpose()


def build_S(k: int) -> Mat:
    """The involution with -1's along the antidiagonal."""
    n = _check_weight(k)
    return Mat([[-1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])


def build_T(k: int) -> Mat:
    """Eigenvector basis change: columns v_1..v_m, then w_0 (k = 2 mod 4
    only), then w_1..w_m, copied verbatim from the defining display."""
    n = _check_weight(k)
    m = (k - 4) // 4
    cols = []
    for j in range(1, m + 1):
        v = [0] * n
        v[j - 1] = 1
        v[n - j] = 1
        cols.append(v)
    if k % 4 == 2:
        w0 = [0] * n
        w0[(k - 6) // 4] = 1
        cols.append(w0)
    for j in range(1, m + 1):
        w = [0] * n
        w[j - 1] = -1
        w[n - j] = 1
        cols.append(w)
    return Mat(cols).transpose()


def build_D(k: int) -> Mat:
    """Diagonal matrix with D^-1 = diag(C(k-2, 2i))."""
    n = _check_weight(k)
    return Mat([[Fraction(1, math.comb(k - 2, 2 * i)) if i == j else 0
                 for j in range(1, n + 1)] for i in range(1, n + 1)])


def build_B(k: int) -> Mat:
    """B_ij = C(2j, 2i)."""
    n = _check_weight(k)
    return Mat([[math.comb(2 * j, 2 * i) for j in range(1, n + 1)]
                for i in range(1, n + 1)])


def conjugate_M(k: int) -> Mat:
    """M = T^-1 A T.  The columns t_j of T are pairwise orthogonal, so
    T^-1 = diag(1/|t_j|^2) T^t: M is the int product T^t A T with row j
    divided by |t_j|^2, and nothing is eliminated."""
    T = build_T(k)
    Tt = T.transpose()
    norms = [sum(map(mul, t, t)) for t in Tt.rows]
    return Mat([[unscaled(x, s) for x in row]
                for row, s in zip((Tt @ build_A(k) @ T).rows, norms)])


def block_check(M: Mat, k: int) -> bool:
    """Verify the identity upper-left and zero upper-right blocks of M: its
    top (k-2)//4 rows are those of the identity.  That is (k-4)/4 square
    identity blocks when k = 0 mod 4, and a (k-2)/4 square identity next to
    a (k-2)/4 x (k-6)/4 zero block when k = 2 mod 4."""
    top = (k - 2) // 4
    return M.rows[:top] == Mat.identity(_check_weight(k)).rows[:top]


def symmetry_product(k: int) -> Mat:
    """tA D B."""
    return build_A(k).transpose() @ build_D(k) @ build_B(k)
