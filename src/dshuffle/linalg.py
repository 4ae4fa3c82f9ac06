"""Dense exact-rational matrices and the specific matrix constructions
used by the period-polynomial / double-zeta correspondence:

    A       closed-form coefficient matrix (and its symbolic twin computed
            from the enveloping-algebra product of depth-1 Lie elements)
    S, T    antidiagonal involution and its eigenvector basis change
    D, B    the binomial matrices entering the q <- a variable change
    M       T^-1 A T, with its identity/zero block structure
    tADB    the symmetric product

Entries stay ints unless a division (D, M, tADB, the pivot rows of an rref,
and so inverses) makes a Fraction.  Products are plain dot products, and
the package takes them in ints only: DB is built once, by scaled_DB, as the
int matrix L D B, L the lcm of the denominators of D.  `report` reads DB
only up to scale, and tADB is tA (L D B) divided by L.

There is one elimination, kernel, and it works by cutting the identity: an
int basis K of Q^ncols loses one vector per independent row of the matrix,
and a dependent row costs |K| dot products.  K ends in a reduced echelon
form of its own, so kernel bases are canonical, and reproducible whatever
the row order: int entries, content 1, first nonzero positive, one vector
per free column.  So kernel takes the rows in the order of their last
nonzero column.  Then a unit vector e_c joins K only when a row first
reaches column c, and each vector of K is kept only up to the column it
owns, past which it is zero.  rref reads the unique reduced row echelon
form off that basis, and rank is ncols - dim kernel of whichever of M and
M^t has fewer columns.  Every matrix the correspondence and the solvers
hand to kernel or rref is tall or square with a small kernel (ds_solve at
weight 9: 508 x 56, rank 55), so |K| is small for almost every row.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import compress
from operator import itemgetter, mul
from typing import Sequence

from .words import NcPoly, ad_x_pow, odot, scaled, unscaled


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
        cols = list(zip(*other.rows))
        return Mat([[sum(map(mul, r, c)) for c in cols] for r in self.rows])

    def transpose(self) -> "Mat":
        return Mat(list(map(list, zip(*self.rows))))

    def mul_vec(self, v: Sequence) -> list:
        return [sum(map(mul, r, v)) for r in self.rows]

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
        columns, as kernel keeps up to one vector per column."""
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
        return "\n".join(",".join(map(str, row)) for row in self.rows)

    def to_json(self) -> str:
        return json.dumps([list(map(str, row)) for row in self.rows])

    def __str__(self) -> str:
        cells = [list(map(str, row)) for row in self.rows]
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
    linear form that is f on row and e on v.  v may be shorter than row, as
    a prefix padded with zeros; row's tail past v is only scaled."""
    g = math.gcd(e, f)
    a, b = e // g, f // g
    tail = [a * x for x in row[len(v):]]
    return _content_free([a * x - b * y for x, y in zip(row, v)] + tail)


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
    M, t_j = v . k_j.  If every t_j is 0, v lies in the row space already and
    K stays.  Otherwise the first k_j0 with t_j0 != 0 is dropped and every
    other k_j becomes _cut(k_j, t_j, k_j0, t_j0), which v annihilates.
    Throughout, K spans the null space of the rows seen so far, and each k_j
    is nonzero at its own column, zero at the columns the others own and at
    every later column.  Such a basis is unique up to scaling, so the columns
    still owned at the end are the free ones and K, normalized, is the
    canonical basis, whatever the order of the rows.

    So the nonzero rows go in the order of their last nonzero column, stably,
    and each k_j is kept as its prefix up to its own column, padded with
    zeros only when it is normalized.  A row that ends before column c leaves
    e_c alone, so e_c joins K only when the first row reaching c comes, after
    every vector that owns an earlier column, and the columns no row reaches
    join at the end.  t_j = sum(map(mul, v, k_j)) stops at the end of k_j.
    k_j0 owns the least column of the vectors cut, so it is the shortest of
    them, and _cut scales the tail of k_j past it.  Once every column has
    joined and K is empty, no later row can change it."""
    n = M.ncols
    back = range(n - 1, -1, -1)
    rows = sorted([(last, row) for row in M.rows
                   if (last := next(compress(back, reversed(row)), -1)) >= 0],
                  key=itemgetter(0))
    K = []
    opened = 0  # the columns 0..opened-1 have joined K
    for last, row in rows:
        if not K and opened == n:
            break
        K += ([0] * c + [1] for c in range(opened, last + 1))
        opened = last + 1
        v = scaled(row)[0]
        ts = [sum(map(mul, v, k)) for k in K]
        j0 = next((j for j, t in enumerate(ts) if t), None)
        if j0 is None:
            continue
        e, k0 = ts.pop(j0), K.pop(j0)
        for j, t in enumerate(ts):
            if t:
                K[j] = _cut(K[j], t, k0, e)
    K += ([0] * c + [1] for c in range(opened, n))
    return [normalize_vector(k) + [0] * (n - len(k)) for k in K]


def same_span(vs: list, ws: list) -> bool:
    """Subspace equality via ranks of stacked bases (double inclusion)."""
    rv = Mat(vs).rank()
    rw = Mat(ws).rank()
    return rv == rw == Mat(vs + ws).rank()


# -- correspondence-specific constructions ---------------------------------


def _check_weight(k: int) -> int:
    if not isinstance(k, int) or k % 2 or k < 12:
        raise ValueError(f"weight must be even and >= 12, got {k!r}")
    # The builders cost about k^3: in a fresh process tADB takes 0.4 s and
    # 24 MB at weight 200, and 2.2 s and 54 MB at 400.
    if k > 200:
        raise ValueError(f"weight must be at most 200, got {k}")
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
    ad_x^2j(y) (.) ad_x^(k-2-2j)(y), the depth-1 truncation pairing.

    Only the term x^(k-2-2j) y of the right factor, with coefficient 1, can
    reach these words.  Every word read ends in y.  f (.) g = fg + D_f(g)
    is linear in g, and for a word w of g that ends in x, fw ends in x, and
    so does each word of D_f(w): D_f replaces a y of w by the words of
    [y, f] and, as D_f(x) = 0, leaves the last letter x alone.  Every other
    term of ad_x^(k-2-2j)(y) ends in x, so the right factor is that one
    word, and the product is still f (.) g, not its closed form."""
    n = _check_weight(k)
    cols = []
    for j in range(1, n + 1):
        g = odot(ad_x_pow(2 * j), NcPoly.word("x" * (k - 2 - 2 * j) + "y"))
        cols.append([g.coeff("x" * (2 * i) + "y" + "x" * (k - 2 * i - 2) + "y")
                     for i in range(1, n + 1)])
    return Mat(cols).transpose()


def build_S(k: int) -> Mat:
    """The involution with -1's along the antidiagonal."""
    n = _check_weight(k)
    return Mat([[-1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])


def mirror_vector(n: int, j: int, s: int) -> list:
    """s e_j + e_(n-1-j) in Q^n, 0-based, and (s + 1) e_j at the middle of an
    odd n.  S swaps j and n-1-j: T's columns and E_k's antisymmetry rows."""
    v = [0] * n
    v[j] += s
    v[n - 1 - j] += 1
    return v


def build_T(k: int) -> Mat:
    """Eigenvector basis change: columns v_j = e_j + e_(n-1-j), then w_0 = e_m
    (k = 2 mod 4 only), then w_j = e_(n-1-j) - e_j, each for j < m = (k-4)//4."""
    n = _check_weight(k)
    m = (k - 4) // 4
    cols = [mirror_vector(n, j, 1) for j in range(m)]
    if k % 4 == 2:
        cols.append(mirror_vector(n, m, 0))
    cols += [mirror_vector(n, j, -1) for j in range(m)]
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


def scaled_DB(D: Mat, B: Mat) -> tuple:
    """(L, L D B) for a diagonal D, L the lcm of its denominators: row i is
    L d_i times row i of B, in ints.  Neither the symmetry of tA DB nor the
    span of DB Ker A sees L, and q = DB a is checked as L q = (L D B) a."""
    diag, L = scaled([row[i] for i, row in enumerate(D.rows)])
    return L, Mat([[d * b for b in row] for d, row in zip(diag, B.rows)])


def symmetry_product(k: int) -> Mat:
    """tA D B, as the int product tA (L D B) with each entry divided by L."""
    L, DB = scaled_DB(build_D(k), build_B(k))
    tADB = build_A(k).transpose() @ DB
    return Mat([[unscaled(x, L) for x in row] for row in tADB.rows])
