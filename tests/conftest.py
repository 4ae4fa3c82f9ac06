import math
from fractions import Fraction

import mpmath as mp
from hypothesis import strategies as st

from dshuffle.regularization import star_regularize
from dshuffle.words import NcPoly, accumulate, shuffle_poly, stuffle


def words(min_size=0, max_size=6):
    return st.text(alphabet="xy", min_size=min_size, max_size=max_size)


def y_words(min_size=1, max_size=5):
    """Nonempty words ending in y."""
    return st.builds(lambda w: w + "y", st.text(alphabet="xy", max_size=max_size - 1))


def rationals():
    return st.builds(Fraction,
                     st.integers(min_value=-9, max_value=9),
                     st.integers(min_value=1, max_value=9))


def nc_polys(max_terms=4, max_word=5):
    return st.builds(
        NcPoly,
        st.dictionaries(words(max_size=max_word), rationals(), max_size=max_terms),
    )


def homogeneous_polys(weight, max_terms=4):
    return st.builds(
        NcPoly,
        st.dictionaries(words(min_size=weight, max_size=weight), rationals(),
                        max_size=max_terms),
    )


def fraction_rref(rows):
    """Column-by-column Gauss-Jordan elimination over Fractions (first
    nonzero column, topmost nonzero row): (reduced rows, pivot columns), with
    the zero rows kept at the bottom.  The reduced form of a row space is
    unique, so Mat.rref, which reads it off a kernel, must return the same."""
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        p = next((i for i in range(r, nr) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def fraction_kernel(rows):
    """The kernel linalg.kernel replaced, read off fraction_rref: for each
    free column c in turn, the vector that is 1 at c, 0 at the other free
    columns and minus the reduced entry of column c at each pivot column,
    scaled to coprime ints with its first nonzero entry positive."""
    red, pivots = fraction_rref(rows)
    nc = len(rows[0]) if rows else 0
    basis = []
    for c in range(nc):
        if c in pivots:
            continue
        v = [Fraction(int(j == c)) for j in range(nc)]
        for r, p in enumerate(pivots):
            v[p] = -Fraction(red[r][c])
        den = math.lcm(*(x.denominator for x in v))
        ints = [x.numerator * (den // x.denominator) for x in v]
        g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
        basis.append([x // g for x in ints])
    return basis


def fraction_inverse(rows):
    """The inverse of a square matrix, read off fraction_rref of [M | I]:
    the right half of the reduced rows, once the left half is the identity."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = fraction_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red]


def fraction_matmul(a_rows, b_rows):
    """The product Mat.__matmul__ replaced: each entry summed term by term
    over the entries as given, so in Fractions once a factor holds one."""
    ot = list(map(list, zip(*b_rows)))
    return [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in a_rows]


def rref_rank(rows):
    """Plain dense elimination, independent of the package's kernel path."""
    return len(fraction_rref(rows)[1])


def fraction_stuffle_relation(u, v):
    """The build stuffle_relation replaced: Z*(u) Z*(v) - Z*(u * v) summed
    term by term over the star values as given, so in Fractions wherever one
    holds a Fraction."""
    out = dict(shuffle_poly(star_regularize(u), star_regularize(v)).terms)
    for w, c in stuffle(u, v).terms.items():
        accumulate(out, star_regularize(w).terms, -c)
    return NcPoly._wrap(out)


def necklace_count(n):
    """Lyndon words of length n over two letters, that is dim Lie_n[x, y],
    by the necklace formula (1/n) sum_{d | n} mu(d) 2^(n/d)."""
    def mobius(d):
        result, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if d > 1 else result

    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def satisfies_period_equations(P):
    """Both functional equations of E_k, P(X) + X^(k-2) P(1/X) = 0 and
    P(X) + X^(k-2) P(1 - 1/X) + (X - 1)^(k-2) P(1/(1 - X)) = 0, evaluated in
    Fractions at X = 2 .. k+1.  Each left side times the cleared powers is a
    polynomial of degree <= k-2, so k distinct roots make it zero.  Shares
    no code with ek_basis, which builds the equations coefficient-wise."""
    k = P.k

    def p(x):
        return sum(c * x ** (2 * i) for i, c in enumerate(P.coeffs, 1))

    for x in map(Fraction, range(2, k + 2)):
        if p(x) + x ** (k - 2) * p(1 / x):
            return False
        if p(x) + x ** (k - 2) * p(1 - 1 / x) + (x - 1) ** (k - 2) * p(1 / (1 - x)):
            return False
    return True


def reconstruct_rational(x, max_denominator=10 ** 6):
    """Best continued-fraction approximation of x with denominator at most
    max_denominator: the guess relations.gkz_scalar replaced, right only
    while the true denominator is below the bound (weights 12..22)."""
    p, q = mp.libmp.to_rational(mp.mpf(x)._mpf_)
    return Fraction(p, q).limit_denominator(max_denominator)


def nsum_zeta_double(r, s, digits):
    """zeta(r, s) summed as sum_m H_(m-1)^(s) / m^r: an exact prefix plus a
    Richardson-accelerated tail whose terms come from the Hurwitz zeta
    function; the s = 1 column splits off the logarithmic part of the
    harmonic numbers through zeta'(r).  Independent of the package's
    Hölder convolution, and about 1 s per value."""
    if r < 2:
        raise ValueError("zeta(r, s) requires r >= 2")
    if s < 1:
        raise ValueError("zeta(r, s) requires s >= 1")
    if digits > 50:
        raise ValueError("digits <= 50")
    with mp.workdps(digits + 15):
        if s == 1:
            # H_(m-1) = ln m + euler - d_m with d_m smooth in 1/m;
            # sum m^-r ln m = -zeta'(r), sum m^-r = zeta(r)
            g = mp.euler
            main = -mp.zeta(r, derivative=1) + g * mp.zeta(r)

            def dterm(m):
                return (mp.ln(m) + g - mp.harmonic(m - 1)) / mp.mpf(m) ** r

            return +(main - mp.nsum(dterm, [1, mp.inf]))
        zs = mp.zeta(s)

        def term(m):
            # H_(m-1)^(s) = zeta(s) - zeta(s, m)
            return (zs - mp.zeta(s, m)) / mp.mpf(m) ** r

        return +mp.nsum(term, [2, mp.inf])
