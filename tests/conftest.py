import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from hypothesis import strategies as st

from dshuffle.lie import admissible_stuffle_pairs
from dshuffle.numzeta import GUARD_DIGITS
from dshuffle.regularization import star_regularize
from dshuffle.words import NcPoly, accumulate, bracket, pair, shuffle_poly, stuffle


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
    """The independent product oracle the tests keep: each entry summed term
    by term over the entries as given, so in Fractions once a factor holds one."""
    ot = list(map(list, zip(*b_rows)))
    return [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in a_rows]


def rref_rank(rows):
    """Plain dense elimination, independent of the package's kernel path."""
    return len(fraction_rref(rows)[1])


def shuffle_oracle(u, v):
    """u * v by the positions formula, sharing no code with words: for each
    |u|-subset of the |u| + |v| positions, u read onto the subset and v onto
    the rest; the {word: coefficient} dict."""
    out = Counter()
    for chosen in map(set, itertools.combinations(range(len(u) + len(v)), len(u))):
        us, vs = iter(u), iter(v)
        out["".join(next(us) if i in chosen else next(vs)
                    for i in range(len(u) + len(v)))] += 1
    return dict(out)


@lru_cache(maxsize=None)
def _stuffle_compositions(a, b):
    """(a_1, A) * (b_1, B) = a_1 (A * b) + b_1 (a * B) + (a_1 + b_1) (A * B)
    on compositions, as a Counter of composition tuples."""
    if not a or not b:
        return Counter({a or b: 1})
    out = Counter()
    for head, ra, rb in ((a[0], a[1:], b), (b[0], a, b[1:]), (a[0] + b[0], a[1:], b[1:])):
        for w, c in _stuffle_compositions(ra, rb).items():
            out[(head,) + w] += c
    return out


def stuffle_oracle(u, v):
    """The composition recursion words.stuffle replaced: each word ending in
    y read as the composition (i_1, ..., i_r) of its blocks x^(i-1) y, the
    compositions stuffled, and each result written back as a word; the
    {word: coefficient} dict of u * v."""
    def composition(w):
        if not w.endswith("y") or w.strip("xy"):
            raise ValueError(f"not a word ending in y: {w!r}")
        return tuple(len(block) + 1 for block in w[:-1].split("y"))

    return {"".join("x" * (i - 1) + "y" for i in parts): c
            for parts, c in _stuffle_compositions(composition(u), composition(v)).items()}


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


def poly_weight(f):
    """Common weight of all terms of f, or None for the zero polynomial."""
    lengths = {len(w) for w in f.terms}
    if len(lengths) > 1:
        raise ValueError("polynomial is not weight-homogeneous")
    return lengths.pop() if lengths else None


def _partitions(n, largest):
    """Partitions of n into parts 2 <= r <= largest, parts non-increasing."""
    if not n:
        yield ()
    for r in range(min(n, largest), 1, -1):
        for rest in _partitions(n - r, r):
            yield (r,) + rest


def star_unit_oracle(N):
    """The y^N coefficient of exp(sum_{r>=2} (-1)^(r-1) Z(r) y^r / r),
    expanded term by term: for each partition of N into parts r >= 2, each
    taken m_r times, the product of ((-1)^(r-1) Z(r) / r)^(m_r) / m_r!, with
    Z symbols multiplied by shuffle_oracle.  Shares nothing with the Newton
    recursion of star_units or with words' shuffle."""
    out = Counter()
    for parts in _partitions(N, N):
        coeff = Fraction(1)
        for r, m in Counter(parts).items():
            coeff *= Fraction((-1) ** ((r - 1) * m), r ** m * math.factorial(m))
        product = {"": 1}
        for r in parts:  # longest first, so the growing product meets short words
            step = Counter()
            for u, c in product.items():
                for t, d in shuffle_oracle(u, "x" * (r - 1) + "y").items():
                    step[t] += c * d
            product = step
        for t, c in product.items():
            out[t] += coeff * c
    return NcPoly(out)


def dynkin(f):
    """Linear extension of the left-to-right bracketing map
    w = l1 l2 ... ln -> [...[[l1, l2], l3]..., ln]."""
    def bracketed(w):
        b = NcPoly.word(w[0])
        for letter in w[1:]:
            b = bracket(b, NcPoly.word(letter))
        return b

    out = {}
    for w, c in f.terms.items():
        if not w:
            raise ValueError("Dynkin map is undefined on the empty word")
        accumulate(out, bracketed(w).terms, c)
    return NcPoly._wrap(out)


def is_lie(f):
    """Dynkin criterion: f of weight n is a Lie polynomial iff dynkin(f) = n f."""
    n = poly_weight(f)
    if n is None:
        return True
    if n < 1:
        raise ValueError("weight must be >= 1")
    return dynkin(f) == f.scale(n)


def ds_check(f):
    """Violated conditions keeping f out of the double shuffle Lie algebra:
    the admissible stuffle pairs (u, v) with (f | u * v) != 0, led by the
    pair ("dynkin", "dynkin") when f is not a Lie polynomial.  Empty means
    f passes every condition; ds_solve must only return such f."""
    n = poly_weight(f)
    if n is None:
        return []
    if n < 3:
        raise ValueError("double shuffle elements have weight >= 3")
    violations = [] if is_lie(f) else [("dynkin", "dynkin")]
    return violations + [(u, v) for u, v in admissible_stuffle_pairs(n)
                         if pair(f, stuffle(u, v))]


def satisfies_period_equations(coeffs):
    """Both functional equations of E_k, k = 2 len(coeffs) + 4, for
    P(X) = sum coeffs[i-1] X^2i: P(X) + X^(k-2) P(1/X) = 0 and
    P(X) + X^(k-2) P(1 - 1/X) + (X - 1)^(k-2) P(1/(1 - X)) = 0, evaluated in
    Fractions at X = 2 .. k+1.  Each left side times the cleared powers is a
    polynomial of degree <= k-2, so k distinct roots make it zero.  Shares
    no code with ek_basis, which builds the equations coefficient-wise."""
    k = 2 * len(coeffs) + 4

    def p(x):
        return sum(c * x ** (2 * i) for i, c in enumerate(coeffs, 1))

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


def holder_zeta_oracle(w, digits):
    """zeta(w) for one convergent word w by the Hölder convolution at 1/2,
    as numzeta._holder_zetas computes it, with N and P chosen the same way,
    but from two passes of its own, over w and over tau(w), with plain
    loops and nothing shared between words.  Each division rounds down as
    there, so the two must agree exactly, not to a tolerance."""
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
