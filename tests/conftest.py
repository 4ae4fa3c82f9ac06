from fractions import Fraction

import mpmath as mp
from hypothesis import strategies as st

from dshuffle.words import NcPoly


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


def rref_rank(rows):
    """Plain dense elimination, independent of the package's kernel path."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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
