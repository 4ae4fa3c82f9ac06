"""Orchestration of the full correspondence for a given even weight:
restricted even period polynomial basis -> kernel vectors of A and tA ->
bracket relations between depth-1 Lie elements and double zeta relations,
with every cross-check recorded in the JSON object `report` prints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

import mpmath as mp

from .linalg import (Mat, _check_weight, build_A, build_A_symbolic, build_B,
                     build_D, conjugate_M, block_check, kernel, normalize_vector,
                     same_span, scaled_DB)
from .periodpoly import ek_basis, ek_dim_formula, q_vector
from .words import (ConsistencyError, NcPoly, accumulate, format_terms, shuffle,
                    stuffle, word_of_composition)


class Relation:
    """A tagged linear relation in even weight k.

    kind "bracket": terms ((2i+1, k-2i-1), a_i) with the combination of
    Poisson brackets {f_2i+1, f_k-2i-1} vanishing modulo depth 3.
    kind "double_zeta": terms ((r, k-r), q_r) with the combination of
    Z(r, k-r) a scalar multiple of Z(k).
    """

    __slots__ = ("weight", "kind", "terms")

    def __init__(self, weight: int, kind: str, terms: tuple):
        self.weight = weight
        self.kind = kind
        self.terms = terms

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "kind": self.kind,
            "terms": [{"r": r, "s": s, "coeff": str(c)}
                      for (r, s), c in self.terms],
            # always null: the recorded `relations --format json` digests print it
            "scalar_estimate": None,
        }

    def __str__(self) -> str:
        if self.kind == "bracket":
            body = format_terms(((f"{{f{r}, f{s}}}", c) for (r, s), c in self.terms), " ")
            return f"{body} ≡ 0 (mod depth 3)"
        body = format_terms(((f"Z({r},{s})", c) for (r, s), c in self.terms), " ")
        return f"{body} ≡ 0 (mod Z({self.weight}))"


def ihara_relations(k: int) -> List[Relation]:
    """One bracket relation per period polynomial basis element, with
    coefficients (a_1, ..., a_floor((k-4)/4)), the first half of its vector;
    by antisymmetry that half has the vector's content 1 and positive first
    entry.  Takes the weights build_A takes, as gkz_relations does."""
    out = []
    m = _check_weight(k) // 2
    for p in ek_basis(k):
        terms = tuple(((2 * i + 1, k - 2 * i - 1), p[i - 1]) for i in range(1, m + 1))
        out.append(Relation(weight=k, kind="bracket", terms=terms))
    return out


def gkz_relations(k: int) -> List[Relation]:
    """One double zeta relation per period polynomial basis element.

    Coefficients are the q-vector scaled to the convention of the printed
    weight-12 relation: twice the primitive integer vector with first
    nonzero entry positive, whose last entry, the coefficient of Z(k-3, 3),
    is then never negative at the weights ek_basis takes.  Terms are listed
    with r descending, Z(k-3, 3) first.  The emitted vectors are checked
    to span Ker tA, which also puts each of them in it.  A weight that
    build_A or ek_basis rejects is rejected before A^t is eliminated.
    """
    pairs = [(2 * j + 1, k - 2 * j - 1) for j in range(1, _check_weight(k) + 1)]
    vecs = [[2 * c for c in normalize_vector(q_vector(p))] for p in ek_basis(k)]
    if not same_span(vecs, kernel(build_A(k).transpose())):
        raise ConsistencyError("emitted relations do not span Ker tA")
    return [Relation(weight=k, kind="double_zeta", terms=tuple(zip(pairs, q))[::-1])
            for q in vecs]


def gkz_scalar(rel: Relation) -> Fraction:
    """The exact c with sum q_(r,s) Z(r, s) = c Z(k) in the formal depth-2
    double zeta space of Gangl-Kaneko-Zagier: the unknowns Z(j, k-j),
    2 <= j < k, and Z(k), cut by stuffle = shuffle for 2 <= r <= s (every
    word of both products is convergent, so neither is regularized) and by
    Euler's Z(r) Z(s) = beta Z(k), beta = -B_r B_s C(k, r) / (2 B_k), for
    even r, s.  A kernel vector of the matrix whose columns are these rows,
    the relation and Z(k), with mu on the relation and nu on Z(k), gives
    c = -nu/mu; there must be exactly one such c.  rel must be a double_zeta
    relation and each term a Z(r, s) of weight k, r >= 2, s >= 1, with int
    parts and a rational coefficient, all checked before the first row is
    built; a repeated Z(r, s) counts with the sum of its coefficients."""
    k = rel.weight
    if rel.kind != "double_zeta" or any(r < 2 or s < 1 or r + s != k
                                        for (r, s), _ in rel.terms):
        raise ValueError(f"not a relation among Z(r, s) of weight {k}: {rel}")
    relation = sum((NcPoly({word_of_composition(rs): c}) for rs, c in rel.terms),
                   NcPoly())
    zk = word_of_composition((k,))
    bern = [Fraction(*mp.bernfrac(n)) for n in range(k + 1)]
    cols = []
    for r in range(2, k // 2 + 1):
        u, v = word_of_composition((r,)), word_of_composition((k - r,))
        st = stuffle(u, v).terms
        cols.append(accumulate(dict(shuffle(u, v).terms), st, -1))
        if r % 2 == 0:
            beta = -bern[r] * bern[k - r] * math.comb(k, r) / (2 * bern[k])
            cols.append(accumulate(dict(st), {zk: -beta}))
    cols += [relation.terms, {zk: 1}]
    words = [word_of_composition((j, k - j)) for j in range(2, k)] + [zk]
    rows = [[col.get(w, 0) for col in cols] for w in words]
    scalars = {Fraction(-nu, mu) if mu else None
               for *_, mu, nu in kernel(Mat(rows)) if mu or nu}
    if len(scalars) != 1 or None in scalars:
        raise ConsistencyError(f"no unique scalar for {rel}")
    return scalars.pop()


def correspondence_report(k: int) -> dict:
    """Run every exact cross-check at weight k.  The result is the JSON
    object `report` prints, keys in printed order and kernel entries as
    rational strings; all_ok means no check failed.  Takes the weights
    build_A and ek_basis take, even 12..60: ek_basis runs first, as in
    gkz_relations, so a larger weight is rejected before A is built."""
    basis = ek_basis(k)
    A = build_A(k)
    tA = A.transpose()
    L, DB = scaled_DB(build_D(k), build_B(k))
    ker_A = kernel(A)
    ker_tA = kernel(tA)
    dim_formula = ek_dim_formula(k)
    dims_agree = len(basis) == len(ker_A) == len(ker_tA) == dim_formula
    # null above 30, as the recorded report 12..40 digest prints it
    symbolic_agrees = build_A_symbolic(k) == A if k <= 30 else None
    symmetry_ok = (tA @ DB).is_symmetric()
    block_ok = block_check(conjugate_M(k), k)
    duality_span_ok = same_span([DB.mul_vec(v) for v in ker_A], ker_tA)
    q_equals_DBa = all([L * c for c in q_vector(p)] == DB.mul_vec(p) for p in basis)
    failures = [message for message, ok in (
        ("dimension mismatch", dims_agree),
        ("Ker A != a(E_k)", ker_A == basis),
        ("symbolic A differs from closed form", symbolic_agrees is not False),
        ("tADB not symmetric", symmetry_ok),
        ("block structure violated", block_ok),
        ("Ker tA != DB Ker A", duality_span_ok),
        ("q_vector != DB a", q_equals_DBa),
    ) if not ok]

    return {
        "weight": k, "dim_formula": dim_formula, "dim_ek": len(basis),
        "dim_ker_A": len(ker_A), "dim_ker_tA": len(ker_tA), "dims_agree": dims_agree,
        "symbolic_agrees": symbolic_agrees, "symmetry_ok": symmetry_ok,
        "block_ok": block_ok, "duality_span_ok": duality_span_ok,
        "q_equals_DBa": q_equals_DBa, "all_ok": not failures, "failures": failures,
        "ker_A": [list(map(str, v)) for v in ker_A],
        "ker_tA": [list(map(str, v)) for v in ker_tA],
    }
