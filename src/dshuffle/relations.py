"""Orchestration of the full correspondence for a given even weight:
restricted even period polynomial basis -> kernel vectors of A and tA ->
bracket relations between depth-1 Lie elements and double zeta relations,
with every cross-check recorded in the JSON object `report` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import mpmath as mp

from .linalg import (Mat, build_A, build_A_symbolic, build_B, build_D,
                     conjugate_M, block_check, kernel, normalize_vector,
                     same_span)
from .periodpoly import a_vector, ek_basis, ek_dim_formula, q_vector
from .regularization import stuffle_relation
from .words import (ConsistencyError, accumulate, format_rational, format_terms,
                    stuffle, word_of_composition)


@dataclass(frozen=True)
class Relation:
    """A tagged linear relation in even weight k.

    kind "bracket": terms ((2i+1, k-2i-1), a_i) with the combination of
    Poisson brackets {f_2i+1, f_k-2i-1} vanishing modulo depth 3.
    kind "double_zeta": terms ((r, k-r), q_r) with the combination of
    Z(r, k-r) a scalar multiple of Z(k); scalar_estimate, when present,
    is that multiple as estimated numerically.
    """

    weight: int
    kind: str
    terms: tuple
    scalar_estimate: Optional[Fraction] = None

    def coefficients(self) -> list:
        return [c for _, c in self.terms]

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "kind": self.kind,
            "terms": [{"r": r, "s": s, "coeff": format_rational(c)}
                      for (r, s), c in self.terms],
            "scalar_estimate": (format_rational(self.scalar_estimate)
                                if self.scalar_estimate is not None else None),
        }

    def __str__(self) -> str:
        if self.kind == "bracket":
            body = format_terms(((f"{{f{r}, f{s}}}", c) for (r, s), c in self.terms), " ")
            return f"{body} ≡ 0 (mod depth 3)"
        body = format_terms(((f"Z({r},{s})", c) for (r, s), c in self.terms), " ")
        return f"{body} ≡ 0 (mod Z({self.weight}))"


def ihara_relations(k: int) -> List[Relation]:
    """One bracket relation per period polynomial basis element, with
    coefficients (a_1, ..., a_floor((k-4)/4)); first coefficient positive."""
    out = []
    m = (k - 4) // 4
    for P in ek_basis(k):
        a = normalize_vector(a_vector(P)[:m])
        terms = tuple(((2 * i + 1, k - 2 * i - 1), a[i - 1]) for i in range(1, m + 1))
        out.append(Relation(weight=k, kind="bracket", terms=terms))
    return out


def gkz_relations(k: int) -> List[Relation]:
    """One double zeta relation per period polynomial basis element.

    Coefficients are the q-vector scaled to the convention of the printed
    weight-12 relation: twice the primitive integer vector, with the
    coefficient of Z(k-3, 3) (the last q entry) positive.  Terms are listed
    with r descending, Z(k-3, 3) first.  Every emitted vector is verified
    to lie in Ker tA, and the emitted set is checked to span it.
    """
    tA = build_A(k).transpose()
    ker_t = kernel(tA)
    out = []
    vecs = []
    for P in ek_basis(k):
        q = normalize_vector(q_vector(P))
        if q and q[-1] < 0:
            q = [-c for c in q]
        q = [2 * c for c in q]
        if any(tA.mul_vec(q)):
            raise ConsistencyError("q-vector fell outside Ker tA")
        vecs.append(q)
        pairs = [(2 * j + 1, k - 2 * j - 1) for j in range(1, len(q) + 1)]
        terms = tuple(sorted(zip(pairs, q), key=lambda t: -t[0][0]))
        out.append(Relation(weight=k, kind="double_zeta", terms=terms))
    if not same_span(vecs, ker_t):
        raise ConsistencyError("emitted relations do not span Ker tA")
    return out


def gkz_scalar(rel: Relation) -> Fraction:
    """The exact c with sum q_(r,s) Z(r, s) = c Z(k) in the formal depth-2
    double zeta space of Gangl-Kaneko-Zagier: the unknowns Z(j, k-j),
    2 <= j < k, and Z(k), cut by stuffle = shuffle for 2 <= r <= s and by
    Euler's Z(r) Z(s) = beta Z(k), beta = -B_r B_s C(k, r) / (2 B_k), for
    even r, s.  A kernel vector of the matrix whose columns are these rows,
    the relation and Z(k), with mu on the relation and nu on Z(k), gives
    c = -nu/mu; there must be exactly one such c.  Every term must be a
    Z(r, s) of weight k, r >= 2, s >= 1."""
    k = rel.weight
    if any(r < 2 or s < 1 or r + s != k for (r, s), _ in rel.terms):
        raise ValueError(f"not a relation among Z(r, s) of weight {k}: {rel}")
    zk = word_of_composition((k,))
    index = {word_of_composition((j, k - j)): j - 2 for j in range(2, k)} | {zk: k - 2}
    bern = [Fraction(*mp.bernfrac(n)) for n in range(k + 1)]
    cols = []
    for r in range(2, k // 2 + 1):
        u, v = word_of_composition((r,)), word_of_composition((k - r,))
        cols.append(stuffle_relation(u, v).terms)
        if r % 2 == 0:
            beta = -bern[r] * bern[k - r] * math.comb(k, r) / (2 * bern[k])
            cols.append(accumulate(dict(stuffle(u, v).terms), {zk: -beta}))
    cols += [{word_of_composition(rs): c for rs, c in rel.terms}, {zk: 1}]
    rows = [[0] * len(cols) for _ in index]
    for j, col in enumerate(cols):
        for w, c in col.items():
            rows[index[w]][j] += c
    scalars = {Fraction(-nu, mu) if mu else None
               for *_, mu, nu in kernel(Mat(rows)) if mu or nu}
    if len(scalars) != 1 or None in scalars:
        raise ConsistencyError(f"no unique scalar for {rel}")
    return scalars.pop()


REPORT_WEIGHTS = range(12, 41, 2)


def correspondence_report(k: int) -> dict:
    """Run every exact cross-check at weight k.  The result is the JSON
    object `report` prints, keys in printed order and kernel entries as
    rational strings; all_ok means no check failed."""
    if k not in REPORT_WEIGHTS:
        raise ValueError(f"report covers even {REPORT_WEIGHTS[0]} <= k <= "
                         f"{REPORT_WEIGHTS[-1]}")
    failures = []
    A = build_A(k)
    tA = A.transpose()
    DB = build_D(k) @ build_B(k)
    basis = ek_basis(k)
    ker_A = kernel(A)
    ker_tA = kernel(tA)
    dim_formula = ek_dim_formula(k)
    dims_agree = len(basis) == len(ker_A) == len(ker_tA) == dim_formula
    if not dims_agree:
        failures.append("dimension mismatch")
    if ker_A != [a_vector(P) for P in basis]:
        failures.append("Ker A != a(E_k)")

    # null above 30, as the recorded report 12..40 digest prints it
    symbolic_agrees: Optional[bool] = None
    if k <= 30:
        symbolic_agrees = build_A_symbolic(k) == A
        if not symbolic_agrees:
            failures.append("symbolic A differs from closed form")

    symmetry_ok = (tA @ DB).is_symmetric()
    if not symmetry_ok:
        failures.append("tADB not symmetric")

    block_ok = block_check(conjugate_M(k), k)
    if not block_ok:
        failures.append("block structure violated")

    image = [normalize_vector(DB.mul_vec(v)) for v in ker_A]
    duality_span_ok = same_span(image, ker_tA)
    if not duality_span_ok:
        failures.append("Ker tA != DB Ker A")

    q_equals_DBa = all(
        list(q_vector(P)) == DB.mul_vec(a_vector(P)) for P in basis
    )
    if not q_equals_DBa:
        failures.append("q_vector != DB a_vector")

    return {
        "weight": k, "dim_formula": dim_formula, "dim_ek": len(basis),
        "dim_ker_A": len(ker_A), "dim_ker_tA": len(ker_tA), "dims_agree": dims_agree,
        "symbolic_agrees": symbolic_agrees, "symmetry_ok": symmetry_ok,
        "block_ok": block_ok, "duality_span_ok": duality_span_ok,
        "q_equals_DBa": q_equals_DBa, "all_ok": not failures, "failures": failures,
        "ker_A": [[format_rational(c) for c in v] for v in ker_A],
        "ker_tA": [[format_rational(c) for c in v] for v in ker_tA],
    }
