"""Command-line front end.

Subcommands expose each pipeline with deterministic text/JSON/CSV output:
relations, period-basis, matrix, check, report, ds-solve, regularize, fz-dim.
Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import mpmath as mp

from . import lie, linalg, numzeta, periodpoly, regularization, relations
from .words import ConsistencyError


def _matrix_builders():
    return {
        "A": linalg.build_A,
        "Asym": linalg.build_A_symbolic,
        "M": linalg.conjugate_M,
        "S": linalg.build_S,
        "T": linalg.build_T,
        "D": linalg.build_D,
        "B": linalg.build_B,
        "tADB": linalg.symmetry_product,
    }


def _cmd_relations(args) -> int:
    rels = []
    if args.kind in ("bracket", "all"):
        rels += relations.ihara_relations(args.weight)
    if args.kind in ("zeta", "all"):
        rels += relations.gkz_relations(args.weight)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in rels], indent=2))
    elif args.format == "csv":
        print("weight,kind,r,s,coeff")
        for rel in rels:
            for (r, s), c in rel.terms:
                print(f"{rel.weight},{rel.kind},{r},{s},{str(c)}")
    else:
        for rel in rels:
            print(str(rel))
    return 0


def _cmd_period_basis(args) -> int:
    for p in periodpoly.ek_basis(args.weight):
        print(periodpoly.period_str(p))
        print("  a =", "(" + ", ".join(map(str, p)) + ")")
        print("  q =", "(" + ", ".join(map(str, periodpoly.q_vector(p))) + ")")
    return 0


def _cmd_matrix(args) -> int:
    M = _matrix_builders()[args.which](args.weight)
    if args.format == "csv":
        print(M.to_csv())
    elif args.format == "json":
        print(M.to_json())
    else:
        print(str(M))
    return 0


def _cmd_check(args) -> int:
    # The largest working precision an accepted input reaches is 76 digits,
    # at weight 58 and 40 digits (see verify_relation), under numzeta's 100.
    if not 15 <= args.digits <= 40:
        raise ValueError(f"--digits must be in 15..40, got {args.digits}")
    ok = True
    rels = relations.gkz_relations(args.weight)
    if not rels:
        print(f"weight {args.weight}: no double zeta relations (dimension 0)")
        return 0
    threshold = mp.mpf(10) ** -args.digits
    for rel in rels:
        residual, scalar = numzeta.verify_relation(rel, args.digits)
        status = "ok" if residual < threshold else "FAIL"
        if status == "FAIL":
            ok = False
        print(f"{status} {rel}  scalar = {str(scalar)}  "
              f"residual = {mp.nstr(residual, 3)}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    weights = range(args.start + args.start % 2, args.stop + 1, 2)
    if not weights:
        raise ValueError("--from/--to must span at least one even weight")
    # all built before the first is printed: a rejected weight prints nothing
    reports = [relations.correspondence_report(k) for k in weights]
    for rep in reports:
        print(json.dumps(rep))
    return 0 if all(rep["all_ok"] for rep in reports) else 1


def _cmd_ds_solve(args) -> int:
    basis = lie.ds_solve(args.weight)
    print(f"dim ds_{args.weight} (depth-graded solver) = {len(basis)}")
    for f in basis:
        print(str(f))
    return 0


def _cmd_regularize(args) -> int:
    # In a fresh process the costliest 14-letter words found, y^10 x^3 y --star
    # and y^6 x^8, take under 1.5 s and 100 MB; y^8 x^8 takes 4.3 s and 415 MB.
    if len(args.word) > 14:
        raise ValueError(f"--word must have at most 14 letters, got {len(args.word)}")
    reg = regularization.star_regularize if args.star else regularization.shuffle_regularize
    print(regularization.zeta_str(reg(args.word)))
    return 0


def _cmd_fz_dim(args) -> int:
    dim, basis = regularization.fz_quotient_dim(args.weight)
    print(f"dim weight-{args.weight} formal zeta quotient = {dim}")
    for rel in basis:
        print(f"{regularization.zeta_str(rel)} = 0")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later main
    call: it holds no state of a job, as parse_args returns a fresh
    namespace each time."""
    p = argparse.ArgumentParser(
        prog="dshuffle",
        description="Exact period polynomial / double zeta relation engine",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("relations", help="bracket and double zeta relations")
    q.add_argument("--weight", type=int, required=True)
    q.add_argument("--kind", choices=["bracket", "zeta", "all"], default="all")
    q.add_argument("--format", choices=["text", "json", "csv"], default="text")
    q.set_defaults(func=_cmd_relations)

    q = sub.add_parser("period-basis", help="restricted even period polynomial basis")
    q.add_argument("--weight", type=int, required=True)
    q.set_defaults(func=_cmd_period_basis)

    q = sub.add_parser("matrix", help="print one of the constructed matrices")
    q.add_argument("--which", choices=sorted(_matrix_builders()), required=True)
    q.add_argument("--weight", type=int, required=True)
    q.add_argument("--format", choices=["text", "json", "csv"], default="text")
    q.set_defaults(func=_cmd_matrix)

    q = sub.add_parser("check", help="numeric verification of double zeta relations")
    q.add_argument("--weight", type=int, required=True)
    q.add_argument("--digits", type=int, default=30)
    q.set_defaults(func=_cmd_check)

    q = sub.add_parser("report", help="correspondence report sweep")
    q.add_argument("--from", dest="start", type=int, required=True)
    q.add_argument("--to", dest="stop", type=int, required=True)
    q.set_defaults(func=_cmd_report)

    q = sub.add_parser("ds-solve", help="double shuffle solutions at one weight")
    q.add_argument("--weight", type=int, required=True)
    q.set_defaults(func=_cmd_ds_solve)

    q = sub.add_parser("regularize", help="regularize a word onto convergent symbols")
    q.add_argument("--word", required=True)
    q.add_argument("--star", action="store_true")
    q.set_defaults(func=_cmd_regularize)

    q = sub.add_parser("fz-dim", help="formal zeta quotient dimension at one weight")
    q.add_argument("--weight", type=int, required=True)
    q.set_defaults(func=_cmd_fz_dim)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConsistencyError) else 2


if __name__ == "__main__":
    sys.exit(main())
