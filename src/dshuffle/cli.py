"""Command-line front end.

Subcommands expose each pipeline with deterministic text/JSON/CSV output:
relations, period-basis, matrix, check, report, ds-solve, regularize, fz-dim.
main writes a command's lines to stdout once it has finished, so a rejected
input or a broken invariant leaves stdout empty and a closed pipe ends quietly.
Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _cmd_relations(args) -> tuple[list, bool]:
    rels = []
    if args.kind in ("bracket", "all"):
        rels += relations.ihara_relations(args.weight)
    if args.kind in ("zeta", "all"):
        rels += relations.gkz_relations(args.weight)
    if args.format == "json":
        lines = [json.dumps([r.to_dict() for r in rels], indent=2)]
    elif args.format == "csv":
        lines = ["weight,kind,r,s,coeff", *(f"{rel.weight},{rel.kind},{r},{s},{str(c)}"
                                            for rel in rels for (r, s), c in rel.terms)]
    else:
        lines = [str(rel) for rel in rels]
    return lines, True


def _cmd_period_basis(args) -> tuple[list, bool]:
    lines = []
    for p in periodpoly.ek_basis(args.weight):
        lines += [periodpoly.period_str(p), "  a = (" + ", ".join(map(str, p)) + ")",
                  "  q = (" + ", ".join(map(str, periodpoly.q_vector(p))) + ")"]
    return lines, True


def _cmd_matrix(args) -> tuple[list, bool]:
    M = _matrix_builders()[args.which](args.weight)
    return [{"csv": M.to_csv, "json": M.to_json, "text": M.__str__}[args.format]()], True


def _cmd_check(args) -> tuple[list, bool]:
    # The largest working precision an accepted input reaches is 76 digits,
    # at weight 58 and 40 digits (see verify_relation), under numzeta's 100.
    if not 15 <= args.digits <= 40:
        raise ValueError(f"--digits must be in 15..40, got {args.digits}")
    rels = relations.gkz_relations(args.weight)
    if not rels:
        return [f"weight {args.weight}: no double zeta relations (dimension 0)"], True
    threshold = mp.mpf(10) ** -args.digits
    lines, ok = [], True
    for rel in rels:
        residual, scalar = numzeta.verify_relation(rel, args.digits)
        ok &= residual < threshold
        lines.append(f"{'ok' if residual < threshold else 'FAIL'} {rel}  "
                     f"scalar = {str(scalar)}  residual = {mp.nstr(residual, 3)}")
    return lines, ok


def _cmd_report(args) -> tuple[list, bool]:
    weights = range(args.start + args.start % 2, args.stop + 1, 2)
    if not weights:
        raise ValueError("--from/--to must span at least one even weight")
    reports = [relations.correspondence_report(k) for k in weights]
    return [json.dumps(rep) for rep in reports], all(rep["all_ok"] for rep in reports)


def _cmd_ds_solve(args) -> tuple[list, bool]:
    basis = lie.ds_solve(args.weight)
    return [f"dim ds_{args.weight} (depth-graded solver) = {len(basis)}",
            *map(str, basis)], True


def _cmd_regularize(args) -> tuple[list, bool]:
    # Fresh process: y^10 x^3 y --star, the costliest 14-letter word found,
    # 0.35 s and 73 MB; without --star y^8 x^6 0.15 s, y^8 x^8 0.29 s and 77 MB.
    if len(args.word) > 14:
        raise ValueError(f"--word must have at most 14 letters, got {len(args.word)}")
    reg = regularization.star_regularize if args.star else regularization.shuffle_regularize
    return [regularization.zeta_str(reg(args.word))], True


def _cmd_fz_dim(args) -> tuple[list, bool]:
    dim, basis = regularization.fz_quotient_dim(args.weight)
    return [f"dim weight-{args.weight} formal zeta quotient = {dim}",
            *(f"{regularization.zeta_str(rel)} = 0" for rel in basis)], True


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
    args = build_parser().parse_args(argv)
    try:
        lines, ok = args.func(args)
    except (ValueError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConsistencyError) else 2
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: the interpreter's last flush goes to devnull, not a traceback
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
