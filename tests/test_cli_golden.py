"""Byte-stability of the CLI: the sha256 of stdout and the exit code of
every command below must match cli_golden.json.

The digests pin the text/JSON/CSV output of every subcommand except the
numeric `check` over the whole supported range, so a change that alters
any printed character fails here.  After an intended change of output,
rerun `PYTHONPATH=src python tests/test_cli_golden.py` to record the digests
again, and say in the change why the output moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import shlex

import pytest

from dshuffle.cli import main
from dshuffle.words import words_of_weight

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
WEIGHTS = range(12, 41, 2)
FORMATS = ("text", "json", "csv")


def commands() -> dict:
    """Command lines by group name."""
    return {
        "relations": [["relations", "--weight", str(k), "--format", f]
                      for k in WEIGHTS for f in FORMATS],
        "period-basis": [["period-basis", "--weight", str(k)] for k in WEIGHTS],
        "matrix": [["matrix", "--which", m, "--weight", str(k), "--format", f]
                   for m in ("A", "M", "S", "T", "D", "B", "tADB")
                   for k in WEIGHTS for f in FORMATS]
                  + [["matrix", "--which", "Asym", "--weight", str(k), "--format", f]
                     for k in range(12, 21, 2) for f in FORMATS],
        "report": [["report", "--from", "12", "--to", "40"]],
        "ds-solve": [["ds-solve", "--weight", str(n)] for n in range(3, 11)],
        "fz-dim": [["fz-dim", "--weight", str(n)] for n in range(2, 11)],
        "regularize": [["regularize", "--word", w] + star
                       for n in range(7) for w in words_of_weight(n)
                       for star in ([], ["--star"])]
                      + [["regularize", "--word", "y" * m, "--star"] for m in range(7, 13)]
                      + [["regularize", "--word", "y" + "x" * 11 + "y", "--star"]],
    }


def digest(argv: list) -> list:
    """[sha256 of stdout, exit code] of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]


@pytest.mark.parametrize("group", sorted(commands()))
def test_cli_output_matches_golden_digests(group):
    golden = json.loads(GOLDEN.read_text())
    argvs = commands()[group]
    missing = [shlex.join(a) for a in argvs if shlex.join(a) not in golden]
    assert not missing, f"no recorded digest for {missing[:5]}"
    changed = [shlex.join(a) for a in argvs if digest(a) != golden[shlex.join(a)]]
    assert not changed, f"{len(changed)} of {len(argvs)} commands changed: {changed[:5]}"


if __name__ == "__main__":
    recorded = {shlex.join(a): digest(a)
                for group in commands().values() for a in group}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for cmd in sorted(recorded):
        if old.get(cmd) != recorded[cmd]:
            print(f"{'changed' if cmd in old else 'new'}: {cmd}")
    lines = [f"{json.dumps(cmd)}: {json.dumps(d)}" for cmd, d in sorted(recorded.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(recorded)} digests in {GOLDEN}")
