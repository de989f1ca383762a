"""Generate the CLI golden corpus ``cli.json`` next to this file.

Each entry is one argv run through ``stackbrauer.cli.main`` in process,
with its exit code and stdout; exit-2 entries also keep stderr.
``tests/test_golden.py`` replays every entry and compares byte for byte, so
a refactor that claims unchanged behaviour can be checked against output
recorded before it.  The corpus is frozen: regenerate it only when a change
means to alter CLI output, and say so in that change.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

from stackbrauer.cli import main
from stackbrauer.rootdata import SimpleType, cartan_matrix

CORPUS = Path(__file__).with_name("cli.json")

#: The simply connected groups of the acceptance check on Br(BG) (|Z| <= 16).
CATALOG = [
    ["A1"], ["A2"], ["A3"], ["A4"], ["A5"], ["A6"], ["A7"], ["A9"],
    ["A11"], ["A12"], ["A13"], ["A15"],
    ["B2"], ["C3"], ["D4"], ["D5"], ["D6"], ["D7"],
    ["E6"], ["E7"], ["E8"], ["F4"], ["G2"],
    ["A1", "A1"], ["A1", "A2"], ["A1", "A3"], ["A1", "A7"],
    ["A2", "A2"], ["A2", "A4"], ["A3", "A3"], ["A3", "D4"],
    ["A2", "B2"], ["A1", "E8"], ["D4", "G2"],
    ["A1", "A1", "A1"], ["A1", "A1", "A3"], ["A1", "A1", "A2"],
    ["A1", "A1", "A1", "A1"],
]

#: The README examples, table form and JSON form.
README = [
    ["snf", "2,-1;-1,2"],
    ["snf", "2,-1;-1,2", "--json"],
    ["br-bg", "--type", "A1"],
    ["br-bg", "--type", "A1", "--center", "trivial"],
    ["br-bg", "--type", "A3", "--center", "gens=2"],
    ["br-bg", "--spec", '{"factors": ["A3"], "central_generators": [[2]]}'],
    ["enumerate", "--g", "2", "--N", "2"],
    ["inertia", "--g", "2", "--N", "2"],
    ["classify", "--datum", "0,2,6"],
    ["classify", "--datum", "0,2,6", "--json"],
    ["classify", "--datum", "0,2,5"],
    ["classify", "--datum", "0,2,5", "--json"],
]

#: Inputs the library or the CLI rejects with exit code 2.
USAGE_ERRORS = [
    ["snf", "1,2;3"],
    ["snf", "1,x", "--json"],
    ["br-bg"],
    ["br-bg", "--type", "Q5"],
    ["br-bg", "--type", "C2"],
    ["br-bg", "--type", "A1", "--center", "half"],
    ["br-bg", "--type", "A1", "--center", "gens=1,0"],
    ["br-bg", "--type", "A1", "--spec", "{}"],
    ["br-bg", "--spec", "not json"],
    ["enumerate", "--g", "1", "--N", "2", "--json"],
    ["enumerate", "--g", "2", "--N", "1"],
    ["enumerate", "--g", "2", "--N", "2", "--gq", "-1"],
    ["inertia", "--g", "1", "--N", "3", "--json"],
    ["classify", "--datum", "0,3,1", "--json"],
    ["classify", "--datum", "0,x,1"],
    ["classify", "--datum", "0,1"],
]


def _literal(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def snf_matrices() -> list[str]:
    """Seeded matrix literals whose ``snf --json`` output pins ``d``, ``U`` and ``V``:
    squares of size 1-12, both rectangular shapes, rank-deficient squares,
    a zero row, ``diag(4, 6)`` and three Cartan matrices."""
    rng = random.Random(20261018)

    def rand(rows, cols):
        return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]

    def low_rank(n, r):
        b, c = rand(n, r), rand(r, n)
        return [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)] for i in range(n)]

    mats = [rand(n, n) for n in range(1, 13)]
    mats += [rand(3, 7), rand(7, 3), low_rank(4, 2), low_rank(5, 3), low_rank(6, 1)]
    mats += [[[3, -6, 9], [0, 0, 0], [-4, 10, 2]], [[4, 0], [0, 6]]]
    mats += [cartan_matrix(SimpleType.parse(name)).row_lists() for name in ("A5", "D6", "E7")]
    return [_literal(m) for m in mats]


def argvs() -> list[list[str]]:
    out: list[list[str]] = []
    for cmd in ("inertia", "enumerate"):
        for g in range(2, 9):
            for n in range(2, 9):
                out.append([cmd, "--g", str(g), "--N", str(n), "--json"])
    for gq in range(3):
        for n in range(2, 6):
            for degs in itertools.product(range(3), repeat=n - 1):
                datum = ",".join(str(x) for x in (gq, n, *degs))
                out.append(["classify", "--datum", datum, "--json"])
    for mode in ("full", "trivial"):
        for names in CATALOG:
            out.append(["br-bg", "--type", ",".join(names), "--center", mode, "--json"])
    out += README + USAGE_ERRORS
    # "--" lets a literal with a leading minus through argparse
    return out + [["snf", "--json", "--", m] for m in snf_matrices()]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def build() -> list[dict]:
    entries = []
    for argv in argvs():
        code, out, err = run(argv)
        entry = {"argv": argv, "exit": code, "stdout": out}
        if code == 2:
            entry["stderr"] = err
        entries.append(entry)
    return entries


if __name__ == "__main__":
    entries = build()
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    codes = sorted({e["exit"] for e in entries})
    print(f"wrote {len(entries)} entries to {CORPUS} (exit codes {codes})")
