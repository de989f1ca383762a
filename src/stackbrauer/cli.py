"""Command-line interface.

One entry point with five subcommands:

* ``snf MATRIX``          Smith normal form of an integer matrix
* ``br-bg``               Brauer group of a classifying stack from root data
* ``enumerate``           admissible cyclic-cover data for (g, N)
* ``inertia``             sector reports for (g, N)
* ``classify``            full report for a single datum

Matrix literals are rows separated by ``;`` with comma-separated entries
(``"2,-1;-1,2"``); data are flat comma lists (``"0,2,6"``).  A literal may
start with a minus (``snf "-1,0;0,1"``, ``classify --datum -1,2,6``).  Every
subcommand takes ``--json`` to emit a single JSON document instead of the
table form.  Exit codes: 0 success, 1 domain-level negative verdict
(inadmissible or half-integral-genus datum under ``classify``), 2 usage or
parse error, 3 resource failure (the input is valid but answering it
exhausted the recursion depth or the memory).
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import IntegerMatrix, smith_normal_form
from .covers import (
    AdmissibleDatum,
    NonIntegralGenusError,
    SectorReport,
    decompose_inertia,
    enumerate_admissible,
    sector_report,
)
from .rootdata import SemisimpleGroupSpec, SimpleType, brauer_group_of_bg, fundamental_group

__all__ = ["main", "run", "parse_matrix"]


class UsageError(ValueError):
    """Bad literal or flag combination; maps to exit code 2."""


def _parse_rows(text: str, bad: str) -> list[tuple[int, ...]]:
    """Parse ``"1,0;0,2"`` into rows; ``bad`` formats the error for a row that fails."""
    rows = []
    for chunk in text.split(";"):
        try:
            rows.append(tuple(int(p) for p in chunk.split(",")))
        except ValueError as exc:
            raise UsageError(bad.format(chunk)) from exc
    return rows


def parse_matrix(text: str) -> IntegerMatrix:
    """Parse ``"2,-1;-1,2"`` into an IntegerMatrix (rows ; entries ,)."""
    rows = _parse_rows(str(text), "matrix row {!r} contains a non-integer entry")
    try:
        return IntegerMatrix(rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_generators(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse ``"1,0;0,2"`` into generator coordinate tuples."""
    bad = "generator {!r} contains a non-integer coordinate"
    return tuple(_parse_rows(text, bad)) if text else ()


def _build_spec(args) -> SemisimpleGroupSpec:
    if args.spec is not None:
        if args.type is not None or args.center != "full":
            raise UsageError("--spec replaces --type/--center; do not combine them")
        try:
            data = json.loads(args.spec)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--spec is not valid JSON: {exc}") from exc
        try:
            return SemisimpleGroupSpec.from_json(data)
        except (ValueError, TypeError, KeyError) as exc:
            raise UsageError(f"bad group spec: {exc}") from exc
    if args.type is None:
        raise UsageError("br-bg needs --type (or --spec)")
    factors = tuple(SimpleType.parse(t) for t in args.type.split(",") if t.strip())
    if not factors:
        raise UsageError("--type lists no factors")
    mode = args.center
    if mode == "full":
        return SemisimpleGroupSpec.adjoint(factors)
    if mode == "trivial":
        return SemisimpleGroupSpec.simply_connected(factors)
    if mode.startswith("gens="):
        return SemisimpleGroupSpec(factors, _parse_generators(mode[len("gens="):]))
    raise UsageError(f"--center must be 'full', 'trivial' or 'gens=...', got {mode!r}")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_snf(args) -> int:
    m = parse_matrix(args.matrix)
    dec = smith_normal_form(m)
    if args.json:
        _emit({"d": list(dec.d), "U": dec.left.row_lists(), "V": dec.right.row_lists()})
        return 0
    print(f"d = {list(dec.d)}")
    print("U =")
    print(dec.left)
    print("V =")
    print(dec.right)
    return 0


def _cmd_br_bg(args) -> int:
    spec = _build_spec(args)
    group = brauer_group_of_bg(spec)
    if args.json:
        doc = spec.to_json()
        doc["fundamental_group"] = fundamental_group(spec).to_json()
        doc["brauer_group"] = group.to_json()
        _emit(doc)
        return 0
    print(str(group))
    return 0


def _cmd_enumerate(args) -> int:
    data = enumerate_admissible(args.g, args.N, quotient_genus=args.gq)
    if args.json:
        _emit(
            {
                "g": args.g,
                "N": args.N,
                "quotient_genus": args.gq,
                "data": [a.to_json() for a in data],
            }
        )
        return 0
    for a in data:
        print(str(a))
    return 0


def _sector_row(r: SectorReport) -> str:
    if r.brauer is None:
        verdict = "-"
    else:
        b = r.brauer
        cls = "nontrivial" if b.class_nontrivial else "trivial"
        verdict = f"H2={b.h2_group} class={cls} d/N={b.d_over_n}"
    return f"{str(r.datum):<28} g={r.total_genus:<3} k={r.gcd_k:<3} {r.connected:<13} {verdict}"


def _cmd_inertia(args) -> int:
    reports = decompose_inertia(args.g, args.N)
    if args.genus0_only:
        reports = [r for r in reports if r.datum.quotient_genus == 0]
    if args.json:
        _emit({"g": args.g, "N": args.N, "sectors": [r.to_json() for r in reports]})
        return 0
    for r in reports:
        print(_sector_row(r))
    return 0


def _cmd_classify(args) -> int:
    datum = AdmissibleDatum.parse(args.datum)
    try:
        report = sector_report(datum)
    except NonIntegralGenusError as exc:
        if args.json:
            doc = datum.to_json()
            doc["error"] = "non_integral_genus"
            doc["total_genus"] = str(exc.genus)
            _emit(doc)
        else:
            print(f"datum:        {datum}")
            print(f"total genus:  {exc.genus} (not an integer)")
            print("admissible:   no (non_integral_genus)")
        return 1
    if args.json:
        _emit(report.to_json())
    else:
        print(f"datum:        {report.datum}")
        print(f"total genus:  {report.total_genus}")
        yn = "yes" if report.admissible else "no (" + ", ".join(report.reasons) + ")"
        print(f"admissible:   {yn}")
        print(f"gcd k:        {report.gcd_k}")
        print(f"connected:    {report.connected}")
        if report.brauer is not None:
            b = report.brauer
            print(f"H^2:          {b.h2_group}")
            print(f"class:        {'nontrivial' if b.class_nontrivial else 'trivial'}")
            print(f"d/N:          {b.d_over_n}")
            print(f"all d_i even: {'yes' if b.all_degrees_even else 'no'}")
    return 0 if report.admissible else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of the table form")

    parser = argparse.ArgumentParser(
        prog="stackbrauer",
        description="Brauer groups of classifying stacks and cyclic-cover sector classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", parents=[common],
                       help="Smith normal form of an integer matrix")
    p.add_argument("matrix", help="matrix literal, rows ';'-separated, entries ','-separated")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("br-bg", parents=[common],
                       help="Brauer group of BG from root data")
    p.add_argument("--type", help="comma list of simple types, e.g. 'A1' or 'A3,D4'")
    p.add_argument("--center", default="full",
                   help="'full' (default), 'trivial', or 'gens=1,0;0,2' in per-factor coordinates")
    p.add_argument("--spec", help="JSON group spec: "
                                  '\'{"factors": ["A3"], "central_generators": [[2]]}\'')
    p.set_defaults(func=_cmd_br_bg)

    p = sub.add_parser("enumerate", parents=[common],
                       help="admissible cyclic-cover data for (g, N)")
    p.add_argument("--g", type=int, required=True, help="genus of the covering curve (>= 2)")
    p.add_argument("--N", type=int, required=True, help="cover order (>= 2)")
    p.add_argument("--gq", type=int, default=None, help="restrict to one quotient genus")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("inertia", parents=[common],
                       help="sector reports for (g, N)")
    p.add_argument("--g", type=int, required=True, help="genus of the covering curve (>= 2)")
    p.add_argument("--N", type=int, required=True, help="cover order (>= 2)")
    p.add_argument("--genus0-only", action="store_true", dest="genus0_only",
                   help="keep only sectors with genus-0 quotient")
    p.set_defaults(func=_cmd_inertia)

    p = sub.add_parser("classify", parents=[common],
                       help="full report for one datum")
    p.add_argument("--datum", required=True, help="flat comma list 'gq,N,d1,...,d_{N-1}'")
    p.set_defaults(func=_cmd_classify)

    return parser


#: The long options that take no value; a test checks them against the parser.
_FLAGS = frozenset({"--help", "--json", "--genus0-only"})


def _shield_leading_minus(argv: list[str]) -> list[str]:
    """Keep literals such as ``-1,0;0,1`` from reading as option flags.

    argparse takes a token that starts with ``-`` for an option unless it is
    a plain negative number, and no option here starts with a minus and a
    digit.  Such a token after the subcommand is attached with ``=`` to the
    option before it when that option takes a value, and is otherwise moved
    behind a ``--`` at the end, where it stays positional.  An option that
    is a flag or a prefix of one (argparse reads abbreviations) counts as a
    flag; the one such prefix that takes a value is ``--g``, for which no
    literal of this kind is a genus.  Tokens up to the subcommand, and an
    argv that has ``--`` already, are left as they are.
    """
    if "--" in argv:
        return argv
    start = next((k + 1 for k, token in enumerate(argv) if token[:1] != "-"), len(argv))
    kept = argv[:start]
    moved: list[str] = []
    for token in argv[start:]:
        if token[:1] == "-" and token[1:2].isdigit() and not token[1:].isdigit():
            before = kept[-1]
            if (before.startswith("--") and "=" not in before
                    and not any(flag.startswith(before) for flag in _FLAGS)):
                kept[-1] = f"{before}={token}"
            else:
                moved.append(token)
        else:
            kept.append(token)
    return kept + ["--"] + moved if moved else kept


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_shield_leading_minus(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ValueError as exc:
        # UsageError, and domain rejections from the library (bad genus bounds etc.)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: out of resources: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


def run() -> None:
    """Console-script shim."""
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
