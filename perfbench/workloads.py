"""The benchmark's workloads: seeded operation sets and their answer checks.

``PASSES[name](seed, index)`` returns the operations of one pass.  A pass
is a fixed recipe of operation kinds and sizes; the seed only draws the
values inside it (matrix entries, kernels, data, order), so every pass of
every seed costs about the same and any two runs are comparable.  Passes
with different ``index`` draw fresh inputs.

A run holds several passes of one recipe, so its operation times tend to
cluster by slot of the recipe.  The passes of snf-dense, groups and cli
hold 45, 175 and 55 operations: with a count of 10k + 5, the median and the
90th percentile of a run's times fall on the middle of a slot rather than
on the boundary between two, where they would jump between neighbours.

Each operation is either a library call (``call(tracer)``, run in process)
or a command line (``cli_args``, run as ``python -m stackbrauer.cli`` in a
subprocess, or through ``stackbrauer.cli.main`` in process when traced).
``check(outcome)`` compares the outcome with the oracles and returns
``None`` or ``(kind, message)``, where ``kind`` is ``"wrong"`` for an
answer that disagrees and ``"error"`` for an unexpected exception or exit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import stackbrauer.abelian as ab
import stackbrauer.covers as cv
import stackbrauer.rootdata as rd

import oracles


@dataclass
class Op:
    kind: str
    check: Callable
    call: Optional[Callable] = None
    cli_args: Optional[list] = None


def _returned(outcome):
    """The value of a ``("return", value)`` outcome, else an error verdict.

    An operation that raised has the outcome ``("raise", "Type: message")``.
    """
    status, value = outcome
    if status != "return":
        return None, ("error", f"raised {value}")
    return value, None


# ---------------------------------------------------------------------------
# snf-dense
# ---------------------------------------------------------------------------

SNF_OPS_PER_PASS = 45


def _dense(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]


def _snf_check(a, cols):
    def check(outcome):
        dec, bad = _returned(outcome)
        if bad:
            return bad
        msg = oracles.check_snf(a, cols, dec.d, dec.left.row_lists(), dec.right.row_lists())
        return ("wrong", msg) if msg else None
    return check


def snf_shapes(index: int) -> list[tuple[str, int, int]]:
    """The shape schedule of pass ``index``: ``(kind, rows, cols)``.

    Sizes are spread evenly on a log scale over [8, 60).  Every second
    matrix is a generic square; the others alternate between rectangles
    (tall and wide, aspect 4:3) and rank-deficient squares.  Each pass
    shifts the grid by another fraction of a step (the golden-ratio
    sequence), so that the sizes of a run's passes fill the range; on a
    fixed grid a run's times cluster by size, and the median falls into
    the gap between two clusters.
    """
    shift = index * (5 ** 0.5 - 1) / 2 % 1
    shapes = []
    for k in range(SNF_OPS_PER_PASS):
        n = round(8 * 7.5 ** ((k + shift) / SNF_OPS_PER_PASS))
        kind = ("square", "rect", "square", "rank-deficient")[k % 4]
        rows = cols = n
        if kind == "rect":
            m = max(8, round(n * 3 / 4))
            rows, cols = (n, m) if k % 8 == 1 else (m, n)
        shapes.append((kind, rows, cols))
    return shapes


def snf_dense(seed: int, index: int) -> list[Op]:
    """Smith normal forms of dense matrices with entries in [-50, 50].

    The shapes depend only on ``index`` (:func:`snf_shapes`), so that
    passes of different seeds cost the same; the seed draws the entries,
    the rows that make a square rank-deficient (two rows each copied or
    negated from another row), and the order.
    """
    rng = random.Random(f"snf-dense:{seed}:{index}")
    ops = []
    for kind, rows, cols in snf_shapes(index):
        a = _dense(rng, rows, cols)
        if kind == "rank-deficient":
            for i in rng.sample(range(rows), 2):
                j = rng.choice([r for r in range(rows) if r != i])
                a[i] = [-x for x in a[j]] if rng.random() < 0.5 else list(a[j])
        ops.append(Op(f"snf-{kind}", _snf_check(a, cols),
                      call=lambda tracer, a=a, cols=cols:
                      ab.smith_normal_form(ab.IntegerMatrix(a, cols=cols))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def invariant_chains(max_order: int) -> list[tuple[int, ...]]:
    """Every invariant-factor chain ``f1 | f2 | ...`` with product <= max_order."""
    out = [()]

    def extend(chain, order):
        f = chain[-1] if chain else 2
        while order * f <= max_order:
            if not chain or f % chain[-1] == 0:
                out.append(chain + (f,))
                extend(chain + (f,), order * f)
            f += 1

    extend((), 1)
    return out


# (2,)^6 alone costs twice the rest of the set; (2,2,2,2,4) and (2,)^5
# exercise the same join search at a fraction of the cost.
CHAINS = [c for c in invariant_chains(64) if c != (2,) * 6]

# High ranks are drawn from the top of three bands: 36-40, 76-80 and 116-120.
# Narrow bands keep the cost of a pass from depending on the seed.
HIGH_RANK_BAND = 5

# Small simple types for random products, with their center orders.
_SMALL_TYPES = [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 6)] \
    + [("C", r) for r in range(3, 6)] + [("D", r) for r in range(4, 8)] \
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def _center_order(factors) -> int:
    total = 1
    for fam, rank in factors:
        for m in oracles.center_moduli(fam, rank):
            total *= m
    return total


def _random_generators(rng, factors, count):
    moduli = [m for fam, rank in factors for m in oracles.center_moduli(fam, rank)]
    return tuple(tuple(rng.randrange(m) for m in moduli) for _ in range(count))


def _enumerate_op(chain) -> Op:
    def check(outcome):
        subs, bad = _returned(outcome)
        if bad:
            return bad
        msg = oracles.check_subgroup_structures(
            chain, [s.structure.invariant_factors for s in subs])
        return ("wrong", msg) if msg else None
    return Op("enumerate_subgroups", check,
              call=lambda tracer: ab.enumerate_subgroups(ab.FiniteAbelianGroup(chain)))


def _brauer_op(kind, factors, generators) -> Op:
    """``Br(BG)`` for the product of ``factors`` modulo ``generators``.

    ``generators=None`` is the adjoint quotient.  Building the spec is part
    of the operation, since that is where the center is computed.
    """
    def call(tracer):
        with tracer.span("rootdata.spec_build"):
            types = tuple(rd.SimpleType(f, r) for f, r in factors)
            if generators is None:
                spec = rd.SemisimpleGroupSpec.adjoint(types)
            else:
                spec = rd.SemisimpleGroupSpec(types, generators)
        return rd.brauer_group_of_bg(spec)

    def check(outcome):
        group, bad = _returned(outcome)
        if bad:
            return bad
        want = oracles.expected_brauer(factors, generators)
        if tuple(group.invariant_factors) != want:
            return ("wrong", f"Br(BG) of {factors} / {generators} is "
                             f"{group.invariant_factors}, expected {want}")
        return None

    return Op(f"brauer-{kind}", check, call=call)


def groups(seed: int, index: int) -> list[Op]:
    """Subgroup enumeration on every chain of order <= 64 but (2,)^6, and
    ``Br(BG)`` on adjoint ladders, high-rank factors and random kernels."""
    rng = random.Random(f"groups:{seed}:{index}")
    ops = [_enumerate_op(c) for c in CHAINS]
    for fam, rank, top in (("A", 1, 13), ("A", 2, 7), ("D", 4, 6)):
        ops += [_brauer_op("adjoint-power", ((fam, rank),) * k, None) for k in range(1, top + 1)]
    for fi, fam in enumerate("ABCD"):
        for si, top in enumerate((40, 80, 120)):
            factors = ((fam, rng.randint(top - HIGH_RANK_BAND + 1, top)),)
            gens = None if (fi + si) % 2 else _random_generators(rng, factors, 1)
            ops.append(_brauer_op("high-rank", factors, gens))
    for _ in range(21):
        while True:
            factors = tuple(rng.choice(_SMALL_TYPES) for _ in range(rng.randint(2, 4)))
            if 1 < _center_order(factors) <= 4096:
                break
        ops.append(_brauer_op("kernel", factors,
                              _random_generators(rng, factors, rng.randint(1, 3))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

WINDOW = [(g, n) for g in range(2, 31) for n in range(2, 9)]


def random_datum(rng: random.Random, category: str, max_degree: int = 6):
    """A datum ``(gq, N, d)`` that is admissible, inadmissible or half-integral.

    Drawn by rejection from small random data; "inadmissible" means an
    integral genus with a failed condition (structural congruence or genus
    below two).
    """
    while True:
        n = rng.randint(2, 8)
        gq = rng.choice((0, 0, 0, 1, 2))
        degs = tuple(rng.randint(0, max_degree) for _ in range(n - 1))
        try:
            doc = oracles.expected_sector(gq, n, degs, None)
        except ArithmeticError:
            found = "half-integral"
        else:
            found = "admissible" if doc["admissible"] else "inadmissible"
        if found == category:
            return gq, n, degs


def _categories(rng: random.Random, count: int) -> list[str]:
    half = count // 2
    cats = ["admissible"] * half + ["inadmissible"] * ((count - half) // 2)
    cats += ["half-integral"] * (count - len(cats))
    rng.shuffle(cats)
    return cats


def _decompose_op(g: int, n: int) -> Op:
    def check(outcome):
        reports, bad = _returned(outcome)
        if bad:
            return bad
        docs = [r.to_json() for r in reports]
        msg = oracles.check_enumeration([(x["gq"], x["N"], x["d"]) for x in docs], g, n)
        for x in docs:
            msg = msg or oracles.check_sector_doc(x, x["gq"], n, x["d"], g)
        return ("wrong", msg) if msg else None
    return Op("decompose_inertia", check, call=lambda tracer: cv.decompose_inertia(g, n))


def _query_op(gq: int, n: int, degs) -> Op:
    def check(outcome):
        status, value = outcome
        try:
            oracles.expected_sector(gq, n, degs, None)
        except ArithmeticError:
            if status == "raise" and value.startswith("NonIntegralGenusError:"):
                return None
            return ("error", f"{gq},{n},{list(degs)}: expected NonIntegralGenusError")
        if status != "return":
            return ("error", f"raised {value}")
        msg = oracles.check_sector_doc(value.to_json(), gq, n, degs, None)
        return ("wrong", msg) if msg else None
    return Op("sector_report", check,
              call=lambda tracer: cv.sector_report(cv.AdmissibleDatum(gq, n, degs)))


def sectors(seed: int, index: int) -> list[Op]:
    """``decompose_inertia`` over 2 <= g <= 30, 2 <= N <= 8, interleaved with
    as many ``sector_report`` point queries."""
    rng = random.Random(f"sectors:{seed}:{index}")
    window = list(WINDOW)
    rng.shuffle(window)
    queries = [_query_op(*random_datum(rng, c)) for c in _categories(rng, len(window))]
    ops = []
    for (g, n), query in zip(window, queries):
        ops += [_decompose_op(g, n), query]
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _cli_doc(outcome, want_code):
    """Parse the ``--json`` document of a CLI outcome ``(code, out, err)``."""
    value, bad = _returned(outcome)
    if bad:
        return None, bad
    code, out, err = value
    if code != want_code:
        return None, ("error", f"exit {code}, expected {want_code}: "
                               f"{err.decode(errors='replace').strip()[-200:]}")
    try:
        with oracles.unlimited_int_digits():
            return json.loads(out), None
    except ValueError as exc:
        return None, ("wrong", f"stdout is not one JSON document: {exc}"[:300])


def _cli_classify(gq: int, n: int, degs) -> Op:
    text = ",".join(str(x) for x in (gq, n, *degs))

    def check(outcome):
        try:
            want = oracles.expected_sector(gq, n, degs, None)
        except ArithmeticError:
            doc, bad = _cli_doc(outcome, 1)
            if bad:
                return bad
            genus = str(oracles.rh_genus(gq, n, degs))
            expect = {"gq": gq, "N": n, "d": list(degs),
                      "error": "non_integral_genus", "total_genus": genus}
            return None if doc == expect else ("wrong", f"classify {text}: {doc}")
        doc, bad = _cli_doc(outcome, 0 if want["admissible"] else 1)
        if bad:
            return bad
        msg = oracles.check_sector_doc(doc, gq, n, degs, None)
        return ("wrong", msg) if msg else None

    return Op("cli-classify", check, cli_args=["classify", "--datum", text, "--json"])


def _cli_snf(a: list[list[int]]) -> Op:
    # Passed positionally, as documented.  The parser reads a literal that
    # starts with "-" as an option; that call then counts as a failure.
    text = ";".join(",".join(str(x) for x in row) for row in a)
    cols = len(a[0])

    def check(outcome):
        doc, bad = _cli_doc(outcome, 0)
        if bad:
            return bad
        try:
            msg = oracles.check_snf(a, cols, doc["d"], doc["U"], doc["V"])
        except (KeyError, TypeError) as exc:
            msg = f"malformed snf document: {exc!r}"
        return ("wrong", msg) if msg else None

    return Op(f"cli-snf-{len(a)}x{cols}", check, cli_args=["snf", "--json", text])


def _cli_brbg(rng: random.Random) -> Op:
    while True:
        factors = tuple(rng.choice(_SMALL_TYPES) for _ in range(rng.randint(1, 3)))
        if _center_order(factors) <= 256:
            break
    names = ",".join(f"{f}{r}" for f, r in factors)
    mode = rng.choice(("full", "trivial", "gens", "spec"))
    gens = _random_generators(rng, factors, rng.randint(1, 2))
    if mode == "full":
        args, want_gens = ["--type", names], None
    elif mode == "trivial":
        args, want_gens = ["--type", names, "--center", "trivial"], ()
    elif mode == "gens" and gens[0]:
        args, want_gens = ["--type", names, "--center",
                           "gens=" + ";".join(",".join(map(str, g)) for g in gens)], gens
    else:
        spec = {"factors": [f"{f}{r}" for f, r in factors],
                "central_generators": [list(g) for g in gens]}
        args, want_gens = ["--spec", json.dumps(spec)], gens

    def check(outcome):
        doc, bad = _cli_doc(outcome, 0)
        if bad:
            return bad
        want = list(oracles.expected_brauer(factors, want_gens))
        if doc.get("brauer_group") != want or doc.get("fundamental_group") != want:
            return ("wrong", f"br-bg {args}: {doc.get('brauer_group')}, expected {want}")
        return None

    return Op("cli-br-bg", check, cli_args=["br-bg", *args, "--json"])


def _cli_listing(rng: random.Random, command: str) -> Op:
    g, n = rng.randint(2, 12), rng.randint(2, 8)
    args = [command, "--g", str(g), "--N", str(n)]
    gq = None
    if command == "enumerate" and rng.random() < 0.5:
        gq = rng.randint(0, 1)
        args += ["--gq", str(gq)]
    if command == "inertia" and rng.random() < 0.5:
        gq = 0
        args.append("--genus0-only")

    def check(outcome):
        doc, bad = _cli_doc(outcome, 0)
        if bad:
            return bad
        rows = doc.get("data") if command == "enumerate" else doc.get("sectors")
        if not isinstance(rows, list):
            return ("wrong", f"{command}: no listing in the document")
        msg = oracles.check_enumeration([(x["gq"], x["N"], x["d"]) for x in rows], g, n, gq)
        if command == "inertia":
            for x in rows:
                msg = msg or oracles.check_sector_doc(x, x["gq"], n, x["d"], g)
        return ("wrong", msg) if msg else None

    return Op(f"cli-{command}", check, cli_args=args + ["--json"])


def cli(seed: int, index: int) -> list[Op]:
    """A mix of ``stackbrauer.cli --json`` invocations, mostly ``classify``.

    Every small and 60x60 ``snf`` matrix is sent together with its negation,
    which has the same invariant factors and is just as likely to be drawn;
    so each pass has the same number of literals that start with "-" (a
    first entry 0 is drawn as 1).  The one 80x80 matrix is sent with a
    positive first entry (negated if need be), so that it always reaches
    the integer-string limit and costs the same in every pass.
    """
    rng = random.Random(f"cli:{seed}:{index}")
    ops = [_cli_classify(*random_datum(rng, c, max_degree=4)) for c in _categories(rng, 38)]
    shapes = [(rng.randint(2, 8), rng.randint(2, 8)) for _ in range(3)] + [(60, 60)]
    for rows, cols in shapes:
        a = _dense(rng, rows, cols)
        a[0][0] = a[0][0] or 1  # so that exactly one literal of the pair starts with "-"
        ops += [_cli_snf(a), _cli_snf([[-x for x in row] for row in a])]
    a = _dense(rng, 80, 80)
    a[0][0] = a[0][0] or 1
    ops.append(_cli_snf(a if a[0][0] > 0 else [[-x for x in row] for row in a]))
    ops += [_cli_brbg(rng) for _ in range(4)]
    ops += [_cli_listing(rng, c) for c in ("enumerate", "inertia") * 2]
    rng.shuffle(ops)
    return ops


PASSES = {"snf-dense": snf_dense, "groups": groups, "sectors": sectors, "cli": cli}
