"""Cyclic covers of curves: admissible data, enumeration, inertia sectors.

A degree-``N`` cyclic cover of a smooth curve of genus ``g'`` with smooth
total space of genus ``g`` is encoded by a datum ``(g', N, d1..d_{N-1})``,
where ``d_i`` counts branch points whose local monodromy is the ``i``-th
power of the chosen generator of ``Z/N``.  Two constraints make a datum
admissible for genus ``g >= 2``:

* Riemann-Hurwitz:  ``2g - 2 = N(2g' - 2) + sum_i d_i (N - gcd(i, N))``,
* existence of the cover's eigen-line bundle: ``sum_i i * d_i = 0 (mod N)``,

together with ``g' <= g``.  These data label the connected components of
the moduli of cyclic covers, equivalently the twisted sectors of the
inertia of the moduli stack of genus-``g`` curves along the ``Z/N`` locus.

Connectedness of the covering curve is controlled by
``k = gcd(N, {i : d_i > 0})`` (with ``k = N`` when the cover is
unramified): the cover is connected iff a certain line bundle has exact
order ``k`` in the Picard group of the base.  For ``k = 1`` that bundle is
trivialized by the datum itself, so the cover is always connected; for
``g' = 0`` the Picard group forces order one, so ``k > 1`` means
disconnected; for ``g' > 0`` with ``k > 1`` the verdict varies over the
moduli and is reported as undetermined.

An admissible datum with genus-0 quotient also carries the sector parity
law (see :mod:`stackbrauer.brauer` for the geometry): ``H^2 = Z/2`` exactly
when every ``d_i`` is even, and the sector class is nontrivial exactly when,
in addition, ``d/N`` is odd for ``d = sum_i i * d_i``.  This module owns
every verdict on a datum and computes each once per report; the layering is
``abelian -> covers -> brauer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .abelian import FiniteAbelianGroup, GroupElement, _exact_ints

__all__ = [
    "AdmissibleDatum",
    "Admissibility",
    "SectorReport",
    "BrauerReport",
    "NonIntegralGenusError",
    "total_genus",
    "is_admissible",
    "enumerate_admissible",
    "connectedness_k",
    "sector_report",
    "decompose_inertia",
    "CONNECTED",
    "DISCONNECTED",
    "UNDETERMINED",
    "REASON_NON_INTEGRAL_GENUS",
    "REASON_GENUS_MISMATCH",
    "REASON_GENUS_BELOW_TWO",
    "REASON_STRUCTURAL_EQUATION",
    "REASON_QUOTIENT_GENUS_TOO_LARGE",
    "ORDER_TWO",
]

#: The ambient group of all sector Brauer classes.
ORDER_TWO = FiniteAbelianGroup((2,))
_ORDER_TWO_ELEMENTS = (ORDER_TWO.element((0,)), ORDER_TWO.element((1,)))
_TRIVIAL = FiniteAbelianGroup(())
_TRIVIAL_IDENTITY = _TRIVIAL.identity()

CONNECTED = "connected"
DISCONNECTED = "disconnected"
UNDETERMINED = "undetermined"

REASON_NON_INTEGRAL_GENUS = "non_integral_genus"
REASON_GENUS_MISMATCH = "genus_mismatch"
REASON_GENUS_BELOW_TWO = "genus_below_two"
REASON_STRUCTURAL_EQUATION = "structural_equation"
REASON_QUOTIENT_GENUS_TOO_LARGE = "quotient_genus_too_large"


class NonIntegralGenusError(ValueError):
    """The Riemann-Hurwitz genus of a datum is a half-integer."""

    def __init__(self, datum: "AdmissibleDatum", genus: Fraction):
        super().__init__(f"datum {datum} has non-integral total genus {genus}")
        self.datum = datum
        self.genus = genus


@dataclass(frozen=True)
class AdmissibleDatum:
    """A candidate cover datum ``(g', N, d1..d_{N-1})``.

    Construction checks only that every entry is an ``int`` and the shape
    (``g' >= 0``, ``N >= 2``, exactly ``N - 1`` nonnegative branch degrees);
    admissibility for a target genus is a separate question answered by
    :func:`is_admissible`.
    """

    quotient_genus: int
    order: int
    branch_degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        gq, n = _exact_ints((self.quotient_genus, self.order), "datum entry")
        degs = _exact_ints(self.branch_degrees, "branch degree")
        object.__setattr__(self, "branch_degrees", degs)
        if gq < 0:
            raise ValueError(f"quotient genus {gq} is negative")
        if n < 2:
            raise ValueError(f"cover order {n} must be at least 2")
        if len(degs) != n - 1:
            raise ValueError(f"expected {n - 1} branch degrees for order {n}, got {len(degs)}")
        if min(degs) < 0:
            raise ValueError("branch degrees must be nonnegative")

    @property
    def weighted_degree_sum(self) -> int:
        """``d = sum_i i * d_i``, the total monodromy weight."""
        return sum(i * d for i, d in enumerate(self.branch_degrees, start=1))

    @property
    def total_branch_points(self) -> int:
        return sum(self.branch_degrees)

    @classmethod
    def parse(cls, text: str) -> "AdmissibleDatum":
        """Parse the flat comma form ``"gq,N,d1,...,d_{N-1}"``.

        The token count must be exactly ``2 + (N - 1)``.

        >>> AdmissibleDatum.parse("0,2,6")
        AdmissibleDatum(quotient_genus=0, order=2, branch_degrees=(6,))
        """
        parts = [p.strip() for p in str(text).split(",")]
        try:
            numbers = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"datum {text!r} contains a non-integer token") from exc
        if len(numbers) < 2:
            raise ValueError(f"datum {text!r} needs at least 'gq,N'")
        gq, n = numbers[0], numbers[1]
        degs = numbers[2:]
        if n >= 2 and len(degs) != n - 1:
            raise ValueError(
                f"datum {text!r}: order {n} needs exactly {n - 1} branch degrees, got {len(degs)}"
            )
        return cls(gq, n, tuple(degs))

    def to_json(self) -> dict:
        return {"gq": self.quotient_genus, "N": self.order, "d": list(self.branch_degrees)}

    @classmethod
    def from_json(cls, data) -> "AdmissibleDatum":
        return cls(data["gq"], data["N"], data["d"])

    def __str__(self) -> str:
        degs = ", ".join(str(d) for d in self.branch_degrees)
        return f"(g'={self.quotient_genus}, N={self.order}, d=[{degs}])"


def total_genus(a: AdmissibleDatum) -> Fraction:
    """Riemann-Hurwitz genus of the covering curve, as an exact rational.

    ``g = 1 + (N(2g' - 2) + sum_i d_i (N - gcd(i, N))) / 2``; returning a
    Fraction (denominator 1 or 2) lets callers flag half-integral genus as
    its own failure mode instead of silently rounding.

    >>> total_genus(AdmissibleDatum(0, 2, (6,)))
    Fraction(2, 1)
    """
    n = a.order
    ram = sum(d * (n - gcd(i, n)) for i, d in enumerate(a.branch_degrees, start=1))
    return 1 + Fraction(n * (2 * a.quotient_genus - 2) + ram, 2)


@dataclass(frozen=True)
class Admissibility:
    """Verdict of :func:`is_admissible` with machine-readable reasons."""

    ok: bool
    reasons: tuple[str, ...]
    genus: Fraction

    def __bool__(self) -> bool:
        return self.ok


def _reasons(a: AdmissibleDatum, g: int, genus: Fraction) -> tuple[str, ...]:
    """Every failed condition of ``a`` against target genus ``g``, in order.

    ``genus`` is ``total_genus(a)``, passed in so that each caller computes
    it once.  A target below 2 is itself a reason.  The quotient bound is
    ``g' <= max(g, 0)``: a negative Riemann-Hurwitz genus already fails as
    ``genus_below_two`` and is not blamed on a genus-0 quotient too.
    """
    reasons: list[str] = []
    if genus.denominator != 1:
        reasons.append(REASON_NON_INTEGRAL_GENUS)
    elif genus != g:
        reasons.append(REASON_GENUS_MISMATCH)
    if g < 2:
        reasons.append(REASON_GENUS_BELOW_TWO)
    if a.weighted_degree_sum % a.order != 0:
        reasons.append(REASON_STRUCTURAL_EQUATION)
    if a.quotient_genus > max(g, 0):
        reasons.append(REASON_QUOTIENT_GENUS_TOO_LARGE)
    return tuple(reasons)


def is_admissible(a: AdmissibleDatum, g: int) -> Admissibility:
    """Check a datum against a target genus ``g >= 2``.

    All failed conditions are reported, not just the first: the genus
    equation (with half-integral genus flagged separately), the structural
    congruence ``sum_i i*d_i = 0 (mod N)``, and ``g' <= g``.

    >>> is_admissible(AdmissibleDatum(0, 2, (5,)), 2).reasons
    ('non_integral_genus', 'structural_equation')
    """
    (g,) = _exact_ints((g,), "target genus")
    if g < 2:
        raise ValueError(f"target genus {g} < 2; only genus >= 2 is classified")
    genus = total_genus(a)
    reasons = _reasons(a, g, genus)
    return Admissibility(not reasons, reasons, genus)


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    bits = bin(mask)[:1:-1]
    out = []
    b = bits.find("1")
    while b >= 0:
        out.append(b)
        b = bits.find("1", b + 1)
    return out


def _completions(n: int, weights: list[int], tops: list[int]) -> list[dict[int, int]]:
    """The reachability table of one search, as ``table[i][b]`` for ``1 <= i <= N``.

    ``table[i][b]`` is an ``N``-bit mask: bit ``r`` is set when some
    ``d_i, ..., d_{N-1} >= 0`` spend exactly ``b`` of the Riemann-Hurwitz
    budget (``sum_{j>=i} w_j*d_j = b``) and close a prefix of residue ``r``
    (``r + sum_{j>=i} j*d_j = 0 (mod N)``).  Bottom-up from
    ``table[N] = {0: {0}}``, with no loop over ``d``::

        table[i][b] = table[i+1][b] | rot(table[i][b - w_i], -i)

    A row keeps only the budgets that a prefix can leave from one of the
    ``tops`` and that the suffix can spend; a missing budget completes
    nothing.  Both sets are bitmasks over budgets, closed by doubling under
    each weight where it first occurs (closing again under a weight changes
    nothing).  For ``(g, N) = (601, 1200)`` the table keeps 22,185
    entries, where the budgets the suffix can spend alone give 998,205.
    """
    top = max(tops)
    spendable = (1 << (top + 1)) - 1
    full = (1 << n) - 1

    def close(mask: int, w: int, down: bool) -> int:
        step = w
        while step <= top:
            mask |= mask >> step if down else (mask << step) & spendable
            step *= 2
        return mask

    left = []  # left[i - 1]: the budgets that d_1..d_i can leave of a top
    mask = sum(1 << b for b in tops)
    seen = set()
    for w in weights:
        if w not in seen:
            seen.add(w)
            mask = close(mask, w, True)
        left.append(mask)
    table: list[dict[int, int]] = [{}] * n + [{0: 1}]
    spent = 1  # the budgets that d_i..d_{N-1} can spend
    seen = set()
    for i in range(n - 1, 0, -1):
        w = weights[i - 1]
        if w not in seen:
            seen.add(w)
            spent = close(spent, w, False)
        below, row = table[i + 1], {}
        for b in _set_bits(left[i - 1] & spent):
            m = below.get(b, 0)
            x = row.get(b - w, 0)
            if x:
                m |= ((x >> i) | (x << (n - i))) & full
            if m:
                row[b] = m
        if row:
            table[i] = row
    return table


def _children(row: dict[int, int], i: int, w: int, n: int,
              budget: int, residue: int) -> list[tuple[int, int, int, int]]:
    """The search's children ``(i, d_i, budget left, residue)`` that can complete.

    ``row`` is the table row of exponent ``i + 1``.  The largest ``d_i``
    comes first, so that a stack pops the children in lexicographic order.
    """
    kids = []
    d, b = divmod(budget, w)
    r = (residue + i * d) % n
    while d >= 0:
        if row.get(b, 0) >> r & 1:
            kids.append((i, d, b, r))
        d -= 1
        b += w
        r = (r - i) % n
    return kids


def enumerate_admissible(g: int, n: int,
                         quotient_genus: Optional[int] = None) -> list[AdmissibleDatum]:
    """All admissible data for genus ``g`` and cover order ``n``.

    Search space: ``g'`` runs while ``N(2g' - 2) <= 2g - 2`` (so
    ``g' <= (2g-2)/(2N) + 1``), and for each ``g'`` the branch degrees are
    the exact solutions of ``sum_i d_i (N - gcd(i, N)) = 2g - 2 - N(2g'-2)``
    with nonnegative ``d_i`` that satisfy the structural congruence.

    One reachability table per call (:func:`_completions`) records, for
    every exponent ``i`` and budget ``b``, the residues ``sum_{j>=i} j*d_j``
    that the degrees from ``i`` on can reach while spending exactly ``b``.
    A depth-first search with an explicit stack then descends into
    ``d_i`` only when the rest can spend the budget left and close the
    congruence; the budget forces ``d_{N-1}``.  So every prefix it visits
    extends to a returned datum:

        nodes visited <= (N - 1) * (data returned) + (number of g' values),

    plus the table, which has at most ``N * (2g - 2 + 2N + 1)`` entries.
    The search has no recursion, so ``N`` meets no recursion limit, and a
    datum is built only when it is returned.  Output is in lexicographic
    order of ``(g', d1, ..., d_{N-1})``.

    >>> [str(a) for a in enumerate_admissible(2, 2)]
    ["(g'=0, N=2, d=[6])", "(g'=1, N=2, d=[2])"]
    """
    g, n = _exact_ints((g, n), "target genus or cover order")
    if g < 2:
        raise ValueError(f"target genus {g} < 2; only genus >= 2 is classified")
    if n < 2:
        raise ValueError(f"cover order {n} must be at least 2")
    if quotient_genus is not None and _exact_ints((quotient_genus,), "quotient genus")[0] < 0:
        raise ValueError("quotient genus filter must be nonnegative")

    roots = [(gq, 2 * g - 2 - n * (2 * gq - 2)) for gq in range((g - 1) // n + 2)
             if quotient_genus is None or gq == quotient_genus]
    if not roots:
        return []
    weights = [n - gcd(i, n) for i in range(1, n)]
    table = _completions(n, weights, [top for _, top in roots])
    found: list[AdmissibleDatum] = []
    degs = [0] * (n - 1)
    for gq, top in roots:
        # a node (i, d, b, r): d_i = d leaves budget b and residue r
        stack = [(0, 0, top, 0)] if table[1].get(top, 0) & 1 else []
        while stack:
            i, d, budget, residue = stack.pop()
            if i:
                degs[i - 1] = d
            if i == n - 2:
                degs[-1] = budget // weights[-1]
                found.append(AdmissibleDatum(gq, n, tuple(degs)))
            else:
                stack += _children(table[i + 2], i + 1, weights[i], n, budget, residue)
    return found


def connectedness_k(a: AdmissibleDatum) -> int:
    """``gcd(N, {i : d_i > 0})``; the unramified case gives ``k = N``.

    >>> connectedness_k(AdmissibleDatum(0, 4, (0, 2, 0)))
    2
    """
    k = a.order
    for i, d in enumerate(a.branch_degrees, start=1):
        if d > 0:
            k = gcd(k, i)
    return k


@dataclass(frozen=True)
class BrauerReport:
    """Brauer verdict for one admissible genus-0 datum."""

    h2_group: FiniteAbelianGroup
    sector_class: GroupElement
    d_over_n: int
    all_degrees_even: bool

    @property
    def class_nontrivial(self) -> bool:
        return not self.sector_class.is_identity

    def to_json(self) -> dict:
        return {
            "h2": self.h2_group.to_json(),
            "class_nontrivial": self.class_nontrivial,
            "d_over_N": self.d_over_n,
            "all_di_even": self.all_degrees_even,
        }


def _parity_report(a: AdmissibleDatum) -> BrauerReport:
    """The sector parity law for an admissible genus-0 datum.

    The structural congruence makes ``d/N`` an integer.
    """
    d_over_n = a.weighted_degree_sum // a.order
    if all(d % 2 == 0 for d in a.branch_degrees):
        return BrauerReport(ORDER_TWO, _ORDER_TWO_ELEMENTS[d_over_n % 2], d_over_n, True)
    return BrauerReport(_TRIVIAL, _TRIVIAL_IDENTITY, d_over_n, False)


@dataclass(frozen=True)
class SectorReport:
    """Classification of one inertia sector (one cover datum).

    ``connected`` is one of the module constants ``CONNECTED``,
    ``DISCONNECTED``, ``UNDETERMINED``; ``brauer`` is present exactly when
    the datum is admissible with genus-0 quotient, since that is when the
    sector carries the order-2 Brauer classification.
    """

    datum: AdmissibleDatum
    total_genus: int
    admissible: bool
    reasons: tuple[str, ...]
    gcd_k: int
    connected: str
    brauer: Optional[BrauerReport]

    def to_json(self) -> dict:
        return {
            **self.datum.to_json(),
            "total_genus": self.total_genus,
            "admissible": self.admissible,
            "reasons": list(self.reasons),
            "gcd_k": self.gcd_k,
            "connected": self.connected,
            "brauer": self.brauer.to_json() if self.brauer is not None else None,
        }


def sector_report(a: AdmissibleDatum, genus: Optional[int] = None) -> SectorReport:
    """Full report for one datum.

    With ``genus=None`` the datum is judged against its own Riemann-Hurwitz
    genus; a half-integral genus raises :class:`NonIntegralGenusError`
    because no integer target makes sense.  Genus below 2 is reported as an
    inadmissibility reason rather than an exception.
    """
    genus_fraction = total_genus(a)
    if genus is None:
        if genus_fraction.denominator != 1:
            raise NonIntegralGenusError(a, genus_fraction)
        genus = genus_fraction.numerator
    else:
        (genus,) = _exact_ints((genus,), "genus")
    return _report(a, genus, _reasons(a, genus, genus_fraction))


def _report(a: AdmissibleDatum, genus: int, reasons: tuple[str, ...] = ()) -> SectorReport:
    """The report of ``a`` at ``genus``, admissible exactly when ``reasons`` is empty."""
    k = connectedness_k(a)
    if k == 1:
        # the datum's structure isomorphism trivializes the order-k bundle,
        # so every cover is connected regardless of the base genus
        connected = CONNECTED
    else:
        connected = DISCONNECTED if a.quotient_genus == 0 else UNDETERMINED
    return SectorReport(
        datum=a,
        total_genus=genus,
        admissible=not reasons,
        reasons=reasons,
        gcd_k=k,
        connected=connected,
        brauer=_parity_report(a) if not reasons and a.quotient_genus == 0 else None,
    )


def decompose_inertia(g: int, n: int) -> list[SectorReport]:
    """Reports for every admissible datum of genus ``g`` and order ``n``.

    Same deterministic order as :func:`enumerate_admissible`.  The listing
    may legitimately be empty (no sector for that ``(g, N)``).
    """
    return [_report(a, g) for a in enumerate_admissible(g, n)]
