"""Brauer classes of cyclic-cover sectors and character-twist arithmetic.

For an admissible genus-0 datum ``A = (0, N, d1..d_{N-1})`` the sector of
the moduli of cyclic covers sits as a ``mu_2``-gerbe-like stack over a
rigidified base stack ``N_A`` of branch-divisor configurations.  The two
facts computed here are parity laws in the branch degrees:

* ``H^2(N_A, Gm)`` is ``Z/2`` when every ``d_i`` is even and vanishes when
  any ``d_i`` is odd (an odd ``d_i`` forces the would-be class to restrict
  trivially on a symmetric-power factor, killing it);

* when every ``d_i`` is even, the class of the sector itself is the
  ``(d/N)``-th power of the order-2 generator with ``d = sum_i i * d_i``,
  so it is nontrivial exactly when ``d/N`` is odd.  Restriction from the
  compactified to the open sector is injective on these classes, so one
  verdict serves both.

The supporting character arithmetic is general: a projectivized
representation ``[P(V)/G~] -> B(G~)/twist`` has Brauer class ``chi^{-1}``
for the central character ``chi`` of ``V``, pushforwards of sums of
character twists add up accordingly, and the degree-``d`` symmetric power
of the universal genus-0 conic contributes ``d mod 2``.

The parity verdicts themselves are computed once per datum by
:func:`stackbrauer.covers.sector_report`, which owns the datum; the functions
here read them from its ``brauer`` field.  The layering is
``abelian -> covers -> brauer``.
"""

from __future__ import annotations

from .abelian import FiniteAbelianGroup, GroupElement, _exact_ints
from .covers import ORDER_TWO, AdmissibleDatum, BrauerReport, sector_report

__all__ = [
    "BrauerReport",
    "base_brauer_group",
    "sector_brauer_class",
    "symmetric_power_class",
    "projective_bundle_class",
    "pushforward_class",
    "brauer_report",
    "ORDER_TWO",
]


def brauer_report(a: AdmissibleDatum) -> BrauerReport:
    """The parity data of one admissible genus-0 datum.

    Raises ``ValueError`` for a datum of positive quotient genus or one that
    is not admissible for its own genus (which must be at least 2).

    >>> brauer_report(AdmissibleDatum(0, 2, (6,))).d_over_n
    3
    """
    report = sector_report(a).brauer
    if report is None:
        raise ValueError(
            f"datum {a} has no sector Brauer class: the classification applies to "
            "admissible data of genus >= 2 with genus-0 quotient only"
        )
    return report


def base_brauer_group(a: AdmissibleDatum) -> FiniteAbelianGroup:
    """``H^2`` with multiplicative coefficients of the sector's base stack.

    ``Z/2`` when all branch degrees are even, trivial otherwise.

    >>> str(base_brauer_group(AdmissibleDatum(0, 2, (6,))))
    'Z/2'
    """
    return brauer_report(a).h2_group


def sector_brauer_class(a: AdmissibleDatum) -> GroupElement:
    """The sector's Brauer class inside :func:`base_brauer_group`.

    Nontrivial exactly when every ``d_i`` is even and ``d/N`` is odd,
    ``d = sum_i i * d_i`` (the structural congruence makes ``d/N`` an
    integer).  The same element classifies the open sector, since
    restriction is injective here.

    >>> sector_brauer_class(AdmissibleDatum(0, 2, (6,))).coords
    (1,)
    """
    return brauer_report(a).sector_class


def symmetric_power_class(degree: int) -> GroupElement:
    """Class of the degree-``d`` symmetric power gerbe of the universal conic.

    Lives in ``Z/2`` and equals ``d mod 2``; additivity in ``d`` is what
    makes the sector parity law a finite computation.
    """
    (degree,) = _exact_ints((degree,), "symmetric power degree")
    if degree < 0:
        raise ValueError(f"symmetric power degree {degree} is negative")
    return GroupElement(ORDER_TWO, (degree % 2,))


def projective_bundle_class(chi: GroupElement) -> GroupElement:
    """Brauer class of the projectivization of a ``chi``-twisted bundle.

    The projectivized bundle is the pullback of the canonical gerbe along
    the character, with one inversion: the class is ``chi^{-1}``, i.e.
    ``-chi`` written additively.
    """
    if not isinstance(chi, GroupElement):
        raise TypeError("projective_bundle_class expects a GroupElement character")
    return -chi


def pushforward_class(chis, exponents) -> GroupElement:
    """Class of a pushforward of a sum of character twists.

    For characters ``chi_1..chi_r`` with multiplicities ``a_1..a_r`` the
    resulting class is ``sum_j a_j * (-chi_j)``; all characters must live in
    the same (dual) group and the two lists must have equal length.

    >>> b = FiniteAbelianGroup((4,))
    >>> pushforward_class([b.element([1]), b.element([2])], [1, 1]).coords
    (1,)
    """
    chis = list(chis)
    exponents = _exact_ints(exponents, "exponent")
    if len(chis) != len(exponents):
        raise ValueError(
            f"{len(chis)} characters but {len(exponents)} exponents; lists must align"
        )
    if not chis:
        raise ValueError("pushforward needs at least one character to fix the group")
    total = chis[0].group.identity()
    for chi, e in zip(chis, exponents):
        total = total + e * projective_bundle_class(chi)
    return total
