"""Exact-arithmetic toolkit for Brauer groups of classifying stacks and
cyclic-cover sector classification.

The pieces, bottom up: Smith normal form and finite abelian groups
(:mod:`stackbrauer.abelian`), Cartan matrices / centers / ``Br(BG)``
(:mod:`stackbrauer.rootdata`), admissible cyclic-cover data, inertia
sectors and their parity verdicts (:mod:`stackbrauer.covers`), sector
Brauer classes and character-twist arithmetic (:mod:`stackbrauer.brauer`),
and a CLI (:mod:`stackbrauer.cli`).  The imports run
``abelian -> rootdata`` and ``abelian -> covers -> brauer``, with ``cli`` on
top; no module imports one above it.
"""

from .abelian import (
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    IntegerMatrix,
    SmithDecomposition,
    Subgroup,
    cokernel,
    dual_group,
    enumerate_subgroups,
    generated_subgroup,
    smith_normal_form,
)
from .brauer import (
    BrauerReport,
    base_brauer_group,
    brauer_report,
    projective_bundle_class,
    pushforward_class,
    sector_brauer_class,
    symmetric_power_class,
)
from .covers import (
    AdmissibleDatum,
    Admissibility,
    NonIntegralGenusError,
    SectorReport,
    connectedness_k,
    decompose_inertia,
    enumerate_admissible,
    is_admissible,
    sector_report,
    total_genus,
)
from .rootdata import (
    Center,
    SemisimpleGroupSpec,
    SimpleType,
    brauer_group_of_bg,
    cartan_matrix,
    center,
    center_of_simply_connected,
    fundamental_group,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "GroupMismatchError",
    "IntegerMatrix",
    "SmithDecomposition",
    "Subgroup",
    "cokernel",
    "dual_group",
    "enumerate_subgroups",
    "generated_subgroup",
    "smith_normal_form",
    "BrauerReport",
    "base_brauer_group",
    "brauer_report",
    "projective_bundle_class",
    "pushforward_class",
    "sector_brauer_class",
    "symmetric_power_class",
    "AdmissibleDatum",
    "Admissibility",
    "NonIntegralGenusError",
    "SectorReport",
    "connectedness_k",
    "decompose_inertia",
    "enumerate_admissible",
    "is_admissible",
    "sector_report",
    "total_genus",
    "Center",
    "SemisimpleGroupSpec",
    "SimpleType",
    "brauer_group_of_bg",
    "cartan_matrix",
    "center",
    "center_of_simply_connected",
    "fundamental_group",
    "__version__",
]
