"""One rule for integer input across the package: every entry point takes
only ``int`` values (a ``bool`` is not one), and anything else raises
``ValueError`` instead of being truncated, parsed or overflowing.  Text
parsers (``AdmissibleDatum.parse``, ``SimpleType.parse`` and the CLI) are
the place where strings become integers.
"""

import pytest

from stackbrauer.abelian import FiniteAbelianGroup, GroupElement, IntegerMatrix
from stackbrauer.brauer import pushforward_class, symmetric_power_class
from stackbrauer.covers import (
    AdmissibleDatum,
    enumerate_admissible,
    is_admissible,
    sector_report,
)
from stackbrauer.rootdata import SemisimpleGroupSpec, SimpleType, center

A3 = SimpleType("A", 3)
Z4 = FiniteAbelianGroup((4,))
DATUM = AdmissibleDatum(0, 2, (6,))

# Each entry point with one integer argument replaced by ``v``.
ENTRY_POINTS = {
    "IntegerMatrix": lambda v: IntegerMatrix([[1, v]]),
    "FiniteAbelianGroup": lambda v: FiniteAbelianGroup((2, v)),
    "FiniteAbelianGroup.from_cyclic_moduli": lambda v: FiniteAbelianGroup.from_cyclic_moduli([v]),
    "FiniteAbelianGroup.from_json": lambda v: FiniteAbelianGroup.from_json([v]),
    "GroupElement": lambda v: GroupElement(Z4, (v,)),
    "GroupElement.from_json": lambda v: GroupElement.from_json({"group": [4], "coords": [v]}),
    "GroupElement.__rmul__": lambda v: v * Z4.element([1]),
    "SimpleType": lambda v: SimpleType("A", v),
    "Center.element": lambda v: center([A3]).element([v]),
    "SemisimpleGroupSpec": lambda v: SemisimpleGroupSpec((A3,), ((v,),)),
    "SemisimpleGroupSpec.from_json rank": lambda v: SemisimpleGroupSpec.from_json(
        {"factors": [["A", v]]}),
    "SemisimpleGroupSpec.from_json coordinate": lambda v: SemisimpleGroupSpec.from_json(
        {"factors": ["A3"], "central_generators": [[v]]}),
    "AdmissibleDatum quotient genus": lambda v: AdmissibleDatum(v, 2, (6,)),
    "AdmissibleDatum order": lambda v: AdmissibleDatum(0, v, (6,)),
    "AdmissibleDatum branch degree": lambda v: AdmissibleDatum(0, 2, (v,)),
    "AdmissibleDatum.from_json": lambda v: AdmissibleDatum.from_json(
        {"gq": 0, "N": 2, "d": [v]}),
    "is_admissible": lambda v: is_admissible(DATUM, v),
    "enumerate_admissible genus": lambda v: enumerate_admissible(v, 2),
    "enumerate_admissible order": lambda v: enumerate_admissible(2, v),
    "enumerate_admissible quotient genus": lambda v: enumerate_admissible(2, 2, v),
    "sector_report": lambda v: sector_report(DATUM, v),
    "symmetric_power_class": symmetric_power_class,
    "pushforward_class": lambda v: pushforward_class([Z4.element([1])], [v]),
}
NON_INTEGERS = {"2.5": 2.5, "True": True, "'4'": "4", "inf": float("inf")}


@pytest.mark.parametrize("value", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_non_integers_raise(call, value):
    with pytest.raises(ValueError, match="is not an integer"):
        call(value)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_int_subclasses_are_integers(call):
    class Exact(int):
        pass

    call(Exact(2))

