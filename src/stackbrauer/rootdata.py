"""Root data for semisimple groups and Brauer groups of classifying stacks.

A semisimple group ``G`` over an algebraically closed field of
characteristic zero is ``G~ / B`` for the simply connected cover ``G~``
(a product of simple factors) and a finite central subgroup ``B``.  The
facts used here:

* the center of a simply connected simple group is the cokernel of the
  transpose weight/root inclusion, i.e. of its Cartan matrix; it is read
  from the classical table (Bourbaki, *Lie Groups*, VI, plates I-IX), and
  centers of products are direct sums;

* the Brauer group of the classifying stack ``BG`` is the character group
  ``X(B)`` of the kernel ``B``: every gerbe class on ``BG`` is the lift
  ``B(G~) -> BG`` twisted along a character, the lift itself has trivial
  class, and distinct characters give distinct classes.  In particular
  ``Br(B(PGL_2)) = Z/2`` and ``Br(B(SL_2)) = 0``.

Cartan matrices use Bourbaki node numbering.  Orientation convention:
``a[i][j] = 2(alpha_i, alpha_j) / (alpha_j, alpha_j)``, e.g.
``G2 -> [[2, -1], [-3, 2]]``; the transpose convention would change none of
the derived groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abelian import (
    FiniteAbelianGroup,
    GroupElement,
    IntegerMatrix,
    Subgroup,
    _cyclic_chain,
    dual_group,
    generated_subgroup,
)

__all__ = [
    "SimpleType",
    "Center",
    "SemisimpleGroupSpec",
    "cartan_matrix",
    "center",
    "center_of_simply_connected",
    "fundamental_group",
    "brauer_group_of_bg",
]

# Admissible ranks per family.  Low-rank coincidences (B1=A1, C2=B2, D2=A1xA1,
# D3=A3) are rejected outright rather than remapped: asking for "C2" is a
# sign of a numbering mixup, and silently aliasing would hide it.
_RANK_RULES: dict[str, tuple[int, int | None]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class SimpleType:
    """A simple Dynkin type, e.g. ``SimpleType("A", 3)`` for SL_4."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        fam = str(self.family).upper()
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "rank", int(self.rank))
        if fam not in _RANK_RULES:
            raise ValueError(f"unknown family {fam!r}; expected one of A B C D E F G")
        lo, hi = _RANK_RULES[fam]
        if self.rank < lo or (hi is not None and self.rank > hi):
            span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ValueError(f"rank {self.rank} invalid for family {fam} (need rank {span})")

    @classmethod
    def parse(cls, name: str) -> "SimpleType":
        """Parse text like ``"A3"``, ``"d4"`` or ``"E8"``."""
        name = str(name).strip()
        if len(name) < 2 or not name[1:].isdigit():
            raise ValueError(f"cannot parse simple type {name!r} (expected e.g. 'A3')")
        return cls(name[0], int(name[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _dynkin_edges(t: SimpleType) -> list[tuple[int, int]]:
    n = t.rank
    if t.family in ("A", "B", "C"):
        return [(i, i + 1) for i in range(n - 1)]
    if t.family == "D":
        # chain 0..n-3, with both n-2 and n-1 hanging off node n-3
        return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    if t.family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        return edges
    raise AssertionError(t)


def cartan_matrix(t: SimpleType) -> IntegerMatrix:
    """Cartan matrix of a simple type, Bourbaki numbering.

    >>> cartan_matrix(SimpleType("A", 2)).row_lists()
    [[2, -1], [-1, 2]]
    >>> cartan_matrix(SimpleType("G", 2)).row_lists()
    [[2, -1], [-3, 2]]
    """
    if t.family == "F":
        return IntegerMatrix([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    if t.family == "G":
        return IntegerMatrix([[2, -1], [-3, 2]])
    n = t.rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i, j in _dynkin_edges(t):
        m[i][j] = m[j][i] = -1
    if t.family == "B":
        # last simple root short: the double bond sits in the final column
        m[n - 2][n - 1] = -2
    elif t.family == "C":
        # last simple root long: transpose of the B pattern
        m[n - 1][n - 2] = -2
    return IntegerMatrix(m)


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Center:
    """Center of a product of simply connected simple groups.

    Two coordinate systems coexist:

    * per-factor coordinates: one residue per entry of ``moduli``, which is
      the concatenation, factor by factor, of the invariant factors of each
      factor's center as the classification table lists them (trivial
      factors contribute nothing);

    * canonical coordinates of ``group``, the invariant-factor form of the
      whole direct sum.

    User input (generators of central subgroups) is in per-factor
    coordinates; everything downstream uses the canonical group.  The
    gcd/lcm steps of :func:`~stackbrauer.abelian._cyclic_chain` convert
    between the two; both coordinates are reduced after every step, so they
    stay below the moduli however many steps there are.
    """

    factors: tuple[SimpleType, ...]
    moduli: tuple[int, ...]
    group: FiniteAbelianGroup
    _steps: tuple[tuple[int, int, int, int, int, int, int], ...]

    def element(self, per_factor_coords) -> GroupElement:
        """Canonical element from per-factor coordinates."""
        x = [int(v) for v in per_factor_coords]
        if len(x) != len(self.moduli):
            raise ValueError(f"expected {len(self.moduli)} per-factor coordinates, got {len(x)}")
        for i, j, s, t, a, b, g in self._steps:
            x[i], x[j] = (s * x[i] + t * x[j]) % g, (a * x[j] - b * x[i]) % (a * b * g)
        return GroupElement(self.group, tuple(x[len(x) - self.group.rank:]))

    def per_factor_coords(self, x: GroupElement) -> tuple[int, ...]:
        """Inverse of :meth:`element` (coordinates reduced modulo ``moduli``)."""
        if x.group != self.group:
            raise ValueError("element does not belong to this center")
        y = [0] * (len(self.moduli) - self.group.rank) + list(x.coords)
        for i, j, s, t, a, b, g in reversed(self._steps):
            y[i], y[j] = (a * y[i] - t * y[j]) % (a * g), (b * y[i] + s * y[j]) % (b * g)
        return tuple(y)

    def full_generators(self) -> tuple[tuple[int, ...], ...]:
        """Per-factor standard basis vectors; they generate the whole center."""
        n = len(self.moduli)
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def _center_moduli(t: SimpleType) -> tuple[int, ...]:
    """Invariant factors of the center of the simply connected group of type ``t``."""
    if t.family == "A":
        return (t.rank + 1,)
    if t.family == "D":
        return (4,) if t.rank % 2 else (2, 2)
    if t.family in ("B", "C") or str(t) == "E7":
        return (2,)
    return (3,) if str(t) == "E6" else ()


def center(factors) -> Center:
    """Center of the simply connected group with the given simple factors."""
    factors = tuple(factors)
    if not all(isinstance(t, SimpleType) for t in factors):
        raise TypeError("factors must be SimpleType instances")
    moduli = tuple(m for t in factors for m in _center_moduli(t))
    return Center(factors, moduli, *_cyclic_chain(moduli))


def center_of_simply_connected(factors) -> FiniteAbelianGroup:
    """Invariant-factor form of the center of the simply connected group.

    >>> str(center_of_simply_connected([SimpleType("D", 4)]))
    'Z/2 x Z/2'
    """
    return center(factors).group


# ---------------------------------------------------------------------------
# group specifications and Br(BG)
# ---------------------------------------------------------------------------


def _exact_int(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{x!r} is not an integer")
    return x


def _array(x, name: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{name} must be a JSON array, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class SemisimpleGroupSpec:
    """A semisimple group ``G = G~ / B``, given by root data.

    ``factors`` are the simple factors of the simply connected cover;
    ``central_generators`` generate the central kernel ``B``, each given in
    the per-factor coordinates of :class:`Center` (arbitrary integer
    representatives are accepted and reduced).  No generators means the
    trivial kernel, i.e. ``G`` simply connected.
    """

    factors: tuple[SimpleType, ...]
    central_generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        gens = tuple(tuple(int(x) for x in g) for g in self.central_generators)
        object.__setattr__(self, "central_generators", gens)
        width = len(self.center.moduli)
        for g in gens:
            if len(g) != width:
                raise ValueError(
                    f"generator {g} has {len(g)} coordinates; center needs {width}"
                )

    @cached_property
    def center(self) -> Center:
        return center(self.factors)

    @cached_property
    def central_subgroup(self) -> Subgroup:
        gens = [self.center.element(g) for g in self.central_generators]
        return generated_subgroup(self.center.group, gens)

    @classmethod
    def simply_connected(cls, factors) -> "SemisimpleGroupSpec":
        return cls(tuple(factors), ())

    @classmethod
    def adjoint(cls, factors) -> "SemisimpleGroupSpec":
        """Quotient by the full center."""
        spec = cls(tuple(factors), ())
        # set on this spec so the center it already computed is the only one:
        # the full generators fit that center by construction
        object.__setattr__(spec, "central_generators", spec.center.full_generators())
        return spec

    @classmethod
    def from_json(cls, data) -> "SemisimpleGroupSpec":
        """Parse ``{"factors": [...], "central_generators": [[...], ...]}``.

        Factor entries may be names (``"A3"``) or family/rank pairs
        (``["A", 3]``).  Raises ``ValueError`` unless ``data`` is a dict, both
        fields and each pair and generator are lists, and every rank and
        coordinate is an ``int`` (a ``bool`` is not).
        """
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        factors = []
        for item in _array(data.get("factors", []), "factors"):
            if isinstance(item, str):
                factors.append(SimpleType.parse(item))
            else:
                pair = _array(item, "each non-name factor")
                if len(pair) != 2:
                    raise ValueError("each non-name factor must be a [family, rank] pair, "
                                     f"got {pair!r}")
                factors.append(SimpleType(str(pair[0]), _exact_int(pair[1])))
        gens = tuple(tuple(_exact_int(x) for x in _array(g, "each central generator"))
                     for g in _array(data.get("central_generators", []), "central_generators"))
        return cls(tuple(factors), gens)

    def to_json(self) -> dict:
        return {
            "factors": [str(t) for t in self.factors],
            "central_generators": [list(g) for g in self.central_generators],
        }

    def __str__(self) -> str:
        facs = " x ".join(str(t) for t in self.factors) or "(empty product)"
        if not self.central_generators:
            return facs
        gens = "; ".join(str(list(g)) for g in self.central_generators)
        return f"{facs} / <{gens}>"


def fundamental_group(spec: SemisimpleGroupSpec) -> FiniteAbelianGroup:
    """Abstract structure of the central kernel ``B`` with ``G = G~ / B``.

    For the quotient by the full center this is the fundamental group of the
    adjoint group in the topological sense; the name stays accurate for the
    general quotient because ``pi_1(G~ / B) = B``.
    """
    return spec.central_subgroup.structure


def brauer_group_of_bg(spec: SemisimpleGroupSpec) -> FiniteAbelianGroup:
    """Brauer group of the classifying stack ``BG``.

    ``Br(BG) = X(B)``, the character group of the central kernel: ``H^2`` of
    ``BG`` with multiplicative coefficients is carried by the ``B``-gerbe
    ``B(G~) -> BG`` and its character twists.  As an abstract group this is
    the dual of ``B``, hence has the same invariant factors.

    >>> pgl2 = SemisimpleGroupSpec((SimpleType("A", 1),), ((1,),))
    >>> str(brauer_group_of_bg(pgl2))
    'Z/2'
    """
    return dual_group(fundamental_group(spec))
