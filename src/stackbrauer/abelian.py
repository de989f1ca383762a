"""Exact integer linear algebra and finite abelian group arithmetic.

Everything here runs on Python's native arbitrary-precision integers; no
floating point, no fixed-width overflow.  The two central tools are

* the Smith normal form of an integer matrix ``A``: unimodular ``U``, ``V``
  with ``U @ A @ V`` diagonal, the diagonal nonnegative and each entry
  dividing the next.  A Hermite phase (row steps to the reduced Hermite
  normal form) runs before the pivot sweep, so the entries of ``U`` and
  ``V`` stay within a few times the bit length of ``|det A|`` instead of
  growing with every column step, and

* finite abelian groups in invariant-factor form ``Z/f1 x ... x Z/fk``
  with ``f1 | f2 | ... | fk`` and every ``fi >= 2``, with element
  arithmetic and duals; a subgroup is a lattice between ``diag(f) Z^k``
  and ``Z^k``, keyed by its Hermite normal form rather than its elements.

Duality note: for a finite diagonalizable group scheme, the character group
of the Cartier dual has the same invariant factors, so duals are modeled
combinatorially here.  This silently assumes the base field has enough roots
of unity (characteristic not dividing the group order); callers who care
about small characteristic must track that hypothesis themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod

__all__ = [
    "GroupMismatchError",
    "IntegerMatrix",
    "SmithDecomposition",
    "FiniteAbelianGroup",
    "GroupElement",
    "Subgroup",
    "smith_normal_form",
    "cokernel",
    "dual_group",
    "generated_subgroup",
    "enumerate_subgroups",
    "SUBGROUP_ORDER_BOUND",
    "SUBGROUP_COUNT_BOUND",
]

#: Default ceiling on the ambient group order for exhaustive subgroup search.
SUBGROUP_ORDER_BOUND = 10_000
#: Ceiling on the number of subgroups one exhaustive search may build.
SUBGROUP_COUNT_BOUND = 50_000


class GroupMismatchError(ValueError):
    """Raised when combining elements of structurally different groups."""


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


def _exact_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, each an ``int`` and none a ``bool``: the one rule
    for integer input.  Anything else raises ``ValueError`` naming ``what``."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"{what} {x!r} is not an integer")
    return values


class IntegerMatrix:
    """An immutable rows x cols matrix over the integers.

    Entries are stored as a tuple of row tuples of Python ints (checked by
    :func:`_exact_ints`), so all arithmetic is exact at any magnitude.
    Degenerate shapes (zero rows or zero columns) are allowed; pass
    ``cols=`` when there are no rows to fix the width.

    >>> IntegerMatrix([[2, -1], [-1, 2]]).det()
    3
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries, cols: int | None = None):
        data = tuple(_exact_ints(row, "matrix entry") for row in entries)
        ncols = len(data[0]) if data else cols or 0
        if cols is not None and cols != ncols:
            raise ValueError(f"cols={cols} disagrees with row width {ncols}")
        if any(len(row) != ncols for row in data):
            raise ValueError("rows of unequal length")
        self.rows, self.cols, self._entries = len(data), ncols, data

    # -- construction helpers -------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag) -> "IntegerMatrix":
        diag = list(diag)
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    # -- access ----------------------------------------------------------

    def __getitem__(self, key) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self._entries[i][j]

    def row_lists(self) -> list[list[int]]:
        return [list(row) for row in self._entries]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, b = self._entries, other._entries
        out = [[sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
               for i in range(self.rows)]
        return IntegerMatrix(out, cols=other.cols)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix([[row[j] for row in self._entries] for j in range(self.cols)],
                             cols=self.rows)

    def det(self) -> int:
        """Exact determinant by the Bareiss fraction-free elimination."""
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # Bareiss update: division is exact over Z
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix)
                and self.rows == other.rows
                and self.cols == other.cols
                and self._entries == other._entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.row_lists()!r})"

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        text = [[str(x) for x in row] for row in self._entries]
        widths = [max(len(text[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "[" + "  ".join(t.rjust(w) for t, w in zip(row, widths)) + "]" for row in text
        )


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """Result of ``smith_normal_form``: ``left @ a @ right`` is diagonal.

    ``d`` is the diagonal of length ``min(rows, cols)``; entries are
    nonnegative, zeros trail, and each nonzero entry divides the next.
    ``left`` and ``right`` are unimodular (determinant +-1).
    """

    d: tuple[int, ...]
    left: IntegerMatrix
    right: IntegerMatrix

    def diagonal_matrix(self) -> IntegerMatrix:
        rows, cols = self.left.rows, self.right.rows
        return IntegerMatrix(
            [[self.d[i] if i == j and i < len(self.d) else 0 for j in range(cols)]
             for i in range(rows)],
            cols=cols,
        )


def _find_pivot(m: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    """Nonzero entry of smallest absolute value in the trailing submatrix."""
    best = None
    best_val = 0
    for i in range(t, rows):
        row = m[i]
        for j in range(t, cols):
            e = row[j]
            if e != 0 and (best is None or abs(e) < best_val):
                best = (i, j)
                best_val = abs(e)
                if best_val == 1:
                    return best
    return best


def _smith_sweep(w: list[list[int]], rows: int, cols: int) -> tuple[int, ...]:
    """Diagonalize the top-left ``rows x cols`` block of ``w`` in place and
    return its diagonal; a border right of or below the block records the
    steps.  At pivot ``t`` the rows above are zero from column ``t`` on, so
    row steps run over rows ``t+1..`` and columns ``t..``, and a column swap
    over rows ``t..``.  Column steps wait for a clean row clear, which
    leaves column ``t`` zero in the block but for the pivot, so they change
    only row ``t`` and the border rows below the block.

    Pivots are chosen as the smallest-in-absolute-value nonzero entry of the
    trailing submatrix, which keeps intermediate entries small in practice.
    Row and column Euclidean steps clear the pivot cross; whenever the pivot
    fails to divide some remaining entry, that entry's row is folded into
    the pivot row and clearing resumes, which is what forces the divisibility
    chain ``d[i] | d[i+1]``.  A unit pivot divides every entry, so it skips
    that scan.

    It also finishes a Hermite normal form: after :func:`_hermite`,
    :func:`smith_normal_form` runs it on ``[H | U]`` and :func:`cokernel`
    on ``H``.  On a generic square ``H`` is the identity but for its last
    column, so every pivot is a unit on the diagonal and the sweep is one
    column step per entry of that column.
    """
    limit, border = min(rows, cols), w[rows:]
    for t in range(limit):
        while True:
            pivot = _find_pivot(w, t, rows, cols)
            if pivot is None:
                break
            pi, pj = pivot
            w[t], w[pi] = w[pi], w[t]
            if pj != t:
                for row in w[t:]:
                    row[t], row[pj] = row[pj], row[t]
            top = w[t]
            p = top[t]
            # One Euclidean sweep of the pivot cross.  Any nonzero remainder
            # is a strictly smaller pivot candidate, so loop back and re-pick
            # rather than keep grinding with a stale pivot; re-picking every
            # sweep is what keeps intermediate entries from exploding.
            clean = True
            live = top[t:]
            for row in w[t + 1:rows]:
                if row[t]:
                    q = row[t] // p
                    row[t:] = [x - q * y for x, y in zip(row[t:], live)]
                    clean = clean and not row[t]
            if not clean:
                continue
            for j in range(t + 1, cols):
                if top[j]:
                    q = top[j] // p
                    top[j] -= q * p
                    for row in border:
                        row[j] -= q * row[t]
                    clean = clean and not top[j]
            if not clean:
                continue
            # Pivot cross is clear.  A unit pivot divides every entry left;
            # otherwise force the divisibility chain: folding an offending
            # row into row t plants an entry the pivot fails to divide, so
            # the next sweep strictly shrinks the pivot.
            if abs(p) == 1:
                break
            offender = next((i for i in range(t + 1, rows)
                             if any(w[i][j] % p for j in range(t + 1, cols))), None)
            if offender is None:
                break
            w[t] = [x + y for x, y in zip(top, w[offender])]

    for i in range(limit):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]
    return tuple(w[i][i] for i in range(limit))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``s*a + t*b == g == gcd(a, b)``."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s, s1, t, t1 = b, r, s1, s - q * s1, t1, t - q * t1
    return (a, s, t) if a >= 0 else (-a, -s, -t)


def _reduce(row: list[int], pivots, columns, hi: int) -> None:
    """Reduce ``row`` in place: its entry in each pivot column ``k`` of
    ``columns``, taken in increasing order, goes into ``[0, p)`` by the pivot
    row ``pivots[k]``.  Pivot row ``k`` is zero left of ``k`` and both rows
    are zero from ``hi`` on, so each step runs over ``[k, hi)``."""
    for k in columns:
        top = pivots[k]
        q = row[k] // top[k]
        if q:
            row[k:hi] = [x - q * y for x, y in zip(row[k:hi], top[k:hi])]


def _hermite(w: list[list[int]], rows: int, cols: int) -> None:
    """Bring the top-left ``rows x cols`` block of ``w`` to reduced row
    Hermite normal form in place, by steps on the first ``rows`` rows only.

    Rows are inserted one at a time into a table of pivot rows indexed by
    column (the order of Kannan and Bachem).  An incoming entry that the
    pivot divides is cleared by one subtraction; otherwise a 2x2 Bezout step
    puts the gcd in the pivot row and clears the entry.  Every new or
    changed pivot row is reduced against the pivots right of it, and the
    entries above its pivot into ``[0, p)``, so entries stay the size of
    the block's minors instead of growing with each step.  Echelon rows
    come first, in pivot order; rows that vanish in the block (the left
    kernel) go below them.  A step on column ``j`` runs over ``[j, hi)``:
    both rows are zero left of ``j``, and every row inserted so far is zero
    from ``hi`` on (on ``[A | I]``, ``hi`` grows by one column a row).
    """
    pivots: dict[int, list[int]] = {}
    kernel = []
    hi = 0

    def settle(j: int) -> None:
        order = sorted(pivots)
        at = order.index(j)
        _reduce(pivots[j], pivots, order[at + 1:], hi)
        p = pivots[j][j]
        for k in order[:at]:
            # A row whose entry is already in [0, p) needs no step: it is
            # unchanged, and pivot rows are kept reduced right of their pivot.
            if pivots[k][j] // p:
                _reduce(pivots[k], pivots, order[at:], hi)

    for row in w[:rows]:
        end = len(row)
        while end > hi and not row[end - 1]:
            end -= 1
        hi = end
        for j in range(cols):
            e = row[j]
            if e == 0:
                continue
            top = pivots.get(j)
            if top is None:
                pivots[j] = row if e > 0 else [-x for x in row]
                settle(j)
                break
            p = top[j]
            old, new = top[j:hi], row[j:hi]
            if e % p == 0:
                q = e // p
                row[j:hi] = [y - q * x for x, y in zip(old, new)]
            else:
                g, s, t = _xgcd(p, e)
                a, b = p // g, e // g
                top[j:hi] = [s * x + t * y for x, y in zip(old, new)]
                row[j:hi] = [a * y - b * x for x, y in zip(old, new)]
                settle(j)
        else:
            kernel.append(row)
    w[:rows] = [pivots[j] for j in sorted(pivots)] + kernel


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with explicit unimodular transforms.

    Both phases run on ``[A | I_rows]`` over ``I_cols``, so the steps that
    diagonalize ``A`` build ``U`` to its right and ``V`` below it.  The
    Hermite phase (:func:`_hermite`) brings ``A`` to its reduced row Hermite
    normal form ``H`` by row steps; the pivot sweep (:func:`_smith_sweep`)
    then diagonalizes ``H``.  For a nonsingular square ``A``, ``H`` and
    ``U = H A^-1`` are unique: the entries of ``H`` lie below ``|det A|`` and
    those of ``U`` are at most ``n`` times the largest ``(n-1)``-minor of
    ``A``.  The sweep can grow ``U`` again where ``H`` has several non-unit
    pivots; on random squares with entries in [-50, 50], ``U`` and ``V``
    mostly stay within twice the bit length of ``|det A|`` and have stayed
    within three times.  The sweep alone grew ``V`` to 21,280 bits on such
    an 80x80 matrix, whose ``|det A|`` has 585.

    >>> smith_normal_form(IntegerMatrix([[2, -1], [-1, 2]])).d
    (1, 3)
    """
    rows, cols = a.rows, a.cols
    w = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(a.row_lists())]
    w += [[int(i == j) for j in range(cols)] for i in range(cols)]
    _hermite(w, rows, cols)
    return SmithDecomposition(
        d=_smith_sweep(w, rows, cols),
        left=IntegerMatrix([row[cols:] for row in w[:rows]], cols=rows),
        right=IntegerMatrix(w[rows:], cols=cols),
    )


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group in canonical invariant-factor form.

    ``invariant_factors`` is the ascending divisibility chain
    ``(f1, ..., fk)`` with ``f1 | f2 | ... | fk`` and every ``fi >= 2``;
    the empty tuple is the trivial group, and every ``fi`` must be an ``int``.
    Elements are residue tuples, coordinate ``i`` taken modulo ``fi``.

    >>> str(FiniteAbelianGroup((2, 4)))
    'Z/2 x Z/4'
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        facs = _exact_ints(self.invariant_factors, "invariant factor")
        object.__setattr__(self, "invariant_factors", facs)
        for f in facs:
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2 (units are dropped, 0 is not finite)")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {facs} violate the divisibility chain")

    @classmethod
    def from_cyclic_moduli(cls, moduli) -> "FiniteAbelianGroup":
        """Canonical form of ``Z/m1 x ... x Z/mn`` for arbitrary ``mi >= 1``.

        The moduli need not form a chain: this is the cokernel of
        ``diag(m1, ..., mn)``, found by :func:`_cyclic_chain`.

        >>> FiniteAbelianGroup.from_cyclic_moduli([2, 3]).invariant_factors
        (6,)
        """
        moduli = _exact_ints(moduli, "cyclic modulus")
        if any(m < 1 for m in moduli):
            raise ValueError("cyclic moduli must be positive integers")
        return _cyclic_chain(moduli)[0]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int:
        return prod(self.invariant_factors)

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def elements(self):
        """Iterate over all elements in lexicographic coordinate order."""
        for coords in itertools.product(*(range(f) for f in self.invariant_factors)):
            yield GroupElement(self, coords)

    def to_json(self) -> list[int]:
        return list(self.invariant_factors)

    @classmethod
    def from_json(cls, data) -> "FiniteAbelianGroup":
        return cls(data)

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{f}" for f in self.invariant_factors)


def _cyclic_chain(moduli) -> tuple[FiniteAbelianGroup, tuple[tuple[int, ...], ...]]:
    """``Z/m_1 + ... + Z/m_n`` in invariant-factor form, and the steps there.

    One pass over the pairs ``i < j`` sorts the moduli into a divisibility
    chain (Newman, *Integral Matrices*, II): where ``m_i`` does not divide
    ``m_j``, with ``g`` their gcd, ``m_i = a g``, ``m_j = b g`` and ``s a + t b = 1``,
    the step ``(i, j, s, t, a, b, g)`` maps ``Z/m_i + Z/m_j`` onto ``Z/g + Z/(a m_j)``
    by ``(x_i, x_j) -> (s x_i + t x_j, a x_j - b x_i)``; leading 1s are dropped.
    """
    chain, steps = list(moduli), []
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            if chain[j] % chain[i]:
                g = gcd(chain[i], chain[j])
                a, b = chain[i] // g, chain[j] // g
                s = pow(a, -1, b)
                steps.append((i, j, s, (1 - s * a) // b, a, b, g))
                chain[i], chain[j] = g, a * chain[j]
    return FiniteAbelianGroup(tuple(m for m in chain if m > 1)), tuple(steps)


def dual_group(b: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """Character group of ``b``.

    A finite abelian group is non-canonically isomorphic to its dual, so the
    invariant factors are unchanged; this exists as an explicit operation so
    that call sites say what they mean.
    """
    return FiniteAbelianGroup(b.invariant_factors)


@dataclass(frozen=True)
class GroupElement:
    """An element of a :class:`FiniteAbelianGroup`, stored reduced.

    Arithmetic is by operators: ``x + y``, ``-x``, ``x - y``, ``n * x``.
    Mixing elements of structurally different groups raises
    :class:`GroupMismatchError`.
    """

    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        facs = self.group.invariant_factors
        raw = _exact_ints(self.coords, "coordinate")
        if len(raw) != len(facs):
            raise ValueError(f"expected {len(facs)} coordinates, got {len(raw)}")
        object.__setattr__(self, "coords", tuple(x % f for x, f in zip(raw, facs)))

    def _check(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement):
            raise TypeError(f"cannot combine GroupElement with {type(other).__name__}")
        if other.group != self.group:
            raise GroupMismatchError(
                f"elements live in different groups: {self.group} vs {other.group}"
            )

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self + (-other)

    def __rmul__(self, n: int) -> "GroupElement":
        (n,) = _exact_ints((n,), "multiplier")
        return GroupElement(self.group, tuple(n * a for a in self.coords))

    @property
    def is_identity(self) -> bool:
        return all(x == 0 for x in self.coords)

    def element_order(self) -> int:
        """Smallest ``n >= 1`` with ``n * self`` the identity."""
        return lcm(*(f // gcd(x, f) for x, f in zip(self.coords, self.group.invariant_factors)))

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "coords": list(self.coords)}

    @classmethod
    def from_json(cls, data) -> "GroupElement":
        return cls(FiniteAbelianGroup.from_json(data["group"]), data["coords"])

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


# ---------------------------------------------------------------------------
# cokernels
# ---------------------------------------------------------------------------


def cokernel(a: IntegerMatrix) -> tuple[FiniteAbelianGroup, int]:
    """Cokernel of ``a`` viewed as a map ``Z^cols -> Z^rows``.

    Returns ``(torsion, free_rank)``: the finite part in invariant-factor
    form (diagonal entries equal to 1 are dropped) and the rank of the free
    part (zero diagonal entries plus the row surplus when ``rows > cols``).
    It runs the two phases of :func:`smith_normal_form` on the rows of ``a``
    alone, with no border: no transform is built.

    >>> cokernel(IntegerMatrix([[2, -1], [-1, 2]]))[0].invariant_factors
    (3,)
    """
    w = a.row_lists()
    _hermite(w, a.rows, a.cols)
    d = _smith_sweep(w, a.rows, a.cols)
    torsion = tuple(x for x in d if x > 1)
    free_rank = sum(1 for x in d if x == 0) + max(0, a.rows - a.cols)
    return FiniteAbelianGroup(torsion), free_rank


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """The subgroup ``L / diag(f) Z^n`` of ``ambient = Z/f1 x ... x Z/fn``.

    ``hnf`` is the upper-triangular row Hermite normal form ``H`` of the
    lattice ``diag(f) Z^n <= L <= Z^n``: each pivot ``h_ii`` divides ``f_i``
    and each entry above a pivot ``h_jj`` lies in ``[0, h_jj)``.  ``H`` is
    unique, so it is the subgroup: subgroups are equal exactly when ambient
    and ``hnf`` agree.  ``structure`` is the cokernel of ``diag(f) H^-1``.
    ``generators`` and ``elements`` (sorted by coordinates) are derived from
    ``H`` when first read.
    """

    ambient: FiniteAbelianGroup
    structure: FiniteAbelianGroup = field(compare=False)
    hnf: tuple[tuple[int, ...], ...]

    def order(self) -> int:
        facs = self.ambient.invariant_factors
        return prod(f // row[i] for i, (row, f) in enumerate(zip(self.hnf, facs)))

    def __contains__(self, x: GroupElement) -> bool:
        """Triangular reduction of ``x`` by the rows of ``hnf`` (:func:`_reduce`)."""
        if not isinstance(x, GroupElement) or x.group != self.ambient:
            return False
        v, n = list(x.coords), len(self.hnf)
        _reduce(v, self.hnf, range(n), n)
        return not any(v)

    @cached_property
    def generators(self) -> tuple[GroupElement, ...]:
        """The rows of ``hnf`` nonzero modulo ``f``."""
        facs = self.ambient.invariant_factors
        return tuple(GroupElement(self.ambient, row) for i, row in enumerate(self.hnf)
                     if row[i] < facs[i])

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """Every ``sum c_i H_i mod f`` with ``0 <= c_i < f_i / h_ii``."""
        facs = self.ambient.invariant_factors
        coords = [(0,) * len(facs)]
        for i, row in enumerate(self.hnf):
            if row[i] < facs[i]:
                coords = [tuple([(a + k * b) % f for a, b, f in zip(c, row, facs)])
                          for c in coords for k in range(facs[i] // row[i])]
        return tuple(GroupElement(self.ambient, c) for c in sorted(coords))


def _cofactor_row(facs: tuple[int, ...], rows) -> list[int] | None:
    """Row ``i`` of ``diag(f) H^-1`` from ``rows = H[i:]`` by forward substitution
    on ``x H = f_i e_i``, each sum running only over the entries of ``x`` nonzero
    so far; ``None`` unless ``f_i e_i`` lies in the span of ``rows``."""
    n = len(facs)
    i = n - len(rows)
    x, nonzero = [0] * n, []
    for j in range(i, n):
        rest = facs[i] if j == i else -sum(x[k] * rows[k - i][j] for k in nonzero)
        x[j], r = divmod(rest, rows[j - i][j])
        if r:
            return None
        if x[j]:
            nonzero.append(j)
    return x


def _structure(block: tuple[tuple[int, ...], ...], memo: dict) -> FiniteAbelianGroup:
    """Cokernel of ``X = diag(f) H^-1``, cached in ``memo``, from ``block``: ``X``
    without the row and column of each unit pivot (``x_ii = 1`` means ``h_ii = f_i``,
    so row ``i`` of ``X`` is ``e_i``).  ``X`` is upper triangular: a block that is
    diagonal goes straight to the gcd/lcm steps of :func:`_cyclic_chain`, any
    other through :func:`_smith_sweep` first, with no Hermite phase."""
    if block not in memo:
        d = [row[k] for k, row in enumerate(block)]
        if any(any(row[k + 1:]) for k, row in enumerate(block)):
            d = _smith_sweep([list(row) for row in block], len(block), len(block))
        memo[block] = _cyclic_chain(d)[0]
    return memo[block]


def generated_subgroup(group: FiniteAbelianGroup, generators) -> Subgroup:
    """Subgroup of ``group`` generated by the given elements.

    ``hnf`` is the first ``n`` rows of the reduced row Hermite normal form of
    ``[diag(f); generators]`` (:func:`_hermite`); the rows below vanish, and
    ``structure`` is read from the non-unit block of ``diag(f) H^-1``
    (:func:`_structure`).  The given generators are checked but not kept:
    ``generators`` of the result are the rows of ``hnf`` nonzero modulo ``f``.

    >>> g = FiniteAbelianGroup((2, 4))
    >>> generated_subgroup(g, [g.element([1, 2])]).hnf
    ((1, 2), (0, 4))
    """
    generators = tuple(generators)
    for g in generators:
        if not isinstance(g, GroupElement):
            raise TypeError("generators must be GroupElement instances")
        if g.group != group:
            raise GroupMismatchError("generator does not belong to the ambient group")

    facs = group.invariant_factors
    n = len(facs)
    w = [[f if j == i else 0 for j in range(n)] for i, f in enumerate(facs)]
    w += [list(g.coords) for g in generators]
    _hermite(w, len(w), n)
    hnf = tuple(tuple(row) for row in w[:n])
    keep = [i for i in range(n) if hnf[i][i] != facs[i]]
    block = tuple(tuple(x[j] for j in keep) for x in (_cofactor_row(facs, hnf[i:]) for i in keep))
    return Subgroup(group, _structure(block, {}), hnf)


def enumerate_subgroups(group: FiniteAbelianGroup,
                        max_order: int = SUBGROUP_ORDER_BOUND) -> list[Subgroup]:
    """All subgroups of ``group``, each listed exactly once.

    Each is one Hermite normal form ``H`` (see :class:`Subgroup`), built from
    the bottom row up: row ``i`` takes every pivot ``h | f_i`` and every tail
    reduced modulo the pivots below, and is kept when row ``i`` of
    ``diag(f) H^-1`` is integral.  That row solves ``x H = f_i e_i``, which
    is linear in ``x_i = f_i / h``: one forward solve ``z`` with pivot 1 per
    tail serves every pivot, as ``h`` works exactly when ``z`` is integral
    and ``h`` divides ``gcd(z)``, and its row is then ``z / h``.  Each form
    carries its block for :func:`_structure`: pivot ``h = f_i`` keeps it, and
    any other puts ``z / h`` at ``i`` and the kept columns on top of it, over
    a zero column.  Distinct forms are distinct subgroups.  The result is
    sorted by ``(order, hnf)``.  Raises ``ValueError`` when the group order
    exceeds ``max_order``, and as soon as more than ``SUBGROUP_COUNT_BOUND``
    forms are built (each extends to the rows above it, so counts only grow).

    >>> [s.order() for s in enumerate_subgroups(FiniteAbelianGroup((4,)))]
    [1, 2, 4]
    """
    order = group.order()
    if order > max_order:
        raise ValueError(f"group order {order} exceeds subgroup enumeration bound {max_order}")

    facs = group.invariant_factors
    # (H[i:], kept columns, non-unit block) for every subgroup of Z/f_i x ... x Z/f_n
    blocks = [((), (), ())]
    for i in reversed(range(len(facs))):
        pivots = [h for h in range(1, facs[i] + 1) if facs[i] % h == 0]
        grown = []
        for rows, keep, block in blocks:
            cols, padded = (i,) + keep, tuple((0,) + row for row in block)
            for tail in itertools.product(*(range(row[j]) for j, row in enumerate(rows, i + 1))):
                x = _cofactor_row(facs, ((0,) * i + (1,) + tail,) + rows)
                if x is None:
                    continue
                g = gcd(*x)
                for h in pivots:
                    if g % h == 0:
                        hnf = ((0,) * i + (h,) + tail,) + rows
                        grown.append((hnf, keep, block) if h == facs[i] else
                                     (hnf, cols, (tuple(x[j] // h for j in cols),) + padded))
                        if len(grown) > SUBGROUP_COUNT_BOUND:
                            raise ValueError(f"{group} has over {SUBGROUP_COUNT_BOUND} subgroups")
        blocks = grown

    memo: dict = {}
    subgroups = [Subgroup(group, _structure(block, memo), hnf) for hnf, _, block in blocks]
    subgroups.sort(key=lambda s: (s.order(), s.hnf))
    return subgroups
