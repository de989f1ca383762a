"""Tests for exact integer linear algebra and finite abelian groups.

The subgroup-count oracle is deliberately independent of the shipped
enumerator: it counts subgroups of abelian p-groups by isomorphism type via
the classical Gaussian-binomial formula and multiplies over primes, while
the library builds Hermite normal forms of subgroup lattices.  Likewise the
property test below checks generated subgroups against a breadth-first
closure and element-order counts written here, and Smith normal forms
against determinantal divisors computed by permutation expansion.
"""

import dataclasses
import hashlib
import itertools
import random
from collections import Counter
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackbrauer.abelian as abelian
from stackbrauer.abelian import (
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    IntegerMatrix,
    Subgroup,
    cokernel,
    dual_group,
    enumerate_subgroups,
    generated_subgroup,
    smith_normal_form,
)

RNG_SEED = 987123


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def assert_valid_snf(a: IntegerMatrix) -> None:
    """Full soundness check: U A V = D, unimodularity, chain, signs."""
    dec = smith_normal_form(a)
    assert dec.left.rows == dec.left.cols == a.rows
    assert dec.right.rows == dec.right.cols == a.cols
    assert abs(dec.left.det()) == 1
    assert abs(dec.right.det()) == 1
    assert (dec.left @ a @ dec.right) == dec.diagonal_matrix()
    d = dec.d
    assert len(d) == min(a.rows, a.cols)
    assert all(x >= 0 for x in d)
    nonzero = [x for x in d if x != 0]
    # zeros must trail
    assert tuple(d) == tuple(nonzero) + (0,) * (len(d) - len(nonzero))
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 50) -> IntegerMatrix:
    return IntegerMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntegerMatrix:
    """Product of random elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return IntegerMatrix(m, cols=n)


# -- independent subgroup-count oracle ---------------------------------------


def gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num, den = 1, 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def conjugate_partition(part: list[int]) -> list[int]:
    if not part:
        return []
    return [sum(1 for x in part if x >= i) for i in range(1, part[0] + 1)]


def subtype_count(lam: list[int], mu: list[int], p: int) -> int:
    """Number of subgroups of type mu inside an abelian p-group of type lam."""
    lc, mc = conjugate_partition(lam), conjugate_partition(mu)

    def at(seq, i):
        return seq[i] if i < len(seq) else 0

    total = 1
    for i in range(len(lc)):
        li, mi, mi1 = lc[i], at(mc, i), at(mc, i + 1)
        total *= p ** (mi1 * (li - mi)) * gaussian_binomial(li - mi1, mi - mi1, p)
    return total


def subpartitions(lam: list[int]):
    """All partitions fitting inside lam (componentwise, descending)."""
    def rec(idx: int, cap: int, prefix: tuple[int, ...]):
        yield [x for x in prefix if x > 0]
        if idx == len(lam):
            return
        for v in range(1, min(cap, lam[idx]) + 1):
            yield from rec(idx + 1, v, prefix + (v,))
    seen = []
    for part in rec(0, lam[0] if lam else 0, ()):
        if part not in seen:
            seen.append(part)
    return seen


def oracle_subgroup_count(factors: tuple[int, ...]) -> int:
    """Count all subgroups of Z/f1 x ... x Z/fk by prime decomposition."""
    primes: dict[int, list[int]] = {}
    for f in factors:
        n = f
        q = 2
        while q * q <= n:
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                primes.setdefault(q, []).append(e)
            q += 1
        if n > 1:
            primes.setdefault(n, []).append(1)
    count = 1
    for p, exps in primes.items():
        lam = sorted(exps, reverse=True)
        count *= sum(subtype_count(lam, mu, p) for mu in subpartitions(lam))
    return count


def all_invariant_chains(max_order: int):
    """Every invariant-factor chain with product <= max_order."""
    out = [()]

    def rec(chain: tuple[int, ...], order: int):
        start = chain[-1] if chain else 2
        f = start
        while order * f <= max_order:
            if f % start == 0 or not chain:
                if not chain or f % chain[-1] == 0:
                    nxt = chain + (f,)
                    out.append(nxt)
                    rec(nxt, order * f)
            f += 1

    rec((), 1)
    return out


# ---------------------------------------------------------------------------
# IntegerMatrix basics
# ---------------------------------------------------------------------------


class TestIntegerMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntegerMatrix([[1, 2], [3]])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            IntegerMatrix([[1.5]])
        with pytest.raises(ValueError):
            IntegerMatrix([[True]])

    def test_empty_shapes(self):
        assert IntegerMatrix([], cols=3).rows == 0
        assert IntegerMatrix([[], []]).cols == 0

    def test_matmul_and_det(self):
        a = IntegerMatrix([[1, 2], [3, 4]])
        b = IntegerMatrix([[0, 1], [1, 0]])
        assert (a @ b) == IntegerMatrix([[2, 1], [4, 3]])
        assert a.det() == -2
        assert IntegerMatrix.identity(4).det() == 1
        assert IntegerMatrix([[2, 4], [1, 2]]).det() == 0

    def test_det_exact_on_big_entries(self):
        big = 10 ** 30
        m = IntegerMatrix([[big, 1], [1, big]])
        assert m.det() == big * big - 1


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class TestSmithNormalForm:
    def test_pinned_example(self):
        assert smith_normal_form(IntegerMatrix([[2, -1], [-1, 2]])).d == (1, 3)

    def test_single_entry(self):
        assert smith_normal_form(IntegerMatrix([[2]])).d == (2,)
        assert smith_normal_form(IntegerMatrix([[0]])).d == (0,)
        assert smith_normal_form(IntegerMatrix([[-6]])).d == (6,)

    def test_identity(self):
        assert smith_normal_form(IntegerMatrix.identity(3)).d == (1, 1, 1)

    def test_zero_matrix(self):
        dec = smith_normal_form(IntegerMatrix.zeros(2, 3))
        assert dec.d == (0, 0)
        assert_valid_snf(IntegerMatrix.zeros(2, 3))

    def test_empty_matrices(self):
        assert smith_normal_form(IntegerMatrix([], cols=3)).d == ()
        assert smith_normal_form(IntegerMatrix([[], []])).d == ()
        assert_valid_snf(IntegerMatrix([], cols=3))
        assert_valid_snf(IntegerMatrix([[], []]))

    def test_divisibility_fixup(self):
        # diag(2, 3) must come out as (1, 6), not (2, 3)
        assert smith_normal_form(IntegerMatrix.diagonal([2, 3])).d == (1, 6)
        assert smith_normal_form(IntegerMatrix.diagonal([4, 6])).d == (2, 12)

    def test_rectangular(self):
        wide = IntegerMatrix([[2, 0, 0], [0, 3, 0]])
        tall = wide.transpose()
        assert smith_normal_form(wide).d == (1, 6)
        assert smith_normal_form(tall).d == (1, 6)
        assert_valid_snf(wide)
        assert_valid_snf(tall)

    def test_random_soundness(self):
        rng = random.Random(RNG_SEED)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            assert_valid_snf(random_matrix(rng, rows, cols))

    def test_huge_entries_stay_exact(self):
        m = IntegerMatrix([[10 ** 40, 3], [7, 10 ** 35]])
        assert_valid_snf(m)

    def test_transpose_invariance_of_d(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert smith_normal_form(m).d == smith_normal_form(m.transpose()).d

    def test_80x80_transforms_bounded_by_determinant(self):
        # Entries uniform in [-50, 50]; |det A| has 585 bits.  A pivot sweep
        # with no Hermite phase grows V to 21,280 bits on this matrix.
        rng = random.Random(0)
        a = IntegerMatrix([[rng.randint(-50, 50) for _ in range(80)] for _ in range(80)])
        dec = smith_normal_form(a)
        bound = 2 * abs(a.det()).bit_length()
        for t in (dec.left, dec.right):
            assert max(abs(x).bit_length() for row in t.row_lists() for x in row) <= bound
        assert dec.left @ a @ dec.right == dec.diagonal_matrix()
        assert abs(dec.left.det()) == abs(dec.right.det()) == 1

    def test_transforms_pinned(self):
        # U and V are part of the answer: a kernel change that only skips
        # work must leave them byte-identical on squares, 4:3 rectangles,
        # small entries, rank-deficient squares and zero rows.
        rng = random.Random(2025)
        digest = hashlib.sha256()
        for n in range(1, 25):
            k = max(1, 3 * n // 4)
            r = rng.randint(0, n - 1)
            cases = [random_matrix(rng, n, n), random_matrix(rng, n, k), random_matrix(rng, k, n),
                     random_matrix(rng, n, n, bound=3),
                     random_matrix(rng, n, r, bound=4) @ random_matrix(rng, r, n, bound=4)]
            zero = set(rng.sample(range(n), (n + 2) // 3))
            cases.append(IntegerMatrix([[0] * n if i in zero else
                                        [rng.randint(-50, 50) for _ in range(n)]
                                        for i in range(n)], cols=n))
            for a in cases:
                dec = smith_normal_form(a)
                digest.update(repr((dec.d, dec.left, dec.right)).encode())
        assert digest.hexdigest() == (
            "9957a7bdefb819ef69776fca5a06b81c5f4bcf9795a9b515dfca3f5b94fa1772")


def leibniz_det(m: list[list[int]]) -> int:
    """Determinant as the signed sum over all permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def determinantal_divisor(m: list[list[int]], k: int) -> int:
    """gcd of all k x k minors of ``m``."""
    return gcd(*(
        leibniz_det([[m[i][j] for j in cs] for i in rs])
        for rs in itertools.combinations(range(len(m)), k)
        for cs in itertools.combinations(range(len(m[0])), k)
    ))


@st.composite
def small_matrices(draw):
    """Entries in [-9, 9], shapes up to 4x5 and 5x4.  In about two draws of
    three with two or more rows, one row is a copy or the negation of
    another, so the left kernel is nonzero."""
    rows, cols = draw(st.sampled_from([(r, c) for r in range(1, 6) for c in range(1, 6)
                                       if r * c < 25]))
    m = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    sign = draw(st.sampled_from((0, 1, -1)))
    if sign and rows > 1:
        i, j = draw(st.permutations(range(rows)))[:2]
        m[i] = [sign * x for x in m[j]]
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_snf_matches_determinantal_divisors(rows):
    a = IntegerMatrix(rows)
    assert_valid_snf(a)
    d = smith_normal_form(a).d
    divisors = [1] + [determinantal_divisor(rows, k) for k in range(1, len(d) + 1)]
    for k in range(1, len(d) + 1):
        assert prod(d[:k]) == divisors[k], k
    rank = max(k for k, x in enumerate(divisors) if x)
    quotients = (divisors[k] // divisors[k - 1] for k in range(1, rank + 1))
    assert cokernel(a) == (FiniteAbelianGroup(tuple(q for q in quotients if q > 1)),
                           len(rows) - rank)


# ---------------------------------------------------------------------------
# cokernels
# ---------------------------------------------------------------------------


class TestCokernel:
    def test_pinned_examples(self):
        torsion, free = cokernel(IntegerMatrix([[2]]))
        assert torsion.invariant_factors == (2,) and free == 0
        torsion, free = cokernel(IntegerMatrix([[2, -1], [-1, 2]]))
        assert torsion.invariant_factors == (3,) and free == 0

    def test_free_rank_from_zero_rows(self):
        torsion, free = cokernel(IntegerMatrix.zeros(3, 2))
        assert torsion.is_trivial and free == 3

    def test_free_rank_from_row_surplus(self):
        # 3x1 injective map: coker = torsion-free of rank 2 here
        torsion, free = cokernel(IntegerMatrix([[1], [0], [0]]))
        assert torsion.is_trivial and free == 2

    def test_empty_maps(self):
        torsion, free = cokernel(IntegerMatrix([], cols=4))  # Z^4 -> 0
        assert torsion.is_trivial and free == 0
        torsion, free = cokernel(IntegerMatrix([[], [], []]))  # 0 -> Z^3
        assert torsion.is_trivial and free == 3

    def test_unimodular_invariance(self):
        rng = random.Random(RNG_SEED + 2)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, rows, cols, bound=20)
            p = random_unimodular(rng, rows)
            q = random_unimodular(rng, cols)
            assert cokernel(a) == cokernel(p @ a @ q)

    def test_invariant_factors_need_no_transforms(self, monkeypatch):
        def refuse(a):
            raise AssertionError("smith_normal_form builds transforms no caller here reads")

        monkeypatch.setattr(abelian, "smith_normal_form", refuse)
        assert cokernel(IntegerMatrix([[2, -1], [-1, 2]])) == (FiniteAbelianGroup((3,)), 0)
        assert FiniteAbelianGroup.from_cyclic_moduli([4, 6]).invariant_factors == (2, 12)
        g = FiniteAbelianGroup((2, 4))
        assert generated_subgroup(g, [g.element([1, 1])]).structure.invariant_factors == (4,)
        subs = enumerate_subgroups(FiniteAbelianGroup((2, 12)))
        assert len(subs) == oracle_subgroup_count((2, 12))
        assert all(s.structure.order() == s.order() for s in subs)

    def test_agrees_with_smith_diagonal_beyond_5x5(self):
        # Squares, 4:3 rectangles both ways and rank-deficient squares (a
        # low-rank product, and two rows copied or negated) from 10 to 40;
        # on a nonsingular square the Bareiss determinant checks the torsion.
        rng = random.Random(RNG_SEED + 4)
        for n in range(10, 41, 6):
            k, r = 3 * n // 4, rng.randint(1, n - 1)
            square = random_matrix(rng, n, n)
            copied = random_matrix(rng, n, n).row_lists()
            i, j, l = rng.sample(range(n), 3)
            copied[i], copied[l] = copied[j], [-x for x in copied[j]]
            for a in (square, random_matrix(rng, n, k), random_matrix(rng, k, n),
                      random_matrix(rng, n, r, bound=4) @ random_matrix(rng, r, n, bound=4),
                      IntegerMatrix(copied)):
                d = smith_normal_form(a).d
                assert cokernel(a) == (FiniteAbelianGroup(tuple(x for x in d if x > 1)),
                                       d.count(0) + max(0, a.rows - a.cols)), (n, a.rows, a.cols)
            torsion, free = cokernel(square)
            assert free == 0 and prod(torsion.invariant_factors) == abs(square.det()) > 0, n

    def test_column_order_irrelevant(self):
        a = IntegerMatrix([[2, 0], [0, 3]])
        b = IntegerMatrix([[0, 2], [3, 0]])
        assert cokernel(a) == cokernel(b)


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------


class TestFiniteAbelianGroup:
    def test_chain_validation(self):
        FiniteAbelianGroup((2, 4, 8))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((2, 3))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0,))

    def test_trivial_group(self):
        t = FiniteAbelianGroup(())
        assert t.is_trivial and t.order() == 1 and str(t) == "trivial"
        assert list(t.elements()) == [t.identity()]

    def test_from_cyclic_moduli(self):
        assert FiniteAbelianGroup.from_cyclic_moduli([2, 3]).invariant_factors == (6,)
        assert FiniteAbelianGroup.from_cyclic_moduli([4, 6]).invariant_factors == (2, 12)
        assert FiniteAbelianGroup.from_cyclic_moduli([1, 1]).is_trivial
        assert FiniteAbelianGroup.from_cyclic_moduli([]).is_trivial
        with pytest.raises(ValueError):
            FiniteAbelianGroup.from_cyclic_moduli([0])

    def test_str_and_json_round_trip(self):
        g = FiniteAbelianGroup((2, 4))
        assert str(g) == "Z/2 x Z/4"
        assert FiniteAbelianGroup.from_json(g.to_json()) == g

    def test_dual_is_involution_with_same_factors(self):
        for facs in [(), (2,), (2, 4), (3, 3, 9)]:
            g = FiniteAbelianGroup(facs)
            assert dual_group(g) == g
            assert dual_group(dual_group(g)) == g


class TestGroupElement:
    def test_reduction_and_pinned_scale(self):
        g = FiniteAbelianGroup((2, 4))
        x = g.element([1, 2])
        assert (3 * x).coords == (1, 2)
        assert g.element([5, -1]).coords == (1, 3)

    def test_wrong_arity(self):
        g = FiniteAbelianGroup((2, 4))
        with pytest.raises(ValueError):
            g.element([1])

    def test_mismatch_rejected(self):
        a = FiniteAbelianGroup((2,)).element([1])
        b = FiniteAbelianGroup((4,)).element([1])
        with pytest.raises(GroupMismatchError):
            _ = a + b
        with pytest.raises(GroupMismatchError):
            _ = a - b

    def test_group_axioms_randomized(self):
        rng = random.Random(RNG_SEED + 3)
        g = FiniteAbelianGroup((2, 6, 12))
        zero = g.identity()
        for _ in range(100):
            x = g.element([rng.randrange(f) for f in g.invariant_factors])
            y = g.element([rng.randrange(f) for f in g.invariant_factors])
            z = g.element([rng.randrange(f) for f in g.invariant_factors])
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x + zero == x
            assert x + (-x) == zero
            n, m = rng.randint(-20, 20), rng.randint(-20, 20)
            assert (n + m) * x == n * x + m * x
            assert n * (x + y) == n * x + n * y

    def test_order_times_element_vanishes(self):
        g = FiniteAbelianGroup((4, 8))
        for x in g.elements():
            assert (x.element_order() * x).is_identity
            assert x.element_order() % 1 == 0
            assert g.exponent() % x.element_order() == 0

    def test_json_round_trip(self):
        x = FiniteAbelianGroup((2, 4)).element([1, 3])
        assert GroupElement.from_json(x.to_json()) == x


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


class TestSubgroups:
    def test_pinned_counts(self):
        assert len(enumerate_subgroups(FiniteAbelianGroup((4,)))) == 3
        assert len(enumerate_subgroups(FiniteAbelianGroup((2, 2)))) == 5

    def test_oracle_cross_checks(self):
        # sanity of the oracle itself on hand-counted cases
        assert oracle_subgroup_count((4,)) == 3
        assert oracle_subgroup_count((2, 2)) == 5
        assert oracle_subgroup_count((2, 4)) == 8
        assert oracle_subgroup_count((6,)) == 4
        assert oracle_subgroup_count(()) == 1

    def test_counts_match_oracle_up_to_order_64(self):
        for facs in all_invariant_chains(64):
            group = FiniteAbelianGroup(facs)
            subs = enumerate_subgroups(group)
            assert len(subs) == oracle_subgroup_count(facs), facs
            # canonical dedup: element sets are pairwise distinct
            seen = {tuple(e.coords for e in s.elements) for s in subs}
            assert len(seen) == len(subs)

    def test_subgroup_structures_consistent(self):
        group = FiniteAbelianGroup((2, 12))
        total = 0
        for s in enumerate_subgroups(group):
            # order of the abstract structure equals the element count
            assert s.structure.order() == s.order()
            # Lagrange
            assert group.order() % s.order() == 0
            total += 1
        assert total == oracle_subgroup_count((2, 12))

    def test_generated_subgroup_structure(self):
        g = FiniteAbelianGroup((4,))
        s = generated_subgroup(g, [g.element([2])])
        assert s.structure.invariant_factors == (2,)
        assert [e.coords for e in s.elements] == [(0,), (2,)]

    def test_generated_subgroup_relation_matrix_route(self):
        # (1,1) in Z/2 x Z/4 generates Z/4; (0,2) and (1,0) generate Z/2 x Z/2
        g = FiniteAbelianGroup((2, 4))
        assert generated_subgroup(g, [g.element([1, 1])]).structure.invariant_factors == (4,)
        s = generated_subgroup(g, [g.element([0, 2]), g.element([1, 0])])
        assert s.structure.invariant_factors == (2, 2)

    def test_listed_structures_match_element_order_census(self):
        # The census counts the orders of the listed elements, which come
        # from the Hermite rows alone, and of the elements of the claimed
        # structure; it shares nothing with the cokernel route.
        census, checked = {}, 0
        for facs in all_invariant_chains(64):
            for s in enumerate_subgroups(FiniteAbelianGroup(facs)):
                claimed = s.structure.invariant_factors
                if claimed not in census:
                    census[claimed] = order_counts(claimed, itertools.product(*map(range, claimed)))
                assert census[claimed] == order_counts(facs, [e.coords for e in s.elements]), (
                    facs, s.hnf)
                checked += 1
        assert checked > 6000

    def test_listing_agrees_with_generated_subgroups(self):
        # Each listed subgroup is rebuilt by the Hermite phase from its
        # generators, and every cyclic subgroup, built the same way, is in
        # the listing.
        for facs in all_invariant_chains(64):
            group = FiniteAbelianGroup(facs)
            subs = enumerate_subgroups(group)
            for s in subs:
                again = generated_subgroup(group, s.generators)
                assert (again.hnf, again.structure) == (s.hnf, s.structure), facs
            listed = {s.hnf: s.structure for s in subs}
            for x in group.elements():
                cyclic = generated_subgroup(group, [x])
                assert listed[cyclic.hnf] == cyclic.structure, (facs, x.coords)

    def test_subgroup_is_its_hermite_form(self):
        assert [f.name for f in dataclasses.fields(Subgroup)] == ["ambient", "structure", "hnf"]
        for facs in all_invariant_chains(64):
            for s in enumerate_subgroups(FiniteAbelianGroup(facs)):
                assert "generators" not in vars(s), facs
                assert s.generators == hnf_generators(s)
                assert "generators" in vars(s)

    def test_generated_subgroup_keeps_no_input_generators(self):
        g = FiniteAbelianGroup((2, 4))
        x = g.element([1, 1])
        one, two = generated_subgroup(g, [x]), generated_subgroup(g, [3 * x, 2 * x])
        assert one == two and repr(one) == repr(two)
        assert one.generators == two.generators == (g.element([1, 1]), g.element([0, 2]))

    def test_generated_generators_are_hermite_rows(self):
        rng = random.Random(RNG_SEED + 5)
        for facs in all_invariant_chains(64):
            group = FiniteAbelianGroup(facs)
            for count in range(4):
                gens = [group.element([rng.randrange(f) for f in facs]) for _ in range(count)]
                s = generated_subgroup(group, gens)
                assert s.generators == hnf_generators(s), (facs, gens)
                assert generated_subgroup(group, s.generators).hnf == s.hnf

    def test_whole_group_and_trivial(self):
        g = FiniteAbelianGroup((2, 4))
        gens = [g.element([1, 0]), g.element([0, 1])]
        assert generated_subgroup(g, gens).structure == g
        assert generated_subgroup(g, []).structure.is_trivial

    def test_mismatched_generator_rejected(self):
        g = FiniteAbelianGroup((2, 4))
        other = FiniteAbelianGroup((8,))
        with pytest.raises(GroupMismatchError):
            generated_subgroup(g, [other.element([1])])

    def test_order_bound_enforced(self):
        big = FiniteAbelianGroup((101, 101))  # order 10201 > 10^4
        with pytest.raises(ValueError):
            enumerate_subgroups(big)
        # and the bound is configurable
        assert len(enumerate_subgroups(big, max_order=10201)) == oracle_subgroup_count((101, 101))

    def test_count_bound_enforced(self, monkeypatch):
        monkeypatch.setattr(abelian, "SUBGROUP_COUNT_BOUND", 5)
        assert len(enumerate_subgroups(FiniteAbelianGroup((2, 2)))) == 5
        with pytest.raises(ValueError, match="over 5 subgroups"):
            enumerate_subgroups(FiniteAbelianGroup((2, 4)))  # 8 subgroups
        # the search stops at the bound, not after building every subgroup
        monkeypatch.setattr(abelian, "SUBGROUP_COUNT_BOUND", 1000)
        with pytest.raises(ValueError, match="over 1000 subgroups"):
            enumerate_subgroups(FiniteAbelianGroup((2,) * 13))

    def test_order_256_elementary_abelian_exceeds_count_bound(self):
        # 417,199 subgroups: the default bound stops the search
        with pytest.raises(ValueError, match="subgroups"):
            enumerate_subgroups(FiniteAbelianGroup((2,) * 8))

    def test_deterministic_order(self):
        g = FiniteAbelianGroup((2, 4))
        a = enumerate_subgroups(g)
        b = enumerate_subgroups(g)
        assert [tuple(e.coords for e in s.elements) for s in a] == [
            tuple(e.coords for e in s.elements) for s in b
        ]
        orders = [s.order() for s in a]
        assert orders == sorted(orders)


def hnf_generators(s: Subgroup) -> tuple[GroupElement, ...]:
    """The rows of ``s.hnf`` that are nonzero modulo the invariant factors."""
    facs = s.ambient.invariant_factors
    return tuple(s.ambient.element(row) for row in s.hnf
                 if any(x % f for x, f in zip(row, facs)))


def closure(facs, gens) -> list[tuple[int, ...]]:
    """Coordinate tuples reached from zero by adding generators, sorted."""
    zero = (0,) * len(facs)
    seen, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = tuple((a + b) % f for a, b, f in zip(s, g, facs))
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(seen)


def order_counts(facs, coords) -> Counter:
    """How many of the given elements have each element order; two finite
    abelian groups are isomorphic exactly when these counts agree."""
    return Counter(lcm(*(f // gcd(a, f) for a, f in zip(x, facs))) for x in coords)


@st.composite
def groups_with_generators(draw):
    facs = draw(st.sampled_from(all_invariant_chains(64)))
    coords = st.tuples(*(st.integers(0, f - 1) for f in facs))
    return FiniteAbelianGroup(facs), draw(st.lists(coords, max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(groups_with_generators())
def test_generated_subgroup_round_trips(case):
    group, gens = case
    s = generated_subgroup(group, [group.element(g) for g in gens])
    members = closure(group.invariant_factors, gens)
    assert [e.coords for e in s.elements] == members
    assert s.order() == s.structure.order() == len(members)
    structure = s.structure.invariant_factors
    assert order_counts(structure, itertools.product(*map(range, structure))) == order_counts(
        group.invariant_factors, members)
    inside = set(members)
    assert all((x in s) == (x.coords in inside) for x in group.elements())
    assert generated_subgroup(group, s.generators).hnf == s.hnf
    [listed] = [t for t in enumerate_subgroups(group) if t == s]
    assert listed.structure == s.structure
    other = FiniteAbelianGroup((2 * group.exponent(),))
    assert other.identity() not in s


def test_docstring_examples():
    import doctest

    import stackbrauer.abelian as mod

    results = doctest.testmod(mod)
    assert results.failed == 0
