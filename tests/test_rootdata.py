"""Tests for Cartan matrices, centers, and Brauer groups of classifying stacks.

Cartan matrices for rank >= 2 are cross-checked against sympy's independent
tables.  Rank-1 (``A1 = [[2]]``) is pinned by hand because sympy's table
code cannot produce it.  Centers are read from the classification table;
they are cross-checked against the determinant of the Cartan matrix (the
cokernel of a nonsingular integer matrix has order ``|det|``) and against
the Smith cokernel of the Cartan matrix itself, a route that shares nothing
with the table.
"""

import itertools
import os
import random
import resource
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackbrauer
import stackbrauer.abelian as abelian
import stackbrauer.rootdata as rootdata
from stackbrauer.abelian import (
    FiniteAbelianGroup,
    IntegerMatrix,
    cokernel,
    dual_group,
    enumerate_subgroups,
    generated_subgroup,
)
from stackbrauer.rootdata import (
    SemisimpleGroupSpec,
    SimpleType,
    brauer_group_of_bg,
    cartan_matrix,
    center,
    center_of_simply_connected,
    fundamental_group,
)

RNG_SEED = 552901

# Every simple type exercised below, as (name, center invariant factors).
CENTER_TABLE = [
    ("A1", (2,)),
    ("A2", (3,)),
    ("A3", (4,)),
    ("A4", (5,)),
    ("A7", (8,)),
    ("B2", (2,)),
    ("B3", (2,)),
    ("B5", (2,)),
    ("C3", (2,)),
    ("C4", (2,)),
    ("D4", (2, 2)),
    ("D5", (4,)),
    ("D6", (2, 2)),
    ("D7", (4,)),
    ("E6", (3,)),
    ("E7", (2,)),
    ("E8", ()),
    ("F4", ()),
    ("G2", ()),
]


# ---------------------------------------------------------------------------
# simple types
# ---------------------------------------------------------------------------


class TestSimpleType:
    def test_parse_accepts_usual_names(self):
        assert SimpleType.parse("A3") == SimpleType("A", 3)
        assert SimpleType.parse("d4") == SimpleType("D", 4)
        assert SimpleType.parse(" E8 ") == SimpleType("E", 8)
        assert str(SimpleType.parse("b12")) == "B12"

    def test_parse_rejects_garbage(self):
        for bad in ["A", "3", "", "A-1", "AB", "A3x", "X4"]:
            with pytest.raises(ValueError):
                SimpleType.parse(bad)

    def test_low_rank_aliases_rejected(self):
        # B1=A1, C1=A1, C2=B2, D2=A1xA1, D3=A3: asking for them is a
        # numbering mixup, so they raise instead of silently remapping.
        for fam, rank in [("B", 1), ("C", 1), ("C", 2), ("D", 2), ("D", 3)]:
            with pytest.raises(ValueError):
                SimpleType(fam, rank)

    def test_exceptional_ranks_pinned(self):
        for fam, rank in [("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 1), ("G", 3)]:
            with pytest.raises(ValueError):
                SimpleType(fam, rank)
        for name in ["E6", "E7", "E8", "F4", "G2"]:
            SimpleType.parse(name)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SimpleType("H", 4)


# ---------------------------------------------------------------------------
# Cartan matrices
# ---------------------------------------------------------------------------


class TestCartanMatrix:
    def test_pinned_small_matrices(self):
        assert cartan_matrix(SimpleType("A", 1)).row_lists() == [[2]]
        assert cartan_matrix(SimpleType("A", 2)).row_lists() == [[2, -1], [-1, 2]]
        assert cartan_matrix(SimpleType("G", 2)).row_lists() == [[2, -1], [-3, 2]]
        assert cartan_matrix(SimpleType("B", 2)).row_lists() == [[2, -2], [-1, 2]]
        assert cartan_matrix(SimpleType("C", 3)).row_lists() == [
            [2, -1, 0],
            [-1, 2, -1],
            [0, -2, 2],
        ]

    def test_matches_independent_tables(self):
        cm = pytest.importorskip("sympy.liealgebras.cartan_matrix")
        names = ["A2", "A3", "A5", "B2", "B3", "B4", "C3", "C4", "C5",
                 "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]
        for name in names:
            ours = cartan_matrix(SimpleType.parse(name)).row_lists()
            theirs = [[int(x) for x in row] for row in cm.CartanMatrix(name).tolist()]
            assert ours == theirs, name

    def test_diagonal_and_offdiagonal_shape(self):
        for name, _ in CENTER_TABLE:
            t = SimpleType.parse(name)
            m = cartan_matrix(t)
            assert m.rows == m.cols == t.rank
            for i in range(m.rows):
                assert m[i, i] == 2
                for j in range(m.cols):
                    if i != j:
                        assert -3 <= m[i, j] <= 0
                        # zero pattern is symmetric even when values differ
                        assert (m[i, j] == 0) == (m[j, i] == 0)

    def test_determinants(self):
        expected = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                    "D": lambda n: 4, "F": lambda n: 1, "G": lambda n: 1,
                    "E": lambda n: 9 - n}
        for name, _ in CENTER_TABLE:
            t = SimpleType.parse(name)
            assert cartan_matrix(t).det() == expected[t.family](t.rank), name


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------


class TestCenter:
    def test_center_table(self):
        for name, factors in CENTER_TABLE:
            g = center_of_simply_connected([SimpleType.parse(name)])
            assert g.invariant_factors == factors, name

    def test_center_order_is_cartan_determinant(self):
        for name, _ in CENTER_TABLE:
            t = SimpleType.parse(name)
            assert center_of_simply_connected([t]).order() == abs(cartan_matrix(t).det())

    def test_product_centers(self):
        a1, a2, d4 = SimpleType("A", 1), SimpleType("A", 2), SimpleType("D", 4)
        assert center_of_simply_connected([a1, a1]).invariant_factors == (2, 2)
        assert center_of_simply_connected([a1, a2]).invariant_factors == (6,)
        assert center_of_simply_connected([d4, a2]).invariant_factors == (2, 6)
        assert center_of_simply_connected([]).is_trivial

    def test_classical_centers_at_high_rank(self):
        # The classical rule: Z/(n+1) for A_n, Z/2 for B_n and C_n, and for
        # D_n Z/4 when n is odd, Z/2 x Z/2 when n is even.
        rule = {"A": lambda n: (n + 1,), "B": lambda n: (2,), "C": lambda n: (2,),
                "D": lambda n: (4,) if n % 2 else (2, 2)}
        for family, want in rule.items():
            for n in [*range(9, 41), *range(116, 131)]:
                got = center_of_simply_connected([SimpleType(family, n)]).invariant_factors
                assert got == want(n), (family, n)

    def test_table_matches_cartan_cokernel(self):
        # The Smith route on the Cartan matrix shares no code with the table.
        ranks = [*range(1, 41), *range(116, 131)]
        types = [SimpleType(f, n) for f in "ABCD" for n in ranks
                 if n >= rootdata._RANK_RULES[f][0]]
        types += [SimpleType.parse(n) for n in ["E6", "E7", "E8", "F4", "G2"]]
        for t in types:
            assert center_of_simply_connected([t]) == cokernel(cartan_matrix(t))[0], t

    def test_center_needs_no_smith_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the center is read from the table")

        monkeypatch.setattr(abelian, "_smith_sweep", refuse)
        assert not hasattr(rootdata, "_smith_sweep")
        factors = [SimpleType.parse(n) for n in ["A3", "D4", "A2", "A5", "E6", "E8"]]
        assert center(factors).group.invariant_factors == (2, 6, 6, 12)

    def test_factors_must_be_simple_types(self):
        with pytest.raises(TypeError):
            center(["A1"])

    def test_per_factor_round_trip_on_all_elements(self):
        specs = [["A3"], ["D4"], ["A1", "A3"], ["A2", "A2"], ["D5", "A1"],
                 ["A1", "A2", "A5"], ["A1", "A1", "A2", "A3"]]
        for names in specs:
            c = center([SimpleType.parse(n) for n in names])
            for x in c.group.elements():
                assert c.element(c.per_factor_coords(x)) == x

    @pytest.mark.parametrize("names", [["A1", "A2", "A3", "A5"], ["A5", "A3", "A2"]])
    def test_per_factor_coords_invert_element_on_every_residue(self, names):
        # Both chains take steps with b > 1, where per_factor_coords must
        # reduce the first coordinate modulo a*g and not a multiple of it.
        c = center([SimpleType.parse(n) for n in names])
        assert any(step[5] > 1 for step in c._steps)
        for v in itertools.product(*(range(m) for m in c.moduli)):
            assert c.per_factor_coords(c.element(v)) == v

    def test_per_factor_coords_reduce_arbitrary_representatives(self):
        rng = random.Random(RNG_SEED)
        c = center([SimpleType("A", 3), SimpleType("D", 4)])
        assert c.moduli == (4, 2, 2)
        for _ in range(50):
            coords = [rng.randint(-30, 30) for _ in c.moduli]
            x = c.element(coords)
            assert c.per_factor_coords(x) == tuple(v % m for v, m in zip(coords, c.moduli))

    def test_element_arity_checked(self):
        c = center([SimpleType("A", 1)])
        with pytest.raises(ValueError):
            c.element([1, 0])

    def test_per_factor_coords_rejects_foreign_elements(self):
        c = center([SimpleType("A", 1)])
        with pytest.raises(ValueError):
            c.per_factor_coords(FiniteAbelianGroup((4,)).element([1]))

    def test_full_generators_generate(self):
        c = center([SimpleType("A", 3), SimpleType("D", 4), SimpleType("A", 1)])
        gens = [c.element(g) for g in c.full_generators()]
        assert generated_subgroup(c.group, gens).structure == c.group

    def test_trivial_factors_contribute_no_moduli(self):
        c = center([SimpleType("E", 8), SimpleType("A", 1), SimpleType("G", 2)])
        assert c.moduli == (2,)
        assert c.group.invariant_factors == (2,)

    def test_center_needs_no_smith_transform(self, monkeypatch):
        def refuse(a):
            raise AssertionError("the center needs no Smith transform")

        monkeypatch.setattr(abelian, "smith_normal_form", refuse)
        assert not hasattr(rootdata, "smith_normal_form")  # no copy escapes the patch
        names = ["A3", "D4", "A2", "A5"]
        factors = [SimpleType.parse(n) for n in names]
        assert center(factors).group.invariant_factors == (2, 2, 6, 12)
        spec = SemisimpleGroupSpec.adjoint(factors)
        assert brauer_group_of_bg(spec).invariant_factors == (2, 2, 6, 12)
        spec = SemisimpleGroupSpec(tuple(factors), ((2, 1, 0, 1, 3),))
        assert brauer_group_of_bg(spec).invariant_factors == (6,)


# Types whose centers exercise every gcd/lcm case: cyclic of orders 2-12,
# Z/2 x Z/2 (D4, D6) and trivial (G2).
ISO_TYPES = [f"A{n}" for n in range(1, 12)] + ["B3", "C4", "D4", "D5", "D6", "D7",
                                               "E6", "E7", "G2"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(ISO_TYPES), min_size=1, max_size=6), st.data())
def test_center_element_is_isomorphism(names, data):
    # Checked through group arithmetic alone, not through per_factor_coords:
    # an additive map that kills each m_i e_i and whose images of the e_i
    # generate a group of the same order is an isomorphism.
    c = center([SimpleType.parse(n) for n in names])
    n = len(c.moduli)
    assert c.group.order() == prod(c.moduli)
    vectors = st.lists(st.integers(-100, 100), min_size=n, max_size=n)
    u, v = data.draw(vectors), data.draw(vectors)
    assert c.element([a + b for a, b in zip(u, v)]) == c.element(u) + c.element(v)
    images = []
    for i, m in enumerate(c.moduli):
        unit = [1 if j == i else 0 for j in range(n)]
        assert c.element([m * x for x in unit]).is_identity
        images.append(c.element(unit))
        assert images[-1].element_order() == m
    assert generated_subgroup(c.group, images).order() == c.group.order()


def test_from_cyclic_moduli_matches_diagonal_cokernel():
    # The gcd/lcm chain against the Smith sweep on diag(m), with 1s and repeats.
    rng = random.Random(RNG_SEED)
    for _ in range(300):
        moduli = [rng.choice([1, 1, 2, 2, 3, 4, 6, 8, 9, 12, 30, rng.randint(1, 500)])
                  for _ in range(rng.randint(0, 8))]
        expected = cokernel(IntegerMatrix.diagonal(moduli))[0]
        assert FiniteAbelianGroup.from_cyclic_moduli(moduli) == expected, moduli


class TestHighRankCli:
    """Centers of rank-10^5 types and adjoint products of hundreds of
    factors, answered by the CLI in a fresh process capped at 2 GB of
    address space, where a dense Cartan matrix would not fit; the timeout
    turns a slow answer into a failure."""

    TIMEOUT_S = 1.0
    LIMIT = 2 << 30

    @pytest.mark.parametrize("types, answer", [
        ("A100000", "Z/100001"),
        ("D200000", "Z/2 x Z/2"),
        ("E8,A99999", "Z/100000"),
        pytest.param(",".join(["A1"] * 400), " x ".join(["Z/2"] * 400), id="A1^400"),
        pytest.param(",".join(["D4"] * 200), " x ".join(["Z/2"] * 400), id="D4^200"),
    ])
    def test_br_bg_answers(self, types, answer):
        env = dict(os.environ, PYTHONPATH=str(Path(stackbrauer.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "stackbrauer.cli", "br-bg", "--type", types]
        cap = (self.LIMIT, self.LIMIT)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=self.TIMEOUT_S,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, answer + "\n", "")


# ---------------------------------------------------------------------------
# group specifications
# ---------------------------------------------------------------------------


class TestSemisimpleGroupSpec:
    def test_simply_connected_has_trivial_fundamental_group(self):
        spec = SemisimpleGroupSpec.simply_connected([SimpleType("A", 3)])
        assert fundamental_group(spec).is_trivial
        assert brauer_group_of_bg(spec).is_trivial

    def test_adjoint_quotients_by_full_center(self):
        for name, factors in CENTER_TABLE:
            spec = SemisimpleGroupSpec.adjoint([SimpleType.parse(name)])
            assert fundamental_group(spec).invariant_factors == factors, name

    def test_wide_adjoint_products_need_no_smith_sweep(self, monkeypatch):
        # Their kernel is the whole center, whose cofactor block is diagonal.
        def refuse(*args):
            raise AssertionError("a diagonal block is read by gcd/lcm steps")

        monkeypatch.setattr(abelian, "_smith_sweep", refuse)
        for name, count in [("A1", 60), ("D4", 30)]:
            spec = SemisimpleGroupSpec.adjoint([SimpleType.parse(name)] * count)
            assert brauer_group_of_bg(spec) == FiniteAbelianGroup((2,) * 60), name

    def test_generator_arity_validated(self):
        with pytest.raises(ValueError):
            SemisimpleGroupSpec((SimpleType("A", 3),), ((1, 0),))

    def test_center_computed_once(self, monkeypatch):
        counted = [0]
        original = rootdata.center

        def counting(factors):
            counted[0] += 1
            return original(factors)

        monkeypatch.setattr(rootdata, "center", counting)
        a40 = [SimpleType("A", 40)]
        for build in (SemisimpleGroupSpec.simply_connected, SemisimpleGroupSpec.adjoint):
            counted[0] = 0
            spec = build(a40)
            group = brauer_group_of_bg(spec)
            assert counted == [1], build.__name__
            assert group.order() == (41 if spec.central_generators else 1)

    def test_json_round_trip_and_factor_forms(self):
        spec = SemisimpleGroupSpec((SimpleType("A", 3), SimpleType("D", 4)), ((2, 1, 0),))
        again = SemisimpleGroupSpec.from_json(spec.to_json())
        assert again == spec
        pairs = SemisimpleGroupSpec.from_json(
            {"factors": [["A", 3], ["D", 4]], "central_generators": [[2, 1, 0]]}
        )
        assert pairs == spec

    def test_family_rank_pair_length_checked(self):
        message = r"each non-name factor must be a \[family, rank\] pair"
        for pair in [[], ["A"], ["A", 3, 4]]:
            with pytest.raises(ValueError, match=message):
                SemisimpleGroupSpec.from_json({"factors": [pair]})

    def test_str_forms(self):
        sc = SemisimpleGroupSpec.simply_connected([SimpleType("A", 1)])
        assert str(sc) == "A1"
        pgl2 = SemisimpleGroupSpec((SimpleType("A", 1),), ((1,),))
        assert "A1 /" in str(pgl2)


# ---------------------------------------------------------------------------
# Brauer groups of classifying stacks
# ---------------------------------------------------------------------------


class TestBrauerGroupOfBG:
    def test_pinned_values(self):
        pgl2 = SemisimpleGroupSpec((SimpleType("A", 1),), ((1,),))
        sl2 = SemisimpleGroupSpec.simply_connected([SimpleType("A", 1)])
        sl4_mod_mu2 = SemisimpleGroupSpec((SimpleType("A", 3),), ((2,),))
        assert brauer_group_of_bg(pgl2).invariant_factors == (2,)
        assert brauer_group_of_bg(sl2).is_trivial
        assert brauer_group_of_bg(sl4_mod_mu2).invariant_factors == (2,)

    def test_equals_kernel_for_every_central_subgroup(self):
        # Br(BG) is the character group of the kernel B, so abstractly Br = B.
        catalog = [
            ["A1"], ["A2"], ["A3"], ["A5"], ["B2"], ["C3"], ["D4"], ["D5"],
            ["E6"], ["E7"], ["F4"],
            ["A1", "A1"], ["A1", "A3"], ["A2", "A2"], ["D4", "A1"], ["A1", "A1", "A2"],
        ]
        for names in catalog:
            factors = tuple(SimpleType.parse(n) for n in names)
            c = center(factors)
            for sub in enumerate_subgroups(c.group):
                gens = tuple(c.per_factor_coords(g) for g in sub.generators)
                spec = SemisimpleGroupSpec(factors, gens)
                assert fundamental_group(spec) == sub.structure, (names, gens)
                assert brauer_group_of_bg(spec) == dual_group(sub.structure), (names, gens)

    @pytest.mark.parametrize("name, k, factors", [
        ("A1", 20, (2,) * 20),
        ("D4", 10, (2, 2) * 10),
        ("A2", 12, (3,) * 12),
    ], ids=["A1^20", "D4^10", "A2^12"])
    def test_adjoint_powers_with_large_kernels(self, name, k, factors):
        # |B| is 2^20 or 3^12: the kernel is a lattice, its elements are never listed
        spec = SemisimpleGroupSpec.adjoint([SimpleType.parse(name)] * k)
        assert brauer_group_of_bg(spec) == FiniteAbelianGroup(factors)

    def test_adjoint_brauer_group_is_dual_of_center(self):
        for name, factors in CENTER_TABLE:
            spec = SemisimpleGroupSpec.adjoint([SimpleType.parse(name)])
            assert brauer_group_of_bg(spec) == FiniteAbelianGroup(factors), name

    def test_docstring_examples(self):
        import doctest

        import stackbrauer.rootdata as mod

        results = doctest.testmod(mod)
        assert results.failed == 0
