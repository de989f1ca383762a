"""Tests for cyclic-cover data: admissibility, enumeration, sector reports.

Two enumeration oracles stand apart from the library's search, a
depth-first walk that a reachability table keeps on prefixes that can
complete, so agreement checks the search strategy and not just the
formula.  The first is a plain bounding-box scan (every branch vector
inside the box allowed by the ramification budget, filtered by a
from-scratch Riemann-Hurwitz recomputation); it is exhaustive and only
reaches small orders.  The second scans multisets of branch exponents,
one exponent per branch point, grouped by ramification weight; it reaches
the large orders where few branch points fit the budget.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

import stackbrauer
import stackbrauer.covers as covers
from stackbrauer.covers import (
    CONNECTED,
    DISCONNECTED,
    REASON_GENUS_BELOW_TWO,
    REASON_GENUS_MISMATCH,
    REASON_NON_INTEGRAL_GENUS,
    REASON_QUOTIENT_GENUS_TOO_LARGE,
    REASON_STRUCTURAL_EQUATION,
    UNDETERMINED,
    AdmissibleDatum,
    NonIntegralGenusError,
    connectedness_k,
    decompose_inertia,
    enumerate_admissible,
    is_admissible,
    sector_report,
    total_genus,
)


def oracle_solutions(g: int, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Brute-force Riemann-Hurwitz solutions by scanning a bounding box of branch vectors."""
    weights = [n - gcd(i, n) for i in range(1, n)]
    out = []
    gq = 0
    while n * (2 * gq - 2) <= 2 * g - 2 and gq <= g:
        budget = 2 * g - 2 - n * (2 * gq - 2)
        for degs in itertools.product(*(range(budget // w + 1) for w in weights)):
            genus = 1 + Fraction(
                n * (2 * gq - 2) + sum(d * w for d, w in zip(degs, weights)), 2
            )
            if genus == g:
                out.append((gq, n, degs))
        gq += 1
    return sorted(out)


def oracle_enumerate(g: int, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The Riemann-Hurwitz solutions that also satisfy the structural congruence."""
    return [(gq, m, degs) for gq, m, degs in oracle_solutions(g, n)
            if sum(i * d for i, d in enumerate(degs, start=1)) % n == 0]


def _weight_counts(weights: list[int], budget: int):
    """Every ``((w, c), ...)`` over ``weights`` with ``sum(w * c) == budget``."""
    if not weights:
        if budget == 0:
            yield ()
        return
    w, rest = weights[0], weights[1:]
    for c in range(budget // w + 1):
        for tail in _weight_counts(rest, budget - c * w):
            yield ((w, c),) + tail


def oracle_by_multisets(g: int, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Admissible data from a scan over multisets of branch exponents.

    Each branch point carries one exponent ``i`` and costs ``N - gcd(i, N)``
    of the Riemann-Hurwitz budget.  For every split of the budget into
    counts per weight, every multiset of exponents of those weights is
    tried against the structural congruence.
    """
    by_weight = defaultdict(list)
    for i in range(1, n):
        by_weight[n - gcd(i, n)].append(i)
    weights = sorted(by_weight)
    out = []
    gq = 0
    while n * (2 * gq - 2) <= 2 * g - 2:
        budget = 2 * g - 2 - n * (2 * gq - 2)
        for counts in _weight_counts(weights, budget):
            parts = [itertools.combinations_with_replacement(by_weight[w], c) for w, c in counts]
            for choice in itertools.product(*parts):
                points = [i for part in choice for i in part]
                if sum(points) % n == 0:
                    degs = [0] * (n - 1)
                    for i in points:
                        degs[i - 1] += 1
                    out.append((gq, n, tuple(degs)))
        gq += 1
    return sorted(out)


def library_data(g: int, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    return [(a.quotient_genus, a.order, a.branch_degrees) for a in enumerate_admissible(g, n)]


def count_calls(monkeypatch, name: str) -> list[int]:
    """Wrap ``stackbrauer.covers.<name>`` so each call bumps the returned counter."""
    counted = [0]
    original = getattr(covers, name)

    def counting(*args, **kwargs):
        counted[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(covers, name, counting)
    return counted


# ---------------------------------------------------------------------------
# datum construction and parsing
# ---------------------------------------------------------------------------


class TestAdmissibleDatum:
    def test_shape_validation(self):
        AdmissibleDatum(0, 2, (6,))
        with pytest.raises(ValueError):
            AdmissibleDatum(-1, 2, (6,))
        with pytest.raises(ValueError):
            AdmissibleDatum(0, 1, ())
        with pytest.raises(ValueError):
            AdmissibleDatum(0, 3, (1,))  # order 3 needs two degrees
        with pytest.raises(ValueError):
            AdmissibleDatum(0, 2, (-1,))

    def test_parse_pinned(self):
        a = AdmissibleDatum.parse("0,2,6")
        assert (a.quotient_genus, a.order, a.branch_degrees) == (0, 2, (6,))
        b = AdmissibleDatum.parse(" 1 , 3 , 0 , 2 ")
        assert (b.quotient_genus, b.order, b.branch_degrees) == (1, 3, (0, 2))

    def test_parse_rejects_malformed(self):
        for bad in ["", "0", "0,2,x", "0,3,1", "0,3,1,2,3", "0,2,6,0"]:
            with pytest.raises(ValueError):
                AdmissibleDatum.parse(bad)

    def test_derived_quantities(self):
        a = AdmissibleDatum(0, 4, (1, 2, 3))
        assert a.weighted_degree_sum == 1 * 1 + 2 * 2 + 3 * 3
        assert a.total_branch_points == 6

    def test_json_round_trip(self):
        a = AdmissibleDatum(1, 3, (0, 3))
        assert a.to_json() == {"gq": 1, "N": 3, "d": [0, 3]}
        assert AdmissibleDatum.from_json(a.to_json()) == a

    def test_str_form(self):
        assert str(AdmissibleDatum(0, 2, (6,))) == "(g'=0, N=2, d=[6])"


# ---------------------------------------------------------------------------
# genus and admissibility
# ---------------------------------------------------------------------------


class TestTotalGenus:
    def test_pinned_values(self):
        assert total_genus(AdmissibleDatum(1, 2, (0,))) == 1
        assert total_genus(AdmissibleDatum(0, 2, (6,))) == 2
        assert total_genus(AdmissibleDatum(0, 2, (5,))) == Fraction(3, 2)

    def test_unramified_multiplies_euler_characteristic(self):
        for gq in range(4):
            for n in range(2, 6):
                a = AdmissibleDatum(gq, n, (0,) * (n - 1))
                assert total_genus(a) == 1 + n * (gq - 1)

    def test_returns_exact_fraction(self):
        g = total_genus(AdmissibleDatum(0, 2, (7,)))
        assert isinstance(g, Fraction) and g == Fraction(5, 2)


class TestIsAdmissible:
    def test_pinned_failures(self):
        v = is_admissible(AdmissibleDatum(0, 2, (5,)), 2)
        assert not v
        assert v.reasons == (REASON_NON_INTEGRAL_GENUS, REASON_STRUCTURAL_EQUATION)
        assert v.genus == Fraction(3, 2)

    def test_genus_mismatch_alone(self):
        v = is_admissible(AdmissibleDatum(0, 2, (8,)), 2)
        assert v.reasons == (REASON_GENUS_MISMATCH,)
        assert v.genus == 3

    def test_quotient_genus_bound(self):
        v = is_admissible(AdmissibleDatum(3, 2, (0,)), 2)
        assert REASON_QUOTIENT_GENUS_TOO_LARGE in v.reasons
        assert REASON_GENUS_MISMATCH in v.reasons

    def test_admissible_case_is_truthy(self):
        v = is_admissible(AdmissibleDatum(0, 2, (6,)), 2)
        assert v and v.ok and v.reasons == () and v.genus == 2

    def test_target_genus_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_admissible(AdmissibleDatum(0, 2, (6,)), 1)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


class TestEnumerateAdmissible:
    def test_pinned_listings(self):
        assert [str(a) for a in enumerate_admissible(2, 2)] == [
            "(g'=0, N=2, d=[6])",
            "(g'=1, N=2, d=[2])",
        ]
        assert [str(a) for a in enumerate_admissible(2, 3)] == ["(g'=0, N=3, d=[2, 2])"]

    def test_quotient_genus_filter(self):
        assert [a.quotient_genus for a in enumerate_admissible(2, 2, quotient_genus=0)] == [0]
        assert enumerate_admissible(2, 2, quotient_genus=5) == []

    def test_matches_bounding_box_oracle(self):
        for g in range(2, 7):
            for n in range(2, 9):
                ours = [(a.quotient_genus, a.order, a.branch_degrees)
                        for a in enumerate_admissible(g, n)]
                assert ours == oracle_enumerate(g, n), (g, n)

    def test_datum_built_once_per_returned_datum(self, monkeypatch):
        counted = count_calls(monkeypatch, "AdmissibleDatum")
        returned = sum(len(enumerate_admissible(g, n))
                       for g, n in [(2, 2), (3, 4), (5, 3), (6, 6), (4, 7), (9, 8)])
        assert returned > 0 and counted == [returned]

    def test_output_is_lexicographic(self):
        listing = enumerate_admissible(5, 4)
        keys = [(a.quotient_genus, a.branch_degrees) for a in listing]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_all_outputs_admissible(self):
        for a in enumerate_admissible(4, 3):
            verdict = is_admissible(a, 4)
            assert verdict.ok and verdict.genus == 4

    def test_hyperelliptic_family(self):
        # genus-0 quotients of order 2: exactly one datum, 2g+2 branch points
        for g in range(2, 11):
            listing = enumerate_admissible(g, 2, quotient_genus=0)
            assert listing == [AdmissibleDatum(0, 2, (2 * g + 2,))]

    def test_wiman_bound_does_not_apply(self):
        # Wiman's N <= 4g + 2 bounds automorphisms of connected curves only;
        # these data include disconnected covers.
        sizes = [len(enumerate_admissible(g, n)) for g, n in [(3, 16), (5, 40), (8, 56)]]
        assert sizes == [2, 4, 2]

    def test_matches_multiset_oracle_beyond_wiman(self):
        # Past 4g + 2 only genus-0 quotients with 3 or 4 branch points fit the
        # budget, and 1/a + 1/b + 1/c <= 41/42 (Hurwitz) leaves none past 84(g - 1).
        nonempty = []
        for g in range(2, 9):
            for n in range(4 * g + 3, 84 * (g - 1) + 1):
                ours = library_data(g, n)
                assert ours == oracle_by_multisets(g, n), (g, n)
                if ours:
                    nonempty.append((g, n))
        assert len(nonempty) == 20 and {(3, 16), (5, 40), (8, 56)} <= set(nonempty)

    def test_matches_multiset_oracle_on_a_sample(self):
        pairs = [(g, n) for g in range(2, 9) for n in range(10, 4 * g + 11)]
        for g, n in random.Random(7).sample(pairs, 60):
            assert library_data(g, n) == oracle_by_multisets(g, n), (g, n)

    def test_every_visited_prefix_completes(self, monkeypatch):
        # A node that _children expands is the root or a choice of d_1..d_{N-3}
        # on the path of a returned datum (d_{N-2} nodes are leaves, d_{N-1} is
        # forced): at most N - 2 per datum, and at most one root per g'.
        expanded = count_calls(monkeypatch, "_children")
        for g, n in [(2, 2), (3, 4), (6, 6), (9, 8), (30, 7), (3, 16), (2, 1200), (601, 1200)]:
            before = expanded[0]
            data = enumerate_admissible(g, n)
            roots = (g - 1) // n + 2
            assert expanded[0] - before <= (n - 2) * len(data) + roots, (g, n)
        assert expanded[0] > 0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            enumerate_admissible(1, 2)
        with pytest.raises(ValueError):
            enumerate_admissible(2, 1)
        with pytest.raises(ValueError):
            enumerate_admissible(2, 2, quotient_genus=-1)


# ---------------------------------------------------------------------------
# connectedness
# ---------------------------------------------------------------------------


class TestConnectedness:
    def test_gcd_pinned(self):
        assert connectedness_k(AdmissibleDatum(0, 4, (0, 2, 0))) == 2
        assert connectedness_k(AdmissibleDatum(0, 2, (6,))) == 1
        assert connectedness_k(AdmissibleDatum(0, 6, (0, 1, 0, 1, 0))) == 2

    def test_unramified_gives_full_order(self):
        for n in range(2, 7):
            assert connectedness_k(AdmissibleDatum(2, n, (0,) * (n - 1))) == n

    def test_first_degree_positive_forces_one(self):
        assert connectedness_k(AdmissibleDatum(0, 5, (1, 0, 0, 3))) == 1

    def test_genus0_verdict(self):
        assert sector_report(AdmissibleDatum(0, 2, (6,))).connected == CONNECTED
        assert sector_report(AdmissibleDatum(0, 4, (0, 6, 0))).connected == DISCONNECTED


# ---------------------------------------------------------------------------
# sector reports
# ---------------------------------------------------------------------------


class TestSectorReport:
    def test_connected_sector_with_brauer(self):
        r = sector_report(AdmissibleDatum(0, 2, (6,)))
        assert r.admissible and r.total_genus == 2 and r.reasons == ()
        assert r.gcd_k == 1 and r.connected == CONNECTED
        assert r.brauer is not None and r.brauer.class_nontrivial

    def test_positive_quotient_genus_has_no_brauer_report(self):
        r = sector_report(AdmissibleDatum(1, 2, (2,)), genus=2)
        assert r.admissible and r.connected == CONNECTED
        assert r.brauer is None

    def test_disconnected_sector(self):
        # (0, 4, [0, 6, 0]) has genus 3 and every branch index even
        r = sector_report(AdmissibleDatum(0, 4, (0, 6, 0)))
        assert r.admissible and r.total_genus == 3
        assert r.gcd_k == 2 and r.connected == DISCONNECTED

    def test_undetermined_sector(self):
        # unramified double cover of a genus-2 curve: k = 2 but g' > 0
        r = sector_report(AdmissibleDatum(2, 2, (0,)))
        assert r.admissible and r.total_genus == 3
        assert r.gcd_k == 2 and r.connected == UNDETERMINED
        assert r.brauer is None

    def test_half_integral_genus_raises_without_target(self):
        bad = AdmissibleDatum(0, 2, (5,))
        with pytest.raises(NonIntegralGenusError) as exc:
            sector_report(bad)
        assert exc.value.datum == bad
        assert exc.value.genus == Fraction(3, 2)

    def test_half_integral_genus_reported_against_target(self):
        r = sector_report(AdmissibleDatum(0, 2, (5,)), genus=2)
        assert not r.admissible
        assert r.reasons == (REASON_NON_INTEGRAL_GENUS, REASON_STRUCTURAL_EQUATION)
        assert r.brauer is None

    def test_genus_below_two_is_a_reason_not_an_error(self):
        r = sector_report(AdmissibleDatum(0, 2, (4,)))
        assert not r.admissible
        assert r.reasons == (REASON_GENUS_BELOW_TWO,)
        assert r.total_genus == 1

    def test_genus_below_two_reports_every_failed_condition(self):
        half = sector_report(AdmissibleDatum(0, 2, (5,)), genus=1)
        assert half.reasons == (
            REASON_NON_INTEGRAL_GENUS, REASON_GENUS_BELOW_TWO, REASON_STRUCTURAL_EQUATION,
        )
        big_quotient = sector_report(AdmissibleDatum(3, 2, (0,)), genus=1)
        assert big_quotient.reasons == (
            REASON_GENUS_MISMATCH, REASON_GENUS_BELOW_TWO, REASON_QUOTIENT_GENUS_TOO_LARGE,
        )

    def test_verdict_computed_once(self, monkeypatch):
        counted = count_calls(monkeypatch, "total_genus")
        sector_report(AdmissibleDatum(0, 2, (6,)))
        assert counted == [1]

    def test_json_shape(self):
        out = sector_report(AdmissibleDatum(0, 2, (6,))).to_json()
        assert set(out) == {
            "gq", "N", "d", "total_genus", "admissible", "reasons",
            "gcd_k", "connected", "brauer",
        }
        assert out["gq"] == 0 and out["N"] == 2 and out["d"] == [6]
        assert out["brauer"]["class_nontrivial"] is True
        none_case = sector_report(AdmissibleDatum(1, 2, (2,)), genus=2).to_json()
        assert none_case["brauer"] is None


class TestLargeOrders:
    """Orders far past the Wiman bound, answered by the CLI in a fresh process.

    A search that walks every prefix runs for minutes on these, or runs out
    of recursion depth; the timeout turns such a regression into a failure.
    """

    TIMEOUT_S = 1.0

    @pytest.mark.parametrize("g, n, count", [(2, 900, 0), (2, 1200, 0), (601, 1200, 70)])
    def test_enumerate_answers(self, g, n, count):
        env = dict(os.environ, PYTHONPATH=str(Path(stackbrauer.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "stackbrauer.cli", "enumerate", "--g", str(g), "--N", str(n),
                "--json"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=self.TIMEOUT_S)
        assert (proc.returncode, proc.stderr) == (0, "")
        data = [AdmissibleDatum.from_json(x) for x in json.loads(proc.stdout)["data"]]
        assert len(data) == count
        assert all(is_admissible(a, g) for a in data)
        keys = [(a.quotient_genus, a.branch_degrees) for a in data]
        assert keys == sorted(set(keys))


class TestDecomposeInertia:
    def test_pinned_decomposition(self):
        reports = decompose_inertia(2, 2)
        assert [str(r.datum) for r in reports] == [
            "(g'=0, N=2, d=[6])",
            "(g'=1, N=2, d=[2])",
        ]
        assert reports[0].brauer is not None and reports[0].brauer.class_nontrivial
        assert reports[1].brauer is None
        assert all(r.admissible and r.total_genus == 2 for r in reports)

    def test_empty_decomposition_is_legitimate(self):
        assert decompose_inertia(2, 7) == []

    def test_order_matches_enumeration(self):
        data = [r.datum for r in decompose_inertia(3, 4)]
        assert data == enumerate_admissible(3, 4)

    def test_no_genus_computed_per_riemann_hurwitz_solution(self, monkeypatch):
        # the search spends the genus budget exactly, so no genus is recomputed
        counted = count_calls(monkeypatch, "total_genus")
        for g, n in [(2, 2), (3, 4), (5, 3), (6, 6), (4, 7)]:
            decompose_inertia(g, n)
        assert counted == [0]

    def test_unit_relabelling_maps_sectors_onto_themselves(self):
        # Another generator u of Z/N moves d_i to position u*i mod N; the data
        # of (g, N) are closed under it (so it permutes them), and neither the
        # connectedness verdict nor the Brauer class can see it.
        images = 0
        for g in range(2, 10):
            for n in range(2, 4 * g + 3):
                reports = {r.datum: r for r in decompose_inertia(g, n)}
                for u in (u for u in range(1, n) if gcd(u, n) == 1):
                    for a, r in reports.items():
                        degs = [0] * (n - 1)
                        for i, d in enumerate(a.branch_degrees, start=1):
                            degs[u * i % n - 1] = d
                        image = AdmissibleDatum(a.quotient_genus, n, tuple(degs))
                        assert image in reports, (g, n, u, str(a))
                        moved = reports[image]
                        assert (moved.gcd_k, moved.connected) == (r.gcd_k, r.connected), str(a)
                        assert (moved.brauer is None) == (r.brauer is None), str(a)
                        if r.brauer is not None:
                            assert moved.brauer.h2_group == r.brauer.h2_group, str(a)
                            assert moved.brauer.class_nontrivial == r.brauer.class_nontrivial
                        images += 1
        assert images == 10762


def harvey_signatures(g: int, n: int) -> set[tuple[int, ...]]:
    """Period multisets of Z/N acting on a connected genus-g curve with a
    genus-0 quotient, by Harvey's conditions (Quart. J. Math. Oxford 17,
    1966), scanned over multisets of divisors of N.  At an integral genus,
    Riemann-Hurwitz and the lcm conditions already imply r >= 3 and the
    2-power parity rule; both are kept as Harvey states them."""
    divisors = [m for m in range(2, n + 1) if n % m == 0]
    budget = 2 * g - 2 + 2 * n  # Riemann-Hurwitz: sum of N - N/m_j
    two = n & -n
    out = set()
    for r in range(3, 2 * budget // n + 1):
        for periods in itertools.combinations_with_replacement(divisors, r):
            if (sum(n - n // m for m in periods) == budget and lcm(*periods) == n
                    and all(lcm(*periods[:j], *periods[j + 1:]) == n for j in range(r))
                    and (n % 2 or sum(m % two == 0 for m in periods) % 2 == 0)):
                out.add(periods)
    return out


class TestSectorGuards:
    def test_harvey_signatures_of_connected_genus0_data(self):
        nonempty = 0
        for g in range(2, 11):
            for n in range(2, 4 * g + 3):
                got = {tuple(sorted(m for i, d in enumerate(a.branch_degrees, start=1)
                                    for m in [n // gcd(i, n)] * d))
                       for a in enumerate_admissible(g, n, quotient_genus=0)
                       if connectedness_k(a) == 1}
                assert got == harvey_signatures(g, n), (g, n)
                nonempty += bool(got)
        assert nonempty == 137  # of the 225 pairs

    def test_wiman_bound_on_sectors(self):
        # The sectors of M_g are the data with k = 1 or g' >= 1; Wiman's bound
        # N <= 4g + 2 on a cyclic automorphism of a curve is attained.
        for g in range(2, 9):
            orders = [n for n in range(2, 84 * (g - 1) + 1)
                      if any(connectedness_k(a) == 1 or a.quotient_genus >= 1
                             for a in enumerate_admissible(g, n))]
            assert max(orders) == 4 * g + 2, g


def test_docstring_examples():
    import doctest

    import stackbrauer.covers as mod

    results = doctest.testmod(mod)
    assert results.failed == 0
