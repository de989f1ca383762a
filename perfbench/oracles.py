"""Independent answer checks for the benchmark, standard library only.

None of these call into ``stackbrauer``; each recomputes the expected answer
by a method the library does not use:

* Smith normal form: the exact product ``U*A*V`` against ``diag(d)``, the
  divisibility chain, and ``prod(d) == |det A|`` by a Bareiss elimination
  written here.  On a nonsingular square that equality forces
  ``det U * det V = +-1``; on rectangular or singular inputs unimodularity
  is checked as ``det = +-1`` modulo two Mersenne primes.
* ``Br(BG)``: the classical table of centers for adjoint quotients, and
  element-order statistics of the kernel (found by breadth-first closure in
  per-factor coordinates) for arbitrary kernels.
* subgroup counts: the closed form for the number of subgroups of each type
  in an abelian p-group (Birkhoff), multiplied over primes.
* admissible data: a dynamic-programming count of the solutions of
  Riemann-Hurwitz that satisfy the congruence mod ``N``.
* sector reports: genus, reasons, gcd and parity recomputed from the raw
  branch degrees.

A check returns ``None`` when the answer agrees and a short message when it
does not.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, prod

_MERSENNE = (2**61 - 1, 2**89 - 1)

# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk = m[k][k]
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - rik * rk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1] if n else 1


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo the prime ``p`` by Gaussian elimination."""
    m = [[x % p for x in r] for r in rows]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        inv = pow(m[k][k], -1, p)
        det = det * m[k][k] % p
        rk = m[k]
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                ri = m[i]
                for j in range(k, n):
                    ri[j] = (ri[j] - f * rk[j]) % p
    return det % p


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def check_snf(a: list[list[int]], cols: int, d, u, v) -> str | None:
    """Check ``u*a*v == diag(d)`` with ``d`` a Smith normal form of ``a``."""
    rows = len(a)
    d = list(d)
    if len(d) != min(rows, cols):
        return f"d has {len(d)} entries for a {rows}x{cols} matrix"
    if len(u) != rows or any(len(r) != rows for r in u):
        return "U has the wrong shape"
    if len(v) != cols or any(len(r) != cols for r in v):
        return "V has the wrong shape"
    if any(x < 0 for x in d):
        return "negative diagonal entry"
    nonzero = [x for x in d if x]
    if d[: len(nonzero)] != nonzero:
        return "zeros do not trail"
    if any(y % x for x, y in zip(nonzero, nonzero[1:])):
        return "divisibility chain broken"
    product = matmul(matmul(u, a), v)
    for i in range(rows):
        for j in range(cols):
            want = d[i] if i == j else 0
            if product[i][j] != want:
                return f"(U A V)[{i}][{j}] = {product[i][j]}, expected {want}"
    if rows == cols:
        if prod(d) != abs(bareiss_det(a)):
            return "prod(d) differs from |det A|"
        if nonzero and len(nonzero) == rows:
            return None  # |det U det V| = |det D| / |det A| = 1
    for name, m in (("U", u), ("V", v)):
        for p in _MERSENNE:
            if det_mod(m, p) not in (1, p - 1):
                return f"{name} is not unimodular (det mod {p} is not +-1)"
    return None


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors_from_pparts(parts: dict[int, list[int]]) -> tuple[int, ...]:
    """Invariant factors from per-prime exponent lists (elementary divisors)."""
    width = max((len(e) for e in parts.values()), default=0)
    factors = [1] * width
    for p, exps in parts.items():
        for k, e in enumerate(sorted(exps, reverse=True)):
            factors[width - 1 - k] *= p**e
    return tuple(f for f in factors if f > 1)


def pparts(moduli) -> dict[int, list[int]]:
    """Elementary divisors of ``Z/m1 x ... x Z/mk``: prime -> exponents."""
    parts: dict[int, list[int]] = {}
    for m in moduli:
        for p, e in factorize(m).items():
            parts.setdefault(p, []).append(e)
    return parts


def cyclic_product_factors(moduli) -> tuple[int, ...]:
    """Invariant factors of ``Z/m1 x ... x Z/mk`` by prime-power regrouping."""
    return invariant_factors_from_pparts(pparts(moduli))


def conjugate(part: list[int]) -> list[int]:
    return [sum(1 for x in part if x > i) for i in range(part[0])] if part else []


def factors_from_order_statistics(moduli, elements) -> tuple[int, ...]:
    """Invariant factors of a subgroup of ``prod Z/m_i`` from its elements.

    For each prime ``p`` the number of elements killed by ``p^j`` is
    ``p^(sum_i min(j, e_i))``, which determines the exponents ``e_i``.
    """
    elements = list(elements)
    parts: dict[int, list[int]] = {}
    for p, top in factorize(len(elements)).items():
        counts = [1]
        for j in range(1, top + 1):
            q = p**j
            counts.append(sum(1 for x in elements
                              if all(q * c % m == 0 for c, m in zip(x, moduli))))
        ranks = []  # ranks[j-1] = #{i : e_i >= j}
        for j in range(1, top + 1):
            ratio, e = counts[j] // counts[j - 1], 0
            while ratio > 1:
                ratio //= p
                e += 1
            if e == 0:
                break
            ranks.append(e)
        parts[p] = conjugate(ranks)
    return invariant_factors_from_pparts(parts)


def closure(moduli, generators) -> set[tuple[int, ...]]:
    """Elements of the subgroup of ``prod Z/m_i`` spanned by ``generators``."""
    zero = tuple(0 for _ in moduli)
    gens = [tuple(g % m for g, m in zip(gen, moduli)) for gen in generators]
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def center_moduli(family: str, rank: int) -> tuple[int, ...]:
    """Invariant factors of the center of the simply connected simple group.

    The classical table (Bourbaki, Lie Groups, Ch. VI, Plates I-IX).
    """
    if family == "A":
        return (rank + 1,)
    if family in ("B", "C") or (family, rank) == ("E", 7):
        return (2,)
    if family == "D":
        return (2, 2) if rank % 2 == 0 else (4,)
    if (family, rank) == ("E", 6):
        return (3,)
    return ()


def expected_brauer(factors, generators) -> tuple[int, ...]:
    """Invariant factors of ``Br(BG)`` for ``G = G~/B``.

    ``factors`` are ``(family, rank)`` pairs; ``generators`` are per-factor
    coordinates, or ``None`` for the adjoint quotient (``B`` the whole center).
    """
    moduli = [m for fam, rank in factors for m in center_moduli(fam, rank)]
    if generators is None:
        return cyclic_product_factors(moduli)
    return factors_from_order_statistics(moduli, closure(moduli, generators))


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _pgroup_type_count(lam: list[int], mu: list[int], p: int) -> int:
    """Subgroups of type ``mu`` in the abelian p-group of type ``lam``."""
    lc, mc = conjugate(lam), conjugate(mu)
    mc = mc + [0] * (len(lc) + 1 - len(mc))
    total = 1
    for i, li in enumerate(lc):
        total *= p ** (mc[i + 1] * (li - mc[i])) * _gaussian_binomial(
            li - mc[i + 1], mc[i] - mc[i + 1], p)
    return total


def _subpartitions(lam: list[int]):
    def rec(i: int, cap: int, prefix: list[int]):
        yield prefix
        if i < len(lam):
            for x in range(1, min(cap, lam[i]) + 1):
                yield from rec(i + 1, x, prefix + [x])
    yield from rec(0, lam[0] if lam else 0, [])


def subgroup_type_counts(invariant_factors) -> Counter:
    """Number of subgroups of each isomorphism type, keyed by invariant factors."""
    result = Counter({(): 1})
    for p, lam in pparts(invariant_factors).items():
        lam = sorted(lam, reverse=True)
        step: Counter = Counter()
        for key, count in result.items():
            for mu in _subpartitions(lam):
                n = _pgroup_type_count(lam, mu, p)
                if n:
                    parts = pparts(key)
                    if mu:
                        parts[p] = mu
                    step[invariant_factors_from_pparts(parts)] += count * n
        result = step
    return result


def check_subgroup_structures(invariant_factors, structures) -> str | None:
    """Compare the multiset of subgroup structures with the closed form."""
    want = subgroup_type_counts(invariant_factors)
    got = Counter(tuple(s) for s in structures)
    if got != want:
        return (f"{sum(got.values())} subgroups in {len(got)} types, "
                f"expected {sum(want.values())} in {len(want)}")
    return None


# ---------------------------------------------------------------------------
# cyclic covers
# ---------------------------------------------------------------------------


def rh_genus(gq: int, n: int, degs) -> Fraction:
    ram = sum(d * (n - gcd(i, n)) for i, d in enumerate(degs, start=1))
    return 1 + Fraction(n * (2 * gq - 2) + ram, 2)


def count_admissible(g: int, n: int, gq: int | None = None) -> int:
    """Admissible data for ``(g, N)``: a DP over (weight budget, residue mod N)."""
    weights = [(n - gcd(i, n), i % n) for i in range(1, n)]
    total = 0
    q = 0
    while n * (2 * q - 2) <= 2 * g - 2:
        if gq is None or gq == q:
            budget = 2 * g - 2 - n * (2 * q - 2)
            # ways[b][r]: degree vectors of weight b with sum i*d_i = r mod N
            ways = [[0] * n for _ in range(budget + 1)]
            ways[0][0] = 1
            for w, i in weights:  # unbounded multiplicity per index i
                for b in range(w, budget + 1):
                    src, dst = ways[b - w], ways[b]
                    for r in range(n):
                        if src[r]:
                            dst[(r + i) % n] += src[r]
            total += ways[budget][0]
        q += 1
    return total


def expected_sector(gq: int, n: int, degs, genus: int | None) -> dict:
    """Expected ``SectorReport.to_json()`` (or ``classify --json``) document.

    Raises ``ArithmeticError`` when ``genus`` is None and the Riemann-Hurwitz
    genus is half-integral: that datum has no report.
    """
    degs = list(degs)
    rh = rh_genus(gq, n, degs)
    weighted = sum(i * d for i, d in enumerate(degs, start=1))
    if genus is None:
        if rh.denominator != 1:
            raise ArithmeticError(str(rh))
        genus = int(rh)
    reasons = set()
    if genus < 2:
        reasons.add("genus_below_two")
        if rh != genus:
            reasons.add("genus_mismatch")
    else:
        if rh.denominator != 1:
            reasons.add("non_integral_genus")
        elif rh != genus:
            reasons.add("genus_mismatch")
        if gq > genus:
            reasons.add("quotient_genus_too_large")
    if weighted % n:
        reasons.add("structural_equation")
    k = n
    for i, d in enumerate(degs, start=1):
        if d:
            k = gcd(k, i)
    connected = "connected" if k == 1 else ("disconnected" if gq == 0 else "undetermined")
    brauer = None
    if not reasons and gq == 0:
        even = all(d % 2 == 0 for d in degs)
        brauer = {
            "h2": [2] if even else [],
            "class_nontrivial": even and (weighted // n) % 2 == 1,
            "d_over_N": weighted // n,
            "all_di_even": even,
        }
    return {"gq": gq, "N": n, "d": degs, "total_genus": genus,
            "admissible": not reasons, "reasons": sorted(reasons),
            "gcd_k": k, "connected": connected, "brauer": brauer}


def check_sector_doc(doc: dict, gq: int, n: int, degs, genus: int | None) -> str | None:
    want = expected_sector(gq, n, degs, genus)
    got = dict(doc)
    got["reasons"] = sorted(got.get("reasons", []))
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"sector {gq},{n},{list(degs)}: fields {diff} differ"
    return None


def check_enumeration(data, g: int, n: int, gq: int | None = None) -> str | None:
    """``data`` are ``(gq, N, d)`` triples from an enumeration of ``(g, N)``."""
    data = [(q, m, tuple(d)) for q, m, d in data]
    want = count_admissible(g, n, gq)
    if len(data) != want:
        return f"enumerate({g}, {n}, gq={gq}) gave {len(data)} data, expected {want}"
    if data != sorted(data) or len(set(data)) != len(data):
        return f"enumerate({g}, {n}) is not sorted and duplicate-free"
    for q, m, d in data:
        if m != n or len(d) != n - 1 or min(d, default=0) < 0 \
                or (gq is not None and q != gq) or rh_genus(q, n, d) != g \
                or sum(i * x for i, x in enumerate(d, start=1)) % n:
            return f"enumerate({g}, {n}) emitted inadmissible {q},{m},{list(d)}"
    return None


@contextlib.contextmanager
def unlimited_int_digits():
    """Parse documents whose integers exceed the default 4300-digit limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
