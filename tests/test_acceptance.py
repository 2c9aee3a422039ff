"""Acceptance suite: one test per criterion, one printed line per criterion.

Every comparison is exact integer-polynomial equality; there are no numeric
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the pass lines and timings.
"""

import random
import time

from conres.cohomring import (
    elementary_symmetric,
    h2_order,
    normal_form,
    ring_poincare,
    shift_difference,
    staircase_monomials,
)
from conres.flagchar import gamma_poincare, gamma_trace, gamma_trace_naive
from conres.qcombinat import (
    GradedDims,
    MultiIndex,
    QPoly,
    conjugacy_classes,
    multiindices,
)
from conres.resolution import (
    block_poincare,
    h_poly,
    link_poincare,
    miller_check,
    spectral_table,
    total_discriminant_poincare,
)
from conres.stab import cohomological_rank, e1_stable_bound

from golden import LINK_POLYNOMIALS, SPECTRAL_TABLES


def _report(number, description, started):
    print(f"criterion {number:2d}: PASS  {description}  [{time.time() - started:.2f}s]")


def test_criterion_01_link_polynomials():
    started = time.time()
    assert link_poincare(3) == GradedDims({2: 1, 4: 1})
    assert link_poincare(4) == GradedDims({3: 1, 5: 1, 7: 2, 9: 1, 11: 1})
    factor_a = GradedDims({0: 1, 2: 1, 4: 1, 6: 1})
    factor_b = GradedDims({2 * k: 1 for k in range(6)})
    assert link_poincare(5) == (factor_a * factor_b).times_power(4)
    assert link_poincare(5) == GradedDims(LINK_POLYNOMIALS[5])
    _report(1, "link homology polynomials for n = 3, 4, 5", started)


def test_criterion_02_spectral_tables_cell_for_cell():
    started = time.time()
    for n, expected in SPECTRAL_TABLES.items():
        table = spectral_table(n)
        got = {A.parts: dict(poly.items()) for A, poly in table.blocks}
        assert got == expected, f"table mismatch at n={n}"
    # the split of the middle column for n = 4, stated explicitly
    assert dict(block_poincare(MultiIndex((3,)), 4).items()) == {
        5: 1, 7: 2, 9: 2, 11: 2, 13: 1,
    }
    assert dict(block_poincare(MultiIndex((2, 2)), 4).items()) == {3: 1, 7: 1, 11: 1}
    _report(2, "per-index spectral tables for n = 3, 4, 5", started)


def test_criterion_03_quotient_homology():
    started = time.time()
    A = MultiIndex((2, 2))
    assert gamma_poincare(A, 4, "trivial") == QPoly({0: 1, 2: 1, 4: 1})
    assert gamma_poincare(A, 4, "sign") == QPoly({1: 1, 2: 1, 3: 1})
    _report(3, "quotient collection-space homology, both coefficient systems", started)


def _small_shapes():
    for A in multiindices(6, 5):
        for n in range(max(2, A.size), 7):
            yield A, n


def test_criterion_04_oracle_equivalence():
    started = time.time()
    compared = 0
    for A, n in _small_shapes():
        for cls in conjugacy_classes(A):
            assert gamma_trace(A, n, cls) == gamma_trace_naive(A, n, cls), (A, n, cls)
            compared += 1
    assert compared == 29  # the complete list of classes with |A| <= 6, n <= 6
    _report(4, f"trace formula vs brute-force averaging on {compared} classes", started)


def test_criterion_05_parity_properties():
    started = time.time()
    for n in range(2, 9):
        for A in multiindices(n, n - 1):
            poly = block_poincare(A, n)
            assert all(e % 2 != n % 2 for e in poly.support()), (A, n)
    for n in range(3, 9):
        assert all(e % 2 != n % 2 for e in link_poincare(n).support()), n
    for a in range(2, 9):
        assert h_poly(a).nonnegative()  # the recursion never clamps
    _report(5, "block and link parity, nonnegative subtraction, n <= 8", started)


def test_criterion_06_degeneration_identity():
    started = time.time()
    for n in range(2, 9):
        total = GradedDims.zero()
        for A in multiindices(n, n - 1):
            total = total + block_poincare(A, n)
        assert total == total_discriminant_poincare(n), n
    _report(6, "blocks sum to the dual of the complement, n <= 8", started)


def test_criterion_07_miller_identity():
    started = time.time()
    for n in range(1, 31):
        report = miller_check(n)
        assert report.ok, n
    _report(7, "splitting identity for the unitary groups, n <= 30", started)


def test_criterion_08_lefschetz_vanishing():
    started = time.time()
    checked = 0
    for A, n in _small_shapes():
        for cls in conjugacy_classes(A):
            if not cls.is_trivial:
                assert gamma_trace(A, n, cls)(1) == 0, (A, n, cls)
                checked += 1
    assert checked == 6  # all nontrivial classes with |A| <= 6, n <= 6
    _report(8, f"nontrivial classes vanish at q = 1 ({checked} classes)", started)


def test_criterion_09_ring_model():
    started = time.time()
    from collections import Counter

    for n in range(1, 9):
        counts = Counter(sum(m) for m in staircase_monomials(n))
        assert dict(sorted(counts.items())) == dict(ring_poincare(n).items()), n
        for k in range(1, n + 1):
            assert normal_form(elementary_symmetric(n, k), n).is_zero(), (n, k)
    # the graded ring of the complement is the polynomial dualized into the
    # total: reconstruct it from the homological side and compare
    for n in range(2, 9):
        total = total_discriminant_poincare(n)
        top = n * n - 1
        reconstructed = GradedDims({top - e: c for e, c in total.items()}) + GradedDims.one()
        assert reconstructed == ring_poincare(n).to_graded(), n
    _report(9, "staircase counts, vanishing relations, duality coherence", started)


def test_criterion_10_order_filtration():
    started = time.time()
    for n in range(2, 11):
        orders = [h2_order(tuple(i**p for i in range(1, n + 1))) for p in range(n)]
        assert orders == list(range(n)), n
    rng = random.Random(2024)
    for _ in range(100):
        degree = rng.randint(1, 7)
        length = rng.randint(degree + 2, degree + 7)
        coeffs = [rng.randint(-6, 6) for _ in range(degree)]
        coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        seq = tuple(sum(c * i**j for j, c in enumerate(coeffs)) for i in range(1, length + 1))
        assert h2_order(seq) == degree
        assert h2_order(shift_difference(seq)) == degree - 1
    _report(10, "degree-2 orders 0..n-1 realized; difference drops order", started)


def test_criterion_11_stabilization():
    started = time.time()
    cells = 0
    for p in range(-3, 1):
        for total in range(0, 11):
            q = total - p
            bound = e1_stable_bound(p, q)
            ranks = [cohomological_rank(m, p, q) for m in (bound, bound + 1, bound + 2)]
            assert len(set(ranks)) == 1, (p, q, bound, ranks)
            cells += 1
    assert cells == 44
    _report(11, "cohomological ranks agree at the bound and twice beyond", started)
