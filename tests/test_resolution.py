import hashlib
import itertools
import json
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conres import cli, flagchar, qcombinat, resolution
from conres.flagchar import gamma_poincare
from conres.qcombinat import (
    BlockClass,
    ConsistencyError,
    GradedDims,
    MultiIndex,
    QPoly,
    centralizer_order,
    conjugacy_classes,
    divide_out,
    gauss_multinomial,
    integer_combination,
    multiindices,
    partitions,
    q_pochhammer,
)
from conres.resolution import (
    ALL_CHECKS,
    CheckResult,
    SpectralTable,
    block_poincare,
    by_degree,
    fiber_char,
    h_poly,
    link_poincare,
    miller_check,
    spectral_table,
    total_discriminant_poincare,
    verify,
)
from conres.stab import e1_stable_bound, stab_index, three_point_ranks

from golden import LINK_POLYNOMIALS, SPECTRAL_TABLES


def _swap_class(A):
    (cls,) = [c for c in conjugacy_classes(A) if c.cycles == ((2, A.parts[0]),)]
    return cls


@pytest.mark.parametrize(
    "call",
    [
        lambda: block_poincare(MultiIndex(()), 4),
        lambda: gamma_poincare(MultiIndex(()), 4),
        lambda: stab_index(MultiIndex(()), 4),
        lambda: fiber_char(MultiIndex(()), 3, BlockClass(())),
    ],
    ids=["block_poincare", "gamma_poincare", "stab_index", "fiber_char"],
)
def test_an_empty_index_is_refused_where_it_is_built(call):
    # an empty shape once reached these: the first two failed deep inside
    # gauss_multinomial, stab_index returned a report, fiber_char gave t^8 at n = 3
    with pytest.raises(ValueError, match="a multi-index needs at least one part"):
        call()


# --------------------------------------------------------------------------
# totals via duality from the complement
# --------------------------------------------------------------------------


def _total_bruteforce(n):
    # independent route: multiply the complement factors, drop the unit,
    # reflect the reduced exponents through n^2 - 1
    coeffs = {0: 1}
    for j in range(2, n + 1):
        new = {}
        for e, c in coeffs.items():
            for k in range(j):
                new[e + 2 * k] = new.get(e + 2 * k, 0) + c
        coeffs = new
    return GradedDims({n * n - 1 - e: c for e, c in coeffs.items() if e})


def test_total_discriminant_examples():
    assert total_discriminant_poincare(2) == GradedDims({1: 1})
    assert total_discriminant_poincare(3) == GradedDims({2: 1, 4: 2, 6: 2})
    assert total_discriminant_poincare(4) == GradedDims(
        {3: 1, 5: 3, 7: 5, 9: 6, 11: 5, 13: 3}
    )
    with pytest.raises(ValueError):
        total_discriminant_poincare(1)


def test_total_discriminant_against_bruteforce():
    for n in range(2, 10):
        assert total_discriminant_poincare(n) == _total_bruteforce(n)


def _arnold_e1(n):
    # Arnold's E1 for the locus: t^k [n; m_1, ..., m_k]_{t^2} summed over the
    # compositions (m_1, ..., m_k) of n into k = 1..n-1 parts
    terms = []
    for k in range(1, n):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0, *cuts, n)
            parts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
            terms.append((1, gauss_multinomial(n, parts[:-1]).to_graded().times_power(k)))
    return integer_combination(terms, 1)


def _e1_excess(n, total):
    # E1 - total is (1 + t) times a nonnegative series, or None
    excess = _arnold_e1(n) - total
    if excess(-1) != 0:
        return None
    quotient = divide_out(excess * GradedDims({0: 1, 1: -1}), [2])
    return quotient if quotient.nonnegative() else None


def test_arnold_e1_sees_the_duality_shift():
    # E1 dominates the total up to cancelling pairs in adjacent degrees, an
    # independent check of the Alexander-duality shift t^{n^2 - 1}
    assert _e1_excess(2, total_discriminant_poincare(2)) == GradedDims.zero()
    assert _e1_excess(3, total_discriminant_poincare(3)) == GradedDims({1: 1})
    for n in range(2, 11):
        assert _e1_excess(n, total_discriminant_poincare(n)) is not None, n
    for n in range(3, 11):
        for shift in (-4, -2, 2, 4):
            assert _e1_excess(n, total_discriminant_poincare(n).times_power(shift)) is None, (n, shift)


# --------------------------------------------------------------------------
# fiber characters
# --------------------------------------------------------------------------


def test_fiber_char_examples():
    A = MultiIndex((2, 2))
    trivial = conjugacy_classes(A)[0]
    assert fiber_char(A, 4, trivial) == GradedDims({3: 1})
    assert fiber_char(A, 4, _swap_class(A)) == GradedDims({3: 1})

    B = MultiIndex((3,))
    (only,) = conjugacy_classes(B)
    assert fiber_char(B, 4, only) == GradedDims({5: 1, 7: 1})

    with pytest.raises(ValueError):
        fiber_char(A, 3, trivial)


def test_fiber_char_minimum_degree_offset():
    for n in range(2, 8):
        for A in multiindices(n, n - 1):
            trivial = conjugacy_classes(A)[0]
            low = fiber_char(A, n, trivial).min_degree()
            delta = A.liberty(n)
            expected = (
                A.length
                + delta * delta
                - 1
                + sum(h_poly(a).min_degree() for a in A.parts)
            )
            assert low == expected


# --------------------------------------------------------------------------
# blocks
# --------------------------------------------------------------------------


def test_block_poincare_examples():
    assert block_poincare(MultiIndex((2,)), 3) == GradedDims({2: 1, 4: 1, 6: 1})
    assert block_poincare(MultiIndex((2, 2)), 4) == GradedDims({3: 1, 7: 1, 11: 1})
    shifted = gamma_poincare(MultiIndex((2, 2)), 5, "trivial").to_graded().times_power(4)
    assert block_poincare(MultiIndex((2, 2)), 5) == shifted
    with pytest.raises(ValueError):
        block_poincare(MultiIndex((3, 2)), 4)


def test_block_of_minimal_index_is_shifted_grassmannian():
    for n in range(2, 9):
        expected = (
            gauss_multinomial(n, (2,)).to_graded().times_power((n - 2) ** 2 + 1)
        )
        assert block_poincare(MultiIndex((2,)), n) == expected


def test_top_block_is_the_open_cone_series():
    for n in range(2, 9):
        assert block_poincare(MultiIndex((n,)), n) == h_poly(n)


# --------------------------------------------------------------------------
# the h recursion and the links
# --------------------------------------------------------------------------


def test_h_poly_base_and_small_values():
    assert h_poly(2) == GradedDims({1: 1})
    assert h_poly(3) == GradedDims({4: 1, 6: 1})
    assert h_poly(4) == GradedDims({5: 1, 7: 1, 9: 2, 11: 1, 13: 1})
    with pytest.raises(ValueError):
        h_poly(1)


def test_h_poly_parity_and_nonnegativity():
    for a in range(2, 11):
        h = h_poly(a)
        assert h.nonnegative()
        assert all(e % 2 != a % 2 for e in h.support())


def test_h_poly_total_rank_is_the_lie_character_degree():
    # L_a(1) = (a - 1)!, the rank of the Lie character; the engine never
    # builds the top block as a count of permutations
    for a in range(2, 31):
        assert h_poly(a)(1) == factorial(a - 1), a


def test_top_block_rejects_a_non_integral_or_negative_rank(monkeypatch, fresh_tables):
    # the top block of n = 3 is t^2 L_3(t^2), L_3 = ((q;q)_3 / (1 - q)^3 -
    # (q;q)_3 / (1 - q^3)) / 3 = q + q^2; the Moebius term of k = 3 with its
    # sign flipped leaves a sum that 3 does not divide, and a negated
    # (q;q)_3 negates every rank
    real_divide_out = resolution.divide_out
    real_pochhammer = resolution.q_pochhammer
    for name, broken, message in (
        (
            "divide_out",
            lambda poly, exponents: -real_divide_out(poly, exponents)
            if list(exponents) == [3]
            else real_divide_out(poly, exponents),
            "non-integral rank",
        ),
        ("q_pochhammer", lambda *args: -real_pochhammer(*args), "negative rank in h-polynomial for a=3"),
    ):
        monkeypatch.undo()
        monkeypatch.setattr(resolution, name, broken)
        for memo in _ENGINE_MEMOS:
            memo.cache_clear()
        with pytest.raises(ConsistencyError, match=message):
            spectral_table(3)
        with pytest.raises(ConsistencyError, match=message):
            h_poly(3)


def test_link_poincare_golden_values():
    for n, coeffs in LINK_POLYNOMIALS.items():
        assert link_poincare(n) == GradedDims(coeffs)
    with pytest.raises(ValueError):
        link_poincare(2)


def test_link_is_palindromic_unless_n_is_2_mod_4():
    # the swap of the two parts of (n/2, n/2) reverses the orientation of
    # Gr(n/2, n) exactly when (n/2)^2 is odd, and only then is the link
    # asymmetric
    for n in range(3, 15):
        assert link_poincare(n).is_palindromic() == (n % 4 != 2), n


def test_the_swap_trace_at_n_6_is_anti_palindromic():
    A = MultiIndex((3, 3))
    trace = flagchar.gamma_trace(A, 6, _swap_class(A))
    assert trace == QPoly({0: 1, 1: -1}) * QPoly({0: 1, 3: -1}) * QPoly({0: 1, 5: -1})
    assert QPoly({trace.degree() - e: -c for e, c in trace.items()}) == trace


def test_link_parity():
    for n in range(3, 11):
        assert all(e % 2 != n % 2 for e in link_poincare(n).support())


# --------------------------------------------------------------------------
# spectral tables
# --------------------------------------------------------------------------


def test_tables_match_golden_data():
    for n, expected in SPECTRAL_TABLES.items():
        table = spectral_table(n)
        got = {A.parts: dict(poly.items()) for A, poly in table.blocks}
        assert got == expected


#: SHA-256 of ``repr([(A.parts, poly.items()) for A, poly in blocks])`` of
#: the tables beyond the goldens and the CLI digests, computed with the
#: t-graded engine before the blocks were built in q = t^2.
TABLE_DIGESTS = {
    17: "8c9d29602f37772edb9e0c553d7339932f7c0119054e93d2ca4065472cd6b0e4",
    18: "06f9c1a6fc927b4964c2c42e7a18582bf194a985f2e64d56a19cc998b71fd66d",
    # the first tables past 64-bit coefficients; n = 22 and 24 make wide
    # products (2 and 253), split by the product kernel
    20: "825341eda6ba4438719a93885f518be3409e8b13ba22b02ff4d0afc931635d6f",
    22: "5e81391ce86ca0d61f6a792c57f880102620efe9abcb119931c7fe2bcfae1d0f",
    24: "5a67a70998d4119679fc3a41065e5836280c40e07671925339004bccc7a5d3ab",
}


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_large_tables_are_byte_identical(n):
    blocks = [(A.parts, poly.items()) for A, poly in spectral_table(n).blocks]
    assert hashlib.sha256(repr(blocks).encode()).hexdigest() == TABLE_DIGESTS[n]


def test_table_smallest_case():
    table = spectral_table(2)
    assert [(p, i, r) for p, i, r in table.cells()] == [(1, 1, 1)]


def test_table_rank_and_breakdown():
    table = spectral_table(4)
    assert table.rank(2, 7) == 3
    assert {A.parts: r for A, r in table.breakdown(2, 7).items()} == {
        (3,): 2,
        (2, 2): 1,
    }
    assert table.rank(2, 8) == 0


def test_table_totals_and_parity():
    # live: the top block is built from its closed form, not from the total
    for n in range(2, 21):
        table = spectral_table(n)
        assert table.total() == total_discriminant_poincare(n)
        for _, poly in table.blocks:
            assert all(e % 2 != n % 2 for e in poly.support())


def test_cohomological_view_lands_in_the_wedge():
    for n in range(2, 6):
        table = spectral_table(n)
        for p, i, rank in table.cells():
            pc = -p
            qc = n * n - (i - p) - 1
            assert pc <= 0
            assert pc + qc >= 0
            assert table.cohomological_rank(pc, qc) >= rank > 0


# --------------------------------------------------------------------------
# verifiers
# --------------------------------------------------------------------------


def test_miller_check_examples():
    r1 = miller_check(1)
    assert r1.ok and r1.lhs == GradedDims({0: 1, 1: 1})
    r2 = miller_check(2)
    assert r2.ok and r2.lhs == GradedDims({0: 1, 1: 1, 3: 1, 4: 1})
    r5 = miller_check(5)
    assert r5.ok and r5.lhs.degree() == 25


def test_verify_passes_for_small_n():
    for n in (2, 3, 4, 5):
        report = verify(n)
        assert report.ok, report.failures()
        assert {c.name for c in report.checks} == set(ALL_CHECKS)


def test_verify_check_selection():
    report = verify(4, checks=("miller",))
    assert all(c.name == "miller" for c in report.checks)
    with pytest.raises(ValueError):
        verify(4, checks=("unknown",))
    # an empty selection would pass without checking anything
    with pytest.raises(ValueError, match="no checks selected"):
        verify(4, checks=())


def test_verify_reports_checks_in_table_order():
    report = verify(4, checks=("gamma-oracle", "miller"))
    names = [c.name for c in report.checks]
    assert names[0] == "miller"
    assert set(names[1:]) == {"gamma-oracle"}


def test_verify_collects_an_oracle_that_raises(monkeypatch):
    A = MultiIndex((2, 2))
    bad = conjugacy_classes(A)[1]
    real = flagchar.gamma_trace_naive

    def naive(A_, n, cls, budget):
        if (A_, n, cls) == (A, 4, bad):
            raise ConsistencyError("forced oracle failure")
        return real(A_, n, cls, budget=budget)

    monkeypatch.setattr(flagchar, "gamma_trace_naive", naive)
    report = verify(4)
    oracle = [c for c in report.checks if c.name == "gamma-oracle"]
    failed = [c for c in oracle if not c.passed]
    assert [(c.location, c.detail) for c in failed] == [
        (f"A={A}, n=4, cls={bad}", "forced oracle failure")
    ]
    # every other class of every index is still checked
    expected = sum(len(conjugacy_classes(B)) for B in multiindices(4, 3))
    assert len(oracle) == expected > 1


@pytest.mark.parametrize(
    "fast, slow, failing, message",
    [
        (QPoly.one(), QPoly.one(), "nontrivial", "nonzero at q = 1"),
        (QPoly.one(), QPoly.zero(), "all", "traces disagree"),
    ],
)
def test_gamma_oracle_names_the_failed_condition(monkeypatch, fast, slow, failing, message):
    monkeypatch.setattr(flagchar, "gamma_trace", lambda A, n, cls: fast)
    monkeypatch.setattr(flagchar, "gamma_trace_naive", lambda A, n, cls, budget: slow)
    report = verify(4, checks=("gamma-oracle",))
    expected = {
        f"A={A}, n=4, cls={cls}"
        for A in multiindices(4, 3)
        for cls in conjugacy_classes(A)
        if failing == "all" or not cls.is_trivial
    }
    assert expected and {c.location for c in report.failures()} == expected
    assert all(message in c.detail for c in report.failures())


def test_verify_collects_a_check_that_raises(monkeypatch):
    def broken(n):
        raise ConsistencyError("forced miller failure")

    monkeypatch.setattr(resolution, "miller_check", broken)
    report = verify(4)
    assert report.failures() == (CheckResult("miller", "n=4", False, "forced miller failure"),)
    assert [c.name for c in report.checks].count("gamma-oracle") > 0


# --------------------------------------------------------------------------
# one table per n
# --------------------------------------------------------------------------


#: Every memo of the block engine: the columns of the tables (a table is a
#: view over them), the open-cone series in t, the Lie characters in q, the
#: own-size averages (the blocks and the quotient homology), the factors
#: that peel a part size off them, the cycle-type averages (the numerators
#: N_{a,m}) and the q-multinomials (the peeled binomials and the lifts).
_ENGINE_MEMOS = (
    resolution.spectral_column,
    h_poly,
    resolution._lie_character,
    flagchar._own_size_average,
    flagchar._peeled_factor,
    flagchar._cycle_average,
    qcombinat._multinomial,
)


@pytest.fixture
def fresh_tables():
    # the engine is memoized per process; tests that count builds or swap an
    # ingredient start and end with empty caches
    for memo in _ENGINE_MEMOS:
        memo.cache_clear()
    yield
    for memo in _ENGINE_MEMOS:
        memo.cache_clear()


def test_a_stable_cell_builds_only_the_columns_it_reads(monkeypatch, fresh_tables):
    # the three-point oracle of every cell of stable_table(-3, 6); no whole
    # table is built, since a table builds its columns by reading its blocks
    def no_blocks(table):
        raise AssertionError(f"the blocks of the table for n={table.n}")

    monkeypatch.setattr(SpectralTable, "blocks", property(no_blocks))
    cells = [(p, q) for p in range(-3, 0) for q in range(-p, 7)]
    for p, q in cells:
        three_point_ranks(p, q)
    read = {(m, -p) for p, q in cells for m in range(e1_stable_bound(p, q), e1_stable_bound(p, q) + 3)}
    columns = resolution.spectral_column.cache_info()
    own = flagchar._own_size_average.cache_info()
    # the column memo holds exactly the columns read: as many entries, and
    # reading each again is a hit
    assert columns.currsize == len(read)
    assert columns.hits > 0
    indices = {A for m, p in read for A, _ in resolution.spectral_column(m, p)}
    assert resolution.spectral_column.cache_info().misses == columns.misses
    # the own-size blocks are exactly those of the indices in these columns,
    # so none of complexity above 3 is built
    assert own.currsize == len(indices)
    for A in indices:
        flagchar._own_size_average(A, resolution._lie_character, "trivial")
    assert flagchar._own_size_average.cache_info().misses == own.misses
    assert {A.complexity for A in indices} == {1, 2, 3}


def test_columns_agree_with_a_rescan_of_the_blocks():
    for n in range(2, 11):
        table = spectral_table(n)
        assert table.complexities() == tuple(sorted({A.complexity for A, _ in table.blocks}))
        for p in range(-1, n + 1):
            brute = tuple((A, poly) for A, poly in table.blocks if A.complexity == p)
            assert table.column(p) == brute
            for i in range(-1, n * n + 1):
                assert table.rank(p, i) == sum(poly.coefficient(i) for _, poly in brute)
                expected = [(A, poly.coefficient(i)) for A, poly in brute if poly.coefficient(i)]
                assert list(table.breakdown(p, i).items()) == expected


def test_the_cell_walk_agrees_with_the_column_scans():
    for n in range(2, 13):
        table = spectral_table(n)
        walk = list(table.cell_blocks())
        occupied = {(A.complexity, i) for A, poly in table.blocks for i, _ in poly.items()}
        assert [(p, i) for p, i, _ in walk] == sorted(occupied)
        for p, i, blocks in walk:
            # breakdown scans the column, so it lists the blocks in column order
            assert list(table.breakdown(p, i).items()) == blocks
        sums = [(p, i, sum(r for _, r in blocks)) for p, i, blocks in walk]
        assert list(table.cells()) == [cell for cell in sums if cell[2]]


def test_a_table_is_the_union_of_its_columns():
    # the view lists every index of size <= n in the order of multiindices,
    # each with its block_poincare; the rescan test above reads the columns
    for n in range(2, 11):
        assert SpectralTable(n).blocks == tuple((A, block_poincare(A, n)) for A in multiindices(n, n - 1))
    # columns list their parts lexicographically decreasing, across sizes
    assert [A.parts for A, _ in SpectralTable(6).column(4)] == [(5,), (4, 2), (3, 3)]
    with pytest.raises(ValueError):
        SpectralTable(1)


def _class_averaged_block(A, n, fiber=fiber_char):
    # the oracle: the block as the S(A) class average of flag trace times
    # fiber trace at any n, independent of the factored route and its lift
    def trace(cls):
        return flagchar.gamma_trace(A, n, cls).to_graded() * fiber(A, n, cls)

    return flagchar.class_average(A, trace)


def test_free_part_is_one_gaussian_factor():
    # a block with d = n - |A| > 0 is t^{d^2} [n; |A|]_{t^2} times the same
    # block at its own size; the class average at n checks that lift against
    # fiber_char's d^2 shift and gamma_trace's q_pochhammer(n, d) start
    checked = 0
    for n in range(3, 14):
        for A, poly in spectral_table(n).blocks:
            if A.liberty(n) > 0:
                assert poly == _class_averaged_block(A, n), (A, n)
                checked += 1
    assert checked == 259


def test_own_size_blocks_match_the_class_average():
    # the factored route against the class-average oracle at d = 0; with the
    # free-part test above, every block but the top one is cross-checked
    checked = 0
    for n in range(2, 13):
        for parts in partitions(n, 2)[1:]:
            A = MultiIndex(parts)
            assert block_poincare(A, n) == _class_averaged_block(A, n), (A, n)
            checked += 1
    assert checked == 65


def test_a_cold_table_builds_no_smaller_table(monkeypatch, fresh_tables):
    # one block per index at its own size, one q-multinomial per canonical
    # key: no class average, no flag trace and no table but the one asked
    # for; every product is in q, and a block moves to t once, at the table edge
    def no_trace(A, n, cls):
        raise AssertionError(f"gamma_trace({A}, {n}, {cls})")

    def no_average(A, trace):
        raise AssertionError(f"class average over S({A})")

    keys = []
    real_multinomial = qcombinat._multinomial

    def counted_multinomial(n, key):
        keys.append((n, key))
        return real_multinomial(n, key)

    monkeypatch.setattr(flagchar, "gamma_trace", no_trace)
    monkeypatch.setattr(flagchar, "class_average", no_average)
    graded_products = []
    real_mul = GradedDims.__mul__

    def counted_mul(self, other):
        graded_products.append((self, other))
        return real_mul(self, other)

    columns = []
    real_column = resolution.spectral_column

    def recorded_column(n, p):
        columns.append((n, p))
        return real_column(n, p)

    monkeypatch.setattr(qcombinat, "_multinomial", counted_multinomial)
    monkeypatch.setattr(GradedDims, "__mul__", counted_mul)
    monkeypatch.setattr(resolution, "spectral_column", recorded_column)
    spectral_table(12)
    assert graded_products == []
    # every key in the column memo is at n = 12: one per column, each built once
    assert {n for n, _ in columns} == {12}
    assert real_column.cache_info().currsize == real_column.cache_info().misses == 11
    # one own-size block per index of size 2..12, the top blocks included,
    # and one Lie character per size
    indices = sum(len(partitions(s, 2)) for s in range(2, 13))
    assert flagchar._own_size_average.cache_info().currsize == indices
    assert resolution._lie_character.cache_info().currsize == 11
    # each key requested, the own-size multinomials and the lifts alike, is
    # built once, and read again from the memo
    assert real_multinomial.cache_info().misses == len(set(keys)) < len(keys)
    assert flagchar._cycle_average.cache_info().hits > 0


def test_a_cold_table_makes_one_product_per_peeled_part_size(monkeypatch, fresh_tables):
    # a cost guard, not a speed assertion: a multi-size own-size average is
    # the average of the index without its smallest part size times one
    # memoized factor, so a cold spectral_table(16) makes 780 polynomial
    # products; the full multinomial times every cycle-type average, built
    # afresh per index, made 1006
    real_product = qcombinat._product
    products = []

    def counted(a, b):
        products.append((a, b))
        return real_product(a, b)

    q_pochhammer.cache_clear()  # its products count too
    monkeypatch.setattr(qcombinat, "_product", counted)
    spectral_table(16)
    assert len(products) <= 780, len(products)


def _n_independent_block(A, n):
    # the block as t^{#A + d^2 - 1} prod_{d<i<=n} (1 - t^{2i}) R_A, with
    # R_A = prod_{(a, m)} N_{a,m} / D_{a,m} over the part sizes a of A with
    # multiplicity m, read off the partitions of m and h_a alone
    d = A.liberty(n)
    numerator = q_pochhammer(n, d).to_graded().times_power(A.length + d * d - 1)
    exponents = []
    for a, m in A.multiplicities():
        denominator = GradedDims.one()
        for k in range(1, m + 1):
            denominator = denominator * q_pochhammer(a).substitute_power(k).to_graded()
        pairs = []
        for lam in partitions(m):
            term = divide_out(denominator, [2 * c * j for c in lam for j in range(1, a + 1)])
            for c in lam:
                term = term * h_poly(a).substitute_power(c)
            pairs.append((factorial(m) // centralizer_order(lam), term))
        numerator = numerator * integer_combination(pairs, factorial(m))
        exponents += [2 * k * j for k in range(1, m + 1) for j in range(1, a + 1)]
    return divide_out(numerator, exponents)


def test_blocks_factor_through_an_n_independent_series():
    checked = 0
    for n in range(2, 13):
        for A, poly in spectral_table(n).blocks:
            if A != MultiIndex((n,)):
                assert poly == _n_independent_block(A, n), (A, n)
                checked += 1
    assert checked == 248


def test_a_wrong_total_fails_only_table_total(monkeypatch, fresh_tables):
    real_total = resolution.total_discriminant_poincare

    def lowered(n):
        # one rank short in degree 3 at n = 4, where only the block (2,2) lives
        return real_total(n) - GradedDims.term(3) if n == 4 else real_total(n)

    monkeypatch.setattr(resolution, "total_discriminant_poincare", lowered)
    # no block reads the total, so the table builds and one check sees it
    table = spectral_table(4)
    (failure,) = verify(4).failures()
    assert failure == CheckResult(
        "table-total", "n=4", False, f"sum {table.total()} != total {lowered(4)}"
    )
    assert all(c.passed for c in verify(4, ("h-poly",)).checks)


def _change_block_22(monkeypatch, change):
    # the block (2,2) at n = 4, t^3 + t^7 + t^11, is changed, and the total
    # is read off the table, so the sum and the total agree whatever the change
    real_block = resolution.block_poincare

    def changed(A, n):
        block = real_block(A, n)
        return change(block) if (A, n) == (MultiIndex((2, 2)), 4) else block

    monkeypatch.setattr(resolution, "block_poincare", changed)
    monkeypatch.setattr(resolution, "total_discriminant_poincare", lambda n: spectral_table(n).total())


def test_a_block_of_the_wrong_parity_fails_only_block_parity(monkeypatch, fresh_tables):
    _change_block_22(monkeypatch, lambda block: block.times_power(1))
    (failure,) = verify(4).failures()
    assert failure == CheckResult("block-parity", "A=(2,2), n=4", False, "offending degrees [4, 8, 12]")


def test_a_wrong_rank_that_both_sides_share_fails_only_table_total(monkeypatch, fresh_tables):
    # one rank too many in degree 3: the parity holds and the sum equals the
    # total, so only the rank n! - 1 sees it
    _change_block_22(monkeypatch, lambda block: block + GradedDims.term(3))
    (failure,) = verify(4).failures()
    assert failure == CheckResult("table-total", "n=4", False, "table rank 24 != n! - 1 = 23")


def test_sides_that_differ_fail_only_miller(monkeypatch):
    real_check = resolution.miller_check

    def raised(n):
        report = real_check(n)
        return report._replace(rhs=report.rhs + GradedDims.term(2))

    monkeypatch.setattr(resolution, "miller_check", raised)
    (failure,) = verify(4).failures()
    report = raised(4)
    assert failure == CheckResult("miller", "n=4", False, f"{report.lhs} != {report.rhs}")


def test_a_negative_multinomial_raises(monkeypatch, fresh_tables):
    # divide_out negates the quotient of one key, that of [4; 2, 2]_q; the
    # multinomial checks its sign, and the other keys stay as they were
    real_divide_out = qcombinat.divide_out

    def negated(poly, exponents):
        exponents = list(exponents)
        quotient = real_divide_out(poly, exponents)
        return -quotient if exponents == [1, 2] else quotient

    monkeypatch.setattr(qcombinat, "divide_out", negated)
    with pytest.raises(ConsistencyError, match=r"negative coefficient in \[4; \(2,\)\]_q"):
        gauss_multinomial(4, (2,))
    assert gauss_multinomial(4, (1,)) == QPoly({0: 1, 1: 1, 2: 1, 3: 1})


def _block_rank_mismatches(n):
    # the coefficients of block A sum to the number of permutations in S_n of
    # cycle type A + 1^d, n! / (z_A d!) with z_A = prod a^{m_a} m_a!; only
    # the t = 1 shadow of the table, blind to degree shifts and sign rules
    out = []
    for A, poly in spectral_table(n).blocks:
        z = 1
        for a, m in A.multiplicities():
            z *= a**m * factorial(m)
        if poly(1) != factorial(n) // (z * factorial(A.liberty(n))):
            out.append((A, poly(1)))
    return out


def test_block_ranks_count_permutations_of_their_cycle_type():
    for n in range(2, 21):
        assert _block_rank_mismatches(n) == [], n
        assert sum(poly(1) for _, poly in spectral_table(n).blocks) == factorial(n) - 1


def _maj_blocks(n):
    # engine-free: enumerate S_n once; the block of A is
    # t^(d^2 - 1 + sum of the parts >= 3) times sum of t^(2 maj(sigma)) over
    # the sigma of cycle type A + 1^d, maj summing the descent positions from 1
    terms = {}
    for sigma in itertools.permutations(range(n)):
        seen, parts = set(), []
        for start in range(n):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i, length = sigma[i], length + 1
            if length >= 2:
                parts.append(length)
        if parts:
            A = MultiIndex(tuple(sorted(parts, reverse=True)))
            maj = sum(i for i in range(1, n) if sigma[i - 1] > sigma[i])
            exponent = (n - A.size) ** 2 - 1 + sum(a for a in parts if a >= 3) + 2 * maj
            block = terms.setdefault(A, {})
            block[exponent] = block.get(exponent, 0) + 1
    return {A: GradedDims(block) for A, block in terms.items()}


def test_every_block_counts_its_conjugacy_class_by_major_index():
    blocks = 0
    for n in range(2, 9):
        assert dict(spectral_table(n).blocks) == _maj_blocks(n), n
        blocks += len(spectral_table(n).blocks)
    assert blocks == 58


def test_block_ranks_and_table_total_see_a_short_total(monkeypatch, fresh_tables):
    real = resolution.total_discriminant_poincare

    def lowered(n):
        # one rank short in degree 13 at n = 4, where the top block (4) is
        # positive; the top block no longer absorbs the error
        return real(n) - GradedDims.term(13) if n == 4 else real(n)

    monkeypatch.setattr(resolution, "total_discriminant_poincare", lowered)
    # the blocks still add up to the true total, so only that check sees it
    assert verify(4).failures() == (
        CheckResult("table-total", "n=4", False, f"sum {real(4)} != total {lowered(4)}"),
    )
    assert _block_rank_mismatches(4) == []


def test_table_total_sees_a_wrong_lift(monkeypatch, fresh_tables):
    # a lift one degree of q too high moves every block; the closed-form top
    # block does not absorb it, so only the total fails
    real_gauss = resolution.gauss_multinomial
    monkeypatch.setattr(resolution, "gauss_multinomial", lambda n, parts: real_gauss(n, parts).times_power(1))
    for n in range(4, 9):
        failures = verify(n, ("table-total", "h-poly")).failures()
        assert [(c.name, c.location) for c in failures] == [("table-total", f"n={n}")], n
        assert failures[0].detail.startswith("sum ") and " != total " in failures[0].detail


def test_the_block_shift_reads_only_the_size_and_n(monkeypatch, fresh_tables):
    # the one t-shift t^{|A| - 1 + d^2} reads |A| and n alone, so a
    # Euclidean factor #A off by one, which a shift written per part would
    # read, leaves every block unchanged
    blocks, top = spectral_table(8).blocks, h_poly(8)
    for memo in _ENGINE_MEMOS:
        memo.cache_clear()
    monkeypatch.setattr(MultiIndex, "length", property(lambda self: len(self.parts) + 1))
    assert spectral_table(8).blocks == blocks
    assert h_poly(8) == top


def test_a_negative_class_average_raises(monkeypatch, fresh_tables):
    # a negated cycle-type average (an S_m class average, the one both routes
    # share) makes the own-size block and the quotient homology raise:
    # neither may return a negative rank.  Only the factor (2, 2) reads is
    # negated: the recursion reads the lower multiplicities by the same name
    real_average = flagchar._cycle_average

    def negated(a, m, factor, chi):
        average = real_average(a, m, factor, chi)
        return -average if (a, m) == (2, 2) else average

    monkeypatch.setattr(flagchar, "_cycle_average", negated)
    with pytest.raises(ConsistencyError, match=r"negative rank in the trivial S\(\(2,2\)\) average at n=4"):
        block_poincare(MultiIndex((2, 2)), 4)
    for chi in ("trivial", "sign"):
        with pytest.raises(ConsistencyError, match=rf"negative rank in the {chi} S\(\(2,2\)\) average at n=4"):
            gamma_poincare(MultiIndex((2, 2)), 4, chi)


def test_a_lift_cannot_hide_a_negative_rank(monkeypatch, fresh_tables):
    # 1 - q + q^2 for the average of (2) at n = 2: the lift [3; 2]_q = 1 + q
    # + q^2 makes the product 1 + q^2 + q^4, so only a check before the
    # lift sees the negative rank
    monkeypatch.setattr(flagchar, "_cycle_average", lambda a, m, factor, chi: QPoly({0: 1, 1: -1, 2: 1}))
    assert QPoly({0: 1, 1: -1, 2: 1}) * gauss_multinomial(3, (2,)) == QPoly({0: 1, 2: 1, 4: 1})
    with pytest.raises(ConsistencyError, match=r"negative rank in the trivial S\(\(2\)\) average at n=2"):
        gamma_poincare(MultiIndex((2,)), 3)


# --------------------------------------------------------------------------
# the walk of a column by degree, and the CLI's one column at a time
# --------------------------------------------------------------------------


def _by_degree_oracle(pairs):
    # the walk by dict and sort: (i, [(key, c), ...]) for ascending i, one
    # entry per nonzero term, each listing its keys in the order of pairs
    gathered = {}
    for key, poly in pairs:
        for i, c in poly.items():
            gathered.setdefault(i, []).append((key, c))
    return sorted(gathered.items())


def _oracle_ranks(polys):
    # the oracle keyed by position, with the zeros of by_degree's ranks put back
    return [
        (i, tuple(dict(entries).get(j, 0) for j in range(len(polys))))
        for i, entries in _by_degree_oracle(enumerate(polys))
    ]


def test_the_walk_is_the_dict_and_sort_walk_on_every_table(capsys):
    # every column of every table for n = 2..16, and the cells of the CLI's
    # table document, which writes each cell from that walk
    for n in range(2, 17):
        expected = []
        for p in SpectralTable(n).complexities():
            column = resolution.spectral_column(n, p)
            polys = [poly for _, poly in column]
            assert list(by_degree(polys)) == _oracle_ranks(polys), (n, p)
            labelled = sorted((",".join(map(str, A.parts)), poly) for A, poly in column)
            for i, entries in _by_degree_oracle(labelled):
                expected.append({"blocks": dict(entries), "p": p, "q": i, "rank": sum(c for _, c in entries)})
        assert cli.main(["table", "--n", str(n), "--max-n", "16", "--total-degree", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["cells"] == expected, n


_walk_polys = st.lists(
    st.dictionaries(st.integers(-8, 8), st.integers(-3, 3), max_size=6).map(GradedDims), max_size=5
)


@settings(max_examples=300)
@given(_walk_polys)
@example([])
@example([GradedDims()])
@example([GradedDims({-3: 2, 3: -1})])
@example([GradedDims({-2: 1}), GradedDims(), GradedDims({2: -1})])
@example([GradedDims({0: 1, 4: 1}), GradedDims({1: -2})])
def test_the_walk_is_the_dict_and_sort_walk_on_hand_built_columns(polys):
    # Laurent lows, gaps inside the span, negative coefficients, zero
    # polynomials, a single block, and all-zero degrees between nonzero ones
    assert list(by_degree(polys)) == _oracle_ranks(polys)


def test_a_cold_cli_table_keeps_no_column(fresh_tables, capsys):
    # the CLI builds, writes and drops one column at a time, outside the
    # column memo, in every view and format
    for argv in (("--format", "json"), ("--view", "cohom", "--format", "csv"), ("--total-degree", "--format", "md")):
        assert cli.main(["table", "--n", "12", "--max-n", "12", *argv]) == 0
        assert resolution.spectral_column.cache_info().currsize == 0, argv
    capsys.readouterr()


def test_a_failing_top_block_writes_no_partial_table(monkeypatch, fresh_tables, capsys):
    # the top block (8) is the last column of the homological walk and the
    # first of the cohomological one; its Lie character gets a negated
    # (q;q)_8 and fails its sign check while the document is rendered,
    # before any of it reaches stdout
    real_pochhammer = resolution.q_pochhammer

    def negated(n, d=0):
        return -real_pochhammer(n, d) if (n, d) == (8, 0) else real_pochhammer(n, d)

    monkeypatch.setattr(resolution, "q_pochhammer", negated)
    for view in ("hom", "cohom"):
        assert cli.main(["table", "--n", "8", "--view", view, "--format", "json"]) == 2
        assert capsys.readouterr() == ("", "consistency failure: negative rank in h-polynomial for a=8\n")


# --------------------------------------------------------------------------
# the alternative sign rule is falsified by the known values
# --------------------------------------------------------------------------


def _koszul_fiber_char(A, n, cls):
    # the fiber trace with the Koszul-signed reordering: a c-cycle acting on
    # the c-th tensor power of the single-part series gives a basis element
    # of degree d the sign (-1)^{d (c - 1)} on top of the transposition sign
    delta = A.liberty(n)
    out = GradedDims.term(A.length + delta * delta - 1)
    for c, a in cls.cycles:
        series = h_poly(a)
        out = out * GradedDims(
            {e * c: (coeff if e * (c - 1) % 2 == 0 else -coeff) for e, coeff in series.items()}
        )
    return out


def test_koszul_rule_changes_the_answers():
    # with the Koszul sign the class-average oracle gives another block (2,2)
    # in C^4, so the blocks no longer add up to the total: what the total
    # leaves for the top block is not h_4, and its link is not the known one
    A = MultiIndex((2, 2))
    alternative = _class_averaged_block(A, 4, _koszul_fiber_char)
    assert alternative == GradedDims({5: 1, 7: 1, 9: 1})
    assert alternative != block_poincare(A, 4)
    lower = [(-1, _class_averaged_block(B, 4, _koszul_fiber_char)) for B in multiindices(4, 2)]
    top = integer_combination([(1, total_discriminant_poincare(4)), *lower], 1)
    assert top != h_poly(4)
    assert top.times_power(-2) != GradedDims(LINK_POLYNOMIALS[4])
