import hashlib
import itertools
import json
import re
import tracemalloc
from collections import Counter
from math import prod

import pytest

from conres import flagchar, resolution, stab
from conres.cli import main
from conres.qcombinat import (
    ConsistencyError,
    GradedDims,
    MultiIndex,
    QPoly,
    divide_out_series,
    gauss_multinomial,
    multiindices,
    q_pochhammer,
)
from conres.resolution import _column_indices, _lie_character, spectral_table
from conres.stab import (
    MAX_CELL_BOUND,
    MAX_WITNESS_COST,
    MAX_WITNESS_SPAN,
    StabReport,
    StableCell,
    check_degree,
    check_stable_cell,
    cohomological_rank,
    e1_stable_bound,
    stab_index,
    stable_cell,
    stable_series,
    stable_table,
    three_point_ranks,
)


def test_stab_index_examples():
    assert stab_index(MultiIndex((2,)), 0).stab_n == 2
    assert stab_index(MultiIndex((2,)), 2).stab_n == 3
    # frozen from the coefficient scan: low coefficients of [m; 2, 2] are
    # (1,1,2) at m=4, (1,2,4) at m=5, (1,2,5) from m=6 on
    assert stab_index(MultiIndex((2, 2)), 4).stab_n == 6


def test_stab_index_witness():
    report = stab_index(MultiIndex((2,)), 2)
    assert report.witness == QPoly({0: 1, 1: 1})
    m = report.stab_n
    for extra in (0, 1, 2, 5):
        poly = gauss_multinomial(m + extra, (2,))
        assert all(poly.coefficient(j) == report.witness.coefficient(j) for j in (0, 1))


def test_stab_index_at_degree_600():
    # the witness is the series 1 / ((1 - q)(1 - q^2)) up to q^300, whose
    # coefficients count partitions of j into parts 1 and 2
    report = stab_index(MultiIndex((2,)), 600)
    assert report.stab_n == 302
    assert report.witness == QPoly({j: j // 2 + 1 for j in range(301)})


def test_stab_index_is_pinned():
    # SHA-256 of the reports for every shape with |A| <= 14 and degree -3..30,
    # generated with the scan over m = |A|, |A| + 1, ... that the closed form
    # replaced
    reports = [stab_index(A, d) for A in multiindices(14, 13) for d in range(-3, 31)]
    assert all(r.stab_n == r.A.size + max(r.degree, 0) // 2 for r in reports)
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == "c2bd617a85132003519896cdabebc36a839ff2078ed5ebb582eb73b1b623563a"


@pytest.fixture
def fresh_stab_index():
    stab_index.cache_clear()
    yield
    stab_index.cache_clear()


def _low(poly, q_cut):
    return [poly.coefficient(j) for j in range(q_cut + 1)]


def test_witness_is_the_low_gauss_multinomial_coefficients():
    # the closed form against whole Gaussian multinomials [m; A, m - |A|]_q:
    # up to q^q_cut they equal the witness at stab_n, stab_n + 1, stab_n + 2,
    # and at stab_n - 1 the top one is one lower
    requests = [(A, degree) for A in multiindices(10, 9) for degree in range(31)]
    requests += [(MultiIndex((2,) * 10), 200), (MultiIndex((5, 4, 3)), 60)]
    for A, degree in requests:
        report = stab_index(A, degree)
        q_cut = degree // 2
        witness = _low(report.witness, q_cut)
        for k in (0, 1, 2):
            assert _low(gauss_multinomial(report.stab_n + k, A.parts), q_cut) == witness, (A, degree, k)
        if q_cut:
            early = _low(gauss_multinomial(report.stab_n - 1, A.parts), q_cut)
            assert early == witness[:-1] + [witness[-1] - 1], (A, degree)


def test_stab_index_builds_no_flag_polynomial(fresh_stab_index):
    # no q-Pochhammer product, so no Gaussian multinomial, which starts from
    # one: shapes with hundreds of factors read witness 1 in degree 0, and a
    # part past the cut lists no factor beyond it
    before = q_pochhammer.cache_info()
    for parts in [(200,), (100, 100, 100), (358,), (2,) * 45, (10**9,)]:
        A = MultiIndex(parts)
        assert stab_index(A, 0) == StabReport(A, 0, A.size, QPoly.one())
    assert stab_index(MultiIndex((10**9,)), 6).witness == QPoly({0: 1, 1: 1, 2: 2, 3: 3})
    assert stab_index(MultiIndex((2,) * 10), 6400).stab_n == 3220
    assert q_pochhammer.cache_info() == before


def test_stab_index_clamps_negative_degrees():
    for parts in [(2,), (3, 2), (2, 2)]:
        A = MultiIndex(parts)
        assert stab_index(A, -4).stab_n == A.size


def test_stab_index_monotone_in_degree():
    for parts in [(2,), (3,), (2, 2)]:
        A = MultiIndex(parts)
        values = [stab_index(A, i).stab_n for i in range(0, 12)]
        assert values == sorted(values)


def test_e1_stable_bound_is_the_max_over_shapes():
    # the closed form against the shape route: every index of complexity -p,
    # read by stab_index in degree p + q - 2 #A
    cells = 0
    for k in range(1, 9):
        shapes = [A for A in multiindices(2 * k, k) if A.complexity == k]
        for q in range(k, 31):
            route = max(stab_index(A, q - k - 2 * A.length).stab_n for A in shapes)
            assert e1_stable_bound(-k, q) == route, (-k, q)
            cells += 1
    assert cells == 212


def test_stable_table_reads_no_stab_index(fresh_stab_index):
    stable_table(-6, 14)
    info = stab_index.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_check_degree_caps_the_witness_span():
    # (2) in degree d needs d // 2 + 1 coefficients
    assert stab_index(MultiIndex((2,)), 131071).witness.coefficient(65535) == 32768
    with pytest.raises(ValueError, match=f"needs 65537 coefficients, more than {MAX_WITNESS_SPAN}"):
        check_degree(MultiIndex((2,)), 131072)


def test_check_degree_caps_the_running_sums():
    # one part a >= q_cut divides q_cut factors out of q_cut + 1 coefficients,
    # so (1024) passes MAX_WITNESS_COST between degrees 1023 and 1024
    check_degree(MultiIndex((1024,)), 1023)
    with pytest.raises(ValueError, match=rf"needs 512 x 513 sums, more than {MAX_WITNESS_COST}"):
        check_degree(MultiIndex((1024,)), 1024)
    # the costliest requests the two caps accept lie on both edges at once
    for parts in [(2, 2), (4,)]:
        check_degree(MultiIndex(parts), 131071)
    with pytest.raises(ValueError, match=rf"needs 5 x 65536 sums, more than {MAX_WITNESS_COST}"):
        check_degree(MultiIndex((5,)), 131071)


#: The last degree in which each shape is read: one degree on, its factors
#: min(a, q_cut) summed over the parts, times q_cut + 1, pass MAX_WITNESS_COST.
LAST_DEGREE = {(200,): 2619, (100, 100, 100): 1745, (358,): 1463, (2,) * 45: 5823}


@pytest.mark.parametrize("parts", list(LAST_DEGREE))
def test_many_factors_are_refused_before_anything_is_built(monkeypatch, parts):
    A, last = MultiIndex(parts), LAST_DEGREE[parts]
    assert stab_index(A, last).stab_n == A.size + last // 2

    def no_build(*args):
        raise AssertionError("built a series")

    monkeypatch.setattr(stab, "divide_out_series", no_build)
    with pytest.raises(ValueError, match=rf"needs \d+ x {last // 2 + 2} sums, more than {MAX_WITNESS_COST}"):
        check_degree(A, last + 1)
    with pytest.raises(ValueError, match="more than"):
        stab_index.__wrapped__(A, last + 1)


@pytest.mark.parametrize("p, q", [(-30, 60), (-1, 1000), (-12, 24), (-1, 45)])
def test_a_cell_past_the_ceiling_builds_no_table(monkeypatch, p, q):
    def no_table(n, p, q):
        raise AssertionError(f"built a table for n = {n}")

    def no_series(c_max, q_max):
        raise AssertionError(f"built the stable series up to x^{c_max} T^{q_max}")

    monkeypatch.setattr(stab, "cohomological_rank", no_table)
    monkeypatch.setattr(stab, "stable_series", no_series)
    assert e1_stable_bound(p, q) > MAX_CELL_BOUND
    for read in (lambda: check_stable_cell(p, q), lambda: stable_cell(p, q), lambda: three_point_ranks(p, q)):
        with pytest.raises(ValueError, match=rf"cell \({p}, {q}\) is stable from n = \d+, more than {MAX_CELL_BOUND}"):
            read()


def test_a_table_past_the_ceiling_names_its_first_refused_cell(monkeypatch):
    # every cell is checked in (p, q) order before the one series is built
    monkeypatch.setattr(stab, "stable_series", lambda c_max, q_max: pytest.fail("built the stable series"))
    with pytest.raises(ValueError, match=re.escape("cell (-12, 12) is stable from n = 24, more than 22")):
        stable_table(-12, 24)
    with pytest.raises(ValueError, match=re.escape("cell (-2, 44) is stable from n = 23, more than 22")):
        stable_table(-2, 44)


def test_the_ceiling_admits_the_largest_bound():
    assert e1_stable_bound(-11, 33) == e1_stable_bound(-1, 44) == MAX_CELL_BOUND
    check_stable_cell(-11, 33)
    check_stable_cell(-1, 44)


def test_e1_stable_bound_values():
    # complexity 1 leaves only the shape (2); the degree argument is
    # p + q - 2 * (number of parts)
    assert e1_stable_bound(-1, 3) == stab_index(MultiIndex((2,)), 0).stab_n == 2
    assert e1_stable_bound(-1, 5) == stab_index(MultiIndex((2,)), 2).stab_n == 3
    assert e1_stable_bound(-2, 6) == max(
        stab_index(MultiIndex((3,)), 2).stab_n,
        stab_index(MultiIndex((2, 2)), 0).stab_n,
    )


def test_e1_stable_bound_unit_column_and_errors():
    assert e1_stable_bound(0, 0) == 2
    assert e1_stable_bound(0, 4) == 2
    with pytest.raises(ValueError):
        e1_stable_bound(1, 0)
    with pytest.raises(ValueError):
        e1_stable_bound(-2, 1)


def test_cohomological_rank_unit_column():
    for n in (2, 3, 4):
        assert cohomological_rank(n, 0, 0) == 1
        assert cohomological_rank(n, 0, 2) == 0
    with pytest.raises(ValueError):
        cohomological_rank(3, 1, 0)
    # there is no table for n = 1, even where no column would be read
    for p, q in ((0, 0), (-1, 3)):
        with pytest.raises(ValueError):
            cohomological_rank(1, p, q)


def test_cohomological_rank_degree_two_line():
    # the line p + q = 2 carries one rank per column 1 <= -p <= n - 1
    for n in (3, 4, 5):
        for p in range(-(n - 1), 0):
            assert cohomological_rank(n, p, 2 - p) == 1
        assert cohomological_rank(n, -n, 2 + n) == 0


def test_stable_table_examples():
    cells = {(c.p, c.q): c for c in stable_table(-2, 6)}
    assert cells[(0, 0)].rank == 1
    assert cells[(-1, 3)].rank == 1
    assert cells[(-1, 5)].rank == 1  # the degree-4 class of order one
    assert cells[(-1, 3)].bound_n == 2
    # odd lines are empty
    assert cells[(-1, 4)].rank == 0


def test_stable_table_is_pinned():
    # SHA-256 of repr(stable_table(-5, 12)), generated with flag quotients by
    # multiplied-out denominators and exact_div, independently of divide_out
    digest = hashlib.sha256(repr(stable_table(-5, 12)).encode()).hexdigest()
    assert digest == "3ec0d55cec9932bba5585e08ff7ce5e34a435996a896e4899cc3742f244d58b7"


def test_the_ceiling_table_is_pinned():
    # SHA-256 of repr(stable_table(-11, 30)), 306 cells, 275 of them with
    # p < 0, generated with every cell read off a whole spectral table
    cells = stable_table(-11, 30)
    assert (len(cells), sum(c.p < 0 for c in cells)) == (306, 275)
    digest = hashlib.sha256(repr(cells).encode()).hexdigest()
    assert digest == "cca8de19070900b318253a39ca8f7fdea48c9069e3b085bc3709d2528069e99e"


def test_stable_cell_is_the_table_entry():
    cells = {(c.p, c.q): c for c in stable_table(-3, 7)}
    for (p, q), cell in cells.items():
        assert stable_cell(p, q) == cell
    assert stable_cell(0, 0) == StableCell(0, 0, 2, 1)


def test_an_unstable_cell_raises(monkeypatch):
    # ranks that keep changing with n fail the three-point oracle; the series
    # reads no table
    monkeypatch.setattr(stab, "cohomological_rank", lambda n, p, q: n)
    message = r"cell \(-1, 3\) not stable at its bound 2: ranks \[2, 3, 4\]"
    with pytest.raises(ConsistencyError, match=message):
        three_point_ranks(-1, 3)
    assert stable_cell(-1, 3) == StableCell(-1, 3, 2, 1)


def test_the_series_is_the_three_point_rule():
    cells = [c for c in stable_table(-11, 30) if c.p < 0]
    assert len(cells) == 275
    for c in cells:
        assert three_point_ranks(c.p, c.q) == [c.rank] * 3, (c.p, c.q)


def _permutation_counts(L):
    """(c, Q) -> the number of sigma in S_L with L - cyc(sigma) = c, whose
    descents are as many as the s points it moves, and with
    Q = 2 (s L - maj(sigma)) - s^2 - (sum of its cycle lengths >= 3) + c.

    By Gessel and Reutenauer (JCTA 64, 1993), the block of A in the table for
    n is t^{d^2 - 1 + sum_{a in A, a >= 3} a} times the sum of t^{2 maj} over
    the sigma in S_n of cycle type A with d fixed points.  Put sigma in S_L in
    the last L positions of S_n: its cohomological cell (-c, Q) moves with n
    unless des(sigma) = s, and then Q is the one above.  So these counts are
    the stable ranks wherever L is large enough, with no engine code."""
    counts = Counter()
    for perm in itertools.permutations(range(L)):
        moved = sum(i != image for i, image in enumerate(perm))
        descents = [i for i in range(1, L) if perm[i - 1] > perm[i]]
        if len(descents) != moved:
            continue
        lengths = []
        seen = set()
        for start in range(L):
            length, j = 0, start
            while j not in seen:
                seen.add(j)
                j, length = perm[j], length + 1
            if length:
                lengths.append(length)
        c = L - len(lengths)
        counts[c, 2 * (moved * L - sum(descents)) - moved * moved - sum(n for n in lengths if n >= 3) + c] += 1
    return counts


def test_the_series_counts_permutations():
    # S_8 reaches every cell of stable_table(-4, 9) with p < 0; it misses (-4, 10)
    counts = _permutation_counts(8)
    cells = [c for c in stable_table(-4, 10) if c.p < 0]
    assert len(cells) == 34
    assert [c for c in cells if counts[-c.p, c.q] != c.rank] == [StableCell(-4, 10, 8, 13)]


def _shifted_lie_character(a):
    """H_a = q^{(a - 1 - par(a))/2} L_a, par(a) = (a + 1) mod 2: the q-part of
    the top block (a) = t^{par(a)} H_a(t^2), this oracle's per-part factor
    (H_2 = L_2 = 1)."""
    return _lie_character(a).times_power((a - 1 - (a + 1) % 2) // 2)


def _stable_factors(A):
    """(sigma_A, N_A, E_A), the factors of the block of ``A`` that do not
    depend on n, in the per-part bookkeeping that the engine does not use:
    with d = n - |A| and q = t^2,

        block(A, n) = t^{sigma_A + d^2} prod_{d < i <= n} (1 - q^i) N_A(q) / prod_{e in E_A} (1 - q^e),

    where sigma_A = #A - 1 + sum_a par(a) m_a, N_A = prod_{(a, m)} N_{a,m}
    (``flagchar._cycle_average`` with the factor H_a of
    :func:`_shifted_lie_character`) and E_A lists 1..am for each (a, m), so
    that the q-multinomial [|A|; a m, ...]_q of the own-size block and the
    lift's [n; |A|]_q leave prod_{d < i <= n} (1 - q^i) over it."""
    numerators = (flagchar._cycle_average(a, m, _shifted_lie_character, "trivial") for a, m in A.multiplicities())
    exponents = [j for a, m in A.multiplicities() for j in range(1, a * m + 1)]
    sigma = A.length - 1 + sum((a + 1) % 2 * m for a, m in A.multiplicities())
    return sigma, prod(numerators, start=QPoly.one()), exponents


def stable_column(p, q_max):
    """The third route to the stable cells, index by index: (stable rank,
    proved bound) of the cell (p, Q) for Q = -p .. q_max.  With c = -p and
    y = 1/q, the rank is the sum over the indices A of complexity c, of size
    s = c + 1 .. 2c, of

        [y^{j_A}] rev(N_A)(y) / prod_{e in E_A} (1 - y^e),
        j_A = (s + Q + 1 - c + sigma_A) / 2 + deg N_A - sum E_A,

    where an A with an odd numerator or j_A < 0 adds nothing.  The cell is
    the coefficient of t^{n^2 - Q - 1 + c} in column c of the table for n,
    j_A powers of q below the top of the block of A.  Read from the top, the
    signs of the s factors 1 - q^i and the s factors 1 / (1 - q^e) cancel,
    and prod_{d < i <= n} (1 - y^i) is 1 up to y^d, so the block's
    coefficient is the series' once j_A <= d = n - s: the cell is exact from
    n = max(2, s + j_A) over the A that add a term, its proved bound.  It
    shares ``_lie_character`` with :func:`stable_series`, and the class averages
    ``flagchar._cycle_average`` with the blocks."""
    c = -p
    qs = range(c, q_max + 1)
    ranks = [int(q == 0) for q in qs]  # column 0 holds only the unit class
    bounds = [2] * len(qs)
    for A in _column_indices(c, 2 * c):
        sigma, numerator, exponents = _stable_factors(A)
        top = numerator.degree()
        base, shift = A.size + 1 - c + sigma, top - sum(exponents)  # j_A = (base + Q) / 2 + shift
        reads = [(k, (base + q) // 2 + shift) for k, q in enumerate(qs) if (base + q) % 2 == 0]
        reads = [(k, j) for k, j in reads if j >= 0]
        if not reads:
            continue
        reversed_numerator = QPoly({top - e: v for e, v in numerator.items()})
        series = divide_out_series(reversed_numerator, exponents, max(j for _, j in reads))
        for k, j in reads:
            ranks[k] += series.coefficient(j)
            bounds[k] = max(bounds[k], A.size + j)
    return tuple(zip(ranks, bounds))


def test_the_product_is_the_sum_over_indices():
    # the whole table against the per-index column series, past the ceiling
    # too: all columns up to c = 14 and Q = 40
    columns = stable_series(14, 40)
    for c in range(15):
        assert [rank for rank, _ in stable_column(-c, 40)] == [columns[c].coefficient(Q) for Q in range(c, 41)], c
        assert not any(columns[c].coefficient(Q) for Q in range(c)), c
    for c_max, q_max in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError, match="c_max and q_max must be at least 0"):
            stable_series(c_max, q_max)


@pytest.mark.parametrize(
    "c_max, q_max, digest",
    [
        (12, 640, "ce63d3700623d1445dee3bbb75b7bbd95f22b8927a668fa7f55781b045548c71"),
        (20, 60, "40265bc23966bc9c416184cecce5d6d857ff43819096a8cb194fc80a3a8a0b98"),
    ],
)
def test_the_long_series_is_pinned(c_max, q_max, digest):
    # SHA-256 of every coefficient up to T^q_max, generated when the columns
    # were integer rows built by list sums; at (12, 640) the coefficients
    # reach 87 bits, so the products split their 64-bit slots
    columns = stable_series(c_max, q_max)
    rows = tuple(tuple(F.coefficient(Q) for Q in range(q_max + 1)) for F in columns)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_each_column_times_its_denominator_is_a_polynomial():
    # column -c is N_c(T) / (T^2; T^2)_{2c}: cut at T^292, past every deg N_c
    # for c <= 8, the product ends at 4c^2 + c - 4 (3 and 12 for c = 1, 2),
    # starts at T^{c + 2} and sums to (2c - 1)!!
    columns = stable_series(8, 292)
    for c in range(1, 9):
        numerator = divide_out_series(columns[c] * q_pochhammer(2 * c).to_graded(), (), 292)
        assert numerator.degree() == {1: 3, 2: 12}.get(c, 4 * c * c + c - 4), c
        assert numerator.min_degree() == c + 2, c
        assert numerator(1) == prod(range(1, 2 * c, 2)), c


def test_column_zero_has_a_fixed_cost():
    # column 0 is the unit class alone, however high the degree read
    stable_cell(0, 10)
    tracemalloc.start()
    try:
        cell = stable_cell(0, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cell == StableCell(0, 10**6, 2, 0)
    assert peak < 64 * 1024


def test_column_minus_one_counts_partitions_into_ones_and_twos():
    # the index (2) alone: 1 / ((1 - y)(1 - y^2)), one coefficient per odd Q
    expected = [(q - 3) // 4 + 1 if q % 2 and q >= 3 else 0 for q in range(1, 45)]
    assert [rank for rank, _ in stable_column(-1, 44)] == expected
    assert [stable_series(1, 44)[1].coefficient(Q) for Q in range(1, 45)] == expected


def test_the_first_ranks_of_columns_two_and_three():
    columns = stable_series(3, 17)
    for p, start in ((-2, [1, 3, 4, 8, 11, 17]), (-3, [1, 3, 9, 16, 31, 50])):
        column = [columns[-p].coefficient(Q) for Q in range(-p, 15 - p)]
        assert [rank for rank in column if rank][:6] == start
        # the odd rows of the column are empty
        assert not any(rank for q, rank in zip(range(-p, 15 - p), column) if (q + p) % 2)


def test_the_proved_bound_is_at_most_the_e1_bound():
    bounds = [
        (bound, e1_stable_bound(p, q))
        for p in range(-11, 0)
        for q, (_, bound) in zip(range(-p, 31), stable_column(p, 30))
    ]
    assert len(bounds) == 275
    assert all(proved <= e1 for proved, e1 in bounds)
    assert sum(proved < e1 for proved, e1 in bounds) == 197


def test_the_stable_table_builds_no_table():
    def infos():
        memos = (resolution.spectral_column, flagchar._own_size_average, flagchar._peeled_factor, flagchar._cycle_average)
        return [memo.cache_info() for memo in memos]

    before = infos()
    stable_table(-6, 14)
    assert infos() == before


def test_a_plethysm_read_without_its_dilation_leaves_a_remainder(monkeypatch):
    # p_k[Y] read as Y(T) instead of Y(T^k): 2 F_2 = Y_2^2 + 2 Y_3 + Y_2 is
    # odd at T^3, where Y_2 starts
    monkeypatch.setattr(GradedDims, "substitute_power", lambda series, k: series)
    with pytest.raises(ConsistencyError, match=r"non-integral rank 1/2 at exponent 3"):
        stable_table(-3, 9)


def test_the_series_checks_its_ranks(monkeypatch):
    lie_series = stab._lie_series
    # -Y_2: Exp[-x Y_2] is integral, and its first coefficient is -1
    monkeypatch.setattr(stab, "_lie_series", lambda a, cut: -lie_series(a, cut))
    with pytest.raises(ConsistencyError, match=r"negative stable rank -1 in cell \(-1, 3\)"):
        stable_table(-1, 5)


def test_the_series_checks_its_wedge(monkeypatch):
    lie_series = stab._lie_series

    def with_constant(a, cut):
        series = lie_series(a, cut)
        return series + GradedDims.one() if a == 2 else series

    # Y_2 + 1 puts a rank at (-1, 0), where p + q < 0: outside the wedge, so
    # below column -1's start too
    monkeypatch.setattr(stab, "_lie_series", with_constant)
    with pytest.raises(ConsistencyError, match=r"stable rank 1 in cell \(-1, 0\), below its column's start at 3"):
        stable_table(-2, 6)


def test_each_lie_series_starts_at_a_plus_one():
    # Y_a starts at T^{a + 1}: T^{a^2 - 1} L_a(T^{-2}) with deg L_a = (a + 1)(a - 2)/2
    for a in range(2, 13):
        assert stab._lie_series(a, 200).min_degree() == a + 1, a


def test_the_series_checks_the_first_degree_of_each_column(monkeypatch):
    lie_series = stab._lie_series

    def lowered(a, cut):
        series = lie_series(a, cut)
        return series.times_power(-1) if a == 2 else series

    # Y_2 read one degree low puts a rank at (-1, 2): inside the wedge, but
    # column -1 starts at Q = 3
    monkeypatch.setattr(stab, "_lie_series", lowered)
    with pytest.raises(ConsistencyError, match=r"stable rank 1 in cell \(-1, 2\), below its column's start at 3"):
        stable_table(-2, 6)


def test_cohomological_view_is_the_cohomological_rank(capsys):
    # every cell the CLI prints is the library's rank; every other cell of
    # the wedge (columns down to -n, rows up to n^2) reads 0, bar the unit
    for n in range(2, 10):
        assert main(["table", "--n", str(n), "--view", "cohom", "--format", "json"]) == 0
        cells = json.loads(capsys.readouterr().out)["payload"]["cells"]
        printed = {(c["p"], c["q"]): c["rank"] for c in cells}
        for (p, q), rank in printed.items():
            assert cohomological_rank(n, p, q) == rank
        for p in range(-n, 1):
            for q in range(-p, n * n + 1):
                if (p, q) not in printed:
                    assert cohomological_rank(n, p, q) == (1 if (p, q) == (0, 0) else 0)


@pytest.mark.parametrize("p, q", [(1, 0), (-2, 1)])
def test_cells_off_the_wedge_raise_one_message(capsys, p, q):
    message = "the cell must satisfy p <= 0 <= p + q"
    for read in (
        lambda: cohomological_rank(4, p, q),
        lambda: spectral_table(4).cohomological_rank(p, q),
        lambda: e1_stable_bound(p, q),
        lambda: stable_cell(p, q),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            read()
    assert main(["stab", "--p", str(p), "--q", str(q)]) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
