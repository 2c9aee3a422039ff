"""Stabilization of the cohomological table as the ambient dimension grows.

Embedding the Hermitian operators on C^n into those on C^N (extending by an
operator with simple spectrum on the complement) is compatible with the whole
construction, and the induced maps between cohomological tables are onto and
eventually bijective cell by cell.  The engine behind the estimate is that the
low-degree cohomology of the flag manifold of a fixed shape A stops changing
once the ambient dimension reaches |A| + degree // 2, the closed form of
``stab_index``, which returns the stable coefficients with it.  Its maximum over
the shapes A of complexity -p, in degree p + q - 2 #A, is a sufficient bound
for one cohomological cell, which ``e1_stable_bound`` returns in closed form,

    n*(p, q) = max(-2p, (q - p) // 2)   (p < 0).

No table is needed to read a stable cell.  The block of an index A is
t^{sigma_A + d^2} prod_{d < i <= n} (1 - q^i) N_A(q) / prod_{e in E_A} (1 - q^e)
with d = n - |A| (``resolution._stable_factors``), and read from its top
degree, in y = 1/q, the product over i is 1 up to y^d.  So ``stable_column``
reads every cell of a column -p off one truncated series rev(N_A)(y) /
prod_{e in E_A} (1 - y^e) per index of complexity -p, with a proved bound
per cell, which it checks against n*; ``stable_cell`` and ``stable_table``
(one column per p) get their ranks from it, and their ``bound_n`` is n*.
The three-point rule, ``three_point_ranks``, is the oracle: it reads one
cell in the tables for n*, n* + 1 and n* + 2, one column of each
(``resolution.spectral_column(n, -p)``), and insists the ranks agree;
``conres stab --p --q`` runs it beside the series on every call.
``check_stable_cell`` and ``check_degree`` reject a cell or a (shape, degree)
request that cannot be read, or would cost more than ``MAX_CELL_BOUND``,
``MAX_WITNESS_SPAN`` or ``MAX_WITNESS_COST`` allow, so that ``conres stab``
can tell a bad request from a bug.  ``stab_index`` builds no flag
polynomial: it reads the series 1 / prod_a (q;q)_a up to q^(degree // 2),
one running sum per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .qcombinat import ConsistencyError, MultiIndex, QPoly, divide_out_series
from .resolution import SpectralTable, _column_indices, _stable_factors

#: Largest ambient dimension ``conres`` accepts for ``--n`` and ``--max-n``
#: (Python 3.11 on a shared 2-core Xeon VM: ``table --n 24`` 2.7-3.0 s and
#: ``verify --n 24`` 5.9-6.6 s, 164 MB each; at n = 26, 4.8 s and 8.9 s,
#: 285 and 317 MB).
MAX_TABLE_N = 24

#: Largest bound a stable cell may have, so that its three-point oracle builds tables up to n = ``MAX_TABLE_N``;
#: column 11 costs most (same VM: ``three_point_ranks(-11, 24)`` 0.09-0.13 s, 18 MB, against 1.7-1.8 s, 69 MB
#: when a cell built whole tables).
MAX_CELL_BOUND = MAX_TABLE_N - 2

#: Longest witness ``stab_index`` builds: q_cut + 1 coefficients, where
#: q_cut = max(degree, 0) // 2, so (2) is read up to degree 131071.
MAX_WITNESS_SPAN = 1 << 16

#: Most running-sum steps for ``stab_index``: each factor 1 - q^j with
#: j <= q_cut sweeps the q_cut + 1 coefficients once.  Of the requests on the
#: edge of the two caps (k parts 2 for k = 1, 2, 4, ..., 2048, one part of 2,
#: 16, 128, 512, 1024 or 2048, parts (4^k, 3^k, 2^k), (1024, 1024) and sixteen
#: parts 64), (2,2) and (4) in degree 131071 cost most: a cold
#: ``conres stab --format json`` takes 0.19-0.30 s and 46 MB (Python 3.11 on a
#: shared 2-core Xeon VM), 0.06-0.09 s of it writing 65536 coefficients.
MAX_WITNESS_COST = 4 * MAX_WITNESS_SPAN


@dataclass(frozen=True)
class StabReport:
    """Stabilization index of one shape in one degree.

    ``witness`` holds the stable coefficients of the flag Poincare polynomial
    in q-degrees up to degree // 2.
    """

    A: MultiIndex
    degree: int
    stab_n: int
    witness: QPoly


def check_degree(A: MultiIndex, degree: int) -> None:
    """Raise ``ValueError`` unless :func:`stab_index` can read shape ``A`` in
    ``degree`` at a bounded cost.  With q_cut = max(degree, 0) // 2, the
    witness holds q_cut + 1 coefficients, at most ``MAX_WITNESS_SPAN``; each
    part a divides out min(a, q_cut) factors, each a sweep of them all, and
    factors times coefficients is at most ``MAX_WITNESS_COST``."""
    q_cut = max(degree, 0) // 2
    span, factors = q_cut + 1, sum(min(a, q_cut) for a in A.parts)
    if span > MAX_WITNESS_SPAN:
        raise ValueError(f"degree {degree} of shape {A} needs {span} coefficients, more than {MAX_WITNESS_SPAN}")
    if factors * span > MAX_WITNESS_COST:
        raise ValueError(f"degree {degree} of shape {A} needs {factors} x {span} sums, more than {MAX_WITNESS_COST}")


@cache
def stab_index(A: MultiIndex, degree: int) -> StabReport:
    """Smallest ambient dimension past which the flag cohomology of shape A
    stops changing in real degrees up to ``degree``: m = |A| + q_cut with
    q_cut = max(degree, 0) // 2, since odd degrees are empty.  The witness is
    the stable series 1 / prod_(a in A) (q;q)_a, the Poincare series of
    prod_a BU(a), up to q^q_cut.

    Proof: [m; A, m - |A|]_q = prod_(i = m - |A| + 1..m) (1 - q^i) /
    prod_a (q;q)_a.  Up to q^q_cut every numerator factor is 1 once
    m - |A| >= q_cut, so the low coefficients at m, m + 1, ... are the
    series'.  At m - 1 the numerator gains 1 - q^q_cut, which lowers the
    coefficient of q^q_cut by the series' constant term 1 when q_cut > 0.
    A factor 1 - q^j with j > q_cut is 1 up to q^q_cut, so none is listed.
    """
    check_degree(A, degree)
    q_cut = max(degree, 0) // 2
    exponents = [j for a in A.parts for j in range(1, min(a, q_cut) + 1)]
    return StabReport(A, degree, A.size + q_cut, divide_out_series(QPoly.one(), exponents, q_cut))


def e1_stable_bound(p: int, q: int) -> int:
    """Ambient dimension by which the cohomological cell (p, q) has reached
    its stable rank: max over shapes A of complexity -p of
    ``stab_index(A, p + q - 2 #A)``, which is max(-2p, (q - p) // 2).

    Proof: |A| = #A - p, so the closed form of :func:`stab_index` reads
    #A - p + max(p + q - 2 #A, 0) // 2 = max(#A - p, (q - p) // 2), and #A
    runs over 1..-p, reaching -p at the shape (2, ..., 2).

    The column p = 0 holds only the unit class, which never moves; by
    convention the bound returned for it is 2 (the smallest ambient
    dimension the tables are built for).
    """
    SpectralTable.check_cell(p, q)
    return max(-2 * p, (q - p) // 2) if p else 2


def check_stable_cell(p: int, q: int) -> None:
    """Raise ``ValueError`` unless :func:`stable_cell` can read the cell
    (p, q): it lies in the cohomological wedge and its bound is at most
    ``MAX_CELL_BOUND``, so its oracle :func:`three_point_ranks` builds no
    table beyond n = ``MAX_CELL_BOUND + 2``."""
    bound = e1_stable_bound(p, q)
    if bound > MAX_CELL_BOUND:
        raise ValueError(f"cell ({p}, {q}) is stable from n = {bound}, more than {MAX_CELL_BOUND}")


def cohomological_rank(n: int, p: int, q: int) -> int:
    """Rank of the cohomological cell (p, q) of the table for n, off its column -p."""
    return SpectralTable(n).cohomological_rank(p, q)


def three_point_ranks(p: int, q: int) -> list[int]:
    """The oracle of :func:`stable_column`: the ranks of the cell (p, q) in
    the tables for n*, n* + 1 and n* + 2, n* = ``e1_stable_bound(p, q)``, one
    column of each.  Ranks that disagree raise :class:`ConsistencyError`
    naming the cell; a cell that :func:`check_stable_cell` refuses raises
    ``ValueError`` first."""
    check_stable_cell(p, q)
    bound = e1_stable_bound(p, q)
    ranks = [cohomological_rank(m, p, q) for m in (bound, bound + 1, bound + 2)]
    if len(set(ranks)) != 1:
        raise ConsistencyError(f"cell ({p}, {q}) not stable at its bound {bound}: ranks {ranks}")
    return ranks


def stable_column(p: int, q_max: int) -> tuple[tuple[int, int], ...]:
    """(stable rank, proved bound) of the cohomological cell (p, Q) for every
    Q = -p .. q_max, read off the n-independent series of column -p, with no
    table built.  A cell that :func:`check_stable_cell` refuses raises
    ``ValueError`` first.

    With c = -p, y = 1/q and (sigma_A, N_A, E_A) = ``_stable_factors(A)``,
    the rank is the sum over the indices A of complexity c, of size s =
    c + 1 .. 2c, of

        [y^{j_A}] rev(N_A)(y) / prod_{e in E_A} (1 - y^e),
        j_A = (s + Q + 1 - c + sigma_A) / 2 + deg N_A - sum E_A,

    where an A with an odd numerator or j_A < 0 adds nothing.  Proof: the
    cell is the coefficient of t^{n^2 - Q - 1 + c} in column c of the table
    for n (``SpectralTable.cohomological_rank``), which lies j_A powers of q
    below the top of the block of A.  Read from the top, each factor 1 - q^i
    is -q^i (1 - y^i) and each 1 / (1 - q^e) is -y^e / (1 - y^e); there are
    s of each (|E_A| = s), so the signs cancel, and prod_{d < i <= n}
    (1 - y^i) is 1 up to y^d.  So the block's coefficient is the series' once
    j_A <= d = n - s, and the cell is exact from n = max(2, s + j_A) over the
    A that add a term, its proved bound.  A negative rank, or a proved bound
    above :func:`e1_stable_bound`, raises :class:`ConsistencyError`."""
    SpectralTable.check_cell(p, -p)
    qs = range(-p, q_max + 1)
    for q in qs:
        check_stable_cell(p, q)
    c = -p
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
    for q, rank, bound in zip(qs, ranks, bounds):
        if rank < 0:
            raise ConsistencyError(f"negative stable rank {rank} in cell ({p}, {q})")
        if bound > e1_stable_bound(p, q):
            raise ConsistencyError(f"proved bound {bound} of cell ({p}, {q}) is above n* = {e1_stable_bound(p, q)}")
    return tuple(zip(ranks, bounds))


@dataclass(frozen=True)
class StableCell:
    p: int
    q: int
    bound_n: int
    rank: int


def stable_cell(p: int, q: int) -> StableCell:
    """Stable rank of the cohomological cell (p, q), read off
    :func:`stable_column`, with ``bound_n`` = ``e1_stable_bound(p, q)``.  A
    cell that :func:`check_stable_cell` refuses raises ``ValueError`` first."""
    check_stable_cell(p, q)
    rank, _ = stable_column(p, q)[-1]
    return StableCell(p, q, e1_stable_bound(p, q), rank)


def stable_table(p_min: int, q_max: int) -> tuple[StableCell, ...]:
    """The :func:`stable_cell` of every cell with p_min <= p <= 0 and
    -p <= q <= q_max, one :func:`stable_column` per p."""
    if p_min > 0:
        raise ValueError("p_min must be at most 0")
    return tuple(
        StableCell(p, q, e1_stable_bound(p, q), rank)
        for p in range(p_min, 1)
        for q, (rank, _) in zip(range(-p, q_max + 1), stable_column(p, q_max))
    )
