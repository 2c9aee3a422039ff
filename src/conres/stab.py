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
t^{|A| - 1 + d^2} prod_{d < i <= n} (1 - q^i) prod_{(a, m)} h_m[L_a / (q;q)_a],
d = n - |A|, L_a = ``_lie_character(a)``.  Read from the top, in 1/q, the
product over i is 1 up to degree d, each 1 / (1 - q^e) gives a sign, and the
degrees add over the (a, m).  So all stable cells are one plethystic product,
Thrall's decomposition of the regular representation into higher Lie
characters in the q-graded coinvariant algebra (Gessel and Reutenauer, JCTA
64, 1993; Macdonald, *Symmetric Functions and Hall Polynomials*, 2nd ed.,
section I.8):

    Y_a(T) = T^{a^2 - 1} L_a(T^{-2}) / prod_{j <= a} (1 - T^{2j}),
    F(x, T) = prod_{a >= 2} E_a[x^{a - 1} Y_a(T)],

E_a = Exp for even a and Lambda for odd a (m a-cycles carry (-1)^{am}, and
(-1)^m h_m[-X] = e_m[X]), the stable rank of the cell (-c, Q) is
[x^c T^Q] F.  ``stable_series`` builds every column at once from
``_lie_character`` alone, each a ``GradedDims`` cut at T^{q_max}, with no
arithmetic of its own: products, cuts and one ``integer_combination`` per sum
of the ``qcombinat`` core.  One start check guards it: column -c is 0 below
T^{c + 2}.  ``stable_cell`` and ``stable_table`` read their ranks off it, with
``bound_n`` = n*; column 0 is the unit alone, at a cost fixed in q, and the
costliest cell the ceiling admits, (-11, 33), takes 2.8-3.2 ms in a fresh
process and 1.5-1.9 ms once ``_lie_character`` is memoized (Python 3.11,
shared 2-core Xeon VM).  The three-point rule, ``three_point_ranks``, is the
oracle: it reads the cell in the tables for n*, n* + 1 and n* + 2, one column
of each (``resolution.spectral_column(n, -p)``), and insists the ranks agree;
``conres stab --p --q`` runs it beside the series on every call.
``check_stable_cell`` and ``check_degree`` reject a cell or a (shape, degree)
request that cannot be read, or would cost more than ``MAX_CELL_BOUND``,
``MAX_WITNESS_SPAN`` or ``MAX_WITNESS_COST`` allow, so that ``conres stab``
can tell a bad request from a bug.  ``stab_index`` builds no flag
polynomial: it reads the series 1 / prod_a (q;q)_a up to q^(degree // 2),
one running sum per factor.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .qcombinat import ConsistencyError, GradedDims, MultiIndex, QPoly, divide_out_series, integer_combination
from .resolution import SpectralTable, _lie_character

#: Largest ambient dimension ``conres`` accepts for ``--n`` and ``--max-n``
#: (Python 3.11 on a shared 2-core Xeon VM, one cold process, peak RSS from
#: ``os.wait4``: ``table --n 24 --format json`` 0.52-0.75 s, 69.7-69.9 MB,
#: ``verify`` 0.86-0.97 s, 64.2-64.4 MB; at n = 26, ``spectral_table(26)``
#: 0.94-1.00 s, 85 MB, ``verify(26)`` 1.7-2.0 s, 101 MB).
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
#: ``conres stab --format json`` takes 0.23-0.26 s and 44.7-45.0 MB (Python
#: 3.11 on a shared 2-core Xeon VM), 0.13-0.15 s of it writing 65536
#: coefficients through the stdlib's pure-Python indenter.
MAX_WITNESS_COST = 4 * MAX_WITNESS_SPAN


class StabReport(NamedTuple):
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


def check_stable_cell(p: int, q: int) -> int:
    """Raise ``ValueError`` unless :func:`stable_cell` can read the cell
    (p, q): it lies in the cohomological wedge and its bound is at most
    ``MAX_CELL_BOUND``, so its oracle :func:`three_point_ranks` builds no
    table beyond n = ``MAX_CELL_BOUND + 2``.  Return that bound."""
    bound = e1_stable_bound(p, q)
    if bound > MAX_CELL_BOUND:
        raise ValueError(f"cell ({p}, {q}) is stable from n = {bound}, more than {MAX_CELL_BOUND}")
    return bound


def cohomological_rank(n: int, p: int, q: int) -> int:
    """Rank of the cohomological cell (p, q) of the table for n, off its column -p."""
    return SpectralTable(n).cohomological_rank(p, q)


def three_point_ranks(p: int, q: int) -> list[int]:
    """The oracle of :func:`stable_series`: the ranks of the cell (p, q) in
    the tables for n*, n* + 1 and n* + 2, n* = ``e1_stable_bound(p, q)``, one
    column of each.  Ranks that disagree raise :class:`ConsistencyError`
    naming the cell; a cell that :func:`check_stable_cell` refuses raises
    ``ValueError`` first."""
    bound = check_stable_cell(p, q)
    ranks = [cohomological_rank(m, p, q) for m in (bound, bound + 1, bound + 2)]
    if len(set(ranks)) != 1:
        raise ConsistencyError(f"cell ({p}, {q}) not stable at its bound {bound}: ranks {ranks}")
    return ranks


def _lie_series(a: int, cut: int) -> GradedDims:
    """Y_a(T) = T^{a^2 - 1} L_a(T^{-2}) / prod_{j <= a} (1 - T^{2j}) up to T^cut,
    L_a = ``_lie_character(a)``; it starts at T^{a + 1}, as deg L_a = (a + 1)(a - 2)/2."""
    numerator = GradedDims({a * a - 1 - 2 * e: v for e, v in _lie_character(a).items()})
    return divide_out_series(numerator, [2 * j for j in range(1, a + 1)], cut)


def stable_series(c_max: int, q_max: int) -> tuple[GradedDims, ...]:
    """The columns F_0, ..., F_{c_max}, each cut at T^{q_max}, of the product
    F(x, T) = sum_c x^c F_c(T) = prod_{a = 2 .. c_max + 1} E_a[x^{a - 1} Y_a(T)]
    of the module docstring (:func:`_lie_series` gives Y_a): the coefficient
    of T^Q in F_c is the stable rank of the cohomological cell (-c, Q).
    Built on the polynomial core from the logarithmic derivative: with
    eps_k = 1 for even a (Exp) and (-1)^{k - 1} for odd a (Lambda),

        c F_c = sum_{j <= c} P_j F_{c - j},
        P_j = sum_{k | j, a = j / k + 1} (a - 1) eps_k Y_a(T^k),

    every sum and the division by c one ``integer_combination``, so a
    remainder raises its :class:`ConsistencyError`.  Each product is cut at
    T^{q_max}, since products of cut series hold wrong terms above it.  A
    negative rank, or a nonzero rank with Q < c + 2, below the first degree
    of column -c (prod_{a in A} Y_a starts at T^{|A| + #A}), raises
    :class:`ConsistencyError` too."""
    if c_max < 0 or q_max < 0:
        raise ValueError("c_max and q_max must be at least 0")
    terms = [[] for _ in range(c_max + 1)]
    for a in range(2, c_max + 2):
        lie = _lie_series(a, q_max)
        for k in range(1, c_max // (a - 1) + 1):
            weight = -(a - 1) if a % 2 and k % 2 == 0 else a - 1
            terms[k * (a - 1)].append((weight, divide_out_series(lie, (), q_max // k).substitute_power(k)))
    logs = [GradedDims()] + [integer_combination(pairs, 1) for pairs in terms[1:]]  # P_0 is never read
    columns = [GradedDims.one()]
    for c in range(1, c_max + 1):
        pairs = [(1, divide_out_series(logs[j] * columns[c - j], (), q_max)) for j in range(1, c + 1)]
        column = integer_combination(pairs, c)
        for Q, rank in column.items():
            if rank < 0:
                raise ConsistencyError(f"negative stable rank {rank} in cell ({-c}, {Q})")
            if Q < c + 2:
                raise ConsistencyError(f"stable rank {rank} in cell ({-c}, {Q}), below its column's start at {c + 2}")
        columns.append(column)
    return tuple(columns)


class StableCell(NamedTuple):
    p: int
    q: int
    bound_n: int
    rank: int


def stable_cell(p: int, q: int) -> StableCell:
    """Stable rank of the cohomological cell (p, q), read off
    :func:`stable_series`, with ``bound_n`` = ``e1_stable_bound(p, q)``.  A
    cell that :func:`check_stable_cell` refuses raises ``ValueError`` first."""
    return StableCell(p, q, check_stable_cell(p, q), stable_series(-p, q)[-p].coefficient(q))


def stable_table(p_min: int, q_max: int) -> tuple[StableCell, ...]:
    """The :func:`stable_cell` of every cell with p_min <= p <= 0 and
    -p <= q <= q_max, all read off one :func:`stable_series`.  Every cell is
    checked by :func:`check_stable_cell`, in (p, q) order, before it is built."""
    if p_min > 0:
        raise ValueError("p_min must be at most 0")
    cells = [(p, q) for p in range(p_min, 1) for q in range(-p, q_max + 1)]
    bounds = [check_stable_cell(p, q) for p, q in cells]
    columns = stable_series(max(min(-p_min, q_max), 0), max(q_max, 0))
    return tuple(StableCell(p, q, bound, columns[-p].coefficient(q)) for (p, q), bound in zip(cells, bounds))
