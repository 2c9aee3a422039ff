"""Stabilization of the cohomological table as the ambient dimension grows.

Embedding the Hermitian operators on C^n into those on C^N (extending by an
operator with simple spectrum on the complement) is compatible with the whole
construction, and the induced maps between cohomological tables are onto and
eventually bijective cell by cell.  The engine behind the estimate is that the
low-degree cohomology of the flag manifold of a fixed shape A stops changing
once the ambient dimension reaches |A| + degree // 2, the closed form that
``stab_index`` checks on Gaussian-multinomial coefficients.  Its maximum over
the shapes A of complexity -p, in degree p + q - 2 #A, is a sufficient bound
for one cohomological cell, which ``e1_stable_bound`` returns in closed form,

    n*(p, q) = max(-2p, (q - p) // 2)   (p < 0).

``stable_cell`` evaluates one cell at n*, n* + 1, n* + 2 and insists the ranks
agree, which is how the bound is kept honest; ``stable_table`` and
``conres stab --p --q`` both get their cells from it.  ``check_stable_cell``
and ``check_degree`` reject a cell or a (shape, degree) request that cannot
be read, or would cost more than ``MAX_CELL_BOUND``, ``MAX_WITNESS_SPAN`` or
``MAX_WITNESS_COST`` allow, so that ``conres stab`` can tell a bad request
from a bug.  ``stab_index`` builds the Gaussian multinomials whole, up to
four chains of |A| products, so its cost grows with |A|^2 times their span,
not with the degree alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .qcombinat import ConsistencyError, MultiIndex, QPoly, gauss_multinomial
from .resolution import SpectralTable, spectral_table

#: Largest ambient dimension ``conres`` accepts for ``--n`` and ``--max-n``
#: (Python 3.11 on a shared 2-core Xeon VM: ``table --n 24`` 2.7-3.0 s and
#: ``verify --n 24`` 5.9-6.6 s, 164 MB each; at n = 26, 4.8 s and 8.9 s,
#: 285 and 317 MB).
MAX_TABLE_N = 24

#: Largest bound ``stable_cell`` reads, so tables up to n = ``MAX_TABLE_N`` (``stable_cell(-11, 24)``: 2.4 s, 69 MB).
MAX_CELL_BOUND = MAX_TABLE_N - 2

#: Widest polynomial ``stab_index`` builds.  Of the requests on the edge of
#: this cap and ``MAX_WITNESS_COST`` (parts 2 or one part, |A| = 2..80), ten
#: parts 2 in degree 6400 cost most: ``conres stab`` takes 6.0-7.7 s and 51 MB
#: (eight parts 2 in degree 8170: 6.0 s, 48 MB; fifteen in degree 1906: 3.0 s).
MAX_WITNESS_SPAN = 1 << 16

#: Most |A|^2 x span for ``stab_index``, which memoizes |A| products per
#: q-Pochhammer chain, each up to the span, with coefficients of up to |A|
#: bits; shapes of size up to 20 meet ``MAX_WITNESS_SPAN`` first.  A cap on
#: |A| x span alone would admit 50 parts 2 in degree 150, which took 110 MB.
MAX_WITNESS_COST = 20 * 20 * MAX_WITNESS_SPAN


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


def _low_coefficients(A: MultiIndex, m: int, q_cut: int) -> tuple[int, ...]:
    poly = gauss_multinomial(m, A.parts)
    return tuple(poly.coefficient(j) for j in range(q_cut + 1))


def check_degree(A: MultiIndex, degree: int) -> None:
    """Raise ``ValueError`` unless :func:`stab_index` can read shape ``A`` in
    ``degree`` at a bounded cost.  Its largest polynomial, prod (1 - q^i) over
    the |A| factors m + 2 - |A| < i <= m + 2 of the Gaussian multinomial at
    m + 2, must span at most ``MAX_WITNESS_SPAN`` exponents.  It builds and
    memoizes up to four chains of |A| products (at m - 1, ..., m + 2),
    whose coefficients sum in absolute value to at most 2^|A|, so |A|^2 times
    the span must be at most ``MAX_WITNESS_COST``."""
    s, top = A.size, A.size + max(degree, 0) // 2 + 2
    span = s * top - s * (s - 1) // 2 + 1
    if span > MAX_WITNESS_SPAN:
        raise ValueError(
            f"degree {degree} of shape {A} needs polynomials spanning {span} exponents,"
            f" more than {MAX_WITNESS_SPAN}"
        )
    if s * s * span > MAX_WITNESS_COST:
        raise ValueError(
            f"degree {degree} of shape {A} memoizes products of up to {s} factors spanning"
            f" {span} exponents: {s}^2 x {span} is more than {MAX_WITNESS_COST}"
        )


@cache
def stab_index(A: MultiIndex, degree: int) -> StabReport:
    """Smallest ambient dimension past which the flag cohomology of shape A
    stops changing in real degrees up to ``degree``: m = |A| + q_cut with
    q_cut = max(degree, 0) // 2, since odd degrees are empty.

    Proof: [m; A, m - |A|]_q = [m; |A|]_q [|A|; A]_q.  The q^j coefficient of
    [m; s]_q counts partitions of j into at most s parts of size at most
    d = m - s, so it grows from d to d + 1 exactly when some j <= q_cut is
    >= d + 1; the second factor (constant term 1, nonnegative coefficients)
    keeps that change visible.  The coefficients must agree at m, m + 1 and
    m + 2 and, if q_cut > 0, differ at m - 1.
    """
    check_degree(A, degree)
    q_cut = max(degree, 0) // 2
    m = A.size + q_cut
    low = _low_coefficients(A, m, q_cut)
    if not low == _low_coefficients(A, m + 1, q_cut) == _low_coefficients(A, m + 2, q_cut):
        raise ConsistencyError(f"coefficients of shape {A} failed to stabilize by m={m}")
    if q_cut and low == _low_coefficients(A, m - 1, q_cut):
        raise ConsistencyError(f"coefficients of shape {A} were already stable at m={m - 1}")
    return StabReport(A, degree, m, QPoly({j: c for j, c in enumerate(low)}))


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
    ``MAX_CELL_BOUND``, so no table beyond n = ``MAX_CELL_BOUND + 2`` is built."""
    bound = e1_stable_bound(p, q)
    if bound > MAX_CELL_BOUND:
        raise ValueError(f"cell ({p}, {q}) is stable from n = {bound}, more than {MAX_CELL_BOUND}")


def cohomological_rank(n: int, p: int, q: int) -> int:
    """Rank of the cohomological cell (p, q) of the table for n."""
    return spectral_table(n).cohomological_rank(p, q)


@dataclass(frozen=True)
class StableCell:
    p: int
    q: int
    bound_n: int
    rank: int


def stable_cell(p: int, q: int) -> StableCell:
    """Stable rank of the cohomological cell (p, q), evaluated at its bound
    ``e1_stable_bound(p, q)`` and re-evaluated twice beyond it; any
    disagreement raises :class:`ConsistencyError` naming the cell.  A cell
    that :func:`check_stable_cell` refuses raises ``ValueError`` first."""
    check_stable_cell(p, q)
    bound = e1_stable_bound(p, q)
    ranks = [cohomological_rank(m, p, q) for m in (bound, bound + 1, bound + 2)]
    if len(set(ranks)) != 1:
        raise ConsistencyError(f"cell ({p}, {q}) not stable at its bound {bound}: ranks {ranks}")
    return StableCell(p, q, bound, ranks[0])


def stable_table(p_min: int, q_max: int) -> tuple[StableCell, ...]:
    """The :func:`stable_cell` of every cell with p_min <= p <= 0 and
    -p <= q <= q_max."""
    if p_min > 0:
        raise ValueError("p_min must be at most 0")
    return tuple(stable_cell(p, q) for p in range(p_min, 1) for q in range(-p, q_max + 1))
