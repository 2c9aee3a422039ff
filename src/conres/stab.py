"""Stabilization of the cohomological table as the ambient dimension grows.

Embedding the Hermitian operators on C^n into those on C^N (extending by an
operator with simple spectrum on the complement) is compatible with the whole
construction, and the induced maps between cohomological tables are onto and
eventually bijective cell by cell.  The engine behind the estimate is that the
low-degree cohomology of the flag manifold of a fixed shape A stops changing
once the ambient dimension reaches |A| + degree // 2, the closed form that
``stab_index`` checks on Gaussian-multinomial coefficients; ``e1_stable_bound``
turns it into a sufficient bound for one cohomological cell,

    n*(p, q) = max over A of complexity -p of stab(A, p + q - 2 #A).

``stable_cell`` evaluates one cell at n*, n* + 1, n* + 2 and insists the ranks
agree, which is how the bound is kept honest; ``stable_table`` and
``conres stab --p --q`` both get their cells from it.  ``check_stable_cell``
and ``check_degree`` reject a cell or a (shape, degree) request that cannot
be read, so that ``conres stab`` can tell a bad request from a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .qcombinat import MAX_SPAN, ConsistencyError, MultiIndex, QPoly, gauss_multinomial, multiindices
from .resolution import SpectralTable, spectral_table


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
    ``degree``: its largest polynomial, prod (1 - q^i) over the |A| factors
    m + 2 - |A| < i <= m + 2 of the Gaussian multinomial at m + 2, must span
    at most ``MAX_SPAN`` exponents."""
    s, top = A.size, A.size + max(degree, 0) // 2 + 2
    span = s * top - s * (s - 1) // 2 + 1
    if span > MAX_SPAN:
        raise ValueError(
            f"degree {degree} of shape {A} needs polynomials spanning {span} exponents,"
            f" more than {MAX_SPAN}"
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


def complexity_indices(p: int) -> list[MultiIndex]:
    """All multi-indices of complexity exactly p >= 1 (their size is at most
    2p, so the list is finite)."""
    if p < 1:
        raise ValueError("complexity is at least 1 for a nonempty index")
    return [A for A in multiindices(2 * p, p) if A.complexity == p]


def e1_stable_bound(p: int, q: int) -> int:
    """Ambient dimension by which the cohomological cell (p, q) has reached
    its stable rank: max over shapes A of complexity -p of
    ``stab_index(A, p + q - 2 #A)``.

    The column p = 0 holds only the unit class, which never moves; by
    convention the bound returned for it is 2 (the smallest ambient
    dimension the tables are built for).
    """
    SpectralTable.check_cell(p, q)
    if p == 0:
        return 2
    return max(stab_index(A, degree).stab_n for A, degree in _cell_shapes(p, q))


def _cell_shapes(p: int, q: int) -> list[tuple[MultiIndex, int]]:
    """The (shape, degree) pairs whose :func:`stab_index` bounds the cell
    (p, q), p < 0: every A of complexity -p, in degree p + q - 2 #A."""
    return [(A, p + q - 2 * A.length) for A in complexity_indices(-p)]


def check_stable_cell(p: int, q: int) -> None:
    """Raise ``ValueError`` unless :func:`stable_cell` can read the cell
    (p, q): it lies in the cohomological wedge and :func:`check_degree`
    accepts every (shape, degree) pair of its bound."""
    SpectralTable.check_cell(p, q)
    for A, degree in _cell_shapes(p, q) if p else ():
        check_degree(A, degree)


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
    disagreement raises :class:`ConsistencyError` naming the cell."""
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
