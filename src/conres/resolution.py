"""Blockwise Borel-Moore homology of the repeated-eigenvalue locus.

The locus of n x n Hermitian operators with some eigenvalue of multiplicity
at least two admits a proper resolution glued from cones over ordered
collections of orthogonal subspaces.  Filtering by the complexity
``|A| - #A`` of the multiplicity index A decomposes the resolution into
blocks, one per index: a bundle over the manifold of unordered collections of
shape A whose fiber is

    R^{#A}  x  H(d)  x  (open cone on the link of the collection),

with d = n - |A| the dimension left over and H(d) the Hermitian operators on
it.  Because the rational homology of every link vanishes in degrees of one
parity, the resulting spectral table degenerates immediately, so the blocks'
Borel-Moore Poincare polynomials add up degree-by-degree to those of the
whole locus -- which are known independently via Alexander duality from the
complement.  ``verify``'s ``table-total`` checks that identity; the blocks
are built without it:

* every block of the table for n is ``t^{(n + 1) mod 2}`` times a
  polynomial in q = t^2, so the engine builds each block in q, at half the
  length of its t-graded form, and moves it to t once, at the table edge;
* a block factors through an n-independent series: the block of an index A
  at its own size s = |A| is t^{s - 1} times the S(A) average of the flag
  trace times L_a(q^c) per block cycle (c, a), in the factored form
  ``flagchar._own_size_average`` builds for the quotient homology too: the
  average of A without its smallest part size a, of multiplicity m, times
  [s; a m]_q N_{a,m}, N_{a,m} = (q;q)_{am} h_m[L_a / (q;q)_a] by Newton's
  identity, and N_{a,m} alone for a single part size, memoized there and
  sign-checked on each N_{a,m};
* ``block_poincare`` lifts the block at its own size to a free part
  d = n - |A| > 0 by ``t^{d^2} [n; |A|]_{t^2}``, from the q-multinomial memo;
* ``_lie_character`` builds L_a in q from its closed form, the higher Lie
  character of one a-cycle; ``t^{a - 1} L_a(t^2)`` is the top block (a),
  the open cone on the link of the whole collection; it reads neither the
  total nor the other blocks, is one more index to ``_own_size_average``, and
  ``h_poly`` is its series in t;
* ``build_column(n, p)`` lists the lifted blocks of complexity p, the top
  one included, and ``spectral_column``, the one memo of lifted blocks,
  keeps them: ``stab``'s three-point oracle builds the one column it reads,
  and ``spectral_table`` the union of its columns, a view that holds only n;
  the CLI's table document asks ``build_column`` for one column at a time
  and drops it once written; ``by_degree`` walks a column by degree, as the
  transposition of its blocks' dense coefficient rows; ``verify`` re-checks
  every identity the construction is supposed to satisfy;
* ``stab.stable_series`` reads every stable cell off ``_lie_character``
  alone, as one plethystic product, without building any block.

The class-by-class average over S(A) of flag trace (``flagchar.gamma_trace``)
times fiber trace (:func:`fiber_char`) is the same block by another route; it
is kept as an oracle, like ``flagchar.gamma_trace_naive``, and the tests
compare the two routes on every block below the top one for n <= 12.

Degree bookkeeping.  Each shift has one owner.  Plethysm is homogeneous,
h_m[q^e X] = q^{me} h_m[X], so a block built from the unshifted L_a carries
one t-shift that does not depend on the parts: :func:`block_poincare` applies
``t^{|A| - 1 + d^2}`` at the table edge, where a block leaves q for t.  It is
``t^{#A - 1}`` (the Euclidean factor #A and the one-degree gap between
open-cone homology and the h-grading), ``t^{a - 1}`` per part a (the top
block ``t^{a - 1} L_a(t^2)``) and the ``t^{d^2}`` of the Hermitian operators
on a free part d; its parity, (n + 1) mod 2, is the one every block of the
table for n has.  :func:`total_discriminant_poincare` owns the
Alexander-duality shift ``t^{n^2 - 1}`` (the total stays in t: nothing
halves a t-polynomial to q), :func:`link_poincare` the ``t^{-2}`` from the
open-cone series to the link's reduced homology, and :class:`SpectralTable`
the relabelling (p, i) -> (-p, n^2 - (i - p) - 1) of the cohomological
view.  The oracle's :func:`fiber_char` applies ``t^{#A + d^2 - 1}`` to a
class trace, both shifts at once, in t.

Signs.  A permutation of equal-size blocks acts on the fiber twice: it
permutes the coordinates of the Euclidean factor (orientation character =
permutation sign) and it reorders the tensor factors of the open-cone
homology, which is defined only up to the reordering sign (again the
permutation sign).  Their product is the trivial character, so
:func:`fiber_char` and N_{a,m} carry no sign and the block reduces to the
plain trivial-isotypic projection.  A wrong sign rule changes the blocks of
two or more parts but not the closed-form top block, so the table no longer
adds up to the total and ``table-total`` fails; the golden tests pin the
link homology too.

Palindromes.  The link polynomial need not be palindromic, and no sign rule
should make it so.  For even n the swap of the two parts of (n/2, n/2) acts
on Gr(n/2, n), of complex dimension (n/2)^2, and reverses its orientation
exactly when that dimension is odd, i.e. when n = 2 (mod 4); its flag trace
is then anti-palindromic (at n = 6 it is (1 - q)(1 - q^3)(1 - q^5)), the
unordered quotient is non-orientable, and no duality forces the link to be
symmetric.  Among n = 3..14 the link is palindromic exactly when n is not
2 (mod 4); the tests pin this, so no value for n >= 6 may rest on symmetry.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial, prod
from typing import Callable, Iterator, NamedTuple, Sequence

from . import flagchar
from .cohomring import ring_poincare
from .qcombinat import (
    BlockClass,
    ConsistencyError,
    GradedDims,
    MultiIndex,
    QPoly,
    _Value,
    _column_indices,
    block_cycles,
    conjugacy_classes,
    divide_out,
    gauss_multinomial,
    integer_combination,
    multiindices,
    q_pochhammer,
)

def fiber_char(A: MultiIndex, n: int, cls: BlockClass) -> GradedDims:
    """Graded trace (in t) of a block permutation on the Borel-Moore homology
    of the fiber over a collection of shape ``A``: the fiber half of the
    class-average oracle for a block.

    Equals ``t^{#A + d^2 - 1}`` times the product over block cycles (length
    c, part size a) of the c-fold degree dilation of the single-part series.
    The permutation also acts by two sign characters, the orientation of the
    Euclidean factor and the reordering of the tensor factors; both are the
    permutation sign, so they cancel and no sign appears.
    """
    cycles, d = block_cycles(A, n, cls)
    out = GradedDims.term(A.length + d * d - 1)
    for c, a in cycles:
        out = out * h_poly(a).substitute_power(c)
    return out


def block_poincare(A: MultiIndex, n: int) -> GradedDims:
    """Borel-Moore Poincare polynomial of the block of index ``A`` in ambient
    dimension n: ``t^{|A| - 1} B(t^2)`` at n = |A|, with B =
    ``flagchar._own_size_average(A, _lie_character, "trivial")`` (L_a itself
    for a single part (a)), memoized and sign-checked there; lifted to a free
    part d = n - |A| > 0 by ``t^{d^2} [n; |A|]_{t^2}``.  It is built in q
    from the unshifted Lie characters and gets its one t-shift ``t^{|A| - 1
    + d^2}`` here."""
    d = A.liberty(n)  # an index that does not fit in C^n raises here
    block = flagchar._own_size_average(A, _lie_character, "trivial")
    return (block * gauss_multinomial(n, (A.size,))).to_graded().times_power(A.size - 1 + d * d)


def total_discriminant_poincare(n: int) -> GradedDims:
    """Borel-Moore Poincare polynomial of the whole repeated-eigenvalue locus
    in ambient dimension n.

    It dualizes :func:`conres.cohomring.ring_poincare`, the Poincare
    polynomial P of the complement (homotopic to the complete flag manifold):
    Alexander duality inside the n^2-dimensional operator space turns its
    reduced part P(t) - 1 into ``t^{n^2 - 1} (P(1/t) - 1)``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    complement = ring_poincare(n).to_graded()
    top = n * n - 1
    return GradedDims({top - e: c for e, c in complement.items() if e > 0})


@cache
def _lie_character(a: int) -> QPoly:
    """L_a, the factor of part size a in every block, in q: ``h_a(t) =
    t^{a - 1} L_a(t^2)`` is the top block (a) of the table for n = a.  L_2 =
    1 (the cone is a point), and for a >= 3 L_a is the graded multiplicity of
    the higher Lie character of one a-cycle in the coinvariant algebra
    (Klyachko, "Lie elements in the tensor algebra", 1974; Gessel and
    Reutenauer, JCTA 64, 1993):

        L_a(q) = (1/a) sum_{k | a} mu(k) (q;q)_a / (1 - q^k)^{a/k},

    one exact ``divide_out`` per squarefree divisor k and one exact division
    by a.  It reads neither the total nor the other blocks.  A non-integral
    rank (a remainder of the division by a) or a negative rank raises
    :class:`ConsistencyError`; a failure is not memoized.
    """
    if a == 2:
        return QPoly.one()
    # a squarefree divisor k is a set of primes of a, and mu(k) = (-1)^{#set}
    primes = [p for p in range(2, a + 1) if a % p == 0 and all(p % r for r in range(2, p))]
    pairs = [
        ((-1) ** len(ps), divide_out(q_pochhammer(a), [prod(ps)] * (a // prod(ps))))
        for r in range(len(primes) + 1)
        for ps in itertools.combinations(primes, r)
    ]
    lie = integer_combination(pairs, a)
    if not lie.nonnegative():
        raise ConsistencyError(f"negative rank in h-polynomial for a={a}")
    return lie


@cache
def h_poly(a: int) -> GradedDims:
    """Open-cone homology series for a single part of dimension ``a``: the top
    block (a) of the table for n = a, read through :func:`block_poincare`.
    The coefficient of ``t^i`` is the rank in degree ``i - 1``; for a = 2 the
    cone is a point and the series is ``t``.

    A non-integral or negative rank in the closed form of :func:`_lie_character`
    raises :class:`ConsistencyError` rather than being repaired.
    """
    return block_poincare(MultiIndex((a,)), a)


def link_poincare(n: int) -> GradedDims:
    """Reduced-homology Poincare polynomial of the link of the full cone of
    orthogonal collections in C^n (defined for n >= 3; the link is empty for
    n = 2).  Exponents never share the parity of n."""
    if n < 3:
        raise ValueError("the link is empty for n < 3")
    return h_poly(n).times_power(-2)


def build_column(n: int, p: int) -> tuple[tuple[MultiIndex, GradedDims], ...]:
    """The blocks ``(A, block_poincare(A, n))`` of complexity p in the table for
    n, in the order of :func:`_column_indices`, built afresh on every call:
    the CLI's table document builds, walks and drops one column at a time."""
    return tuple((A, block_poincare(A, n)) for A in _column_indices(p, n))


#: The one memo of lifted blocks: :func:`build_column`, kept per (n, p) for
#: ``verify``, ``stab``'s three-point oracle and :class:`SpectralTable`.
spectral_column = cache(build_column)


def by_degree(polys: Sequence[GradedDims]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The coefficients of ``polys`` gathered by exponent: ``(i, ranks)`` for
    ascending i where some polynomial has a nonzero coefficient, ``ranks[j]``
    the coefficient of ``t^i`` in ``polys[j]``, zeros kept.  The one walk of a
    column by degree: its dense rows padded to the column's span and
    transposed, so no term is paired with its key and nothing is sorted."""
    rows = [poly.dense() for poly in polys]
    spans = [(low, low + len(coeffs)) for low, coeffs in rows if coeffs]
    if not spans:
        return
    start, stop = min(low for low, _ in spans), max(high for _, high in spans)
    zero = (0,)
    padded = [
        zero * (low - start) + coeffs + zero * (stop - low - len(coeffs)) if coeffs else zero * (stop - start)
        for low, coeffs in rows
    ]
    for i, ranks in enumerate(zip(*padded), start):
        if any(ranks):
            yield i, ranks


class SpectralTable(_Value):
    """Per-index Borel-Moore homology table in ambient dimension n: a view over
    the columns ``spectral_column(n, p)``, p = 1 .. n - 1, each built when
    first read and then kept in that memo.

    Cell (p, i) holds the rank coming from all indices of complexity p in
    total degree i; the per-index breakdown is kept.  The table owns the
    cohomological view too: it relabels (p, i) as (-p, n^2 - (i - p) - 1),
    landing in the wedge p <= 0 <= p + q, whose column 0 holds only the unit
    class of the complement.  Immutable, and equal only to a
    ``SpectralTable`` of the same n.
    """

    __slots__ = ("n",)
    _fields = ("n",)

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("ambient dimension must be at least 2")
        object.__setattr__(self, "n", n)

    @property
    def blocks(self) -> tuple[tuple[MultiIndex, GradedDims], ...]:
        """Every block, column by column: the order of :func:`multiindices`."""
        return tuple(block for p in self.complexities() for block in self.column(p))

    def complexities(self) -> tuple[int, ...]:
        return tuple(range(1, self.n))

    def column(self, p: int) -> tuple[tuple[MultiIndex, GradedDims], ...]:
        """Blocks of complexity p, parts lexicographically decreasing."""
        return spectral_column(self.n, p)

    def cell_blocks(self) -> Iterator[tuple[int, int, list[tuple[MultiIndex, int]]]]:
        """The nonzero per-index ranks cell by cell, (p, i, [(A, rank), ...]),
        in one walk of each column (:func:`by_degree`): cells sorted, each
        listing its blocks in column order."""
        for p in self.complexities():
            column = self.column(p)
            keys = [A for A, _ in column]
            for i, ranks in by_degree([poly for _, poly in column]):
                yield p, i, list(zip(itertools.compress(keys, ranks), filter(None, ranks)))

    def rank(self, p: int, i: int) -> int:
        # a point query scans its column: a stable cell reads one cell of it, so an index would not pay
        return sum(poly.coefficient(i) for _, poly in self.column(p))

    def breakdown(self, p: int, i: int) -> dict[MultiIndex, int]:
        ranks = ((A, poly.coefficient(i)) for A, poly in self.column(p))
        return {A: r for A, r in ranks if r}

    def total(self) -> GradedDims:
        return integer_combination([(1, poly) for _, poly in self.blocks], 1)

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero (p, i, rank) triples, sorted."""
        for p, i, blocks in self.cell_blocks():
            r = sum(c for _, c in blocks)
            if r:
                yield p, i, r

    @staticmethod
    def check_cell(p: int, q: int) -> None:
        """Raise ``ValueError`` unless (p, q) lies in the cohomological wedge
        p <= 0 <= p + q."""
        if p > 0 or p + q < 0:
            raise ValueError("the cell must satisfy p <= 0 <= p + q")

    def cohomological_position(self, p: int, i: int) -> tuple[int, int]:
        """The cohomological cell (-p, n^2 - (i - p) - 1) of the cell (p, i)."""
        return -p, self.n * self.n - (i - p) - 1

    def cohomological_rank(self, p: int, q: int) -> int:
        """Rank of the cohomological cell (p, q) of the complement: the unit
        class at (0, 0), else the cell (-p, n^2 - q - 1 - p) of the locus."""
        self.check_cell(p, q)
        if p == 0:
            return 1 if q == 0 else 0
        return self.rank(-p, self.n * self.n - q - 1 - p)


def spectral_table(n: int) -> SpectralTable:
    """The full first-page table: one block per index of size <= n, the top
    block (n) included, each lifted from its own size by
    :func:`block_poincare`.  It builds every column, so a table whose top
    block fails its checks raises that :class:`ConsistencyError`; the columns
    stay in the memo of :func:`spectral_column`, and the table holds only n.
    """
    table = SpectralTable(n)
    table.blocks  # build, and so check, every column
    return table


# --------------------------------------------------------------------------
# verifiers
# --------------------------------------------------------------------------


class MillerReport(NamedTuple):
    """Both sides of the classical splitting of H*(U(n)) over Grassmannians:
    prod_{i<=n} (1 + t^{2i-1})  ==  sum_p t^{p^2} [n choose p]_{t^2}."""

    n: int
    lhs: GradedDims
    rhs: GradedDims

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def miller_check(n: int) -> MillerReport:
    if n < 1:
        raise ValueError("n must be at least 1")
    lhs = GradedDims.one()
    for i in range(1, n + 1):
        lhs = lhs * GradedDims({0: 1, 2 * i - 1: 1})
    binomials = [gauss_multinomial(n, (p,) if p else ()).to_graded() for p in range(n + 1)]
    rhs = integer_combination([(1, b.times_power(p * p)) for p, b in enumerate(binomials)], 1)
    return MillerReport(n, lhs, rhs)


class CheckResult(NamedTuple):
    name: str
    location: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


#: One outcome of a check: (location, passed, detail).
_Outcome = tuple[str, bool, str]


def _check_block_parity(n: int, budget: int) -> Iterator[_Outcome]:
    """Every block lives in degrees of the parity opposite to n.  The engine
    builds the blocks in q and :func:`block_poincare` applies their one
    t-shift ``t^{|A| - 1 + d^2}`` at the table edge, whose parity is (n + 1)
    mod 2 for every A; so here it holds by construction, and it guards that
    shift against an edit of the wrong parity."""
    for A, poly in spectral_table(n).blocks:
        bad = [e for e in poly.support() if e % 2 == n % 2]
        yield f"A={A}, n={n}", not bad, f"offending degrees {bad}" if bad else ""


def _check_table_total(n: int, budget: int) -> Iterator[_Outcome]:
    """The blocks add up to the total, and their total rank is n! - 1, the
    reduced rank of the complete flag manifold.  The two sides are built
    independently: the blocks from the flag traces and the closed-form top
    blocks, the total from the complement ring by Alexander duality.  The
    rank compares the total with n! independently of how it was built, but
    it is the t = 1 shadow of the total and cannot see a degree shift."""
    expected = total_discriminant_poincare(n)
    got = spectral_table(n).total()
    if got != expected:
        detail = f"sum {got} != total {expected}"
    elif got(1) != factorial(n) - 1:
        detail = f"table rank {got(1)} != n! - 1 = {factorial(n) - 1}"
    else:
        detail = ""
    yield f"n={n}", not detail, detail


def _check_h_poly(n: int, budget: int) -> Iterator[_Outcome]:
    """Each open-cone series up to n builds: its closed form divides exactly
    by a and has nonnegative ranks (both checked when it is built)."""
    for a in range(2, n + 1):
        try:
            h_poly(a)
        except ConsistencyError as exc:
            yield f"a={a}", False, str(exc)
        else:
            yield f"a={a}", True, ""


def _check_miller(n: int, budget: int) -> Iterator[_Outcome]:
    """The splitting of H*(U(n)) over Grassmannians."""
    report = miller_check(n)
    yield f"n={n}", report.ok, "" if report.ok else f"{report.lhs} != {report.rhs}"


def _check_gamma_oracle(n: int, budget: int) -> Iterator[_Outcome]:
    """``gamma_trace`` agrees with the brute-force average wherever |W_A| is
    within ``budget``, and every nontrivial class traces to 0 at q = 1.  The
    oracle runs first, and ``gamma_trace`` only where the oracle answers.
    On an orbit of c >= 2 groups of a points the oracle visits all a!^c
    tuples, counts their composites around the orbit and reads the cycle
    type of each distinct composite once (``flagchar._orbit_cycle_types``);
    it sums their coinvariant traces once per orbit shape
    (``flagchar._orbit_trace_sum``), and a class costs one q-multinomial of
    its orbit sizes times these sums.  The collapse ``gamma_trace`` rests on
    is checked for every part size a = 2..n, also where every class is over
    the budget; it adds an outcome only when it fails."""
    for a in range(2, n + 1):
        try:
            flagchar._collapsed_denominator(a)
        except ConsistencyError as exc:
            yield f"a={a}, n={n}", False, str(exc)
    for A in multiindices(n, n - 1):
        for cls in conjugacy_classes(A):
            try:
                slow = flagchar.gamma_trace_naive(A, n, cls, budget=budget)
                fast = flagchar.gamma_trace(A, n, cls)
            except flagchar.BudgetExceededError:
                continue
            except ConsistencyError as exc:
                ok, detail = False, str(exc)
            else:
                if fast != slow:
                    ok, detail = False, f"traces disagree: fast {fast} vs naive {slow}"
                elif not cls.is_trivial and fast(1) != 0:
                    ok, detail = False, f"nontrivial trace {fast} is nonzero at q = 1"
                else:
                    ok, detail = True, ""
            # formatted only once the oracle has answered
            yield f"A={A}, n={n}, cls={cls}", ok, detail


#: The checks ``verify`` runs, in report order.
_CHECKS: dict[str, Callable[[int, int], Iterator[_Outcome]]] = {
    "block-parity": _check_block_parity,
    "table-total": _check_table_total,
    "h-poly": _check_h_poly,
    "miller": _check_miller,
    "gamma-oracle": _check_gamma_oracle,
}

ALL_CHECKS = tuple(_CHECKS)


def verify(
    n: int,
    checks: tuple[str, ...] | None = None,
    budget: int = flagchar.NAIVE_BUDGET,
) -> VerificationReport:
    """Run the selected checks for ambient dimension n, in the order of
    :data:`ALL_CHECKS`, and report every outcome; failures are collected, not
    raised; an empty selection, which would pass, raises ``ValueError``.  A
    check that raises :class:`ConsistencyError` keeps the outcomes it
    already reported and gets one failed outcome at ``n={n}``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    selected = ALL_CHECKS if checks is None else tuple(checks)
    if not selected:
        raise ValueError(f"no checks selected; known: {ALL_CHECKS}")
    unknown = set(selected) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; known: {ALL_CHECKS}")
    results: list[CheckResult] = []
    for name, check in _CHECKS.items():
        if name not in selected:
            continue
        try:
            for location, passed, detail in check(n, budget):
                results.append(CheckResult(name, location, passed, detail))
        except ConsistencyError as exc:
            results.append(CheckResult(name, f"n={n}", False, str(exc)))
    return VerificationReport(n, tuple(results))
