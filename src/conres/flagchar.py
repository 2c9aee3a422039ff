"""Graded characters of block permutations on flag-manifold cohomology.

For a multi-index ``A = (a_1 >= ... >= a_l)`` with ``|A| <= n``, the ordered
collections of pairwise orthogonal subspaces of dimensions ``a_1, ..., a_l``
in C^n form a partial flag manifold.  Its cohomology is the subspace of the
coinvariant algebra of S_n (polynomials in n variables modulo symmetric ones)
invariant under the parabolic subgroup W_A = S_{a_1} x ... x S_{a_l} x S_d,
d = n - |A|.  The group S(A) permuting equal-size blocks acts on this
cohomology; unordered collections are the quotient by that action, and the
per-character isotypic dimensions below are the Poincare polynomials of the
quotient with the corresponding rank-1 coefficient system.

The graded trace of a permutation of cycle type mu on the coinvariant algebra
is the exact quotient

    prod_{i=1..n} (1 - q^i)  /  prod_j (1 - q^{mu_j}).

Averaging such traces over a coset sigma W_A factorizes over the block cycles
of sigma: the composite of c independently uniform elements of S_a around a
cycle is again uniform on S_a, so each block cycle of length c over size-a
blocks contributes the partition-averaged factor

    sum_{lambda |- a} (1/z_lambda) prod_k 1 / (1 - q^{c lambda_k}).

Over the common denominator prod_{j<=a}(1 - q^{c j}) every such factor sums
to exactly 1 (the Molien series of the permutation action of S_a on a
polynomial ring).  Each c > 1 is the q -> q^c image of c = 1, so the collapse
is checked once per block size a, by the shared S_m average below:
``_cycle_average(1, a, None, "trivial")``, the S_a class average of the
coinvariant traces, is 1.  sigma fixes the free part, whose S_d
averages to 1 / prod_{j<=d} (1 - q^j) by the same collapse, checked where a
block of size d is read and by the oracle's free orbit below; so, like the
largest part's in ``gauss_multinomial``, those factors are never built.
The trace is prod_{d<i<=n} (1 - q^i) with the factors 1 - q^{c j}, j <= a,
of every block cycle divided out one by one, each a running sum with
stride c j.  A class is read only if it is one of ``conjugacy_classes(A)``.

``gamma_trace_naive`` is the guard for all of this: it averages coinvariant
traces over an explicit enumeration of W_A and must agree with ``gamma_trace``
everywhere within its budget.  The orbits of sigma on the blocks are read
off the class: a block cycle of length c over size-a blocks is an orbit of c
groups of a points, each mapped identically onto the next.  The free part,
which the class does not list, is one more orbit: a fixed group of d points.
By orbit restriction (sigma * u maps each orbit's points onto themselves)
and the closed form above, the trace of sigma * u is the q-multinomial of
the orbit sizes times those of its restrictions; so the traces are summed
once per orbit shape (c, a), and a class takes one q-multinomial times them.
On an orbit of one group (the free part, or a fixed block) sigma is the
identity and the counts are the classical a! / z_lambda.  On an orbit of c
>= 2 groups of a points all a!^c tuples u are visited, but none is walked
point by point: sigma * u maps each group onto the next, so every one of its
cycles meets the first group, and its cycle type is c times that of the
composite pi = u_{c-1} o ... o u_0, the return map to the first group.  pi
is formed explicitly for each tuple, as the bytes of its images, and the
composites are counted; the cycle type of each distinct one is walked
once.  The oracle uses neither the uniform composite nor the
collapse above, and shares no count with ``_cycle_average``, which reads
no z_lambda (``centralizer_order``); the oracle's z_lambda is guarded by
``tests/test_flagchar.py::test_one_group_orbits_count_each_cycle_type_by_its_class_size``,
which enumerates S_a for a <= 8, and
``test_orbit_counts_equal_the_concatenate_and_walk_reference`` walks every
orbit of c >= 2 groups within the budget point by point.

A class of S(A) is one cycle type lambda |- m per part size a of multiplicity
m, and its trace, size and sign factor over the part sizes.  So the weighted
S(A) average of the traces at n = s = |A| is [s; a m, ...]_q times one factor
``_cycle_average`` per (a, m), P_{a,m} = (q;q)_{am} h_m[F / (q;q)_a] (e_m for
the sign character; F = 1 for the quotient homology, L_a for the blocks).
``_own_size_average`` builds it one part size at a time: the average of A
without its smallest part size a, of multiplicity m, times the memoized
factor [s; am]_q P_{a,m}, by the chain rule of the q-multinomial; so an
index with several part sizes costs one product, and the sign check runs
on the single-size averages P_{a,m} it is made of.
``class_average`` over ``gamma_trace`` is the class-by-class oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from math import factorial, prod
from typing import Callable, Sequence, TypeVar

from .qcombinat import (
    BlockClass,
    BudgetExceededError,
    ConsistencyError,
    GradedDims,
    MultiIndex,
    QPoly,
    block_cycles,
    centralizer_order,
    conjugacy_classes,
    divide_out,
    gauss_multinomial,
    integer_combination,
    partitions,
    q_pochhammer,
)

_P = TypeVar("_P", QPoly, GradedDims)

#: Largest parabolic group |W_A| the brute-force oracle accepts (8! covers
#: every multi-index in ambient dimension up to 8).  It bounds the order of
#: W_A, not the work done: only the orbits of two or more groups are
#: enumerated, each shape once, and a one-group orbit is counted in closed
#: form.  An orbit of c >= 2 groups of a points still visits all a!^c
#: tuples, composing each one's return map to its first group as bytes and
#: counting the composites, and walks only the a! distinct composites point
#: by point.
NAIVE_BUDGET = factorial(8)

CHARACTERS = ("trivial", "sign")


@cache
def coinvariant_trace(n: int, mu: tuple[int, ...]) -> QPoly:
    """Graded trace of a permutation of cycle type ``mu`` on the coinvariant
    algebra of S_n.  The division is exact; a remainder is a bug."""
    if sum(mu) != n:
        raise ValueError(f"cycle type {mu} is not a partition of {n}")
    if any(part < 1 for part in mu):
        raise ValueError(f"cycle type {mu} has invalid parts")
    return divide_out(q_pochhammer(n), mu)


@cache
def _collapsed_denominator(a: int) -> range:
    """Exponents 1..a of the common denominator prod (1 - q^j) of the
    partition-averaged factor of size-a blocks; checks that the factor
    collapses, i.e. that the S_a class average of the coinvariant traces,
    :func:`_cycle_average` for a parts of size 1, is 1."""
    if _cycle_average(1, a, None, "trivial") != QPoly.one():
        raise ConsistencyError(f"partition average for a={a} did not collapse to 1")
    return range(1, a + 1)


@cache
def gamma_trace(A: MultiIndex, n: int, cls: BlockClass) -> QPoly:
    """Graded trace (in q) of a block permutation in the class ``cls`` on the
    cohomology of the flag manifold of ordered orthogonal collections of
    shape ``A`` in C^n."""
    cycles, d = block_cycles(A, n, cls)
    exponents = [c * j for c, a in cycles for j in _collapsed_denominator(a)]
    return divide_out(q_pochhammer(n, d), exponents)


def cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    """Cycle type of a permutation given as its sequence of images (a tuple,
    or the bytes of one on at most 256 points), parts descending."""
    seen = bytearray(len(perm))
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = 1
            j = perm[j]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _orbit_cycle_types(c: int, a: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(cycle type, count) pairs of sigma * u on one orbit of c groups of a
    points, which sigma maps each identically onto the next, over every u =
    (u_0, ..., u_{c-1}) in the product of the groups' symmetric groups.
    Orbits recur across classes and multi-indices; the memo of its one
    caller, :func:`_orbit_trace_sum`, counts each once.

    On one group (c = 1: the free part or a fixed block) sigma is the
    identity, so sigma * u runs over S_a and each cycle type lambda occurs
    a! / z_lambda times (z_lambda is ``centralizer_order``).  On c >= 2
    groups all a!^c tuples u are visited: sigma * u maps group g onto group
    g + 1 (mod c), so from a point i of group 0 it first comes back to group
    0 after c steps, at pi(i) with pi = u_{c-1} o ... o u_0.  Every cycle
    of sigma * u thus meets group 0, and its cycle type is c times that of
    pi.  Each permutation is held as the bytes of its images, and the
    composite of each tuple is formed explicitly, u o path being
    ``path.translate(u + pad)`` (``pad`` fixes the bytes a..255), never
    assumed uniform on S_a.  The composites are counted as bytes; then the
    cycle type of each distinct one, a! of them, is walked once, each part
    multiplied by c, and adds its count."""
    if c == 1:
        return tuple((lam, factorial(a) // centralizer_order(lam)) for lam in partitions(a))
    pad = bytes(range(a, 256))
    tables = [bytes(perm) + pad for perm in itertools.permutations(range(a))]
    paths = [bytes(range(a))]
    for _ in range(c - 1):  # u_{c-2} o ... o u_0, one path per prefix
        paths = [path.translate(u) for path in paths for u in tables]
    composites = Counter(path.translate(u) for path in paths for u in tables)
    counts: Counter[tuple[int, ...]] = Counter()
    for pi, count in composites.items():
        counts[tuple(c * part for part in cycle_type(pi))] += count
    return tuple(counts.items())


@cache
def _orbit_trace_sum(c: int, a: int) -> tuple[QPoly, int]:
    """T(c, a): the coinvariant traces of sigma * u on one orbit of c groups
    of a points, summed over its tuples u by the counts of
    :func:`_orbit_cycle_types`, and the number of tuples."""
    counts = _orbit_cycle_types(c, a)
    pairs = [(count, coinvariant_trace(c * a, nu)) for nu, count in counts]
    return integer_combination(pairs, 1), sum(count for _, count in counts)


def gamma_trace_naive(
    A: MultiIndex, n: int, cls: BlockClass, budget: int = NAIVE_BUDGET
) -> QPoly:
    """Brute-force value of :func:`gamma_trace`: average the coinvariant trace
    of sigma * u over every u in the parabolic group W_A.

    W_A is taken one sigma-orbit of groups (blocks and free part) at a time.
    sigma * u maps the points of each orbit onto themselves, so its cycle
    type is the union of those of its restrictions, and its trace is the
    q-multinomial [n; s_1, ..., s_k]_q of the orbit sizes times theirs (both
    sides are (q;q)_n / prod (1 - q^part)).  Summed over all u, that is the
    q-multinomial times the per-shape sums of :func:`_orbit_trace_sum`,
    divided exactly by |W_A|.  An orbit of one group is counted as a! /
    z_lambda per cycle type lambda (sigma is the identity there); on an
    orbit of c >= 2 groups every tuple is visited, and its cycle type is c
    times that of its composite around the orbit (see
    :func:`_orbit_cycle_types`).  Nothing else is assumed: neither the
    uniform composite around a block cycle nor the collapse of the
    partition average that :func:`gamma_trace` uses.  The tuple counts must
    multiply to |W_A|, or it raises."""
    cycles, d = block_cycles(A, n, cls)
    group_order = prod(factorial(a) for a in A.parts) * factorial(d)
    if group_order > budget:
        raise BudgetExceededError(
            f"|W_A| = {group_order} exceeds the enumeration budget {budget}"
        )
    orbits = cycles + ((1, d),) if d else cycles
    sums = [_orbit_trace_sum(c, a) for c, a in orbits]
    enumerated = prod(count for _, count in sums)
    if enumerated != group_order:
        raise ConsistencyError(
            f"the orbits of class {cls} count {enumerated} elements of W_A, not {group_order}"
        )
    total = prod((trace for trace, _ in sums), start=gauss_multinomial(n, [c * a for c, a in orbits]))
    return integer_combination([(1, total)], group_order)


def _weight(chi: str, sign: int) -> int:
    """``chi`` at a class of permutation sign ``sign``: the one check of a character name."""
    if chi not in CHARACTERS:
        raise ValueError(f"unknown character {chi!r}; expected one of {CHARACTERS}")
    return sign if chi == "sign" else 1


def class_average(A: MultiIndex, trace: Callable[[BlockClass], _P], chi: str = "trivial") -> _P:
    """Average of a class function over the group S(A) permuting equal blocks,
    weighted by the character ``chi``: the sum of chi(cls) * class_size *
    trace(cls) / |S(A)| over its classes, where chi scales the integer class
    size, never the trace.  A negative rank raises :class:`ConsistencyError`."""
    pairs = [(_weight(chi, cls.sign) * cls.class_size, trace(cls)) for cls in conjugacy_classes(A)]
    result = integer_combination(pairs, A.symmetry_order)
    if not result.nonnegative():
        raise ConsistencyError(f"negative rank in the class average over S({A})")
    return result


@cache
def _cycle_average(a: int, m: int, factor: Callable[[int], QPoly] | None, chi: str) -> QPoly:
    """P_{a,m} = (q;q)_{am} h_m[F / (q;q)_a], e_m for h_m under the sign
    character, with F = ``factor(a)``, or 1 if ``factor`` is None: the
    chi-weighted S_m average over cycle types lambda of (q;q)_{am} prod_{c in
    lambda} F(q^c) / (q^c;q^c)_a.  By Newton's identity (Macdonald, I.2),

        m P_{a,m} = sum_{k <= m} eps_k F(q^k) R_k P_{a,m-k},   P_{a,0} = 1,
        R_k = (q;q)_{am} / ((q;q)_{a(m-k)} (q^k;q^k)_a),

    eps_k = chi(k-cycle); each R_k is one exact ``divide_out``, and a
    remainder there or in the division by m raises."""
    pairs = []
    for k in range(1, m + 1):
        term = divide_out(q_pochhammer(a * m, a * (m - k)), [k * j for j in range(1, a + 1)])
        if k < m:  # P_{a,0} = 1 is neither read nor kept in the memo
            term = term * _cycle_average(a, m - k, factor, chi)
        if factor:
            term = term * factor(a).substitute_power(k)
        pairs.append((_weight(chi, (-1) ** (k - 1)), term))
    return integer_combination(pairs, m)


@cache
def _own_size_average(A: MultiIndex, factor: Callable[[int], QPoly] | None, chi: str) -> QPoly:
    """The chi-weighted S(A) average at n = s = |A| of the flag traces
    (``gamma_trace``) times prod F(q^c) per block cycle (c, a), with the
    smallest part size a of A, of multiplicity m, peeled off: by the chain
    rule [s; x_1, ..., x_k]_q = [s - am; x_1, ..., x_{k-1}]_q [s; am]_q of
    the q-multinomial over the (a, m) of A, it is the average of A without
    those m parts times :func:`_peeled_factor`, one product.  For a single
    part size it is P_{a,m} = ``_cycle_average(a, m, factor, chi)`` itself,
    and a negative rank there raises :class:`ConsistencyError`, before a
    lift could cancel it.  A multi-size average is a product of such
    checked averages and nonnegative q-binomials, so it is not scanned."""
    *rest, (a, m) = A.multiplicities()
    if rest:
        return _own_size_average(MultiIndex(A.parts[:-m]), factor, chi) * _peeled_factor(A.size, a, m, factor, chi)
    average = _cycle_average(a, m, factor, chi)
    if not average.nonnegative():
        raise ConsistencyError(f"negative rank in the {chi} S({A}) average at n={A.size}")
    return average


@cache
def _peeled_factor(s: int, a: int, m: int, factor: Callable[[int], QPoly] | None, chi: str) -> QPoly:
    """[s; am]_q P_{a,m}: what m parts of size a, the smallest of an index
    of size s, multiply the average of the other parts by.  P_{a,m} is read
    as the checked average of the single-size index (a^m)."""
    return _own_size_average(MultiIndex((a,) * m), factor, chi) * gauss_multinomial(s, (a * m,))


def gamma_poincare(A: MultiIndex, n: int, chi: str = "trivial") -> QPoly:
    """Poincare polynomial (in q) of the cohomology of the manifold of
    *unordered* orthogonal collections of shape ``A`` in C^n, with constant
    coefficients (``chi="trivial"``) or with the rank-1 local system where a
    loop permuting equal blocks acts by the permutation sign (``chi="sign"``):
    the factored S(A) average at n = |A| (:func:`_own_size_average`), lifted
    to d = n - |A| by ``[n; |A|]_q``, both checked for negative ranks."""
    A.liberty(n)  # an index that does not fit in C^n raises here
    return _own_size_average(A, None, chi) * gauss_multinomial(n, (A.size,))
