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

    sum_{lambda |- a} (1/z_lambda) prod_k 1 / (1 - q^{c lambda_k}),

and the free part contributes the same factor with c = 1 over partitions of
d.  Over the common denominator prod_{j<=a}(1 - q^{c j}) every such factor
sums to exactly 1 (the Molien series of the permutation action of S_a on a
polynomial ring); this collapse is recomputed and checked on every call, so
the trace reduces to a single exact division by the product of the common
denominators.

``gamma_trace_naive`` is the guard for all of this: it averages coinvariant
traces over an explicit enumeration of W_A and must agree with ``gamma_trace``
everywhere within its budget.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, prod

from .qcombinat import (
    BlockClass,
    BudgetExceededError,
    ConsistencyError,
    MultiIndex,
    QPoly,
    centralizer_order,
    conjugacy_classes,
    integer_combination,
    one_minus_q,
    partitions,
    q_pochhammer,
)

#: Largest parabolic group the brute-force oracle will enumerate (8! covers
#: every multi-index in ambient dimension up to 8).
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
    denominator = QPoly.one()
    for part in mu:
        denominator = denominator * one_minus_q(part)
    return q_pochhammer(n).exact_div(denominator)


@cache
def _averaged_denominator(m: int, step: int) -> QPoly:
    """Common denominator of the partition-averaged factor for m blocks moved
    in steps of ``step``; checks that the averaged numerator collapses to 1."""
    if m == 0:
        return QPoly.one()
    denominator = q_pochhammer(m, step)
    pairs = []
    for lam in partitions(m, 1):
        lam_product = QPoly.one()
        for part in lam:
            lam_product = lam_product * one_minus_q(step * part)
        pairs.append((Fraction(1, centralizer_order(lam)), denominator.exact_div(lam_product)))
    if integer_combination(pairs, QPoly) != QPoly.one():
        raise ConsistencyError(
            f"partition average for m={m}, step={step} did not collapse to 1"
        )
    return denominator


@cache
def gamma_trace(A: MultiIndex, n: int, cls: BlockClass) -> QPoly:
    """Graded trace (in q) of a block permutation in the class ``cls`` on the
    cohomology of the flag manifold of ordered orthogonal collections of
    shape ``A`` in C^n."""
    if A.size > n:
        raise ValueError(f"index {A} does not fit in ambient dimension {n}")
    denominator = QPoly.one()
    for c, a in cls.cycles:
        denominator = denominator * _averaged_denominator(a, c)
    denominator = denominator * _averaged_denominator(n - A.size, 1)
    return q_pochhammer(n).exact_div(denominator)


def _block_positions(A: MultiIndex, n: int) -> tuple[list[list[int]], list[int]]:
    """Consecutive coordinate blocks for the parts of A, plus the remainder."""
    blocks: list[list[int]] = []
    offset = 0
    for a in A.parts:
        blocks.append(list(range(offset, offset + a)))
        offset += a
    return blocks, list(range(offset, n))


def class_representative(A: MultiIndex, n: int, cls: BlockClass) -> tuple[int, ...]:
    """A concrete permutation of range(n) in the class: each block cycle maps
    every block identically onto the next one."""
    if A.size > n:
        raise ValueError(f"index {A} does not fit in ambient dimension {n}")
    blocks, _ = _block_positions(A, n)
    perm = list(range(n))
    block_index = 0
    rho = dict(cls.rho)
    for size, mult in A.multiplicities():
        cycle_type = rho.get(size)
        if cycle_type is None or sum(cycle_type) != mult:
            raise ValueError(f"class {cls} does not match the shape of {A}")
        for c in cycle_type:
            members = range(block_index, block_index + c)
            for j in members:
                target = block_index + (j - block_index + 1) % c
                for src, dst in zip(blocks[j], blocks[target]):
                    perm[src] = dst
            block_index += c
    return tuple(perm)


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation given as a tuple of images, parts descending."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def gamma_trace_naive(
    A: MultiIndex, n: int, cls: BlockClass, budget: int = NAIVE_BUDGET
) -> QPoly:
    """Brute-force value of :func:`gamma_trace`: average the coinvariant trace
    of sigma * u over every u in the parabolic group W_A."""
    if A.size > n:
        raise ValueError(f"index {A} does not fit in ambient dimension {n}")
    blocks, rest = _block_positions(A, n)
    groups = [g for g in blocks + [rest] if g]
    group_order = prod(factorial(len(g)) for g in groups)
    if group_order > budget:
        raise BudgetExceededError(
            f"|W_A| = {group_order} exceeds the enumeration budget {budget}"
        )
    sigma = class_representative(A, n, cls)
    counts: Counter[tuple[int, ...]] = Counter()
    for images in itertools.product(*(itertools.permutations(g) for g in groups)):
        u = list(range(n))
        for group, image in zip(groups, images):
            for src, dst in zip(group, image):
                u[src] = dst
        counts[cycle_type(tuple(sigma[u[i]] for i in range(n)))] += 1
    pairs = [
        (Fraction(count, group_order), coinvariant_trace(n, mu))
        for mu, count in sorted(counts.items())
    ]
    return integer_combination(pairs, QPoly)


@dataclass(frozen=True)
class GammaCharacter:
    """The full graded character table of the block-permutation action on the
    flag cohomology for one (A, n)."""

    A: MultiIndex
    n: int
    values: tuple[tuple[BlockClass, QPoly], ...]

    def value(self, cls: BlockClass) -> QPoly:
        return dict(self.values)[cls]

    def isotypic(self, chi: str) -> QPoly:
        """Graded multiplicity of a rank-1 character: average of
        class_size * chi(class) * trace / |S(A)|.  Coefficients are ranks and
        must come out nonnegative integers."""
        if chi not in CHARACTERS:
            raise ValueError(f"unknown character {chi!r}; expected one of {CHARACTERS}")
        order = self.A.symmetry_order
        pairs = []
        for cls, trace in self.values:
            chi_value = 1 if chi == "trivial" else cls.sign
            pairs.append((Fraction(cls.class_size * chi_value, order), trace))
        result = integer_combination(pairs, QPoly)
        if not result.nonnegative():
            raise ConsistencyError(
                f"negative isotypic rank for {self.A}, n={self.n}, chi={chi}"
            )
        return result


def gamma_character(A: MultiIndex, n: int) -> GammaCharacter:
    """Traces of every conjugacy class of equal-block permutations."""
    values = tuple((cls, gamma_trace(A, n, cls)) for cls in conjugacy_classes(A))
    return GammaCharacter(A, n, values)


def gamma_poincare(A: MultiIndex, n: int, chi: str = "trivial") -> QPoly:
    """Poincare polynomial (in q) of the cohomology of the manifold of
    *unordered* orthogonal collections of shape ``A`` in C^n, with constant
    coefficients (``chi="trivial"``) or with the rank-1 local system where a
    loop permuting equal blocks acts by the permutation sign (``chi="sign"``).
    """
    return gamma_character(A, n).isotypic(chi)
