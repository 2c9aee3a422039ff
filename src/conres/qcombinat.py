"""Exact polynomial arithmetic and block-partition combinatorics.

Everything downstream is bookkeeping with two kinds of integer polynomials:

* ``QPoly`` -- polynomials in ``q``, where the coefficient of ``q^k`` is the
  rank of a cohomology group in real degree ``2k``.  Complex manifolds with
  algebraic cell decompositions (Grassmannians, partial flag manifolds) live
  here.
* ``GradedDims`` -- Laurent polynomials in ``t``, where the coefficient of
  ``t^j`` is the rank of a (Borel-Moore) homology group in degree ``j``.

The only bridge between the two gradings is :meth:`QPoly.to_graded`, which
doubles every exponent (``q = t^2``).  There is deliberately no implicit
coercion: off-by-one degree shifts are the dominant failure mode in this kind
of computation, and keeping the gradings in separate types makes them
impossible to confuse silently.

Both are stored densely: a low exponent plus the tuple of coefficients up to
the degree, trimmed at both ends.  Products go through one big-integer product
(Kronecker substitution) when the coefficients fit 64-bit slots, exact
division is a single synthetic-division pass that stops at the first
remainder, and rational averages of polynomials are summed in integers over
the common denominator, which is divided out once per coefficient at the end.

The module also owns the index combinatorics: integer partitions,
multi-indices ``A`` of eigenvalue multiplicities, and the conjugacy classes of
the group permuting equal-size parts of ``A``.
"""

from __future__ import annotations

import itertools
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from typing import Callable, Iterable, Mapping, Sequence, TypeVar


class ConsistencyError(RuntimeError):
    """A quantity that must hold by theory came out wrong.

    This always signals a bug (or a deliberately falsified sign convention),
    never bad user input.
    """


class InexactDivisionError(ConsistencyError):
    """A polynomial division that must be exact left a remainder."""


class BudgetExceededError(RuntimeError):
    """A brute-force oracle was asked to enumerate more than its budget."""


# --------------------------------------------------------------------------
# dense integer polynomials
# --------------------------------------------------------------------------

_P = TypeVar("_P", bound="_SparsePoly")

#: Most exponents one polynomial may span (highest minus lowest, plus one).
#: Storage is dense, so the span bounds memory; the polynomials of ambient
#: dimension n span O(n^2) exponents, far below this.  Every polynomial passes
#: the check in ``_SparsePoly._set``; sums and substitutions, whose working
#: buffer can be far wider than their operands, check it before allocating.
MAX_SPAN = 1 << 22


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise ValueError(f"a polynomial may span at most {MAX_SPAN} exponents, not {span}")


def _zeros(span: int) -> list[int]:
    _check_span(span)
    return [0] * span


#: Coefficients (and products of coefficients) below this magnitude fit one
#: signed 64-bit slot, so products can go through a single integer product.
_SLOT_BOUND = 1 << 63


def _slot_offsets(length: int) -> int:
    # 2^63 in each of ``length`` 64-bit slots
    return int.from_bytes(b"\0\0\0\0\0\0\0\x80" * length, "little")


def _pack_slots(coeffs: Sequence[int]) -> int:
    """sum_i coeffs[i] * 2^(64 i) for |coeffs[i]| < 2^63."""
    offsets = _slot_offsets(len(coeffs))
    # flipping the top bit of each two's-complement slot adds 2^63 to it
    raw = int.from_bytes(struct.pack(f"<{len(coeffs)}q", *coeffs), "little")
    return (raw ^ offsets) - offsets


def _unpack_slots(value: int, length: int) -> tuple[int, ...]:
    """Inverse of :func:`_pack_slots` for ``length`` slots."""
    offsets = _slot_offsets(length)
    return struct.unpack(f"<{length}q", ((value + offsets) ^ offsets).to_bytes(8 * length, "little"))


class _SparsePoly:
    """Immutable polynomial with integer coefficients, stored densely.

    Stored as a low exponent ``_low`` plus the tuple ``_coeffs`` of the
    coefficients of ``x^_low, x^(_low+1), ...``, trimmed so that both end
    coefficients are nonzero (the zero polynomial is ``0, ()``); equality is
    therefore structural.  Subclasses fix the variable name and whether
    negative exponents are allowed.  ``perfbench/tracer.py`` wraps the
    arithmetic methods by this class name, so the name stays.
    """

    __slots__ = ("_low", "_coeffs")

    _var = "x"
    _allow_negative = True

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exponent, coefficient in items:
            if not isinstance(exponent, int) or not isinstance(coefficient, int):
                raise TypeError("exponents and coefficients must be integers")
            acc[exponent] = acc.get(exponent, 0) + coefficient
        acc = {e: c for e, c in acc.items() if c}
        low = min(acc, default=0)
        dense = _zeros(max(acc) - low + 1 if acc else 0)
        for exponent, coefficient in acc.items():
            dense[exponent - low] = coefficient
        self._set(low, dense)

    def _set(self, low: int, coeffs: Sequence[int]) -> None:
        start, stop = 0, len(coeffs)
        while stop and not coeffs[stop - 1]:
            stop -= 1
        while start < stop and not coeffs[start]:
            start += 1
        if start == stop:
            low, coeffs = 0, ()
        else:
            low += start
            if low < 0 and not self._allow_negative:
                raise ValueError(f"{type(self).__name__} does not allow negative exponents")
            _check_span(stop - start)
            coeffs = tuple(coeffs[start:stop])
        self._low = low
        self._coeffs = coeffs

    @classmethod
    def _dense(cls: type[_P], low: int, coeffs: Sequence[int]) -> _P:
        """Trusted constructor: coefficients of x^low, x^(low+1), ... (ints)."""
        poly = object.__new__(cls)
        poly._set(low, coeffs)
        return poly

    @classmethod
    def zero(cls: type[_P]) -> _P:
        return cls()

    @classmethod
    def one(cls: type[_P]) -> _P:
        return cls({0: 1})

    @classmethod
    def term(cls: type[_P], exponent: int, coefficient: int = 1) -> _P:
        return cls({exponent: coefficient})

    def coefficient(self, exponent: int) -> int:
        i = exponent - self._low
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        low = self._low
        return tuple((low + i, c) for i, c in enumerate(self._coeffs) if c)

    def support(self) -> tuple[int, ...]:
        low = self._low
        return tuple(low + i for i, c in enumerate(self._coeffs) if c)

    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return self._low + len(self._coeffs) - 1

    def min_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return self._low

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._low == other._low
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._low, self._coeffs))

    def __neg__(self: _P) -> _P:
        return self._dense(self._low, [-c for c in self._coeffs])

    def _check_same_type(self, other: object) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__};"
                " convert explicitly"
            )

    def _combine(self: _P, other: _P, op: Callable[[int, int], int]) -> _P:
        self._check_same_type(other)
        if not other._coeffs:
            return self
        low = min(self._low, other._low) if self._coeffs else other._low
        high = max(self._low + len(self._coeffs), other._low + len(other._coeffs))
        acc = _zeros(high - low)
        i = self._low - low
        acc[i : i + len(self._coeffs)] = self._coeffs
        i = other._low - low
        acc[i : i + len(other._coeffs)] = map(op, acc[i : i + len(other._coeffs)], other._coeffs)
        return self._dense(low, acc)

    def __add__(self: _P, other: _P) -> _P:
        return self._combine(other, operator.add)

    def __sub__(self: _P, other: _P) -> _P:
        return self._combine(other, operator.sub)

    def __mul__(self: _P, other: _P | int) -> _P:
        if isinstance(other, int):
            return self._dense(self._low, [c * other for c in self._coeffs])
        self._check_same_type(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return type(self)()
        if min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)) < _SLOT_BOUND:
            # Kronecker substitution: evaluate both at x = 2^64 (one signed
            # 64-bit slot per coefficient), multiply the integers, read the
            # slots of the product back; no coefficient can carry over.
            length = len(a) + len(b) - 1
            product = _unpack_slots(_pack_slots(a) * _pack_slots(b), length)
        else:
            # struct packs no wider slot, and packing wider slots one
            # coefficient at a time loses most of the gain; no product of
            # the spectral tables up to n = 18 needs more, so rows suffice
            product = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    window = product[i : i + len(b)]
                    product[i : i + len(b)] = map(operator.add, window, map(c.__mul__, b))
        return self._dense(self._low + other._low, product)

    def __rmul__(self: _P, other: int) -> _P:
        return self.__mul__(other)

    def __call__(self, value: int) -> int:
        """Evaluate at an integer, e.g. at q = 1 for a total rank."""
        return sum(c * value**e for e, c in self.items())

    def substitute_power(self: _P, c: int) -> _P:
        """Multiply every exponent by c >= 1, keeping coefficients."""
        if not isinstance(c, int) or c < 1:
            raise ValueError("substitution power must be a positive integer")
        if not self._coeffs:
            return self
        acc = _zeros((len(self._coeffs) - 1) * c + 1)
        acc[::c] = self._coeffs
        return self._dense(self._low * c, acc)

    def times_power(self: _P, k: int) -> _P:
        """Multiply by the k-th power of the variable (degree shift)."""
        if not isinstance(k, int):
            raise TypeError("exponents and coefficients must be integers")
        if not self._coeffs:
            return self
        return self._dense(self._low + k, self._coeffs)

    def exact_div(self: _P, divisor: _P) -> _P:
        """Divide exactly; raise :class:`InexactDivisionError` otherwise.

        One synthetic-division pass from the low end: quotient coefficient i
        is (numerator_i - sum_{j>=1} divisor_j quotient_{i-j}) / divisor_0,
        which must divide; past the last quotient coefficient the same sums
        must cancel the numerator exactly."""
        self._check_same_type(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        num, den = self._coeffs, divisor._coeffs
        if not num:
            return type(self)()
        length = len(num) - len(den) + 1
        if length < 1:
            raise InexactDivisionError(f"{self!r} is not divisible by {divisor!r}")
        d0, rest = den[0], den[:0:-1]
        top = len(rest)
        # padded[top + k] = quotient_k, so padded[i : i + top] lines up
        # quotient_{i-top} .. quotient_{i-1} with rest = divisor_top .. divisor_1
        padded = [0] * top
        for i in range(length):
            q_i, r = divmod(num[i] - sum(map(operator.mul, rest, padded[i : i + top])), d0)
            if r:
                raise InexactDivisionError(f"{self!r} is not divisible by {divisor!r}")
            padded.append(q_i)
        for i in range(length, len(num)):
            if num[i] != sum(map(operator.mul, rest, padded[i : i + top])):
                raise InexactDivisionError(f"{self!r} is not divisible by {divisor!r}")
        return self._dense(self._low - divisor._low, padded[top:])

    def is_palindromic(self) -> bool:
        return self._coeffs == self._coeffs[::-1]

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        chunks: list[str] = []
        for e, c in self.items():
            mono = "1" if e == 0 else (self._var if e == 1 else f"{self._var}^{e}")
            if e == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class QPoly(_SparsePoly):
    """Cohomology ranks of a complex manifold: coefficient of ``q^k`` = rank
    in real degree ``2k``.  Exponents are never negative."""

    __slots__ = ()
    _var = "q"
    _allow_negative = False

    def to_graded(self) -> "GradedDims":
        """The same ranks on the t-grading: every exponent doubles (q = t^2)."""
        return GradedDims._dense(self._low, self._coeffs).substitute_power(2)


class GradedDims(_SparsePoly):
    """Integer Laurent polynomial in ``t`` recording ranks by homological degree."""

    __slots__ = ()
    _var = "t"


def substitute_power(p: _P, c: int) -> _P:
    """Multiply every exponent of ``p`` by ``c`` (the graded trace of a
    c-cycle permuting c tensor copies of a graded vector space, signs aside)."""
    return p.substitute_power(c)


def one_minus_q(exponent: int) -> QPoly:
    """The factor ``1 - q^exponent``."""
    if exponent < 1:
        raise ValueError("exponent must be positive")
    return QPoly({0: 1, exponent: -1})


@cache
def q_pochhammer(k: int, step: int = 1) -> QPoly:
    """The product ``(1 - q^step)(1 - q^{2 step}) ... (1 - q^{k step})``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return QPoly.one()
    return q_pochhammer(k - 1, step) * one_minus_q(k * step)


def integer_combination(pairs: Iterable[tuple[Fraction, _P]], cls: type[_P]) -> _P:
    """Sum weight * polynomial with rational weights; the result must have
    integer coefficients (it is a rank), else :class:`ConsistencyError`.

    Every weight is scaled to the least common multiple of the denominators,
    the integer polynomials are summed, and each coefficient of the sum is
    checked for divisibility by that multiple once."""
    terms = [(Fraction(weight), poly) for weight, poly in pairs if poly]
    if not terms:
        return cls()
    scale = lcm(*(weight.denominator for weight, _ in terms))
    low = min(poly._low for _, poly in terms)
    acc = _zeros(max(poly._low + len(poly._coeffs) for _, poly in terms) - low)
    for weight, poly in terms:
        w = weight.numerator * (scale // weight.denominator)
        i = poly._low - low
        width = len(poly._coeffs)
        acc[i : i + width] = map(operator.add, acc[i : i + width], map(w.__mul__, poly._coeffs))
    if scale != 1:
        for i, c in enumerate(acc):
            acc[i], r = divmod(c, scale)
            if r:
                raise ConsistencyError(
                    f"non-integral rank {Fraction(c, scale)} at exponent {low + i}"
                )
    return cls._dense(low, acc)


# --------------------------------------------------------------------------
# partitions and multi-indices
# --------------------------------------------------------------------------


def partitions(m: int, min_part: int = 1) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``m`` with every part >= ``min_part``.

    Returned in lexicographically decreasing order, e.g.
    ``partitions(6, 2) == ((6,), (4, 2), (3, 3), (2, 2, 2))``.  The order is
    part of the contract: golden outputs depend on it.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if min_part < 1:
        raise ValueError("min_part must be at least 1")
    return _partitions_bounded(m, m, min_part)


@cache
def _partitions_bounded(m: int, max_part: int, min_part: int) -> tuple[tuple[int, ...], ...]:
    if m == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    for first in range(min(m, max_part), min_part - 1, -1):
        for rest in _partitions_bounded(m - first, first, min_part):
            out.append((first,) + rest)
    return tuple(out)


def centralizer_order(rho: Sequence[int]) -> int:
    """z_rho = prod over part sizes k of k^{m_k} * m_k!, the centralizer order
    of a permutation of cycle type ``rho``."""
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    return prod(k**m * factorial(m) for k, m in mult.items())


@dataclass(frozen=True)
class MultiIndex:
    """A weakly decreasing tuple of eigenvalue multiplicities, all >= 2.

    For an ambient dimension n (supplied per call), the derived quantities are
    the size ``|A|``, the length ``#A``, the complexity ``|A| - #A`` and the
    liberty ``n - |A|``.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p < 2 for p in self.parts):
            raise ValueError("every part must be at least 2")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def complexity(self) -> int:
        return self.size - self.length

    def liberty(self, n: int) -> int:
        if self.size > n:
            raise ValueError(f"index {self} does not fit in ambient dimension {n}")
        return n - self.size

    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """Pairs (part size, multiplicity), sizes descending."""
        return tuple((size, len(tuple(run))) for size, run in itertools.groupby(self.parts))

    @property
    def symmetry_order(self) -> int:
        """Order of the group permuting equal-size parts among themselves."""
        return prod(factorial(m) for _, m in self.multiplicities())

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """(complexity, lexicographically decreasing parts): the listing order."""
        return (self.complexity, tuple(-p for p in self.parts))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def multiindices(n: int, max_complexity: int) -> list[MultiIndex]:
    """All multi-indices with size <= n and complexity <= max_complexity,
    ordered by complexity, then lexicographically decreasing parts."""
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    out = [
        MultiIndex(parts)
        for s in range(2, n + 1)
        for parts in partitions(s, 2)
        if s - len(parts) <= max_complexity
    ]
    out.sort(key=MultiIndex.sort_key)
    return out


@dataclass(frozen=True)
class BlockClass:
    """A conjugacy class of the group permuting equal-size parts of a
    multi-index: one partition (cycle type) per distinct part size.

    ``rho`` pairs each distinct part size with the cycle type of the permutation
    of its equal-size parts, sizes descending.
    """

    rho: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def cycles(self) -> tuple[tuple[int, int], ...]:
        """All block cycles as (cycle length, part size) pairs."""
        return tuple((c, size) for size, cycle_type in self.rho for c in cycle_type)

    @property
    def class_size(self) -> int:
        return prod(
            factorial(sum(cycle_type)) // centralizer_order(cycle_type)
            for _, cycle_type in self.rho
        )

    @property
    def sign(self) -> int:
        """Sign character: product of (-1)^(c-1) over all block cycles."""
        return prod(-1 if c % 2 == 0 else 1 for c, _ in self.cycles)

    @property
    def is_trivial(self) -> bool:
        return all(c == 1 for c, _ in self.cycles)

    def __str__(self) -> str:
        return " ".join(
            f"{size}:({','.join(map(str, ct))})" for size, ct in self.rho
        ) or "()"


def conjugacy_classes(A: MultiIndex) -> list[BlockClass]:
    """Conjugacy classes of the equal-part permutation group of ``A``.

    Class sizes add up to the group order (prod of multiplicity factorials).
    The trivial class comes first.
    """
    mults = A.multiplicities()
    choices = [
        [(size, cycle_type) for cycle_type in _cycle_types_identity_first(m)]
        for size, m in mults
    ]
    return [BlockClass(tuple(combo)) for combo in itertools.product(*choices)]


def _cycle_types_identity_first(m: int) -> list[tuple[int, ...]]:
    # (1, 1, ..., 1) first, then the rest in the standard partition order
    all_types = list(partitions(m, 1))
    identity = (1,) * m
    all_types.remove(identity)
    return [identity] + all_types


def gauss_multinomial(n: int, parts: Sequence[int]) -> QPoly:
    """Gaussian multinomial ``[n; parts, n - sum(parts)]_q``.

    The Poincare polynomial (in q) of the manifold of ordered tuples of
    pairwise orthogonal complex subspaces of the given dimensions inside C^n;
    the remainder is appended as an implicit last part.  Palindromic, with
    degree the second elementary symmetric function of all parts.
    """
    parts = tuple(parts)
    if any((not isinstance(p, int)) or p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    total = sum(parts)
    if total > n:
        raise ValueError(f"parts sum to {total} > n = {n}")
    denominator = QPoly.one()
    for a in parts + (n - total,):
        denominator = denominator * q_pochhammer(a)
    result = q_pochhammer(n).exact_div(denominator)
    if not result.nonnegative():
        raise ConsistencyError(f"negative coefficient in [{n}; {parts}]_q")
    return result
