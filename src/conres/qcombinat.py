"""Exact polynomial arithmetic and block-partition combinatorics.

Everything downstream is bookkeeping with two kinds of integer polynomials:

* ``QPoly`` -- polynomials in ``q``, where the coefficient of ``q^k`` is the
  rank of a cohomology group in real degree ``2k``.  Complex manifolds with
  algebraic cell decompositions (Grassmannians, partial flag manifolds) live
  here.
* ``GradedDims`` -- Laurent polynomials in ``t``, where the coefficient of
  ``t^j`` is the rank of a (Borel-Moore) homology group in degree ``j``.

The one bridge from q to t is :meth:`QPoly.to_graded`, which doubles every
exponent (``q = t^2``); it runs one way, and nothing turns a ``GradedDims``
back into a ``QPoly``.  There is deliberately no implicit coercion: off-by-one
degree shifts are the dominant failure mode in this kind of computation,
and keeping the gradings in separate types makes them impossible to
confuse silently.

Both are stored densely: a low exponent plus the tuple of coefficients up to
the degree, trimmed at both ends.  Every product is a Kronecker substitution
in signed slots of 8, 16, 32 or 64 bits, the narrowest that the operands'
coefficient sums fit (``_product``); wider coefficients are split into
halves until they fit.  Quotients by prod (1 - x^e), as in every flag
manifold, go through ``divide_out``: one running sum with stride e per
factor, no denominator built; ``divide_out_series`` runs them on a power
series cut at x^cut, with no exactness check (the stable flag series
1 / prod (q;q)_a).  ``exact_div`` stays as the general division, one
synthetic-division pass that stops at the first remainder.  Every linear
combination goes through ``integer_combination``: sums, differences,
negation and scalar multiples (divisor 1), and the orbit averages over
finite groups, whose integer weights (class sizes, or counts of cycle types)
times polynomials are summed in integers and divided once per coefficient by
the group order at the end.

The module also owns the index combinatorics: integer partitions,
multi-indices ``A`` of eigenvalue multiplicities, and the conjugacy classes of
the group permuting equal-size parts of ``A``.
"""

from __future__ import annotations

import itertools
import operator
import struct
from functools import cache, lru_cache
from math import factorial, prod
from typing import Iterable, Mapping, Sequence, TypeVar


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


def signed_sum_str(terms: Iterable[tuple[str, int]]) -> str:
    """Text of a sum of (monomial text, nonzero coefficient) terms, such as
    ``-q + 2*q^2``: the monomial "1" prints as its coefficient, a coefficient
    +-1 as its sign, and later terms join with "+ " or "- "; "0" if empty."""
    chunks: list[str] = []
    for mono, c in terms:
        body = str(abs(c)) if mono == "1" else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        sign = ("" if c > 0 else "-") if not chunks else ("+ " if c > 0 else "- ")
        chunks.append(sign + body)
    return " ".join(chunks) or "0"


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


#: The signed ``struct`` code of a slot of each width in bits, narrowest first.
_SLOT_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


@lru_cache(maxsize=1024)
def _slot_layout(width: int, length: int) -> tuple[struct.Struct, int]:
    """The little-endian ``struct`` of ``length`` signed slots of ``width``
    bits, and 2^(width - 1) in each of them.  Bounded, though a cold
    ``table --n 24`` reads 714 keys and ``verify --n 24`` 807."""
    offsets = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * length, "little")
    return struct.Struct(f"<{length}{_SLOT_CODES[width]}"), offsets


def _pack_slots(coeffs: Sequence[int], width: int) -> int:
    """sum_i coeffs[i] * 2^(width i) for |coeffs[i]| < 2^(width - 1)."""
    layout, offsets = _slot_layout(width, len(coeffs))
    # flipping the top bit of each two's-complement slot adds 2^(width - 1) to it
    raw = int.from_bytes(layout.pack(*coeffs), "little")
    return (raw ^ offsets) - offsets


def _unpack_slots(value: int, length: int, width: int) -> tuple[int, ...]:
    """Inverse of :func:`_pack_slots` for ``length`` slots of ``width`` bits."""
    layout, offsets = _slot_layout(width, length)
    return layout.unpack(((value + offsets) ^ offsets).to_bytes(layout.size, "little"))


def _product(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Coefficients of the product of two nonempty coefficient sequences, by
    Kronecker substitution: one integer product of signed slots, the
    narrowest of 8, 16, 32 or 64 bits that every coefficient sum fits.
    While no slot fits, the operand with the larger coefficients is split at
    half their bit length, c = high * 2^k + low with 0 <= low < 2^k."""
    # an all-zero half counts as 1, so that the other operand must fit a slot
    top_a, top_b = max(map(abs, a)) or 1, max(map(abs, b)) or 1
    bound = min(len(a), len(b)) * top_a * top_b
    for width in _SLOT_CODES:
        if bound < 1 << (width - 1):
            return _unpack_slots(_pack_slots(a, width) * _pack_slots(b, width), len(a) + len(b) - 1, width)
    if top_a < top_b:
        return _product(b, a)
    k = top_a.bit_length() // 2
    high = _product([c >> k for c in a], b)
    low = _product([c & ((1 << k) - 1) for c in a], b)
    return [(h << k) + c for h, c in zip(high, low)]


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

    def dense(self) -> tuple[int, tuple[int, ...]]:
        """``(low, coeffs)``: the coefficients of ``x^low, x^(low+1), ...``,
        both ends nonzero; the zero polynomial is ``(0, ())``."""
        return self._low, self._coeffs

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
        return integer_combination([(-1, self)], 1)

    def _check_same_type(self, other: object) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__};"
                " convert explicitly"
            )

    def __add__(self: _P, other: _P) -> _P:
        return integer_combination([(1, self), (1, other)], 1)

    def __sub__(self: _P, other: _P) -> _P:
        return integer_combination([(1, self), (-1, other)], 1)

    def __mul__(self: _P, other: _P | int) -> _P:
        if isinstance(other, int):
            return integer_combination([(other, self)], 1)
        self._check_same_type(other)
        if not self or not other:
            return type(self)()
        return self._dense(self._low + other._low, _product(self._coeffs, other._coeffs))

    def __rmul__(self: _P, other: int) -> _P:
        return self.__mul__(other)

    def __call__(self, value: int) -> int:
        """Evaluate at an integer, e.g. at q = 1 for a total rank.  Negative
        exponents only evaluate to integers at 1 and -1, where x^e = x^|e|;
        at 1 the value is the sum of the coefficients."""
        if value == 1:
            return sum(self._coeffs)
        if self._low < 0 and value != -1:
            raise ValueError(f"negative powers of {self._var} at {value} are not integers")
        return sum(c * value ** abs(e) for e, c in self.items())

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
        monos = {0: "1", 1: self._var}
        return signed_sum_str((monos.get(e, f"{self._var}^{e}"), c) for e, c in self.items())

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


@cache
def q_pochhammer(n: int, d: int = 0) -> QPoly:
    """The product ``(1 - q^{d+1})(1 - q^{d+2}) ... (1 - q^n)``, 1 if n = d;
    the package builds a factor ``1 - q^k`` nowhere else."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n (got n={n}, d={d})")
    if n == d:
        return QPoly.one()
    return q_pochhammer(n - 1, d) * QPoly({0: 1, n: -1})


def divide_out(poly: _P, exponents: Iterable[int]) -> _P:
    """``poly / prod_e (1 - x^e)``, or :class:`InexactDivisionError`.  Each
    factor is an in-place running sum with stride e (quotient_i = poly_i +
    quotient_{i-e}), exact iff the last e sums are zero; those are dropped."""
    if not isinstance(poly, _SparsePoly):
        raise TypeError(f"cannot divide {type(poly).__name__}; expected a polynomial")
    coeffs = list(poly._coeffs)
    stop = len(coeffs)
    for e in exponents:
        if e < 1:
            raise ValueError("exponent must be positive")
        if not stop:
            continue
        # a nonzero multiple of 1 - x^e spans more than e exponents; the
        # buffer past ``stop`` holds stale sums, so no slice may reach it
        if e >= stop:
            raise InexactDivisionError(f"{poly!r} has no factor 1 - {poly._var}^{e} left")
        for r in range(e):
            coeffs[r:stop:e] = itertools.accumulate(coeffs[r:stop:e])
        stop -= e
        if any(coeffs[stop : stop + e]):
            raise InexactDivisionError(f"{poly!r} has no factor 1 - {poly._var}^{e} left")
    return poly._dense(poly._low, coeffs[:stop])


def divide_out_series(poly: _P, exponents: Iterable[int], cut: int) -> _P:
    """The terms up to x^cut of the power series ``poly / prod_e (1 - x^e)``:
    the running sums of :func:`divide_out` on a buffer cut there, with no
    exactness check and no pass for a factor with e > cut, which changes none.
    With no exponents it only cuts ``poly`` at x^cut, and allocates no more
    than ``poly`` holds."""
    if not isinstance(poly, _SparsePoly):
        raise TypeError(f"cannot divide {type(poly).__name__}; expected a polynomial")
    width = max(cut - poly._low + 1, 0)
    coeffs = list(poly._coeffs[:width])
    for e in exponents:
        if e < 1:
            raise ValueError("exponent must be positive")
        if e < width:
            # the running sums reach the cut, so the buffer must too; a plain cut pads nothing
            _check_span(width)
            coeffs += [0] * (width - len(coeffs))
            for r in range(e):
                coeffs[r::e] = itertools.accumulate(coeffs[r::e])
    return poly._dense(poly._low, coeffs)


def integer_combination(pairs: Iterable[tuple[int, _P]], divisor: int) -> _P:
    """sum(weight * poly) / divisor, divided exactly, for integer weights and
    polynomials of one type, which the result keeps: the package's one linear
    combination (sums, differences, negation, scalar multiples and averages).
    Its coefficients are ranks, so a remainder raises
    :class:`ConsistencyError`; the weighted sum is taken in integers and each
    of its coefficients is divided once."""
    terms = list(pairs)
    if not terms:
        raise ValueError("a combination needs at least one term")
    first = terms[0][1]
    for _, poly in terms:
        first._check_same_type(poly)
    # zero terms are dropped so that their exponent 0 cannot widen the span
    terms = [(weight, poly) for weight, poly in terms if poly]
    low = min((poly._low for _, poly in terms), default=0)
    acc = _zeros(max((poly._low + len(poly._coeffs) for _, poly in terms), default=low) - low)
    for weight, poly in terms:
        i = poly._low - low
        width = len(poly._coeffs)
        acc[i : i + width] = map(operator.add, acc[i : i + width], map(weight.__mul__, poly._coeffs))
    if divisor != 1:
        for i, c in enumerate(acc):
            acc[i], r = divmod(c, divisor)
            if r:
                raise ConsistencyError(f"non-integral rank {c}/{divisor} at exponent {low + i}")
    return first._dense(low, acc)


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


class _Value:
    """The base of the package's immutable value types.

    Each subclass names its fields in ``_fields`` and sets them once in
    ``__init__``.  A value refuses assignment and deletion, equals only a value
    of its own class with equal fields, hashes as the tuple of its fields,
    prints as ``Name(field=value, ...)``, and pickles by its fields, so that
    unpickling re-runs the validation of ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        get = operator.attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values(self)


class MultiIndex(_Value):
    """A weakly decreasing, nonempty tuple of eigenvalue multiplicities, all >= 2.

    For an ambient dimension n (supplied per call), the derived quantities are
    the size ``|A|``, the length ``#A``, the complexity ``|A| - #A`` and the
    liberty ``n - |A|``.  Immutable, and equal only to a ``MultiIndex`` with
    the same parts.
    """

    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        if not parts:
            raise ValueError("a multi-index needs at least one part")
        if not all(isinstance(p, int) for p in parts):
            raise TypeError(f"parts must be integers, not {parts!r}")
        if any(p < 2 for p in parts):
            raise ValueError("every part must be at least 2")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

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

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _column_indices(p: int, n: int) -> tuple[MultiIndex, ...]:
    """The indices of complexity p and size at most n, parts lexicographically
    decreasing: size s = p + 1 .. min(n, 2p) with s - p parts."""
    indices = (parts for s in range(p + 1, min(n, 2 * p) + 1) for parts in partitions(s, 2) if len(parts) == s - p)
    return tuple(map(MultiIndex, sorted(indices, reverse=True)))


def multiindices(n: int, max_complexity: int) -> list[MultiIndex]:
    """All multi-indices with size <= n and complexity <= max_complexity,
    ordered by complexity, then lexicographically decreasing parts: the
    columns :func:`_column_indices` for p = 1 .. min(max_complexity, n - 1),
    since an index of size s has complexity 1 .. s - 1."""
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    return [A for p in range(1, min(max_complexity, n - 1) + 1) for A in _column_indices(p, n)]


class BlockClass(_Value):
    """A conjugacy class of the group permuting equal-size parts of a
    multi-index: one partition (cycle type) per distinct part size.

    ``rho`` pairs each distinct part size with the cycle type of the permutation
    of its equal-size parts, sizes descending.  ``cycles`` lists all block
    cycles as (cycle length, part size) pairs, and ``class_size`` counts the
    class; both are set when the class is built.  Immutable, and equal only to
    a ``BlockClass`` with the same ``rho``.
    """

    __slots__ = ("rho", "cycles", "class_size")
    _fields = ("rho",)

    def __init__(self, rho: tuple[tuple[int, tuple[int, ...]], ...]) -> None:
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "cycles", tuple((c, size) for size, cycle_type in rho for c in cycle_type))
        sizes = (factorial(sum(cycle_type)) // centralizer_order(cycle_type) for _, cycle_type in rho)
        object.__setattr__(self, "class_size", prod(sizes))

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


@cache
def conjugacy_classes(A: MultiIndex) -> tuple[BlockClass, ...]:
    """Conjugacy classes of the equal-part permutation group of ``A``, as a
    memoized tuple: the one definition of a class of ``A``.

    Class sizes add up to the group order (prod of multiplicity factorials).
    The trivial class comes first.
    """
    # the identity (1, ..., 1) is the last partition of m; it moves to the front
    choices = [
        [(size, cycle_type) for cycle_type in partitions(m)[-1:] + partitions(m)[:-1]]
        for size, m in A.multiplicities()
    ]
    return tuple(BlockClass(tuple(combo)) for combo in itertools.product(*choices))


@cache
def _class_set(A: MultiIndex) -> frozenset[BlockClass]:
    """:func:`conjugacy_classes` of ``A`` as a set, for membership tests."""
    return frozenset(conjugacy_classes(A))


def block_cycles(A: MultiIndex, n: int, cls: BlockClass) -> tuple[tuple[tuple[int, int], ...], int]:
    """The block cycles of ``cls``, as (cycle length, part size) pairs, and
    the free part's dimension d = n - |A|.  Raises ValueError unless ``A`` fits
    in C^n and ``cls`` is one of :func:`conjugacy_classes` of ``A``."""
    d = A.liberty(n)
    if cls not in _class_set(A):
        raise ValueError(f"class {cls} does not match the shape of {A}")
    return cls.cycles, d


def gauss_multinomial(n: int, parts: Sequence[int]) -> QPoly:
    """Gaussian multinomial ``[n; parts, n - sum(parts)]_q``.

    The Poincare polynomial (in q) of the manifold of ordered tuples of
    pairwise orthogonal complex subspaces of the given dimensions inside C^n;
    the remainder is appended as an implicit last part.  Palindromic, with
    degree the second elementary symmetric function of all parts.  Each call
    reads one memo, :func:`_multinomial`, keyed by all parts and the remainder,
    zeros dropped, sorted, the largest left out: one ``divide_out`` per key."""
    parts = tuple(parts)
    if any((not isinstance(p, int)) or p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    total = sum(parts)
    if total > n:
        raise ValueError(f"parts sum to {total} > n = {n}")
    *key, _ = sorted(p for p in (*parts, n - total) if p) or [0]  # n = 0 has no part
    return _multinomial(n, tuple(key))


@cache
def _multinomial(n: int, key: tuple[int, ...]) -> QPoly:
    """``[n; key, n - sum(key)]_q``, the last part the largest: its factors
    cancel unbuilt, and a negative coefficient raises :class:`ConsistencyError`."""
    result = divide_out(q_pochhammer(n, n - sum(key)), [i for a in key for i in range(1, a + 1)])
    if not result.nonnegative():
        raise ConsistencyError(f"negative coefficient in [{n}; {key}]_q")
    return result
