"""The cohomology ring of n x n Hermitian operators with simple spectrum.

Ordering the eigenvalues makes the eigenspaces into n complex line bundles
over this space; writing ``c^1, ..., c^n`` for their first Chern classes, the
integral cohomology ring is

    Z[c^1, ..., c^n] / (all symmetric polynomials of positive degree).

A free Z-basis of the quotient is the staircase of monomials with the exponent
of ``c^i`` at most ``n - i``.  Normal forms are computed by rewriting with the
relations ``h_{n-k+1}(c^1, ..., c^k) = 0`` (complete homogeneous sums), whose
extremal monomial is ``(c^k)^{n-k+1}``.  A rewrite lowers the exponent of
``c^k`` and leaves ``c^{k+1}, ..., c^n`` alone, so it strictly decreases
monomials in the lex order with ``c^n`` most significant; for that order the
relations are a Groebner basis and the staircase is the set of standard
monomials, so the normal form does not depend on the order of the rewrites.
The pending monomials sit in a heap that pops the largest one first: every
monomial a rewrite produces is smaller than the one it came from, so a popped
monomial never comes back and is rewritten at most once.  The relations are
homogeneous and the quotient is zero above degree ``n(n-1)/2``, so monomials of
higher degree are dropped at once; ``cup`` sorts one factor by degree and never
forms them.  While rewriting, a monomial is one integer key: the exponent of
``c^i`` in bits ``[b(i-1), b*i)``, with ``b = (n(n-1)).bit_length()``.  Each
exponent of a monomial of degree at most ``n(n-1)/2`` is below ``2^(b-1)``, so
no field carries into the next: a product or a rewrite is one integer addition,
and integer order is the lex order above (the heap holds negated keys).  The
spare top bit of a field tests the staircase: adding ``2^(b-1) - 1 - (n - i)``
to the field of ``c^i`` sets it iff the exponent exceeds ``n - i``.  Keys are
decoded only when a result is returned.

Degree-2 classes are integer sequences ``(a_1, ..., a_n)`` (meaning
``sum a_i c^i``) modulo constant sequences.  Their *order* is the degree of the
integer polynomial in ``i`` interpolating the sequence, read off from finite
differences; the first-difference operator drops the order by one.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from functools import cache
from typing import Iterator, Mapping, Sequence

from .qcombinat import QPoly, _Value, divide_out, q_pochhammer, signed_sum_str

Monomial = tuple[int, ...]


def _validate_term(mono: Monomial, coeff: int, n: int) -> None:
    if len(mono) != n:
        raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {n}")
    if any((not isinstance(e, int)) or e < 0 for e in mono):
        raise ValueError(f"monomial {mono} has invalid exponents")
    if not isinstance(coeff, int):
        raise TypeError(f"coefficient {coeff!r} of {mono} is not an integer")


def _within_staircase(mono: Monomial, n: int) -> bool:
    # exponent of c^i bounded by n - i (i is 1-based)
    return all(e <= n - i for i, e in enumerate(mono, start=1))


@cache
def _layout(n: int) -> tuple[int, int, int]:
    # key width b, the staircase offsets and the mask of each field's top bit
    b = max(1, (n * (n - 1)).bit_length())
    offsets = sum(((1 << (b - 1)) - 1 - (n - i)) << (b * (i - 1)) for i in range(1, n + 1))
    return b, offsets, sum(1 << (b * i - 1) for i in range(1, n + 1))


def _encode(mono: Monomial, b: int) -> int:
    return sum(e << (b * i) for i, e in enumerate(mono))


def _decode(key: int, n: int, b: int) -> Monomial:
    return tuple((key >> (b * i)) & ((1 << b) - 1) for i in range(n))


@cache
def _rewrite_products(n: int, k: int) -> tuple[int, ...]:
    """Keys of the monomials of h_{n-k+1}(c^1, ..., c^k) other than
    (c^k)^{n-k+1}.

    Each appears with coefficient 1 in the relation, so the rewrite replaces
    (c^k)^{n-k+1} by minus their sum.
    """
    b = _layout(n)[0]
    combos = itertools.combinations_with_replacement(range(k), n - k + 1)
    # the last combination is (c^k)^{n-k+1} itself
    return tuple(sum(1 << (b * var) for var in combo) for combo in combos)[:-1]


def _reduce(terms: Mapping[int, int], n: int) -> dict[Monomial, int]:
    # keys of degree at most n(n-1)/2 in, exponent tuples of the staircase out
    b, offsets, overflow = _layout(n)
    # pending coefficients; an entry that cancels to 0 stays until popped, so
    # each key enters the heap at most once
    work = {key: c for key, c in terms.items() if c}
    # heapq pops the least item first: negated keys pop the largest monomial
    heap = [-key for key in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    # indexed by k: (c^k)^{n-k+1} and the keys that replace it
    extremals = [0] + [(n - k + 1) << (b * (k - 1)) for k in range(1, n + 1)]
    rewrites = [()] + [_rewrite_products(n, k) for k in range(1, n + 1)]
    result: dict[int, int] = {}
    while heap:
        key = -pop(heap)
        coeff = work.pop(key)
        if not coeff:
            continue
        over = (key + offsets) & overflow
        if not over:
            result[key] = coeff
            continue
        # the top bit of the c^k field is bit b*k - 1: rewrite the largest k
        k = over.bit_length() // b
        base = key - extremals[k]
        for product in rewrites[k]:
            new_key = base + product
            if new_key in work:
                work[new_key] -= coeff
            else:
                work[new_key] = -coeff
                push(heap, -new_key)
    return {_decode(key, n, b): c for key, c in result.items()}


class RingElement(_Value):
    """An element of the quotient ring in staircase normal form.

    ``terms`` maps staircase monomials (exponent tuples for ``c^1 .. c^n``) to
    integer coefficients; the monomial ``(e_1, ..., e_n)`` sits in real
    cohomological degree ``2 * sum(e_i)``.  Immutable, and equal only to a
    ``RingElement`` with the same n and terms.
    """

    __slots__ = ("n", "terms")
    _fields = ("n", "terms")

    def __init__(self, n: int, terms: tuple[tuple[Monomial, int], ...]) -> None:
        for mono, coeff in terms:
            _validate_term(mono, coeff, n)
            if not _within_staircase(mono, n):
                raise ValueError(f"monomial {mono} is not in normal form for n={n}")
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")
        for (before, _), (after, _) in zip(terms, terms[1:]):
            if not before < after:
                raise ValueError(f"monomials must increase strictly: {after} follows {before}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _from_dict(cls, n: int, terms: Mapping[Monomial, int]) -> "RingElement":
        return cls(n, tuple(sorted((m, c) for m, c in terms.items() if c)))

    @classmethod
    def zero(cls, n: int) -> "RingElement":
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> "RingElement":
        return cls(n, (((0,) * n, 1),))

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

    def coefficient(self, mono: Monomial) -> int:
        return dict(self.terms).get(tuple(mono), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous(self, q_degree: int) -> "RingElement":
        return RingElement(
            self.n, tuple((m, c) for m, c in self.terms if sum(m) == q_degree)
        )

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        acc = self.as_dict()
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return RingElement._from_dict(self.n, acc)

    def __neg__(self) -> "RingElement":
        return RingElement(self.n, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __str__(self) -> str:
        def mono_str(mono: Monomial) -> str:
            factors = [f"c{i}" if e == 1 else f"c{i}^{e}" for i, e in enumerate(mono, 1) if e]
            return "*".join(factors) or "1"

        return signed_sum_str((mono_str(mono), coeff) for mono, coeff in self.terms)


def normal_form(expr: Mapping[Monomial, int] | RingElement, n: int) -> RingElement:
    """Canonical staircase representative of a formal integer combination of
    monomials in ``c^1 .. c^n``.  Idempotent and Z-linear."""
    if isinstance(expr, RingElement):
        if expr.n != n:
            raise ValueError("ambient dimensions differ")
        # the constructor admits only sorted staircase terms
        return expr
    terms = {tuple(m): c for m, c in expr.items()}
    for mono, coeff in terms.items():
        _validate_term(mono, coeff, n)
    b, top = _layout(n)[0], n * (n - 1) // 2
    keys = {_encode(m, b): c for m, c in terms.items() if sum(m) <= top}
    return RingElement._from_dict(n, _reduce(keys, n))


def generator(n: int, i: int) -> RingElement:
    """The Chern class ``c^i`` of the i-th eigenline bundle, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    mono = tuple(1 if j == i else 0 for j in range(1, n + 1))
    return normal_form({mono: 1}, n)


def elementary_symmetric(n: int, k: int) -> dict[Monomial, int]:
    """The formal (unreduced) k-th elementary symmetric polynomial of the
    generators; its normal form is zero for 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    out: dict[Monomial, int] = {}
    for combo in itertools.combinations(range(n), k):
        mono = tuple(1 if j in combo else 0 for j in range(n))
        out[mono] = 1
    return out


def cup(x: RingElement, y: RingElement) -> RingElement:
    """Cup product: multiply and renormalize.  All generators have even
    degree, so the product is commutative on the nose."""
    if x.n != y.n:
        raise ValueError("ambient dimensions differ")
    n = x.n
    b, top = _layout(n)[0], n * (n - 1) // 2
    # y's terms by degree: the products of one term of x that stay within the
    # top degree come from a prefix
    by_degree = sorted((sum(m), _encode(m, b), c) for m, c in y.terms)
    degrees = [d for d, _, _ in by_degree]
    acc: dict[int, int] = {}
    for m1, c1 in x.terms:
        key1 = _encode(m1, b)
        for _, key2, c2 in by_degree[: bisect_right(degrees, top - sum(m1))]:
            key = key1 + key2
            acc[key] = acc.get(key, 0) + c1 * c2
    return RingElement._from_dict(n, _reduce(acc, n))


def staircase_monomials(n: int) -> Iterator[Monomial]:
    """All normal-form monomials: exponent of c^i at most n - i.  There are
    n! of them."""
    yield from itertools.product(*(range(n - i + 1) for i in range(1, n + 1)))


def ring_poincare(n: int) -> QPoly:
    """Rank of the quotient ring per q-degree: the q-factorial
    (1 + q)(1 + q + q^2) ... (1 + q + ... + q^{n-1}) = prod_{i<=n} (1 - q^i) / (1 - q)^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return divide_out(q_pochhammer(n), [1] * n)


# --------------------------------------------------------------------------
# degree-2 classes and the order filtration
# --------------------------------------------------------------------------


class DegreeTwoClass(_Value):
    """A degree-2 class ``sum alpha_i c^i``, stored modulo constant sequences
    (canonical representative has first entry 0).  Immutable, and equal only
    to a ``DegreeTwoClass`` with the same representative."""

    __slots__ = ("alpha",)
    _fields = ("alpha",)

    def __init__(self, alpha: Sequence[int]) -> None:
        alpha = tuple(alpha)
        if not alpha:
            raise ValueError("the sequence must be nonempty")
        if any(not isinstance(a, int) for a in alpha):
            raise ValueError("entries must be integers")
        object.__setattr__(self, "alpha", tuple(a - alpha[0] for a in alpha))

    def __len__(self) -> int:
        return len(self.alpha)


def _as_sequence(alpha: DegreeTwoClass | Sequence[int]) -> tuple[int, ...]:
    # a plain sequence is validated (nonempty, integer entries) as a class
    if not isinstance(alpha, DegreeTwoClass):
        alpha = DegreeTwoClass(tuple(alpha))
    return alpha.alpha


def shift_difference(alpha: DegreeTwoClass | Sequence[int]) -> DegreeTwoClass:
    """First finite difference (a_2 - a_1, ..., a_n - a_{n-1}); the image of
    the spectrum-shift derivative on degree-2 classes."""
    seq = _as_sequence(alpha)
    if len(seq) < 2:
        raise ValueError("need a sequence of length at least 2")
    return DegreeTwoClass(tuple(b - a for a, b in zip(seq, seq[1:])))


def h2_order(alpha: DegreeTwoClass | Sequence[int]) -> int:
    """Order of a degree-2 class: the least p such that the sequence agrees
    (modulo constants) with an integer-valued polynomial of degree <= p.

    Computed as the number of :func:`shift_difference` steps that take the
    class to zero; the zero class (a constant sequence) has order 0.  Always
    at most n - 1.
    """
    seq = _as_sequence(alpha)
    order = 0
    while any(seq):
        seq = shift_difference(seq).alpha
        order += 1
    return order


def first_order_h4(n: int) -> RingElement:
    """Normal form of ``sum_i i * (c^i)^2``, the generator of the order-1 part
    of degree-4 cohomology.

    For n = 2 the q^2-component of the ring is already zero, so the element
    vanishes; it is nonzero for every n >= 3.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    terms: dict[Monomial, int] = {}
    for i in range(1, n + 1):
        mono = tuple(2 if j == i else 0 for j in range(1, n + 1))
        terms[mono] = i
    return normal_form(terms, n)
