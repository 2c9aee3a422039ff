import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conres import flagchar, qcombinat, resolution
from conres.qcombinat import (
    MAX_SPAN,
    BlockClass,
    ConsistencyError,
    GradedDims,
    InexactDivisionError,
    MultiIndex,
    QPoly,
    centralizer_order,
    conjugacy_classes,
    divide_out,
    divide_out_series,
    gauss_multinomial,
    integer_combination,
    multiindices,
    partitions,
    q_pochhammer,
)


# --------------------------------------------------------------------------
# polynomial core
# --------------------------------------------------------------------------


def test_canonical_form_strips_zeros():
    assert QPoly({0: 1, 3: 0}) == QPoly({0: 1})
    assert not QPoly({})
    assert QPoly([(1, 2), (1, -2)]) == QPoly.zero()


def test_equality_is_structural_and_typed():
    assert QPoly({1: 1}) != GradedDims({1: 1})
    assert GradedDims({-2: 3}).coefficient(-2) == 3
    with pytest.raises(ValueError):
        QPoly({-1: 1})


def test_cross_type_arithmetic_rejected():
    with pytest.raises(TypeError):
        QPoly({1: 1}) + GradedDims({1: 1})  # type: ignore[operator]
    with pytest.raises(TypeError):
        GradedDims({1: 1}) * QPoly({1: 1})  # type: ignore[operator]


def test_items_sorted_ascending():
    p = GradedDims({5: 1, -1: 2, 3: 4})
    assert p.items() == ((-1, 2), (3, 4), (5, 1))


def test_to_graded_doubles_exponents():
    assert QPoly({0: 1, 2: 5}).to_graded() == GradedDims({0: 1, 4: 5})


def test_evaluation():
    p = QPoly({0: 1, 1: 2, 3: -1})
    assert p(1) == 2
    assert p(2) == 1 + 4 - 8
    # Laurent terms are exact integers at 1 and -1, and refused elsewhere
    for poly, value, expected in [
        (GradedDims({-1: 3, 2: 1}), 1, 4),
        (GradedDims({-1: 3, 2: 1}), -1, -2),
        (GradedDims({-2: 1}), -1, 1),
        (GradedDims({-2: 1, 3: 1}), 2, None),
        (GradedDims({-2: 1}), 0, None),
        (p, 2, -3),
        (QPoly.zero(), 5, 0),
    ]:
        if expected is None:
            with pytest.raises(ValueError):
                poly(value)
        else:
            assert poly(value) == expected and type(poly(value)) is int


def test_exact_div_examples():
    num = QPoly({0: 1, 3: -1})  # 1 - q^3
    den = QPoly({0: 1, 1: -1})  # 1 - q
    assert num.exact_div(den) == QPoly({0: 1, 1: 1, 2: 1})
    with pytest.raises(InexactDivisionError):
        QPoly({0: 1, 1: 1}).exact_div(den)


@settings(max_examples=100)
@given(
    st.dictionaries(st.integers(0, 8), st.integers(-5, 5), max_size=5),
    st.dictionaries(st.integers(0, 6), st.integers(-5, 5), min_size=1, max_size=4),
)
def test_exact_div_inverts_multiplication(p_terms, d_terms):
    p, d = QPoly(p_terms), QPoly(d_terms)
    if not d:
        return
    assert (p * d).exact_div(d) == p


# --------------------------------------------------------------------------
# the dense core against a dict-based reference
# --------------------------------------------------------------------------


def _ref_mul(a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _ref_add(a, b, sign=1):
    acc = dict(a)
    for e, c in b.items():
        acc[e] = acc.get(e, 0) + sign * c
    return {e: c for e, c in acc.items() if c}


def _ref_div(a, b):
    """Quotient as a dict, or None if the division leaves a remainder."""
    num, quotient = dict(a), {}
    low_e, low_c = min(b.items())
    while num:
        e = min(num)
        if num[e] % low_c or e - low_e > max(a) - max(b):
            return None
        qe, qc = e - low_e, num[e] // low_c
        quotient[qe] = qc
        for de, dc in b.items():
            num[qe + de] = num.get(qe + de, 0) - qc * dc
            if not num[qe + de]:
                del num[qe + de]
    return quotient


# small coefficients fit one 64-bit slot of the packed-integer product; wide
# ones are split into halves, several times over for 2^300
_coeff = st.one_of(
    st.integers(-5, 5), st.integers(-(2**80), 2**80), st.integers(-(2**300), 2**300)
)
_laurent = st.dictionaries(st.integers(-6, 6), _coeff, max_size=6)
_wide_laurent = st.dictionaries(st.integers(-20, 20), _coeff, max_size=40)
_nonzero_laurent = st.dictionaries(st.integers(-6, 6), _coeff.filter(bool), min_size=1, max_size=5)


@settings(max_examples=200)
@given(_wide_laurent, _wide_laurent)
def test_ring_operations_match_reference(a, b):
    p, q = GradedDims(a), GradedDims(b)
    ref_a, ref_b = dict(p.items()), dict(q.items())
    assert dict((p * q).items()) == _ref_mul(ref_a, ref_b)
    assert dict((p + q).items()) == _ref_add(ref_a, ref_b)
    assert dict((p - q).items()) == _ref_add(ref_a, ref_b, -1)
    assert dict((p * 3).items()) == _ref_mul(ref_a, {0: 3})


@settings(max_examples=200)
@given(_wide_laurent, st.integers(-20, 20), _coeff.filter(bool))
def test_products_by_one_term_match_reference(a, exponent, coefficient):
    # a product by a single term shifts and scales, on either side
    p, term = GradedDims(a), GradedDims.term(exponent, coefficient)
    expected = _ref_mul(dict(p.items()), {exponent: coefficient})
    assert dict((p * term).items()) == expected
    assert dict((term * p).items()) == expected
    assert p * GradedDims.one() == p == GradedDims.one() * p


@pytest.mark.parametrize("a", [2**31 - 1, -(2**31 - 1), 2**31, 2**62, -(2**63)])
@pytest.mark.parametrize("b", [2**31, -(2**31), 3])
def test_products_near_the_64_bit_slot_bound(a, b):
    # coefficients of products reach +-2^63 around here, the edge of one
    # signed 64-bit slot of the packed-integer product
    p, q = GradedDims({-1: a, 0: a, 4: -a}), GradedDims({0: b, 1: b})
    assert dict((p * q).items()) == _ref_mul(dict(p.items()), dict(q.items()))
    assert (p * q).exact_div(q) == p


_SMALL = {0: 3, 1: -1, 2: 0, 5: 2}
_WIDE = {-2: 2**100 + 7, 0: -(2**99), 3: 1 - 2**120}


@pytest.mark.parametrize(
    "a, b",
    [
        # the left operand is the narrower one, so the kernel swaps them
        (_SMALL, _WIDE),
        (_WIDE, _SMALL),
        # both operands wide: each is split in turn
        (_WIDE, {0: 2**200 - 1, 1: -(2**199), 4: 2**64}),
        # every coefficient a multiple of 2^(bits // 2): the low half is all zero
        ({0: 2**80, 1: -(2**80), 2: 3 * 2**80}, {0: 2**70, 3: -1}),
        # one wide coefficient among zeros and ones, over 40 exponents
        ({i: (2**90 if i == 17 else i % 2) for i in range(40)}, {i: -(2**60) + i for i in range(40)}),
    ],
)
def test_wide_products_match_reference(a, b, monkeypatch):
    packed, unpack = [], qcombinat._unpack_slots
    monkeypatch.setattr(qcombinat, "_unpack_slots", lambda v, n, width: packed.append(n) or unpack(v, n, width))
    p, q = GradedDims(a), GradedDims(b)
    assert dict((p * q).items()) == _ref_mul(a, b)
    # every part goes through the slots; a wide product takes several
    assert len(packed) > 1


def _slot_edge_products(width):
    # operand pairs whose product has a coefficient at +-(2^(w-1) - 1) or
    # +-2^(w-1), the edge of a signed slot of w bits: one term times one,
    # and sums of two coefficient products over two terms each
    edge, half, root = 1 << (width - 1), 1 << (width - 2), 1 << (width // 2 - 1)
    for v in (edge - 1, edge):
        for sign in (1, -1):
            yield {3: sign * v}, {-1: 1}
            yield {0: 1, 2: sign * v, 5: -1}, {4: 1}
            yield {0: sign * half, 1: sign * (v - half)}, {0: 1, 1: 1}
            low = v < edge  # root^2 + (root - 1)(root + 1) = 2^(w-1) - 1
            yield {0: sign * root, 1: sign * (root - low)}, {0: root + low, 1: root}


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_products_at_the_slot_edges_match_reference(width):
    for a, b in _slot_edge_products(width):
        product = _ref_mul(a, b)
        assert {abs(c) for c in product.values()} & {(1 << (width - 1)) - 1, 1 << (width - 1)}, (a, b)
        for x, y in ((a, b), (b, a)):
            assert dict((GradedDims(x) * GradedDims(y)).items()) == product, (width, x, y)


@pytest.mark.parametrize("width", [8, 16, 32])
def test_products_pack_at_the_narrowest_slot_that_fits(width, monkeypatch):
    # min(len) * max|a| * max|b| just below 2^(w-1) packs at w bits, at 2^(w-1) at the next width
    widths, pack = [], qcombinat._pack_slots
    monkeypatch.setattr(qcombinat, "_pack_slots", lambda coeffs, w: widths.append(w) or pack(coeffs, w))
    edge = 1 << (width - 1)
    assert GradedDims({0: edge // 2 - 1, 1: 1}) * GradedDims({0: 1, 1: -1}) == GradedDims({0: edge // 2 - 1, 1: 2 - edge // 2, 2: -1})
    assert GradedDims({0: edge // 2, 1: 1}) * GradedDims({0: 1, 1: -1}) == GradedDims({0: edge // 2, 1: 1 - edge // 2, 2: -1})
    assert widths == [width, width, 2 * width, 2 * width]


@settings(max_examples=200)
@given(_laurent, _nonzero_laurent)
def test_exact_div_matches_reference(a, b):
    num, den = GradedDims(a), GradedDims(b)
    for dividend in (num, num * den):
        expected = _ref_div(dict(dividend.items()), dict(den.items())) if dividend else {}
        if expected is None:
            with pytest.raises(InexactDivisionError):
                dividend.exact_div(den)
        else:
            assert dict(dividend.exact_div(den).items()) == expected


@settings(max_examples=200)
@given(_laurent, _nonzero_laurent.filter(lambda terms: len(terms) > 1), st.data())
def test_nonzero_low_degree_remainder_is_inexact(p_terms, d_terms, data):
    # r = d * s with s != 0 would give min_degree(r) < min_degree(d) whenever
    # deg r < deg d, so a remainder inside [min_degree d, deg d) never divides
    # (below min_degree d it can: in Laurent polynomials monomials are units)
    p, d = GradedDims(p_terms), GradedDims(d_terms)
    r_terms = data.draw(
        st.dictionaries(
            st.integers(d.min_degree(), d.degree() - 1),
            st.integers(-5, 5).filter(bool),
            min_size=1,
            max_size=4,
        )
    )
    with pytest.raises(InexactDivisionError):
        (p * d + GradedDims(r_terms)).exact_div(d)


@settings(max_examples=200)
@given(_wide_laurent)
def test_evaluation_at_one_and_minus_one_is_the_term_formula(terms):
    # at 1 the value is the sum of the dense row, at -1 the terms are read;
    # both agree with sum(c * x^|e|), negative exponents included, and the
    # dense read gives back the terms
    for poly, shift in ((GradedDims(terms), 0), (QPoly({e + 20: c for e, c in terms.items()}), 20)):
        low, coeffs = poly.dense()
        assert [(low + i, c) for i, c in enumerate(coeffs) if c] == [(e + shift, c) for e, c in sorted(terms.items()) if c]
        for value in (1, -1):
            assert poly(value) == sum(c * value ** abs(e + shift) for e, c in terms.items())
    if any(e < 0 for e, c in terms.items() if c):
        with pytest.raises(ValueError):
            GradedDims(terms)(2)


@given(_laurent, st.integers(-10, 10))
def test_trimming_makes_equality_and_hash_agree(terms, shift):
    assert GradedDims({-3: 1}) * GradedDims({3: 1}) == GradedDims.one()
    assert hash(GradedDims({-3: 1}) * GradedDims({3: 1})) == hash(GradedDims.one())
    p = GradedDims(terms)
    round_trip = p.times_power(shift) * GradedDims.term(-shift)
    assert round_trip == p and hash(round_trip) == hash(p)
    cancelled = (p + GradedDims({-9: 1, 9: 1})) - GradedDims({9: 1, -9: 1})
    assert cancelled == p and hash(cancelled) == hash(p)
    assert (p - p) == GradedDims.zero() and hash(p - p) == hash(GradedDims.zero())


# --------------------------------------------------------------------------
# divide_out against exact_div by the multiplied-out denominator
# --------------------------------------------------------------------------


def _denominator(kind, exponents):
    out = kind.one()
    for e in exponents:
        out = out * kind({0: 1, e: -1})
    return out


_exponents = st.lists(st.integers(1, 8), max_size=5)


@settings(max_examples=200)
@given(_laurent, _exponents)
def test_divide_out_recovers_the_cofactor(terms, exponents):
    for cofactor in (GradedDims(terms), QPoly({e + 6: c for e, c in terms.items()})):
        product = cofactor * _denominator(type(cofactor), exponents)
        assert divide_out(product, exponents) == cofactor
        assert divide_out(product, reversed(exponents)) == cofactor


@settings(max_examples=300)
@given(_laurent, _exponents, _exponents, st.integers(-2, 2))
def test_divide_out_is_inexact_exactly_when_exact_div_is(terms, factors, exponents, noise):
    # a multiple of some factors plus a little noise: the exponents to divide
    # out overlap the factors in part, so exact and inexact cases both occur
    poly = GradedDims(terms) * _denominator(GradedDims, factors) + GradedDims({0: noise})
    try:
        expected = poly.exact_div(_denominator(GradedDims, exponents))
    except InexactDivisionError:
        with pytest.raises(InexactDivisionError):
            divide_out(poly, exponents)
    else:
        assert divide_out(poly, exponents) == expected


def test_divide_out_examples():
    assert divide_out(QPoly({0: 1, 3: -1}), [1]) == QPoly({0: 1, 1: 1, 2: 1})
    assert divide_out(q_pochhammer(4), [2, 4, 1, 3]) == QPoly.one()
    assert divide_out(q_pochhammer(3), []) == q_pochhammer(3)
    # Laurent input keeps its low exponent
    p = GradedDims({-3: 2, 1: -2})
    assert divide_out(p, [4]) == GradedDims({-3: 2})
    assert divide_out(p, [2]) == GradedDims({-3: 2, -1: 2})
    with pytest.raises(InexactDivisionError):
        divide_out(p, [2, 2])
    with pytest.raises(InexactDivisionError):
        divide_out(QPoly({0: 1, 1: 1}), [1])


def test_divide_out_zero_and_bad_exponents():
    assert divide_out(QPoly.zero(), [1, 5, 100]) == QPoly.zero()
    assert divide_out(GradedDims.zero(), []) == GradedDims.zero()
    for bad in (0, -1):
        with pytest.raises(ValueError):
            divide_out(q_pochhammer(3), [1, bad])
        with pytest.raises(ValueError):
            divide_out(QPoly.zero(), [bad])
    with pytest.raises(TypeError):
        divide_out({0: 1, 1: -1}, [1])


@pytest.mark.parametrize("kind", [QPoly, GradedDims])
def test_divide_out_exponent_at_least_the_length_is_inexact(kind):
    # a nonzero multiple of 1 - x^e spans more than e exponents; this holds
    # also once earlier factors have shrunk the quotient, while the buffer
    # still holds the earlier, longer sums
    for last in (2, 4, 5, 6, 7):
        with pytest.raises(InexactDivisionError):
            divide_out(_denominator(kind, [1, 2, 3]), [1, 2, 3, last])
    p = kind({1: 1, 3: -1})
    for e in (3, 4, 10, 2**62):
        with pytest.raises(InexactDivisionError):
            divide_out(p, [e])


def _truncated(poly, cut):
    return type(poly)({e: c for e, c in poly.items() if e <= cut})


@settings(max_examples=200)
@given(_laurent, _exponents)
def test_divide_out_series_agrees_with_divide_out_on_exact_quotients(terms, exponents):
    # cut below the quotient, inside it, and past the product's top
    for cofactor in (GradedDims(terms), QPoly({e + 6: c for e, c in terms.items()})):
        product = cofactor * _denominator(type(cofactor), exponents)
        quotient = divide_out(product, exponents)
        for cut in range(-8, 60):
            assert divide_out_series(product, exponents, cut) == _truncated(quotient, cut), cut


def test_divide_out_series_examples():
    # partitions into parts 1 and 2, and into parts 1, 2, 3
    assert divide_out_series(QPoly.one(), [1, 2], 5) == QPoly({j: j // 2 + 1 for j in range(6)})
    assert divide_out_series(QPoly.one(), [3, 2, 1], 6) == QPoly({0: 1, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 7})
    # no exactness check: 1 + q is no multiple of 1 - q
    assert divide_out_series(QPoly({0: 1, 1: 1}), [1], 3) == QPoly({0: 1, 1: 2, 2: 2, 3: 2})
    # a factor past the cut makes no pass, however large
    assert divide_out_series(QPoly.one(), [2**62, 1], 3) == QPoly({0: 1, 1: 1, 2: 1, 3: 1})
    # Laurent input keeps its low exponent; a cut below it leaves nothing
    assert divide_out_series(GradedDims({-3: 2}), [2], 0) == GradedDims({-3: 2, -1: 2})
    assert divide_out_series(GradedDims({-3: 2}), [1], -4) == GradedDims.zero()
    assert divide_out_series(QPoly.zero(), [1], 10) == QPoly.zero()
    for bad in (0, -1):
        with pytest.raises(ValueError):
            divide_out_series(QPoly.one(), [1, bad], 4)
    with pytest.raises(TypeError):
        divide_out_series({0: 1}, [1], 4)


def test_a_plain_cut_allocates_only_what_the_polynomial_holds():
    # no division runs, so the cut pads no buffer out to x^cut
    tracemalloc.start()
    try:
        cut = divide_out_series(GradedDims.term(3), (), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cut == GradedDims.term(3)
    assert peak < 64 * 1024
    # a division pads to the cut, since its running sums reach it
    assert divide_out_series(GradedDims.term(3), [1], 6) == GradedDims({3: 1, 4: 1, 5: 1, 6: 1})


def test_quotient_with_negative_exponents_is_not_a_qpoly():
    with pytest.raises(ValueError):
        QPoly({0: 1}).exact_div(QPoly({1: 1}))
    with pytest.raises(ValueError):
        QPoly({0: 1}).times_power(-1)
    assert QPoly({2: 1}).times_power(-2) == QPoly.one()


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        GradedDims({1.0: 1})
    with pytest.raises(TypeError):
        GradedDims({1: Fraction(1, 2)})
    with pytest.raises(TypeError):
        GradedDims.one().times_power(0.5)


def test_span_is_bounded():
    with pytest.raises(ValueError):
        GradedDims({0: 1, MAX_SPAN: 1})
    with pytest.raises(ValueError):
        GradedDims({0: 1}) + GradedDims({MAX_SPAN: 1})
    with pytest.raises(ValueError):
        GradedDims({0: 1, 2: 1}).substitute_power(MAX_SPAN)
    assert GradedDims({10**9: 1}) * GradedDims({-(10**9): 2}) == GradedDims.term(0, 2)
    # cancelling terms do not count towards the span
    assert GradedDims([(0, 1), (MAX_SPAN, 1), (MAX_SPAN, -1)]) == GradedDims.one()


@pytest.mark.parametrize("lead", [1, 2**40])
def test_span_bound_holds_for_products(lead, monkeypatch):
    # small coefficients fit the 64-bit slots, 2^40 times 2^40 is split into
    # halves; both accept a product spanning MAX_SPAN exponents and refuse a
    # wider one
    monkeypatch.setattr(qcombinat, "MAX_SPAN", 64)
    wide = GradedDims({-3: lead, 28: 1})
    square = wide * wide
    assert square.degree() - square.min_degree() + 1 == 63
    widest = square * GradedDims({0: 1, 1: lead})
    assert widest.degree() - widest.min_degree() + 1 == 64
    with pytest.raises(ValueError):
        square * GradedDims({0: lead, 2: 1})


@given(
    st.lists(st.tuples(st.integers(-6, 6), _laurent), min_size=1, max_size=5),
    st.integers(1, 12),
)
def test_integer_combination_matches_fraction_sum(weighted, divisor):
    # the exact rational average is the reference
    pairs = [(weight, GradedDims(terms)) for weight, terms in weighted]
    exact = {}
    for weight, poly in pairs:
        for e, c in poly.items():
            exact[e] = exact.get(e, Fraction(0)) + Fraction(weight * c, divisor)
    if all(v.denominator == 1 for v in exact.values()):
        expected = GradedDims({e: int(v) for e, v in exact.items()})
        assert integer_combination(pairs, divisor) == expected
    else:
        with pytest.raises(ConsistencyError, match=rf"non-integral rank -?\d+/{divisor} at exponent"):
            integer_combination(pairs, divisor)


def test_integer_combination_mixed_denominators():
    x = GradedDims({-1: 1, 2: 3})
    y = GradedDims({-1: 1})
    # non-integral parts with an integral sum: (3 x + 2 x + x) / 6 = x
    assert integer_combination([(3, x), (2, x), (1, x)], 6) == x
    assert integer_combination([(9, y), (3, y), (10, x - x)], 12) == y
    # (3 + 2) / 6 at t^-1 is not an integer
    with pytest.raises(ConsistencyError, match=r"5/6 at exponent -1"):
        integer_combination([(3, y), (2, y)], 6)
    with pytest.raises(ConsistencyError):
        integer_combination([(1, x), (1, y)], 2)
    # divisor 1 is a plain integer combination
    assert integer_combination([(2, x), (-1, y)], 1) == GradedDims({-1: 1, 2: 6})


def test_integer_combination_keeps_the_type_and_needs_a_term():
    q = QPoly({0: 1, 2: 1})
    assert integer_combination([(2, q), (2, q)], 4) == q
    for kind in (QPoly, GradedDims):
        zero = integer_combination([(1, kind.zero()), (0, kind.one())], 3)
        assert zero == kind.zero() and type(zero) is kind
    with pytest.raises(TypeError):
        integer_combination([(1, q), (1, q.to_graded())], 1)
    with pytest.raises(TypeError):
        integer_combination([(1, GradedDims.zero()), (1, QPoly.zero())], 1)
    with pytest.raises(ValueError):
        integer_combination([], 1)


# --------------------------------------------------------------------------
# substitute_power
# --------------------------------------------------------------------------


def test_substitute_power_examples():
    assert QPoly({0: 1, 2: 1}).substitute_power(2) == QPoly({0: 1, 4: 1})
    assert GradedDims({1: 1}).substitute_power(3) == GradedDims({3: 1})
    p = QPoly({0: 1, 1: 1, 2: 1})
    assert p.substitute_power(1) == p
    with pytest.raises(ValueError):
        p.substitute_power(0)


@given(
    st.dictionaries(st.integers(0, 6), st.integers(-4, 4), max_size=4),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_substitute_power_composes(terms, a, b):
    p = QPoly(terms)
    assert p.substitute_power(a).substitute_power(b) == p.substitute_power(a * b)


# --------------------------------------------------------------------------
# partitions
# --------------------------------------------------------------------------


def _partitions_bruteforce(m, min_part):
    # independent oracle: filter weakly decreasing compositions
    if m == 0:
        return {()}
    found = set()
    stack = [()]
    while stack:
        prefix = stack.pop()
        remaining = m - sum(prefix)
        if remaining == 0:
            found.add(prefix)
            continue
        hi = prefix[-1] if prefix else m
        for part in range(min_part, min(remaining, hi) + 1):
            stack.append(prefix + (part,))
    return found


def test_partitions_examples():
    assert partitions(0, 1) == ((),)
    assert partitions(4, 2) == ((4,), (2, 2))
    assert partitions(6, 2) == ((6,), (4, 2), (3, 3), (2, 2, 2))


def test_partitions_order_is_lex_decreasing():
    for m in range(12):
        out = partitions(m, 1)
        assert list(out) == sorted(out, reverse=True)


@pytest.mark.parametrize("min_part", [1, 2, 3])
def test_partitions_against_bruteforce(min_part):
    for m in range(0, 13):
        assert set(partitions(m, min_part)) == _partitions_bruteforce(m, min_part)


def test_partitions_min_part_two_count_identity():
    # removing a part equal to 1 is a bijection onto partitions of m - 1
    for m in range(1, 21):
        with_part_one = len(partitions(m - 1, 1))
        assert len(partitions(m, 2)) == len(partitions(m, 1)) - with_part_one


# --------------------------------------------------------------------------
# multi-indices
# --------------------------------------------------------------------------


def test_multiindex_derived_quantities():
    A = MultiIndex((3, 2, 2))
    assert A.size == 7
    assert A.length == 3
    assert A.complexity == 4
    assert A.liberty(9) == 2
    assert A.symmetry_order == 2
    assert A.multiplicities() == ((3, 1), (2, 2))
    with pytest.raises(ValueError):
        A.liberty(5)


def test_multiindex_validation():
    with pytest.raises(ValueError):
        MultiIndex((2, 3))
    with pytest.raises(ValueError):
        MultiIndex((2, 1))
    # rejected where the index is built, not deep inside a later computation
    for parts in [(3.0,), (3, 2.0), ("2",), (Fraction(4),)]:
        with pytest.raises(TypeError):
            MultiIndex(parts)


def test_multiindices_examples():
    by_complexity = {}
    for A in multiindices(4, 2):
        by_complexity.setdefault(A.complexity, []).append(A.parts)
    assert by_complexity == {1: [(2,)], 2: [(3,), (2, 2)]}

    assert [A.parts for A in multiindices(3, 2)] == [(2,), (3,)]

    level3 = [A.parts for A in multiindices(5, 3) if A.complexity == 3]
    assert level3 == [(4,), (3, 2)]


def test_multiindices_ordering_and_bounds():
    for A in multiindices(8, 7):
        assert A.size <= 8
        assert A.complexity <= 7
    keys = [(A.complexity, tuple(-p for p in A.parts)) for A in multiindices(8, 7)]
    assert keys == sorted(keys)


# --------------------------------------------------------------------------
# conjugacy classes
# --------------------------------------------------------------------------


def test_conjugacy_classes_small():
    classes = conjugacy_classes(MultiIndex((2, 2)))
    data = {cls.rho: cls.class_size for cls in classes}
    assert data == {((2, (1, 1)),): 1, ((2, (2,)),): 1}
    assert classes[0].is_trivial

    (only,) = conjugacy_classes(MultiIndex((3, 2)))
    assert only.is_trivial and only.class_size == 1

    sizes = {cls.rho[0][1]: cls.class_size for cls in conjugacy_classes(MultiIndex((2, 2, 2)))}
    assert sizes == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}


def test_conjugacy_classes_are_one_memoized_tuple():
    A = MultiIndex((3, 2, 2))
    classes = conjugacy_classes(A)
    assert isinstance(classes, tuple)
    assert conjugacy_classes(MultiIndex((3, 2, 2))) is classes


def test_class_sizes_sum_to_group_order():
    for parts in [(2,), (2, 2), (3, 3, 2), (2, 2, 2, 2), (4, 4, 3, 3, 3)]:
        A = MultiIndex(parts)
        assert sum(c.class_size for c in conjugacy_classes(A)) == A.symmetry_order


def test_block_class_sign_and_cycles():
    (swap,) = [c for c in conjugacy_classes(MultiIndex((2, 2))) if not c.is_trivial]
    assert swap.cycles == ((2, 2),)
    assert swap.sign == -1
    three_cycle = BlockClass(((2, (3,)),))
    assert three_cycle.sign == 1


def test_centralizer_order():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3
    # class sizes of S_n from centralizers
    for n in range(1, 7):
        assert sum(factorial(n) // centralizer_order(lam) for lam in partitions(n, 1)) == factorial(n)


# --------------------------------------------------------------------------
# Gaussian multinomials
# --------------------------------------------------------------------------


def _gauss_by_inversions(n, parts):
    # oracle: sum q^{inversions} over all words with the given letter content
    letters = []
    for letter, count in enumerate(tuple(parts) + (n - sum(parts),)):
        letters.extend([letter] * count)
    acc = {}
    for word in set(itertools.permutations(letters)):
        inv = sum(
            1
            for i in range(len(word))
            for j in range(i + 1, len(word))
            if word[i] > word[j]
        )
        acc[inv] = acc.get(inv, 0) + 1
    return QPoly(acc)


def test_gauss_multinomial_examples():
    assert gauss_multinomial(4, (2, 2)) == QPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert gauss_multinomial(7, (7,)) == QPoly.one()
    assert gauss_multinomial(3, (2,)) == QPoly({0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        gauss_multinomial(3, (2, 2))
    with pytest.raises(ValueError):
        gauss_multinomial(4, (0, 2))


@pytest.mark.parametrize(
    "n,parts",
    [
        (2, (2,)), (3, (2,)), (4, (2, 2)), (5, (3, 2)), (5, (2, 2)), (6, (2, 2, 2)), (6, (3, 3)),
        # an explicit part, not the remainder, is the largest
        (5, (1, 3)), (6, (4, 1)), (6, (1, 2, 3)), (7, (2, 4, 1)), (7, (5,)),
    ],
)
def test_gauss_multinomial_against_inversion_oracle(n, parts):
    assert gauss_multinomial(n, parts) == _gauss_by_inversions(n, parts)


def test_gauss_multinomial_reads_one_memo_per_multiset_of_parts():
    # permuted parts and an explicit remainder are the same multinomial
    assert gauss_multinomial(6, (2, 3)) is gauss_multinomial(6, (3, 1))
    assert gauss_multinomial(6, (3, 1)) is gauss_multinomial(6, (1, 2, 3))
    assert gauss_multinomial(9, (9,)) is gauss_multinomial(9, ()) == QPoly.one()
    assert gauss_multinomial(7, (2,)) is gauss_multinomial(7, (5,))


def test_a_cold_table_builds_one_multinomial_per_multiset_of_parts(monkeypatch):
    # every caller of a table build, the peeled binomials of flagchar and
    # the lifts of resolution, shares the one memo: it misses once per
    # distinct multiset of all parts, the remainder included
    requested = []
    for module in (flagchar, resolution):
        def counted(n, parts, real=module.gauss_multinomial):
            parts = tuple(parts)
            requested.append(tuple(sorted(p for p in parts + (n - sum(parts),) if p)))
            return real(n, parts)

        monkeypatch.setattr(module, "gauss_multinomial", counted)
    memos = (resolution.spectral_column, flagchar._own_size_average, flagchar._peeled_factor, qcombinat._multinomial)
    for memo in memos:
        memo.cache_clear()
    try:
        resolution.spectral_table(16)
        assert qcombinat._multinomial.cache_info().misses == len(set(requested)) < len(requested)
    finally:
        for memo in memos:
            memo.cache_clear()


def test_gauss_multinomial_at_one_is_multinomial():
    for n in range(2, 9):
        for parts in [(2,), (2, 2), (3,), (n,)]:
            if sum(parts) > n:
                continue
            value = gauss_multinomial(n, parts)(1)
            rest = n - sum(parts)
            assert value == factorial(n) // prod(factorial(a) for a in parts + (rest,))


# SHA-256 of the reprs of gauss_multinomial(n, lam) for every partition lam
# of 0, 1, ..., n in the order of ``partitions``, one per line; generated
# with a multiplied-out denominator and exact_div, independently of divide_out
GAUSS_DIGESTS = {
    0: "13a1ea4644e15d50ee083295112894f03ab925708c111bbaa802cb9eab40934d",
    1: "fe0979ea753ec147b5ce20655c7c5ca1992c80c7a061db870869c6bcec771003",
    2: "b848d46223eb62ed00b9d9c14b3a8522c54676a431e2c7f997684419a5f1c80b",
    3: "06ab1036a0b6d5f993a97d8f6afd193cf0c40950b5c7c03423be7d3eb9bb959f",
    4: "8fb21d33caf2281d4f9e5cba4c75c5f2c541feae9483e908108badaebe2b3632",
    5: "46d81f56c09691c86c5489d87ca40dabd9272afdd906b6fd121f53f769abffec",
    6: "ac869d05960b40568730a5c96651a06487332606d8e65184bd888cf1e6c5866f",
    7: "692220864aa52ad24e66283e8795bb27aae62929e62dc90990130cc33d5ba9ce",
    8: "55f840f02af4594b71cb82c98ddc7901dc4f8a0e401e2a4713f38af0f168e2e6",
    9: "0d9a4bd1f9a60cbdb780c655bc95b37b3663883e7a773be85604c222dfda035a",
}


@pytest.mark.parametrize("n", sorted(GAUSS_DIGESTS))
def test_gauss_multinomial_is_pinned(n):
    text = "\n".join(
        repr(gauss_multinomial(n, lam)) for s in range(n + 1) for lam in partitions(s)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GAUSS_DIGESTS[n]


def test_gauss_multinomial_palindromic_and_degree():
    for n in range(2, 9):
        for parts in [(2,), (3,), (2, 2), (3, 2), (2, 2, 2)]:
            if sum(parts) > n:
                continue
            poly = gauss_multinomial(n, parts)
            assert poly.is_palindromic()
            assert poly.nonnegative()
            full = parts + (n - sum(parts),)
            s2 = sum(a * b for a, b in itertools.combinations(full, 2))
            assert poly.degree() == s2 or not poly


def test_q_pochhammer():
    assert q_pochhammer(0) == QPoly.one()
    assert q_pochhammer(2) == QPoly({0: 1, 1: -1}) * QPoly({0: 1, 2: -1})
    # a start d keeps only the factors above it: (1 - q^3)(1 - q^4)
    assert q_pochhammer(4, 2) == QPoly({0: 1, 3: -1}) * QPoly({0: 1, 4: -1})
    assert q_pochhammer(3, 3) == QPoly.one()
    for bad in [(2, 3), (2, -1)]:
        with pytest.raises(ValueError):
            q_pochhammer(*bad)
