import itertools
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conres import qcombinat
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
    gauss_multinomial,
    integer_combination,
    multiindices,
    partitions,
    q_pochhammer,
    substitute_power,
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


# small coefficients take the packed-integer product, huge ones the row one
_coeff = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80))
_laurent = st.dictionaries(st.integers(-6, 6), _coeff, max_size=6)
_nonzero_laurent = st.dictionaries(st.integers(-6, 6), _coeff.filter(bool), min_size=1, max_size=5)


@settings(max_examples=200)
@given(_laurent, _laurent)
def test_ring_operations_match_reference(a, b):
    p, q = GradedDims(a), GradedDims(b)
    ref_a, ref_b = dict(p.items()), dict(q.items())
    assert dict((p * q).items()) == _ref_mul(ref_a, ref_b)
    assert dict((p + q).items()) == _ref_add(ref_a, ref_b)
    assert dict((p - q).items()) == _ref_add(ref_a, ref_b, -1)
    assert dict((p * 3).items()) == _ref_mul(ref_a, {0: 3})


@pytest.mark.parametrize("a", [2**31 - 1, -(2**31 - 1), 2**31, 2**62, -(2**63)])
@pytest.mark.parametrize("b", [2**31, -(2**31), 3])
def test_products_near_the_64_bit_slot_bound(a, b):
    # coefficients of products reach +-2^63 around here, the edge of one
    # signed 64-bit slot of the packed-integer product
    p, q = GradedDims({-1: a, 0: a, 4: -a}), GradedDims({0: b, 1: b})
    assert dict((p * q).items()) == _ref_mul(dict(p.items()), dict(q.items()))
    assert (p * q).exact_div(q) == p


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
    # small coefficients take the packed-integer product, 2^40 the row one;
    # both accept a product spanning MAX_SPAN exponents and refuse a wider one
    monkeypatch.setattr(qcombinat, "MAX_SPAN", 64)
    wide = GradedDims({-3: lead, 28: 1})
    square = wide * wide
    assert square.degree() - square.min_degree() + 1 == 63
    widest = square * GradedDims({0: 1, 1: lead})
    assert widest.degree() - widest.min_degree() + 1 == 64
    with pytest.raises(ValueError):
        square * GradedDims({0: lead, 2: 1})


@given(st.lists(st.tuples(st.integers(1, 12), _laurent), max_size=5), st.data())
def test_integer_combination_matches_fraction_sum(weighted, data):
    pairs = [
        (Fraction(data.draw(st.integers(-6, 6)), den), GradedDims(terms)) for den, terms in weighted
    ]
    exact = {}
    for weight, poly in pairs:
        for e, c in poly.items():
            exact[e] = exact.get(e, Fraction(0)) + weight * c
    if all(v.denominator == 1 for v in exact.values()):
        expected = GradedDims({e: int(v) for e, v in exact.items()})
        assert integer_combination(pairs, GradedDims) == expected
    else:
        with pytest.raises(ConsistencyError):
            integer_combination(pairs, GradedDims)


def test_integer_combination_mixed_denominators():
    x = GradedDims({-1: 1, 2: 3})
    y = GradedDims({-1: 1})
    # non-integral parts with an integral sum: 1/2 x + 1/3 x + 1/6 x = x
    assert integer_combination([(Fraction(1, 2), x), (Fraction(1, 3), x), (Fraction(1, 6), x)], GradedDims) == x
    assert integer_combination([(Fraction(3, 4), y), (Fraction(1, 4), y), (Fraction(5, 6), x - x)], GradedDims) == y
    # 1/2 + 1/3 at t^-1 is not an integer
    with pytest.raises(ConsistencyError):
        integer_combination([(Fraction(1, 2), y), (Fraction(1, 3), y)], GradedDims)
    with pytest.raises(ConsistencyError):
        integer_combination([(Fraction(1, 2), x), (Fraction(1, 2), y)], GradedDims)
    assert integer_combination([], QPoly) == QPoly.zero()


# --------------------------------------------------------------------------
# substitute_power
# --------------------------------------------------------------------------


def test_substitute_power_examples():
    assert substitute_power(QPoly({0: 1, 2: 1}), 2) == QPoly({0: 1, 4: 1})
    assert substitute_power(GradedDims({1: 1}), 3) == GradedDims({3: 1})
    p = QPoly({0: 1, 1: 1, 2: 1})
    assert substitute_power(p, 1) == p
    with pytest.raises(ValueError):
        substitute_power(p, 0)


@given(
    st.dictionaries(st.integers(0, 6), st.integers(-4, 4), max_size=4),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_substitute_power_composes(terms, a, b):
    p = QPoly(terms)
    assert substitute_power(substitute_power(p, a), b) == substitute_power(p, a * b)


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
    keys = [A.sort_key() for A in multiindices(8, 7)]
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
    [(2, (2,)), (3, (2,)), (4, (2, 2)), (5, (3, 2)), (5, (2, 2)), (6, (2, 2, 2)), (6, (3, 3))],
)
def test_gauss_multinomial_against_inversion_oracle(n, parts):
    assert gauss_multinomial(n, parts) == _gauss_by_inversions(n, parts)


def test_gauss_multinomial_at_one_is_multinomial():
    for n in range(2, 9):
        for parts in [(2,), (2, 2), (3,), (n,)]:
            if sum(parts) > n:
                continue
            value = gauss_multinomial(n, parts)(1)
            rest = n - sum(parts)
            assert value == factorial(n) // prod(factorial(a) for a in parts + (rest,))


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
    assert q_pochhammer(2, 3) == QPoly({0: 1, 3: -1}) * QPoly({0: 1, 6: -1})
