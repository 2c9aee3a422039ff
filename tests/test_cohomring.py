import heapq
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conres import cohomring
from conres.cohomring import (
    DegreeTwoClass,
    RingElement,
    cup,
    elementary_symmetric,
    first_order_h4,
    generator,
    h2_order,
    normal_form,
    ring_poincare,
    shift_difference,
    staircase_monomials,
)
from conres.qcombinat import QPoly


# --------------------------------------------------------------------------
# independent oracle: row reduction of the relation space, degree by degree
# --------------------------------------------------------------------------


def _monomials_of_degree(n, d):
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        mono = [0] * n
        for var in combo:
            mono[var] += 1
        out.append(tuple(mono))
    return sorted(out)


def _relation_rows(n, d):
    """Spanning set of the degree-d part of the symmetric ideal: m * e_k for
    all monomials m of degree d - k, k = 1..min(n, d)."""
    columns = {mono: j for j, mono in enumerate(_monomials_of_degree(n, d))}
    rows = []
    for k in range(1, min(n, d) + 1):
        e_k = elementary_symmetric(n, k)
        for m in _monomials_of_degree(n, d - k):
            row = [Fraction(0)] * len(columns)
            for mono, coeff in e_k.items():
                product = tuple(a + b for a, b in zip(m, mono))
                row[columns[product]] += coeff
            rows.append(row)
    return columns, rows


def _rref(rows):
    pivots = {}
    for row in rows:
        row = list(row)
        for col, prow in pivots.items():
            factor = row[col]
            if factor:
                row = [x - factor * p for x, p in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = Fraction(1) / row[lead]
        row = [x * inv for x in row]
        for col, prow in list(pivots.items()):
            factor = prow[lead]
            if factor:
                pivots[col] = [x - factor * y for x, y in zip(prow, row)]
        pivots[lead] = row
    return pivots


@cache
def _relation_pivots(n, d):
    columns, rows = _relation_rows(n, d)
    return columns, _rref(rows)


def _oracle_reduce(n, d, vector):
    """Reduce a degree-d coefficient vector modulo the symmetric ideal."""
    columns, pivots = _relation_pivots(n, d)
    vec = [Fraction(0)] * len(columns)
    for mono, coeff in vector.items():
        vec[columns[mono]] += coeff
    for col, prow in pivots.items():
        factor = vec[col]
        if factor:
            for j in range(len(vec)):
                vec[j] -= factor * prow[j]
    return {mono: vec[j] for mono, j in columns.items() if vec[j]}


def _oracle_is_zero(n, expr):
    by_degree = {}
    for mono, coeff in expr.items():
        bucket = by_degree.setdefault(sum(mono), {})
        bucket[mono] = bucket.get(mono, 0) + coeff
    return all(not _oracle_reduce(n, d, vec) for d, vec in by_degree.items())


def _difference(x, y):
    out = dict(x)
    for mono, coeff in y.items():
        out[mono] = out.get(mono, 0) - coeff
    return out


def _oracle_quotient_dims(n):
    dims = {0: 1}
    top = n * (n - 1) // 2
    for d in range(1, top + 1):
        columns, rows = _relation_rows(n, d)
        rank = len(_rref(rows))
        dims[d] = len(columns) - rank
    return dims


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_quotient_dimensions(n):
    assert _oracle_quotient_dims(n) == dict(ring_poincare(n).items())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_form_agrees_with_oracle_on_random_pairs(n):
    rng = random.Random(7 * n)
    # the oracle's row reduction at n = 5 takes about 1 s in degree 5 and 4 s
    # in degree 6, so there the staircase is cut at degree 5
    top = 5 if n == 5 else n * (n - 1) // 2
    staircase = [m for m in staircase_monomials(n) if sum(m) <= top]
    monos = staircase + _monomials_of_degree(n, 2) + _monomials_of_degree(n, 3)
    for _ in range(25):
        x = {rng.choice(monos): rng.randint(-3, 3) for _ in range(3)}
        y = {rng.choice(monos): rng.randint(-3, 3) for _ in range(3)}
        same_class = _oracle_is_zero(n, _difference(x, y))
        assert (normal_form(x, n) == normal_form(y, n)) == same_class


@pytest.mark.parametrize("n, d", [(3, 4), (4, 4), (4, 5), (4, 6)])
def test_normal_form_agrees_with_oracle_past_the_staircase(n, d):
    # every monomial of degree d lies off the staircase or above its top
    rng = random.Random(31 * n + d)
    x = {mono: rng.choice((-3, -2, -1, 1, 2, 3)) for mono in _monomials_of_degree(n, d)}
    assert _oracle_is_zero(n, _difference(x, normal_form(x, n).as_dict()))


def test_normal_form_matches_oracle_zero_detection():
    # the defining relations are zero in the quotient
    for n in (2, 3):
        for k in range(1, n + 1):
            assert _oracle_is_zero(n, elementary_symmetric(n, k))
    # square of the first generator in two variables
    assert _oracle_is_zero(2, {(2, 0): 1})
    # complete degree-2 relation in three variables
    assert _oracle_is_zero(3, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1})


# --------------------------------------------------------------------------
# normal form
# --------------------------------------------------------------------------


def test_normal_form_kills_symmetric_relations():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert normal_form(elementary_symmetric(n, k), n).is_zero()


def test_normal_form_idempotent_and_linear():
    rng = random.Random(11)
    n = 4
    monos = _monomials_of_degree(n, 2) + _monomials_of_degree(n, 3)
    for _ in range(20):
        x = {rng.choice(monos): rng.randint(-4, 4) for _ in range(3)}
        y = {rng.choice(monos): rng.randint(-4, 4) for _ in range(3)}
        nx, ny = normal_form(x, n), normal_form(y, n)
        assert normal_form(nx, n) == nx
        sum_xy = Counter(x)
        for m, c in y.items():
            sum_xy[m] += c
        assert normal_form(dict(sum_xy), n) == nx + ny


def test_ring_element_requires_strictly_increasing_monomials():
    # a repeated monomial once made an element that printed as "c1 - c1", was
    # not zero, had normal form -c1 and cupped with 1 to 0
    with pytest.raises(ValueError, match="increase strictly"):
        RingElement(2, (((1, 0), 1), ((1, 0), -1)))
    with pytest.raises(ValueError, match="increase strictly"):
        RingElement(3, (((1, 0, 0), 1), ((0, 1, 0), 2)))
    element = RingElement(3, (((0, 1, 0), 2), ((1, 0, 0), 1)))
    assert element == normal_form({(1, 0, 0): 1, (0, 1, 0): 2}, 3)


def test_normal_form_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        normal_form({(1, 0): 0.5}, 2)
    with pytest.raises(TypeError):
        normal_form({(1, 0, 0): Fraction(1, 2)}, 3)
    with pytest.raises(TypeError):
        RingElement(2, (((1, 0), 0.5),))


@pytest.mark.parametrize("n", range(2, 8))
def test_generator_powers_vanish_from_the_nth(n):
    # prod_i (t - c^i) = t^n in the quotient, so every generator is a root of
    # t^n; high powers are where a rewrite order that revisits monomials blows up
    for i in range(1, n + 1):
        def power(k):
            return normal_form({tuple(k if j == i else 0 for j in range(1, n + 1)): 1}, n)

        assert not power(n - 1).is_zero()
        for k in range(n, n + 3):
            assert power(k).is_zero()


def test_normal_form_examples():
    # first symmetric polynomial of the generators
    assert normal_form(elementary_symmetric(5, 1), 5).is_zero()
    # (c^1)^2 collapses in two variables
    assert normal_form({(2, 0): 1}, 2).is_zero()
    # in three variables (c^1)^2 is already on the staircase
    nf = normal_form({(2, 0, 0): 1}, 3)
    assert nf == RingElement(3, (((2, 0, 0), 1),))


def test_staircase_dimensions():
    for n in range(1, 9):
        monos = list(staircase_monomials(n))
        assert len(monos) == factorial(n)
        by_degree = Counter(sum(m) for m in monos)
        assert dict(sorted(by_degree.items())) == dict(ring_poincare(n).items())


# --------------------------------------------------------------------------
# a second oracle, for more variables: divided differences
# --------------------------------------------------------------------------


def _divided_difference(poly, i):
    """(poly - s_i poly) / (c^{i+1} - c^{i+2}), with s_i swapping the exponents
    at 0-based positions i and i + 1."""
    out = {}
    for mono, coeff in poly.items():
        p, q = mono[i], mono[i + 1]
        if p == q:
            continue
        # x^p y^q - x^q y^p = (xy)^lo (x^(hi-lo) - y^(hi-lo)), up to sign
        lo, hi, sign = (q, p, coeff) if p > q else (p, q, -coeff)
        for t in range(hi - lo):
            image = list(mono)
            image[i], image[i + 1] = hi - 1 - t, lo + t
            image = tuple(image)
            out[image] = out.get(image, 0) + sign
    return {mono: c for mono, c in out.items() if c}


def _divided_difference_is_zero(n, expr):
    """Whether ``expr`` lies in the symmetric ideal, without row reduction.

    A divided difference is linear over symmetric polynomials and lowers the
    degree by one, so ``d_w = d_{i1} ... d_{il}`` (a reduced word of w) maps
    the degree-l part of the ideal to 0.  The Schubert polynomials S_v with
    l(v) = l are a basis of the quotient in degree l, and for l(w) = l,
    ``d_w S_v`` is 1 if w = v and 0 otherwise, so a homogeneous f of degree l
    lies in the ideal iff ``d_w f = 0`` for every permutation w of length l.  The walk
    goes up the weak order, one ``d_w f`` per permutation w, and drops the
    zero ones, whose descendants are zero too."""
    by_degree = {}
    for mono, coeff in expr.items():
        if coeff:
            by_degree.setdefault(sum(mono), {})[mono] = coeff
    for degree, poly in by_degree.items():
        # permutation (one-line notation) -> d_w poly, for l(w) = the level
        level = {tuple(range(n)): poly}
        for _ in range(degree):
            if not level:
                break
            above = {}
            for w, image in level.items():
                position = {value: j for j, value in enumerate(w)}
                for i in range(n - 1):
                    # s_i w is longer than w iff i stands left of i + 1
                    if position[i] < position[i + 1]:
                        longer = list(w)
                        longer[position[i]], longer[position[i + 1]] = i + 1, i
                        longer = tuple(longer)
                        if longer not in above:
                            derived = _divided_difference(image, i)
                            if derived:
                                above[longer] = derived
            level = above
        if level:
            return False
    return True


def test_divided_difference_oracle_agrees_with_row_reduction():
    # members (an expression minus its normal form, which the ideal
    # contains if normal_form is right) and arbitrary expressions alike
    rng = random.Random(41)
    members = 0
    for n in (2, 3, 4):
        # one degree past the top, where the ideal holds everything
        for d in range(n * (n - 1) // 2 + 2):
            monos = _monomials_of_degree(n, d)
            for _ in range(25):
                x = {rng.choice(monos): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 4))}
                if rng.random() < 0.5:
                    x = _difference(x, normal_form(x, n).as_dict())
                verdict = _oracle_is_zero(n, x)
                members += verdict
                assert _divided_difference_is_zero(n, x) == verdict
    assert 100 < members < 500
    # no staircase monomial lies in the ideal
    for n in range(2, 7):
        assert not any(_divided_difference_is_zero(n, {m: 1}) for m in staircase_monomials(n))


# --------------------------------------------------------------------------
# powers of one generator: the one-step rewrite
# --------------------------------------------------------------------------


def _power(n, j, k):
    return {tuple(k if i == j else 0 for i in range(1, n + 1)): 1}


@pytest.mark.parametrize("n", range(2, 8))
def test_power_rewrite_is_the_normal_form_of_the_power(n):
    # the memo's sum must be on the staircase and differ from the power by an
    # element of the ideal: a sum with a term off the staircase still reduces
    # to the right normal form, so only this check sees it
    width = cohomring._layout(n)[0]
    for k in range(1, n + 1):
        for power in range(n - k + 1, n + 3):
            terms = {
                cohomring._decode(key, n, width): c
                for key, c in cohomring._power_rewrite(n, k, power)
            }
            assert all(cohomring._within_staircase(m, n) for m in terms)
            assert _divided_difference_is_zero(n, _difference(_power(n, k, power), terms))
            assert bool(terms) == (power < n)


@pytest.mark.parametrize("n", range(2, 5))
def test_generator_powers_match_the_row_reduction_oracle(n):
    # the row reduction runs to degree n + 2 only while n <= 4: at n = 5 degree
    # 7 takes about 11 s, at n = 6 degree 6 about 14 s
    for j in range(1, n + 1):
        for k in range(n + 3):
            raw = _power(n, j, k)
            assert _oracle_is_zero(n, _difference(raw, normal_form(raw, n).as_dict()))


@pytest.mark.parametrize("n", range(2, 8))
def test_generator_powers_match_the_divided_difference_oracle(n):
    for j in range(1, n + 1):
        for k in range(n + 3):
            raw = _power(n, j, k)
            assert _divided_difference_is_zero(n, _difference(raw, normal_form(raw, n).as_dict()))


@pytest.mark.parametrize("n", range(1, 10))
def test_top_generator_powers_are_signed_elementary(n):
    # (c^n)^k = (-1)^k e_k(c^1, ..., c^{n-1}), whose monomials are squarefree
    # and free of c^n, so already on the staircase; zero once k >= n
    for k in range(n + 3):
        expected = {
            tuple(1 if i in combo else 0 for i in range(n)): (-1) ** k
            for combo in itertools.combinations(range(n - 1), k)
        }
        assert normal_form(_power(n, n, k), n).as_dict() == expected


def _cascade_normal_form(expr, n):
    """Reference normal form: the lex-largest monomial off the staircase is
    rewritten by one relation h_{n-k+1}(c^1, ..., c^k) = 0 at a time, for the
    largest k whose exponent is too high; monomials past the top degree are
    zero."""
    top = n * (n - 1) // 2
    work = {}
    for mono, coeff in expr.items():
        if coeff and sum(mono) <= top:
            work[mono] = work.get(mono, 0) + coeff
    # reversed exponent tuples order monomials with c^n most significant
    heap = [tuple(-e for e in reversed(mono)) for mono in work]
    heapq.heapify(heap)
    result = {}
    while heap:
        mono = tuple(-e for e in reversed(heapq.heappop(heap)))
        coeff = work.pop(mono)
        too_high = [k for k in range(1, n + 1) if mono[k - 1] > n - k]
        if not coeff or not too_high:
            if coeff:
                result[mono] = coeff
            continue
        k = too_high[-1]
        for combo in itertools.combinations_with_replacement(range(k), n - k + 1):
            image = list(mono)
            image[k - 1] -= n - k + 1
            for var in combo:
                image[var] += 1
            image = tuple(image)
            if image == mono:
                continue
            if image not in work:
                heapq.heappush(heap, tuple(-e for e in reversed(image)))
            work[image] = work.get(image, 0) - coeff
    return result


@st.composite
def _expressions_past_the_staircase(draw):
    n = draw(st.integers(2, 6))
    top = n * (n - 1) // 2
    # high powers of one generator, on a random staircase cofactor or alone
    power = st.tuples(st.integers(1, n), st.integers(0, n + 3))
    cofactor = st.tuples(*(st.integers(0, n - i) for i in range(1, n + 1)))
    terms = draw(st.lists(st.tuples(power, cofactor, st.integers(-3, 3)), min_size=1, max_size=4))
    expr = {}
    for (j, k), mono, coeff in terms:
        mono = tuple(e + (k if i == j else 0) for i, e in enumerate(mono, start=1))
        # a few past the top degree, where everything is zero
        if sum(mono) <= top + 2:
            expr[mono] = expr.get(mono, 0) + coeff
    return n, expr


@settings(max_examples=150, deadline=None)
@given(_expressions_past_the_staircase())
def test_normal_form_agrees_with_the_one_relation_cascade(case):
    n, expr = case
    assert normal_form(expr, n).as_dict() == _cascade_normal_form(expr, n)


# --------------------------------------------------------------------------
# cup products
# --------------------------------------------------------------------------


def test_cup_examples():
    one = RingElement.one(2)
    c1 = generator(2, 1)
    c2 = generator(2, 2)
    assert cup(one, c1) == c1
    assert cup(c1, c1).is_zero()
    assert cup(c1, c2).is_zero()
    with pytest.raises(ValueError):
        cup(generator(2, 1), generator(3, 1))


def _random_element(n, rng, size=3):
    monos = list(staircase_monomials(n))
    return normal_form({rng.choice(monos): rng.randint(-3, 3) for _ in range(size)}, n)


@pytest.mark.parametrize(
    "n, size, rounds",
    [pytest.param(n, 3, 10, id=str(n)) for n in (2, 3, 4, 5)]
    + [pytest.param(n, 40, 2, id=f"{n}-40terms") for n in (5, 6)],
)
def test_cup_commutative_associative(n, size, rounds):
    rng = random.Random(100 + n)
    for _ in range(rounds):
        x, y, z = (_random_element(n, rng, size) for _ in range(3))
        assert cup(x, y) == cup(y, x)
        assert cup(cup(x, y), z) == cup(x, cup(y, z))


def _sample_element(n, rng, monos, size):
    monos = sorted(rng.sample(monos, min(size, len(monos))))
    return RingElement(n, tuple((m, rng.choice((-3, -2, -1, 1, 2, 3))) for m in monos))


def _formal_product(x, y):
    # exponent tuples added term by term, nothing cut
    out = {}
    for m1, c1 in x.terms:
        for m2, c2 in y.terms:
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cup_is_the_normal_form_of_the_formal_product(n):
    rng = random.Random(300 + n)
    top = n * (n - 1) // 2
    staircase = list(staircase_monomials(n))
    # two terms from the upper half have a product past the top degree
    upper = [m for m in staircase if 2 * sum(m) > top]
    past_top = 0
    for size in (1, 4, 25):
        for pool in (staircase, upper):
            x, y = (_sample_element(n, rng, pool, size) for _ in range(2))
            product = _formal_product(x, y)
            past_top += any(sum(m) > top for m in product)
            assert cup(x, y) == normal_form(product, n)
    assert past_top >= 3


@pytest.mark.parametrize("n", [2, 3])
def test_exponents_at_the_top_degree_match_the_oracle(n):
    # the largest exponent a key holds is n(n-1)/2: monomials with one
    # exponent there, normal forms and cups of every staircase pair
    top = n * (n - 1) // 2
    for i in range(n):
        for exponent in (top, top + 1):
            raw = {tuple(exponent if j == i else 0 for j in range(n)): 1}
            assert _oracle_is_zero(n, _difference(raw, normal_form(raw, n).as_dict()))
    for m1, m2 in itertools.product(staircase_monomials(n), repeat=2):
        x, y = RingElement(n, ((m1, 2),)), RingElement(n, ((m2, -1),))
        assert _oracle_is_zero(n, _difference(_formal_product(x, y), cup(x, y).as_dict()))


def test_cup_hands_reduce_only_products_up_to_the_top_degree(monkeypatch):
    n, top = 6, 15
    rng = random.Random(61)
    staircase = list(staircase_monomials(n))
    x, y = _sample_element(n, rng, staircase, 300), _sample_element(n, rng, staircase, 60)
    received = []
    reduce = cohomring._reduce

    def recording_reduce(terms, n):
        received.extend(terms)
        return reduce(terms, n)

    monkeypatch.setattr(cohomring, "_reduce", recording_reduce)
    cup(x, y)
    width = cohomring._layout(n)[0]
    monos = [cohomring._decode(key, n, width) for key in received]
    assert max(sum(m) for m in monos) <= top
    assert len(received) < len(x.terms) * len(y.terms)
    assert set(monos) == {m for m in _formal_product(x, y) if sum(m) <= top}


# --------------------------------------------------------------------------
# ring Poincare polynomial
# --------------------------------------------------------------------------


def test_ring_poincare_examples():
    assert ring_poincare(1) == QPoly.one()
    assert ring_poincare(2) == QPoly({0: 1, 1: 1})
    assert ring_poincare(3) == QPoly({0: 1, 1: 2, 2: 2, 3: 1})
    with pytest.raises(ValueError):
        ring_poincare(0)


# --------------------------------------------------------------------------
# degree-2 order filtration
# --------------------------------------------------------------------------


def test_h2_order_examples():
    assert h2_order((5, 5, 5, 5)) == 0
    assert h2_order((1, 2, 3, 4, 5)) == 1
    assert h2_order((0, 0, 1, -1, 0)) == 4
    assert h2_order((0, 1, 4, 9, 16)) == 2


def test_h2_order_constant_shift_invariance():
    assert h2_order((3, 4, 7, 12)) == h2_order((13, 14, 17, 22))
    assert DegreeTwoClass((3, 4, 7)) == DegreeTwoClass((10, 11, 14))


def test_h2_order_bounded_by_length():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        seq = tuple(rng.randint(-9, 9) for _ in range(n))
        assert 0 <= h2_order(seq) <= n - 1


@pytest.mark.parametrize("seq", [(0, 0.1, 0.3), (0, 1.5), ("a",), ("1", "2"), ()])
def test_degree_two_functions_validate_like_the_class(seq):
    # floats once rounded their way to an order and strings got order 0
    for fn in (DegreeTwoClass, h2_order, shift_difference):
        with pytest.raises(ValueError, match="integers|nonempty"):
            fn(seq)


def test_shift_difference_examples():
    assert shift_difference((1, 2, 3, 4)) == DegreeTwoClass((1, 1, 1))
    assert shift_difference((1, 4, 9, 16)) == DegreeTwoClass((3, 5, 7))
    assert shift_difference((7, 7, 7)) == DegreeTwoClass((0, 0))
    with pytest.raises(ValueError):
        shift_difference((1,))


def test_shift_difference_drops_order_by_one():
    rng = random.Random(23)
    for _ in range(40):
        degree = rng.randint(1, 6)
        length = rng.randint(degree + 2, degree + 6)
        coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        seq = tuple(sum(c * i**j for j, c in enumerate(coeffs)) for i in range(1, length + 1))
        assert h2_order(seq) == degree
        assert h2_order(shift_difference(seq)) == degree - 1


# --------------------------------------------------------------------------
# the order-1 generator in degree 4
# --------------------------------------------------------------------------


def test_first_order_h4_degenerates_for_n2():
    # the q^2-part of the two-variable quotient is zero, so so is the class
    assert first_order_h4(2).is_zero()
    assert ring_poincare(2).coefficient(2) == 0


def test_first_order_h4_small_values():
    assert first_order_h4(3) == RingElement(3, (((1, 1, 0), 1), ((2, 0, 0), -1)))
    for n in (3, 4, 5, 6):
        element = first_order_h4(n)
        assert not element.is_zero()
        assert element.homogeneous(2) == element


def test_first_order_h4_matches_oracle():
    for n in (2, 3):
        raw = {
            tuple(2 if j == i else 0 for j in range(1, n + 1)): i
            for i in range(1, n + 1)
        }
        nf = first_order_h4(n)
        assert _oracle_is_zero(n, _difference(raw, nf.as_dict()))
