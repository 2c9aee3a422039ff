import hashlib
import itertools
import re
from collections import Counter
from math import factorial, prod

import pytest

from conres import flagchar
from conres.cohomring import normal_form, staircase_monomials
from conres.flagchar import (
    NAIVE_BUDGET,
    coinvariant_trace,
    cycle_type,
    gamma_poincare,
    gamma_trace,
    gamma_trace_naive,
)
from conres.qcombinat import (
    BlockClass,
    BudgetExceededError,
    ConsistencyError,
    MultiIndex,
    QPoly,
    centralizer_order,
    conjugacy_classes,
    divide_out,
    gauss_multinomial,
    integer_combination,
    multiindices,
    partitions,
    q_pochhammer,
)
from conres.resolution import _lie_character, block_poincare, fiber_char, verify


# --------------------------------------------------------------------------
# coinvariant traces
# --------------------------------------------------------------------------


def test_coinvariant_trace_examples():
    assert coinvariant_trace(2, (1, 1)) == QPoly({0: 1, 1: 1})
    assert coinvariant_trace(2, (2,)) == QPoly({0: 1, 1: -1})
    expected = QPoly({0: 1, 1: -1}) * QPoly({0: 1, 2: 1}) * QPoly({0: 1, 3: -1})
    assert coinvariant_trace(4, (2, 2)) == expected
    with pytest.raises(ValueError):
        coinvariant_trace(4, (2, 1))


def _perm_of_cycle_type(mu):
    perm = []
    start = 0
    for part in mu:
        perm.extend([start + (i + 1) % part for i in range(part)])
        start += part
    return tuple(perm)


def _coinvariant_trace_bruteforce(n, perm):
    """Graded trace on the staircase basis: permute variables, renormalize,
    read off the diagonal coefficient."""
    acc = {}
    for mono in staircase_monomials(n):
        permuted = [0] * n
        for i, e in enumerate(mono):
            permuted[perm[i]] = e
        image = normal_form({tuple(permuted): 1}, n)
        diagonal = image.coefficient(mono)
        if diagonal:
            d = sum(mono)
            acc[d] = acc.get(d, 0) + diagonal
    return QPoly(acc)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coinvariant_trace_against_staircase_action(n):
    from conres.qcombinat import partitions

    for mu in partitions(n, 1):
        perm = _perm_of_cycle_type(mu)
        assert cycle_type(perm) == mu
        assert coinvariant_trace(n, mu) == _coinvariant_trace_bruteforce(n, perm)


def test_cycle_type():
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)


# --------------------------------------------------------------------------
# block permutation traces
# --------------------------------------------------------------------------


def _swap_class(A):
    (cls,) = [c for c in conjugacy_classes(A) if c.cycles == ((2, 2),)]
    return cls


def test_gamma_trace_examples():
    A = MultiIndex((2, 2))
    swap = _swap_class(A)
    assert gamma_trace(A, 4, swap) == QPoly({0: 1, 1: -1}) * QPoly({0: 1, 3: -1})
    trivial = conjugacy_classes(A)[0]
    assert gamma_trace(A, 4, trivial) == QPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    for n in (2, 3, 5):
        (only,) = conjugacy_classes(MultiIndex((n,)))
        assert gamma_trace(MultiIndex((n,)), n, only) == QPoly.one()
    with pytest.raises(ValueError):
        gamma_trace(A, 3, trivial)


def test_gamma_trace_trivial_class_is_flag_poincare():
    for n in range(2, 9):
        for A in multiindices(n, n - 1):
            trivial = conjugacy_classes(A)[0]
            assert gamma_trace(A, n, trivial) == gauss_multinomial(n, A.parts)


def test_gamma_trace_starts_past_the_free_part(monkeypatch):
    # (2) in C^12 leaves a free part of dimension 10, whose factors
    # 1 - q^j, j <= 10, are never built, so only the block's are divided out
    A = MultiIndex((2,))
    trivial = conjugacy_classes(A)[0]
    flagchar._collapsed_denominator(2)  # run the block's collapse check before recording
    divided = []
    real = flagchar.divide_out

    def recording(poly, exponents):
        divided.append(list(exponents))
        return real(poly, divided[-1])

    monkeypatch.setattr(flagchar, "divide_out", recording)
    assert gamma_trace.__wrapped__(A, 12, trivial) == gauss_multinomial(12, (2,))
    assert divided == [[1, 2]]


def test_gamma_trace_nontrivial_classes_vanish_at_one():
    for n in range(2, 8):
        for A in multiindices(n, n - 1):
            for cls in conjugacy_classes(A):
                if not cls.is_trivial:
                    assert gamma_trace(A, n, cls)(1) == 0


# --------------------------------------------------------------------------
# the brute-force oracle
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        gamma_trace,
        gamma_trace_naive,
        fiber_char,
        lambda A, n, cls: block_poincare(A, n),
    ],
    ids=["gamma_trace", "gamma_trace_naive", "fiber_char", "block_poincare"],
)
def test_an_index_that_does_not_fit_is_rejected(call):
    A = MultiIndex((3,))
    with pytest.raises(ValueError, match="does not fit"):
        call(A, 2, conjugacy_classes(A)[0])


@pytest.mark.parametrize(
    "call", [gamma_trace, gamma_trace_naive, fiber_char], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "classes",
    [
        # unchecked, gamma_trace reads the (3) class as 1 - q^4 and fails on
        # the (2,2,2) ones with an inexact division
        conjugacy_classes(MultiIndex((3,))),  # another size
        conjugacy_classes(MultiIndex((2, 2, 2))),  # too many blocks
        conjugacy_classes(MultiIndex((2,))),  # too few blocks
        conjugacy_classes(MultiIndex((3, 2, 2))),  # an extra size
        [BlockClass(((2, (3, -1)),))],  # a cycle type that is no partition
        # the trivial class of (2,2) spelled as two size-2 entries: it has
        # the right cycles, but it is not how conjugacy_classes lists it
        [BlockClass(((2, (1,)), (2, (1,))))],
    ],
    ids=["(3)", "(2,2,2)", "(2)", "(3,2,2)", "no-partition", "split"],
)
def test_a_class_of_another_index_is_rejected(call, classes):
    A = MultiIndex((2, 2))
    for cls in classes:
        with pytest.raises(ValueError, match=r"does not match the shape of \(2,2\)"):
            call(A, 8, cls)


@pytest.mark.parametrize(
    "call", [gamma_trace, gamma_trace_naive, fiber_char], ids=lambda f: f.__name__
)
def test_a_split_spelling_of_a_class_is_rejected(call):
    # a transposition of (2,2,2) written as a 2-cycle and a fixed block under
    # two size-2 entries: its class_size is 1, the transpositions number 3
    A = MultiIndex((2, 2, 2))
    split = BlockClass(((2, (2,)), (2, (1,))))
    assert split.cycles in [cls.cycles for cls in conjugacy_classes(A)]
    with pytest.raises(ValueError, match=r"does not match the shape of \(2,2,2\)"):
        call(A, 8, split)


def test_the_collapse_check_is_live(monkeypatch):
    # gamma_trace divides out 1 - q^{c j}, j <= a, only because the S_a class
    # average of the coinvariant traces is 1; the check reads that average
    # off the shared cycle-type average, and a wrong term there must stop it
    A = MultiIndex((2, 2))
    swap = _swap_class(A)
    memos = (gamma_trace, flagchar._collapsed_denominator, flagchar._cycle_average)
    for memo in memos:
        memo.cache_clear()
    real = flagchar.divide_out

    # the transposition's term (1 - q)(1 - q^2) / (1 - q^2) divided as the
    # identity's, by (1 - q)^2: the average is 1 + q
    def broken(poly, exponents):
        exponents = list(exponents)
        return real(poly, [1, 1] if exponents == [2] else exponents)

    monkeypatch.setattr(flagchar, "divide_out", broken)
    try:
        with pytest.raises(ConsistencyError, match="a=2 did not collapse to 1"):
            gamma_trace(A, 4, swap)
    finally:
        # the broken average is memoized; later tests must not read it
        for memo in memos:
            memo.cache_clear()


def test_the_collapse_is_checked_where_every_class_is_over_the_budget(monkeypatch):
    # at n = 10 the only index with a part of size 10 is (10), and
    # |W_(10)| = 10! is over the budget, so none of its classes reaches
    # gamma_trace; the gamma-oracle check must still see a broken collapse
    real = flagchar._cycle_average

    def broken(a, m, factor, chi):
        average = real(a, m, factor, chi)
        return average + QPoly({1: 1}) if (a, m) == (1, 10) else average

    flagchar._collapsed_denominator.cache_clear()  # a memoized a = 10 would skip the check
    monkeypatch.setattr(flagchar, "_cycle_average", broken)
    report = verify(10, checks=("gamma-oracle",))
    assert [(c.location, c.detail) for c in report.failures()] == [
        ("a=10, n=10", "partition average for a=10 did not collapse to 1")
    ]


def test_naive_oracle_examples():
    A = MultiIndex((2, 2))
    swap = _swap_class(A)
    assert gamma_trace_naive(A, 4, swap) == QPoly({0: 1, 1: -1}) * QPoly({0: 1, 3: -1})
    B = MultiIndex((2,))
    trivial = conjugacy_classes(B)[0]
    assert gamma_trace_naive(B, 3, trivial) == QPoly({0: 1, 1: 1, 2: 1})


def test_naive_oracle_agrees_on_small_cases():
    for n in range(2, 6):
        for A in multiindices(n, n - 1):
            for cls in conjugacy_classes(A):
                assert gamma_trace_naive(A, n, cls) == gamma_trace(A, n, cls)


def _naive_whole_product(A, n, cls):
    # the reference: one pass over the whole product of the groups'
    # symmetric groups, with no factoring over the orbits of sigma, for an
    # explicit sigma in the class on consecutive coordinate blocks: each
    # block cycle maps every block identically onto the next one
    starts = list(itertools.accumulate(A.parts, initial=0))
    blocks = [range(start, start + a) for start, a in zip(starts, A.parts)]
    groups = [g for g in blocks + [range(A.size, n)] if g]
    sigma = list(range(n))
    first = 0
    for _, lengths in cls.rho:
        for c in lengths:
            for j in range(first, first + c):
                target = first + (j - first + 1) % c
                for src, dst in zip(blocks[j], blocks[target]):
                    sigma[src] = dst
            first += c
    assert first == A.length
    counts = Counter()
    for images in itertools.product(*(itertools.permutations(g) for g in groups)):
        u = list(range(n))
        for group, image in zip(groups, images):
            for src, dst in zip(group, image):
                u[src] = dst
        counts[cycle_type(tuple(sigma[u[i]] for i in range(n)))] += 1
    pairs = [(count, coinvariant_trace(n, mu)) for mu, count in sorted(counts.items())]
    return integer_combination(pairs, sum(counts.values()))


def test_naive_oracle_equals_the_whole_product_enumeration():
    checked = 0
    for n in range(2, 8):
        for A in multiindices(n, n - 1):
            for cls in conjugacy_classes(A):
                assert gamma_trace_naive(A, n, cls) == _naive_whole_product(A, n, cls), (A, n, cls)
                checked += 1
    assert checked == 48


def test_one_group_orbits_count_each_cycle_type_by_its_class_size():
    # the oracle of the closed form a! / z_lambda: sigma is the identity on
    # one group, so sigma * u runs over S_a, enumerated here in full
    for a in range(1, 9):
        counts = Counter(cycle_type(perm) for perm in itertools.permutations(range(a)))
        assert dict(flagchar._orbit_cycle_types(1, a)) == counts, a


def test_naive_oracle_enumerates_each_orbit_shape_once(monkeypatch):
    # the oracle runs over verify(12) visit 424 orbits of only 18 shapes
    # (c groups of a points): one group (a = 1..7) is counted in closed form,
    # and each of the 11 shapes of c >= 2 groups walks its a! cycle types of
    # S_a once, 196 in all, while still counting all 30,472 tuples of its
    # a!^c composites; an empty free part is no orbit.  The counts are read
    # only through the per-shape sums' memo, once per shape
    count_types = flagchar._orbit_cycle_types
    flagchar._orbit_trace_sum.cache_clear()  # a warm per-shape sum never asks for the counts
    enumerated = Counter()
    shapes = Counter()
    real = flagchar.cycle_type

    def counted(perm):
        enumerated["perms"] += 1
        return real(perm)

    def recorded(c, a):
        shapes[c, a] += 1
        return count_types(c, a)

    monkeypatch.setattr(flagchar, "cycle_type", counted)
    monkeypatch.setattr(flagchar, "_orbit_cycle_types", recorded)
    assert verify(12, checks=("gamma-oracle",)).ok
    assert len(shapes) == 18 and set(shapes.values()) == {1}
    assert all(a > 0 for _, a in shapes)
    multiple = [(c, a) for c, a in shapes if c >= 2]
    assert len(multiple) == 11
    assert enumerated["perms"] == sum(factorial(a) for _, a in multiple) == 196
    tuples = sum(flagchar._orbit_trace_sum(c, a)[1] for c, a in multiple)
    assert tuples == sum(factorial(a) ** c for c, a in multiple) == 30472


def test_one_group_trace_sums_collapse_to_the_group_order():
    # the collapse seen from the oracle's side, without _cycle_average: the
    # coinvariant traces of S_a sum to a! times 1
    for a in range(1, 11):
        assert flagchar._orbit_trace_sum(1, a) == (QPoly.one() * factorial(a), factorial(a)), a


def test_naive_oracle_needs_the_q_multinomial(monkeypatch):
    # the traces of the orbits multiply to that of sigma * u only with the
    # q-multinomial of the orbit sizes; without it the oracle disagrees
    monkeypatch.setattr(flagchar, "gauss_multinomial", lambda n, parts: QPoly.one())
    report = verify(8, checks=("gamma-oracle",))
    assert len(report.failures()) == 30


def _concatenate_and_walk(c, a):
    # the reference: sigma * u written out point by point on c groups of a
    # points, numbered group after group, and walked cycle by cycle; the
    # restriction of sigma * u to a group is one of the a! images of that
    # group shifted onto the next one
    size = c * a
    shifted = [
        [tuple((i + a) % size for i in image) for image in itertools.permutations(range(start, start + a))]
        for start in range(0, size, a)
    ]
    return Counter(cycle_type(sum(blocks, ())) for blocks in itertools.product(*shifted))


# every (c, a) with a!^c <= NAIVE_BUDGET = 8!: c <= 15 since 2^16 > 8!, and
# a <= 5 since 6!^2 > 8!
_IN_BUDGET_SHAPES = [
    (c, a) for c in range(2, 16) for a in range(2, 6) if factorial(a) ** c <= NAIVE_BUDGET
]


@pytest.mark.parametrize("c, a", _IN_BUDGET_SHAPES)
def test_orbit_counts_equal_the_concatenate_and_walk_reference(c, a):
    # every orbit shape of c >= 2 groups the oracle can reach within its
    # budget, (2,5), (3,4), (5,3) and (15,2) among them, which the
    # whole-product test for n <= 7 never reaches
    assert NAIVE_BUDGET == factorial(8) and len(_IN_BUDGET_SHAPES) == 21
    assert dict(flagchar._orbit_cycle_types(c, a)) == _concatenate_and_walk(c, a)


def test_naive_oracle_checks_that_the_orbits_cover_w_a(monkeypatch):
    A = MultiIndex((2, 2))
    swap = _swap_class(A)
    real = flagchar.block_cycles
    # dropping the block cycle leaves the free part's 2 of the |W_A| = 8 elements
    monkeypatch.setattr(flagchar, "block_cycles", lambda A, n, cls: ((), real(A, n, cls)[1]))
    with pytest.raises(ConsistencyError, match="count 2 elements of W_A, not 8"):
        gamma_trace_naive(A, 6, swap)


def test_naive_oracle_budget():
    A = MultiIndex((5,))
    (cls,) = conjugacy_classes(A)
    with pytest.raises(BudgetExceededError):
        gamma_trace_naive(A, 9, cls, budget=100)
    assert NAIVE_BUDGET >= 40320


# --------------------------------------------------------------------------
# isotypic Poincare polynomials
# --------------------------------------------------------------------------


def test_gamma_poincare_examples():
    A = MultiIndex((2, 2))
    assert gamma_poincare(A, 4, "trivial") == QPoly({0: 1, 2: 1, 4: 1})
    assert gamma_poincare(A, 4, "sign") == QPoly({1: 1, 2: 1, 3: 1})
    B = MultiIndex((3, 2))
    assert gamma_poincare(B, 5, "trivial") == gauss_multinomial(5, (3, 2))
    # one check of a character name serves both routes
    with pytest.raises(ValueError, match="unknown character 'alternating'"):
        gamma_poincare(A, 4, "alternating")
    with pytest.raises(ValueError, match="unknown character 'alternating'"):
        flagchar.class_average(A, lambda cls: gamma_trace(A, 4, cls), "alternating")


def test_isotypic_parts_reconstruct_full_trace_for_two_blocks():
    A = MultiIndex((2, 2))
    total = gamma_poincare(A, 4, "trivial") + gamma_poincare(A, 4, "sign")
    assert total == gauss_multinomial(4, (2, 2))


def test_the_character_weights_the_class_size_not_the_trace(monkeypatch):
    # the sign scales the integer class size: no trace is multiplied by +-1
    real = QPoly.__mul__
    scalars = []

    def mul(self, other):
        if isinstance(other, int):
            scalars.append(other)
        return real(self, other)

    monkeypatch.setattr(QPoly, "__mul__", mul)
    A = MultiIndex((2, 2, 2))
    assert gamma_poincare(A, 7, "sign") != gamma_poincare(A, 7, "trivial")
    assert scalars == []


def test_gamma_poincare_counts_unordered_collections():
    from math import factorial, prod

    for n in range(2, 8):
        for A in multiindices(n, n - 1):
            count = gamma_poincare(A, n, "trivial")(1)
            rest = n - A.size
            ordered = factorial(n) // prod(
                factorial(x) for x in A.parts + (rest,)
            )
            assert count == ordered // A.symmetry_order


def test_gamma_poincare_nonnegative():
    for n in range(2, 8):
        for A in multiindices(n, n - 1):
            for chi in ("trivial", "sign"):
                assert gamma_poincare(A, n, chi).nonnegative()


def test_gamma_poincare_matches_the_class_average_of_the_flag_traces():
    # the factored S(A) average against the per-class oracle, at every free
    # part d = n - |A| and for both characters
    checked = 0
    for n in range(2, 15):
        for A in multiindices(n, n - 1):
            for chi in flagchar.CHARACTERS:
                oracle = flagchar.class_average(A, lambda cls: gamma_trace(A, n, cls), chi)
                assert gamma_poincare(A, n, chi) == oracle, (A, n, chi)
                checked += 1
    assert checked == 986


def test_gamma_poincare_takes_no_class_average(monkeypatch):
    # the quotient homology is the factored average, never a sum over the
    # classes of S(A)
    def no_trace(A, n, cls):
        raise AssertionError(f"gamma_trace({A}, {n}, {cls})")

    def no_average(A, trace, chi="trivial"):
        raise AssertionError(f"class average over S({A})")

    monkeypatch.setattr(flagchar, "gamma_trace", no_trace)
    monkeypatch.setattr(flagchar, "class_average", no_average)
    flagchar._own_size_average.cache_clear()
    flagchar._cycle_average.cache_clear()
    for n in range(2, 9):
        for A in multiindices(n, n - 1):
            for chi in flagchar.CHARACTERS:
                assert gamma_poincare(A, n, chi).nonnegative()
    assert gamma_poincare(MultiIndex((2, 2)), 4, "sign") == QPoly({1: 1, 2: 1, 3: 1})


def _partition_sum(a, m, factor, chi):
    """(M_{a,m}, D_{a,m}): the chi-weighted S_m average over the cycle types
    lambda of m of prod_{c in lambda} F(q^c) / prod_{j <= a} (1 - q^{cj}),
    as the numerator M over D = prod_{k <= m, j <= a} (1 - q^{kj}), with the
    sign scaling the class size m! / z_lambda; F = ``factor(a)``, or 1."""
    denominator = prod((q_pochhammer(a).substitute_power(k) for k in range(1, m + 1)), start=QPoly.one())
    pairs = []
    for lam in partitions(m):
        term = divide_out(denominator, [c * j for c in lam for j in range(1, a + 1)])
        if factor:
            term = prod((factor(a).substitute_power(c) for c in lam), start=term)
        sign = (-1) ** (m - len(lam)) if chi == "sign" else 1
        pairs.append((sign * (factorial(m) // centralizer_order(lam)), term))
    return integer_combination(pairs, factorial(m)), denominator


@pytest.mark.parametrize("factor", [None, _lie_character])
@pytest.mark.parametrize("chi", flagchar.CHARACTERS)
def test_the_newton_factor_is_the_partition_sum(factor, chi):
    # P_{a,m} = (q;q)_{am} h_m[F / (q;q)_a] from Newton's identity against
    # the sum over the partitions of m it replaced: P D = M (q;q)_{am}
    for a in range(1, 7):
        for m in range(1, 7):
            numerator, denominator = _partition_sum(a, m, factor, chi)
            newton = flagchar._cycle_average(a, m, factor, chi)
            assert newton * denominator == numerator * q_pochhammer(a * m), (a, m)


def _assembled_own_size_average(A, factor, chi):
    # the own-size average in one piece: the q-multinomial [s; a m, ...]_q
    # over the (a, m) of A times the product of the cycle-type averages
    multiplicities = A.multiplicities()
    start = gauss_multinomial(A.size, [a * m for a, m in multiplicities])
    return prod((flagchar._cycle_average(a, m, factor, chi) for a, m in multiplicities), start=start)


@pytest.mark.parametrize("factor", [None, _lie_character])
@pytest.mark.parametrize("chi", flagchar.CHARACTERS)
def test_the_peeled_average_is_the_multinomial_times_the_cycle_averages(factor, chi):
    # the chain rule [s; x_1, ..., x_k] = [s - am; x_1, ..., x_{k-1}] [s; am]
    # behind the recursion, for every index of size at most 16; the binomial
    # sized for another part size than the one peeled, or [s - am; am] for
    # [s; am], changes the product
    for A in multiindices(16, 15):
        assert flagchar._own_size_average(A, factor, chi) == _assembled_own_size_average(A, factor, chi), A


def test_a_negative_cycle_average_is_named_in_every_block_that_reads_it(monkeypatch):
    # a multi-size average is not scanned for signs: each of its cycle-type
    # averages is checked as the average of a single-size index (a^m), and
    # that check must stop every multi-size index with m parts of size a
    real_average = flagchar._cycle_average
    memos = (flagchar._own_size_average, flagchar._peeled_factor, flagchar._cycle_average)
    checked = 0
    try:
        for single in [A for A in multiindices(8, 7) if len(A.multiplicities()) == 1]:
            ((a, m),) = single.multiplicities()

            def negated(b, k, factor, chi, a=a, m=m):
                average = real_average(b, k, factor, chi)
                return -average if (b, k) == (a, m) else average

            monkeypatch.setattr(flagchar, "_cycle_average", negated)
            for memo in memos:
                memo.cache_clear()
            for n in range(single.size, 9):
                for A in multiindices(n, n - 1):
                    if len(A.multiplicities()) > 1 and (a, m) in A.multiplicities():
                        for chi in flagchar.CHARACTERS:
                            name = re.escape(f"negative rank in the {chi} S({single}) average at n={single.size}")
                            with pytest.raises(ConsistencyError, match=name):
                                gamma_poincare(A, n, chi)
                            checked += 1
    finally:
        for memo in memos:
            memo.cache_clear()
    assert checked == 68


def test_gamma_character_table():
    A = MultiIndex((2, 2))
    trivial = conjugacy_classes(A)[0]
    assert gamma_trace(A, 4, trivial) == gauss_multinomial(4, (2, 2))


# --------------------------------------------------------------------------
# pinned outputs
# --------------------------------------------------------------------------

# SHA-256 of the reprs of gamma_poincare(A, n, chi) for every A in
# multiindices(n, n - 1), characters trivial then sign, one per line;
# n <= 8 were generated with quotients by multiplied-out denominators and
# exact_div, so they check the stride divisions against an independent
# computation; n = 9..12 with the sum over the cycle types of each S_m on
# the common denominator D_{a,m} that Newton's identity replaced, so they
# pin every multiplicity up to m = 6 under both characters
GAMMA_DIGESTS = {
    2: "fe0979ea753ec147b5ce20655c7c5ca1992c80c7a061db870869c6bcec771003",
    3: "9dfa9cc4cc6206a2497bdbbdd25df4572f161fd2553221c09c77445a41bd6daf",
    4: "727ff028c03e2f15b66f4b74b649534dd93edc001da1e9907b92ced72bec8628",
    5: "b8429dc56acaa2881f41751021330cd326e681aca3a8d5725aa44c734feb7a8f",
    6: "71992057a245ed173d403db1a09a9f9698e3d09b2437c62409b22995bc592242",
    7: "984959e0f5c3e5cf768690fc6b717d6b394946cbae8e7e66e93edae70e5eb4dd",
    8: "89f429a894224df126b6d048f8230136e925351d623a947b1ab6664154cd46d5",
    9: "d4f008cbb300a2379fa282b3ca9f482a7a03c4512f28526ed7dc2c6c1c0e6bb7",
    10: "8d30d427cbc5ae6fac9b36cc5a594836dabf541067156ef8cf0345b41dbdf609",
    11: "860858dd8ee75d2f6b141b275f1c080b8582bf86ec1330a216bbf592c01b991b",
    12: "f0139aa9cde31693e1fb6838eb00b4d1036b9d71a6b9bd115e79015400a7b051",
}


@pytest.mark.parametrize("n", sorted(GAMMA_DIGESTS))
def test_gamma_poincare_is_pinned(n):
    text = "\n".join(
        repr(gamma_poincare(A, n, chi))
        for A in multiindices(n, n - 1)
        for chi in ("trivial", "sign")
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GAMMA_DIGESTS[n]
