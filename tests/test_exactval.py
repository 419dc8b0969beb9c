import functools
import math
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmshift import exactval, suspension
from cmshift.exactval import Interval, LogLinear, _log_in_1_2, _merge, fold_sum, log_interval
from cmshift.measures import (
    CylinderFunction, convex_combination, measure_from_cycle, periodic_orbit,
)
from cmshift.shifts import full_shift
from cmshift.suspension import (
    RoofFunction, _limit_table_integral, birkhoff_sum, log1p_roof, roof_integral, tail_log1p,
)
from conftest import dyadic_ceil, dyadic_floor, oracle_eval_interval, oracle_log_of


def coprime_merge_oracle(pairs) -> dict[int, Fraction]:
    """Combine (base, coefficient) log terms over a pairwise-coprime base.

    Bases sharing a factor are split by gcd until no pair does; the value
    sum c * log(base) is preserved exactly throughout.

    This is the general merge over one flat term list, testing every
    popped term against every base.  `exactval._merge(left, right)` must
    give exactly its result on left + right.
    """
    bases: dict[int, Fraction] = {}
    work = list(pairs)
    while work:
        b, c = work.pop()
        if b == 1 or c == 0:
            continue
        if b < 1:
            raise ValueError("log bases must be positive integers")
        if b in bases:
            bases[b] += c
            if bases[b] == 0:
                del bases[b]
            continue
        for e in bases:
            g = gcd(b, e)
            if g > 1:
                ce = bases.pop(e)
                work.append((g, ce + c))
                work.append((e // g, ce))
                work.append((b // g, c))
                break
        else:
            bases[b] = c
    return bases


def oracle_normal_form(pairs) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted(coprime_merge_oracle(pairs).items()))


def oracle_merge(left, right) -> dict[int, Fraction]:
    return coprime_merge_oracle(list(left) + list(right))


def oracle_fold(pairs) -> LogLinear:
    """The left fold ((0 + w1 * v1) + w2 * v2) + ... with `+`, whose merge
    is `coprime_merge_oracle`; `fold_sum` must give exactly its result."""
    with mock.patch.object(exactval, "_merge", oracle_merge):
        return functools.reduce(lambda acc, wv: acc + wv[0] * wv[1], pairs, LogLinear.zero())


def fraction_log_in_1_2(u: Fraction, prec: int) -> Interval:
    """The atanh series of `exactval._log_in_1_2` evaluated in `Fraction`s,
    with the same directed roundings; its endpoints must be identical."""
    floor, ceil = dyadic_floor, dyadic_ceil
    if u == 1:
        return Interval(Fraction(0), Fraction(0))
    bits = prec + 10
    while True:
        z = (u - 1) / (u + 1)
        z_lo = floor(z, bits)
        z_hi = ceil(z, bits)
        target = Fraction(1, 1 << (prec + 2))
        lo_sum, hi_sum = z_lo, z_hi
        pow_lo, pow_hi = z_lo, z_hi
        z2_lo, z2_hi = z_lo * z_lo, z_hi * z_hi
        k = 1
        while True:
            pow_lo *= z2_lo
            pow_hi *= z2_hi
            k += 2
            lo_sum += pow_lo / k
            hi_sum += pow_hi / k
            tail = pow_hi * z2_hi / ((k + 2) * (1 - z2_hi))
            if 2 * tail <= target:
                break
            lo_sum = floor(lo_sum, bits)
            hi_sum = ceil(hi_sum, bits)
            pow_lo = floor(pow_lo, bits)
            pow_hi = ceil(pow_hi, bits)
        out = Interval(floor(2 * lo_sum, prec + 2), ceil(2 * (hi_sum + tail), prec + 2))
        if out.width <= Fraction(1, 1 << prec):
            return out
        bits += 16


positive_rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
)
small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=120),
)


class TestLogInterval:
    @pytest.mark.parametrize("x", [2, 3, 7, Fraction(3, 2), Fraction(1, 7), 10**24 + 1])
    def test_encloses_and_is_tight(self, x):
        for prec in (16, 48, 80):
            iv = log_interval(x, prec)
            assert iv.width <= Fraction(1, 2**prec)
            assert iv.lo <= Fraction(math.log(x)) + Fraction(1, 2**40)
            assert iv.hi >= Fraction(math.log(x)) - Fraction(1, 2**40)

    def test_log_one_is_zero(self):
        iv = log_interval(1, 64)
        assert iv.lo == iv.hi == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_interval(0, 10)

    @given(x=positive_rationals)
    @settings(max_examples=60, deadline=None)
    def test_float_inside_enclosure(self, x):
        iv = log_interval(x, 60)
        assert float(iv.lo) <= math.log(x) + 1e-12
        assert float(iv.hi) >= math.log(x) - 1e-12


LOG_SERIES_ARGS = [
    pytest.param(Fraction(1), id="1"),
    pytest.param(Fraction(2), id="2"),
    pytest.param(1 + Fraction(1, 10**30), id="1+1e-30"),
    pytest.param(Fraction(3, 2), id="3/2"),
    pytest.param(Fraction(2**61 - 1, 2**60), id="mersenne61/2^60"),
    pytest.param(Fraction(10**40 + 7, 10**40 - 3), id="near-1-40-digits"),
    pytest.param(2 - Fraction(1, 3**50), id="2-3^-50"),
    pytest.param(Fraction(2**200 + 1, 2**199 + 5), id="near-2-61-digits"),
]


class TestLogSeriesKernel:
    @pytest.mark.parametrize("u", LOG_SERIES_ARGS)
    def test_integer_series_matches_fraction_series(self, u):
        for prec in range(1, 257):
            assert _log_in_1_2(u, prec) == fraction_log_in_1_2(u, prec), prec

    @pytest.mark.parametrize("u", [Fraction(2), Fraction(3, 2), Fraction(2**61 - 1, 2**60)])
    @pytest.mark.parametrize("prec", [511, 1500])
    def test_high_precision_matches_fraction_series(self, u, prec):
        # where the stopping test and the division by k work on long integers
        assert _log_in_1_2(u, prec) == fraction_log_in_1_2(u, prec)

    @given(
        num=st.integers(0, 10**45),
        den=st.one_of(st.integers(1, 10**6), st.integers(1, 10**45)),
        prec=st.integers(1, 256),
    )
    # rare cases where rounding the lower sum's powers z**k up instead of
    # down at scale 2**bits moves the lower endpoint
    @example(num=110671 - 64882, den=64882, prec=33)
    @example(num=672172 - 341931, den=341931, prec=9)
    @settings(max_examples=150, deadline=None)
    def test_random_arguments_match_fraction_series(self, num, den, prec):
        u = 1 + Fraction(num % den, den)  # in [1, 2)
        assert _log_in_1_2(u, prec) == fraction_log_in_1_2(u, prec)


class TestInterval:
    def test_arithmetic(self):
        a = Interval(Fraction(1, 4), Fraction(1, 2))
        b = Interval(Fraction(1), Fraction(2))
        assert (a + b).lo == Fraction(5, 4)
        assert (a - b).hi == Fraction(1, 2) - 1
        assert a.scale(-2) == Interval(Fraction(-1), Fraction(-1, 2))
        assert (a - b).abs().lo == Fraction(1, 2)
        assert a.div_pos(b).lo == Fraction(1, 8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))


class TestLogLinear:
    def test_log_product_identity(self):
        assert LogLinear.log_of(6) == LogLinear.log_of(2) + LogLinear.log_of(3)
        assert LogLinear.log_of(Fraction(3, 2)) == LogLinear.log_of(3) - LogLinear.log_of(2)

    def test_shared_factors_merge(self):
        lhs = LogLinear.log_of(12) + LogLinear.log_of(18)
        rhs = LogLinear.log_of(216)
        assert lhs == rhs
        assert (lhs - rhs).is_zero

    def test_coprime_normal_form(self):
        v = LogLinear.log_of(12) - LogLinear.log_of(18)
        bases = [b for b, _ in v.logs]
        for i, b1 in enumerate(bases):
            for b2 in bases[i + 1 :]:
                assert math.gcd(b1, b2) == 1

    def test_sign_and_order(self):
        assert LogLinear.log_of(5) > LogLinear.log_of(4)
        assert (LogLinear.log_of(2) - LogLinear.log_of(3)).sign() == -1
        assert LogLinear.log_of(2) > Fraction(1, 2)
        assert LogLinear.log_of(2) < Fraction(7, 10)
        assert LogLinear.from_rational(Fraction(3, 4)).sign() == 1

    def test_rational_round_trip(self):
        v = LogLinear.from_rational(Fraction(5, 3))
        assert v.is_rational and v.as_fraction() == Fraction(5, 3)
        with pytest.raises(ValueError):
            LogLinear.log_of(2).as_fraction()

    @given(a=positive_rationals, b=positive_rationals, q=small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_algebra_matches_floats(self, a, b, q):
        x = LogLinear.log_of(a) + q * LogLinear.log_of(b)
        expected = math.log(a) + float(q) * math.log(b)
        assert math.isclose(float(x), expected, rel_tol=0, abs_tol=1e-9)
        iv = x.eval_interval(50)
        assert float(iv.lo) - 1e-12 <= expected <= float(iv.hi) + 1e-12
        assert iv.width <= Fraction(1, 2**50)

    @given(a=positive_rationals, b=positive_rationals)
    @settings(max_examples=40, deadline=None)
    def test_add_sub_cancels(self, a, b):
        x = LogLinear.log_of(a)
        y = LogLinear.log_of(b)
        assert ((x + y) - y) == x
        assert (x - x).is_zero

    def test_float_saturates_beyond_float_range(self):
        big = Fraction(10**400)
        assert float(LogLinear.from_rational(big)) == math.inf
        assert float(LogLinear.from_rational(-big)) == -math.inf
        assert float(LogLinear.log_of(3) * big) == math.inf
        assert float(LogLinear.log_of(Fraction(1, 3)) * big + 1) == -math.inf
        assert float(LogLinear.log_of(3) + Fraction(1, big)) == math.log(3)

    def test_division_by_rational(self):
        half = LogLinear.log_of(4) / 2
        assert half == LogLinear.log_of(2)
        with pytest.raises(ZeroDivisionError):
            LogLinear.log_of(2) / 0

    def test_big_arguments(self):
        big = 1 + 10**24
        v = LogLinear.log_of(big)
        iv = v.eval_interval(64)
        assert iv.width <= Fraction(1, 2**64)
        assert math.isclose(iv.midpoint_float(), math.log(big), rel_tol=1e-12)


# bases that share factors often: small integers, prime powers, products
# of small integers, and the odd large integer
bases = st.one_of(
    st.integers(min_value=1, max_value=60),
    st.builds(pow, st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=12)),
    st.builds(lambda a, b: a * b, st.integers(2, 40), st.integers(2, 40)),
    st.integers(min_value=1, max_value=10**12),
)
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
raw_terms = st.lists(st.tuples(bases, coefficients), max_size=10)


@st.composite
def merge_operands(draw):
    """Two normal forms; the second reuses some terms of the first negated,
    so that coefficients cancel."""
    raw_a = draw(raw_terms)
    raw_b = draw(raw_terms)
    if raw_a:
        cancel = draw(st.lists(st.sampled_from(raw_a), max_size=len(raw_a)))
        raw_b = draw(st.permutations(raw_b + [(b, -c) for b, c in cancel]))
    return oracle_normal_form(raw_a), oracle_normal_form(raw_b)


PRIMES = [p for p in range(2, 600) if all(p % d for d in range(2, int(p**0.5) + 1))]


@st.composite
def sparse_merge_operands(draw):
    """Two long normal forms over mostly disjoint primes: a few bases of
    the second share a factor with the first, a few repeat one of its
    bases with the coefficient negated (exact cancellation) or not."""
    primes = draw(st.permutations(PRIMES))
    n = draw(st.integers(20, 50))
    k = draw(st.integers(20, 50))
    mine, theirs, spare = primes[:n], primes[n : n + k], primes[n + k :]
    raw_a = [(p ** draw(st.integers(1, 3)), draw(coefficients)) for p in mine]
    raw_b = [(p, draw(coefficients)) for p in theirs]
    for _ in range(draw(st.integers(0, 4))):
        b, c = draw(st.sampled_from(raw_a))
        kind = draw(st.sampled_from(["cancel", "same", "shared"]))
        if kind == "cancel":
            raw_b.append((b, -c))
        elif kind == "same":
            raw_b.append((b, c))
        else:
            raw_b.append((b * draw(st.sampled_from(spare)), draw(coefficients)))
    return oracle_normal_form(raw_a), oracle_normal_form(draw(st.permutations(raw_b)))


fold_weights = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
)
fold_values = st.builds(
    lambda q, raw: LogLinear(q, oracle_normal_form(raw)),
    st.one_of(st.just(Fraction(0)), small_rationals),
    st.one_of(st.just([]), raw_terms),  # rational-only values too
)


@st.composite
def fold_pairs(draw):
    """(weight, value) pairs over often-shared bases; some pairs are
    repeated with the weight negated, so that sums cancel, often to 0."""
    pairs = draw(st.lists(st.tuples(fold_weights, fold_values), max_size=12))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        pairs = draw(st.permutations(pairs + [(-w, v) for w, v in again]))
    return pairs


@st.composite
def long_fold_pairs(draw):
    """0-80 (weight, value) pairs, enough for several blocks of
    `fold_sum`: weights of 0 and of new denominators anywhere, so that
    `den` changes inside a block, and pairs repeated negated at a later
    position, often in a later block, so that sums cancel across block
    boundaries."""
    values = st.builds(
        lambda q, raw: LogLinear(q, oracle_normal_form(raw)),
        st.one_of(st.just(Fraction(0)), small_rationals),
        st.lists(st.tuples(bases, coefficients), max_size=4),
    )
    pairs = draw(st.lists(st.tuples(fold_weights, values), max_size=60))
    for _ in range(draw(st.integers(0, 80 - len(pairs))) if pairs else 0):
        i = draw(st.integers(0, len(pairs) - 1))
        w, v = pairs[i]
        pairs.insert(draw(st.integers(i + 1, len(pairs))), (-w, v))
    return pairs


def block_edge_pairs(n: int):
    """n pairs over often-shared bases: a zero weight at every fifth pair,
    denominators that change inside each block, and a last pair that
    cancels the first, across a block boundary once n > 16."""
    pairs = [
        (Fraction(k % 5 - 2, k % 4 + 1), LogLinear.log_of(Fraction(6 * k + 4, k + 1)) + k % 3)
        for k in range(n - 1)
    ]
    return pairs + [(-pairs[0][0], pairs[0][1])]


one_pair_values = st.builds(
    lambda q, raw: LogLinear(q, oracle_normal_form(raw)),
    st.one_of(st.just(Fraction(0)), small_rationals),
    # rational-only values, and up to 40 terms over often-shared bases
    st.one_of(st.just([]), st.lists(st.tuples(bases, coefficients), max_size=40)),
)


@st.composite
def one_log_pairs(draw):
    """20-100 pairs (w, log b), b in 2..60 and w in +-1..3: the windows of
    a log1p Birkhoff sum.  Some pairs come back negated later, often in a
    later block of `fold_sum`, so that sums cancel across block edges."""
    weights = st.sampled_from([-3, -2, -1, 1, 2, 3])
    logs = st.integers(2, 60).map(LogLinear.log_of)
    pairs = draw(st.lists(st.tuples(weights, logs), min_size=20, max_size=70))
    for _ in range(draw(st.integers(0, 30))):
        i = draw(st.integers(0, len(pairs) - 1))
        w, v = pairs[i]
        pairs.insert(draw(st.integers(i + 1, len(pairs))), (-w, v))
    return pairs


def _split_pops(run):
    """The work items `_split` pops while `run()` runs."""
    popped = []

    class Work(list):
        def pop(self):
            item = super().pop()
            popped.append(item)
            return item

    split = exactval._split
    with mock.patch.object(exactval, "_split", lambda bases, work: split(bases, Work(work))):
        run()
    return popped


def _assert_normal_form(logs):
    keys = [b for b, _ in logs]
    assert keys == sorted(keys)
    assert all(b > 1 and c != 0 for b, c in logs)
    for i, b1 in enumerate(keys):
        for b2 in keys[i + 1 :]:
            assert gcd(b1, b2) == 1


class TestMergeKernel:
    @given(operands=merge_operands())
    @example(operands=(((2, Fraction(1)), (3, Fraction(1))), ((6, Fraction(-1)),)))
    @example(operands=(((8, Fraction(1)),), ((2, Fraction(1)), (3, Fraction(1)))))
    @example(operands=(((4, Fraction(1)), (9, Fraction(1))), ((6, Fraction(1)), (35, Fraction(2)))))
    @example(operands=(((2, Fraction(1)), (15, Fraction(1))), ((5, Fraction(-1)), (6, Fraction(1)))))
    @example(operands=(((2**40, Fraction(1, 3)),), ((6, Fraction(-1)), (2**7 - 1, Fraction(1)))))
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_oracle_term_for_term(self, operands):
        left, right = operands
        _assert_normal_form(left)
        _assert_normal_form(right)
        want = oracle_normal_form(list(left) + list(right))
        assert tuple(sorted(_merge(left, right).items())) == want
        _assert_normal_form(want)
        a = LogLinear(Fraction(1, 2), left)
        b = LogLinear(Fraction(-3), right)
        assert (a + b).logs == want
        assert (b + a).logs == oracle_normal_form(list(right) + list(left))
        assert (a - b).logs == oracle_normal_form(list(left) + [(e, -c) for e, c in right])

    @given(operands=sparse_merge_operands())
    @settings(max_examples=150, deadline=None)
    def test_long_operands_with_few_interactions(self, operands):
        # most terms pass straight through; the few that share a factor
        # with the other operand, or cancel exactly, are split as before
        left, right = operands
        want = oracle_normal_form(list(left) + list(right))
        assert tuple(sorted(_merge(left, right).items())) == want
        assert tuple(sorted(_merge(right, left).items())) == oracle_normal_form(
            list(right) + list(left)
        )
        a, b = LogLinear(Fraction(0), left), LogLinear(Fraction(0), right)
        assert (a - b).logs == oracle_normal_form(list(left) + [(e, -c) for e, c in right])

    def test_self_cancellation(self):
        x = LogLinear.log_of(Fraction(12, 35)) + 3 * LogLinear.log_of(10)
        assert (x - x).is_zero
        assert (x + x).logs == oracle_normal_form(list(x.logs) * 2)

    @given(r=st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)))
    @example(r=Fraction(2**20, 3**11))
    @example(r=Fraction(1))
    @settings(max_examples=100, deadline=None)
    def test_log_of_matches_oracle(self, r):
        want = oracle_normal_form([(r.numerator, Fraction(1)), (r.denominator, Fraction(-1))])
        assert LogLinear.log_of(r).logs == want

    def test_grouping_changes_the_normal_form(self):
        # + is a left fold; its normal form depends on the grouping
        log6, log2, half = LogLinear.log_of(6), LogLinear.log_of(2), LogLinear.log_of(Fraction(1, 2))
        assert ((log6 + log2) + half).logs == ((2, 1), (3, 1))
        assert (log6 + (log2 + half)).logs == ((6, 1),)
        assert (log6 + log2) + half == log6 + (log2 + half)

    @given(pairs=fold_pairs())
    @example(pairs=[(1, LogLinear.log_of(6)), (-1, LogLinear.log_of(6))])
    @example(pairs=[(1, LogLinear.log_of(6)), (1, LogLinear.log_of(2)),
                    (1, LogLinear.log_of(Fraction(1, 2)))])
    @example(pairs=[(Fraction(1, 3), LogLinear.log_of(8)), (0, LogLinear.log_of(5)),
                    (Fraction(-2, 7), LogLinear.log_of(12)), (5, LogLinear.from_rational(3))])
    @example(pairs=[])
    @example(pairs=[(0, LogLinear.log_of(7))])
    @settings(max_examples=300, deadline=None)
    def test_fold_sum_matches_oracle_left_fold(self, pairs):
        got, want = fold_sum(pairs), oracle_fold(pairs)
        assert (got.rational, got.logs) == (want.rational, want.logs)
        _assert_normal_form(got.logs)

    @given(pairs=long_fold_pairs())
    @example(pairs=block_edge_pairs(15))
    @example(pairs=block_edge_pairs(16))
    @example(pairs=block_edge_pairs(17))
    @example(pairs=block_edge_pairs(49))
    @settings(max_examples=150, deadline=None)
    def test_long_fold_sum_matches_oracle_left_fold(self, pairs):
        # folds of several blocks: bases set aside at a block's start must
        # come back unchanged, and cancel or split in a later block
        got, want = fold_sum(pairs), oracle_fold(pairs)
        assert (got.rational, got.logs) == (want.rational, want.logs)
        _assert_normal_form(got.logs)

    def test_log1p_birkhoff_fold_of_1000_windows(self, full):
        # log 2 + log 3 + ... + log 1001: most adds split accumulated bases
        pairs = [(1, LogLinear.log_of(s + 1)) for s in range(1, 1001)]
        got = birkhoff_sum(log1p_roof(), periodic_orbit(full, tuple(range(1, 1001))))
        want = oracle_fold(pairs)
        assert (got.rational, got.logs) == (want.rational, want.logs)
        assert got == LogLinear.log_of(math.factorial(1001))

    @given(w=fold_weights, v=one_pair_values)
    @example(w=0, v=LogLinear.log_of(Fraction(6, 35)))
    @example(w=1, v=LogLinear.log_of(12) + Fraction(1, 3))
    @example(w=Fraction(-3, 7), v=LogLinear.from_rational(Fraction(5, 2)))
    @example(w=Fraction(2, 3), v=LogLinear(Fraction(0), ((2, Fraction(3, 2)), (3, Fraction(1, 2)))))
    @settings(max_examples=300, deadline=None)
    def test_one_pair_fold_is_the_scaling(self, w, v):
        # a fold of one pair is w * v in the fold's normal form, with
        # Fraction coefficients, and it makes no split
        want = oracle_fold([(w, v)])
        popped = []
        for got in (fold_sum([(w, v)]), v * w, w * v):
            assert (got.rational, got.logs) == (want.rational, want.logs)
            assert type(got.rational) is Fraction
            assert all(type(c) is Fraction for _, c in got.logs)
        with mock.patch.object(exactval, "_split", lambda bases, work: popped.append(work)):
            fold_sum([(w, v)])
        assert popped == []

    @given(pairs=one_log_pairs())
    @example(pairs=[(-1, LogLinear.log_of(2)), (1, LogLinear.log_of(8))])
    @example(pairs=[(1, LogLinear.log_of(12)), (1, LogLinear.log_of(72))])
    @example(pairs=[(1, LogLinear.log_of(4)), (1, LogLinear.log_of(2))])
    @example(pairs=[(1, LogLinear.log_of(6)), (-1, LogLinear.log_of(2)), (2, LogLinear.log_of(12))])
    @settings(max_examples=200, deadline=None)
    def test_one_log_fold_matches_oracle_left_fold(self, pairs):
        got, want = fold_sum(pairs), oracle_fold(pairs)
        assert (got.rational, got.logs) == (want.rational, want.logs)
        _assert_normal_form(got.logs)

    def test_part_way_cancellation_keeps_the_split_base(self):
        # -log 2 + log 8: the split cancels 2's piece after one factor of
        # 2 and keeps log 4, so the normal form is {4: 1}, not {2: 2}
        pairs = [(-1, LogLinear.log_of(2)), (1, LogLinear.log_of(8))]
        assert fold_sum(pairs).logs == oracle_fold(pairs).logs == ((4, 1),)
        pairs = [(-1, LogLinear.log_of(2)), (1, LogLinear.log_of(4)), (1, LogLinear.log_of(8))]
        assert fold_sum(pairs).logs == oracle_fold(pairs).logs

    @given(pairs=st.one_of(fold_pairs(), long_fold_pairs(), one_log_pairs()))
    @settings(max_examples=150, deadline=None)
    def test_split_pops_no_dead_piece(self, pairs):
        # a piece of 1, or of coefficient 0, is never pushed
        popped = _split_pops(lambda: fold_sum(pairs))
        assert all(b > 1 and c for b, c, _, _ in popped)

    def test_split_skips_the_dead_piece_of_a_merge(self):
        # log 2 + log 6 splits 6 by 2 and leaves 2 // 2 = 1, not pushed
        popped = _split_pops(lambda: LogLinear.log_of(2) + LogLinear.log_of(6))
        assert [b for b, *_ in popped] == [6, 2, 3, 2]

    @given(
        cycles=st.lists(
            st.lists(st.integers(min_value=1, max_value=48), min_size=1, max_size=40),
            min_size=1, max_size=3,
        ),
        weights=st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=3),
        table=st.dictionaries(
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            st.builds(Fraction, st.integers(2, 400), st.integers(1, 60)),
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:cycle .* is a power of")
    def test_birkhoff_and_integral_match_oracle_fold(self, cycles, weights, table):
        full = full_shift()
        roofs = [
            log1p_roof(),
            RoofFunction(
                name="t2",
                depth=2,
                # log r + 4 > 0 for r >= 1/30: roof values must be positive
                table={w: LogLinear.log_of(r) + 4 for w, r in table.items()},
                tail=tail_log1p(),
                floor=LogLinear.log_of(2),
                var2_bound=Fraction(0),
            ),
        ]
        total = sum(weights[: len(cycles)])
        combo = convex_combination(
            (Fraction(w, total), measure_from_cycle(full, c)) for w, c in zip(weights, cycles)
        )

        limit_table = CylinderFunction.from_combo(combo, 2, 48)

        def run():
            out = []
            for roof in roofs:
                out += [birkhoff_sum(roof, periodic_orbit(full, c)) for c in cycles]
                out.append(roof_integral(roof, combo))
                out.append(_limit_table_integral(roof, limit_table))
            return [(v.rational, v.logs) for v in out]

        got = run()
        with mock.patch.object(suspension, "fold_sum", oracle_fold):
            want = run()
        assert got == want


def _sign_of_difference(a, b) -> int:
    a = a if isinstance(a, LogLinear) else LogLinear.from_rational(a)
    b = b if isinstance(b, LogLinear) else LogLinear.from_rational(b)
    return (a - b).sign()


def _assert_order_agrees(a, b):
    s = _sign_of_difference(a, b)
    assert (a < b) == (s < 0)
    assert (a <= b) == (s <= 0)
    assert (a > b) == (s > 0)
    assert (a >= b) == (s >= 0)
    assert (a == b) == (s == 0)
    assert (a != b) == (s != 0)


def _overlap(a: LogLinear, b: LogLinear) -> bool:
    return a._enclosure.lo <= b._enclosure.hi and b._enclosure.lo <= a._enclosure.hi


class TestComparisons:
    def test_overlapping_enclosures_fall_back_to_sign(self):
        big, small = LogLinear.log_of(10**12 + 1), LogLinear.log_of(10**12)
        assert _overlap(big, small)
        with mock.patch.object(LogLinear, "sign", autospec=True, side_effect=LogLinear.sign) as spy:
            assert small < big and small <= big and big > small and big >= small
            assert not (big < small or big <= small or small > big or small >= big)
        assert spy.call_count == 8
        _assert_order_agrees(big, small)
        _assert_order_agrees(small, big)

    def test_disjoint_enclosures_decide_without_sign(self):
        a, b = LogLinear.log_of(3), LogLinear.log_of(2) + Fraction(1, 2)
        assert not _overlap(a, b)
        with mock.patch.object(LogLinear, "sign", autospec=True, side_effect=LogLinear.sign) as spy:
            assert a < b and a <= b and b > a and b >= a
        assert spy.call_count == 0
        _assert_order_agrees(a, b)

    def test_equal_values_in_different_normal_forms(self):
        log6, log2, half = LogLinear.log_of(6), LogLinear.log_of(2), LogLinear.log_of(Fraction(1, 2))
        x, y = (log6 + log2) + half, log6 + (log2 + half)
        assert x.logs != y.logs
        assert _overlap(x, y)
        _assert_order_agrees(x, y)
        assert x <= y and x >= y and not x < y and not x > y

    @pytest.mark.parametrize("p, q", [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)),
        (Fraction(-7, 2), Fraction(5)),
        (Fraction(0), Fraction(0)),
    ])
    def test_rational_against_rational(self, p, q):
        a, b = LogLinear.from_rational(p), LogLinear.from_rational(q)
        _assert_order_agrees(a, b)
        _assert_order_agrees(b, a)
        _assert_order_agrees(a, q)
        _assert_order_agrees(p, b)

    @pytest.mark.parametrize("other", [
        0, 1, -2, Fraction(7, 10), Fraction(1, 2),
        Fraction(math.log(2)),  # within 2**-32 of log 2: enclosures overlap
        Fraction(math.log(2)) + Fraction(1, 2**60),
    ])
    def test_mixed_with_fraction_and_int(self, other):
        v = LogLinear.log_of(2)
        _assert_order_agrees(v, other)
        _assert_order_agrees(other, v)

    @given(a=positive_rationals, b=positive_rationals, q=small_rationals, tiny=st.integers(20, 80))
    @settings(max_examples=80, deadline=None)
    def test_random_pairs_agree_with_sign(self, a, b, q, tiny):
        x = LogLinear.log_of(a) + q * LogLinear.log_of(b)
        y = LogLinear.log_of(b) * q + LogLinear.log_of(a)
        _assert_order_agrees(x, y)
        _assert_order_agrees(x, y + Fraction(1, 2**tiny))
        _assert_order_agrees(x - Fraction(1, 2**tiny), y)
        _assert_order_agrees(x, q)


class TestRationalEnclosures:
    """A value without log terms compares through its point interval."""

    def test_rational_side_evaluates_no_interval(self):
        x = LogLinear.log_of(3)
        q = LogLinear.from_rational(Fraction(21, 20))
        with mock.patch.object(
            LogLinear, "eval_interval", autospec=True, side_effect=LogLinear.eval_interval
        ) as spy:
            assert not x <= q
            assert q <= x and x >= Fraction(21, 20) and not x < 1
        assert spy.call_count == 1  # x's enclosure, computed once and cached
        assert spy.call_args_list[0].args[0] is x

    @given(
        a=positive_rationals, c=small_rationals, q=small_rationals,
        shift=st.sampled_from([0, 1, -1]), tiny=st.integers(20, 80),
    )
    @settings(max_examples=150, deadline=None)
    def test_compare_equals_sign_of_difference(self, a, c, q, shift, tiny):
        x = LogLinear.log_of(a) * c + q
        # rationals at, just above and just below a float of x, and far off
        near = Fraction(float(x)) + shift * Fraction(1, 2**tiny)
        for r in (q, near, near + 1, Fraction(0)):
            y = LogLinear.from_rational(r)
            assert x._compare(y) == (x - y).sign()
            assert y._compare(x) == (y - x).sign()
            _assert_order_agrees(x, r)


wide_coefficients = st.builds(
    Fraction, st.integers(-10**8, 10**8).filter(bool), st.integers(1, 10**5)
)


@st.composite
def log_linears(draw):
    """Sums of rational multiples of logs, with a rational part; the
    coefficients reach past 2**26, so each term's `cbits` varies."""
    terms = draw(st.lists(st.tuples(bases, wide_coefficients), max_size=6))
    q = draw(st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))
    return fold_sum([(c, LogLinear.log_of(b)) for b, c in terms]) + q


class TestIntegerKernels:
    """`eval_interval` and `log_of` against their former Fraction forms."""

    @given(x=log_linears(), prec=st.integers(-1, 300))
    @example(x=LogLinear.zero(), prec=-1)
    @example(x=LogLinear.from_rational(Fraction(-7, 3)), prec=0)
    @example(x=LogLinear.log_of(Fraction(2**40, 3)) * Fraction(-5, 7), prec=300)
    @settings(max_examples=300, deadline=None)
    def test_eval_interval_matches_fraction_loop(self, x, prec):
        assert x.eval_interval(prec) == oracle_eval_interval(x, prec)

    @given(x=log_linears(), prec=st.integers(-40, -2))
    @example(x=LogLinear.zero(), prec=-2)
    @settings(max_examples=50, deadline=None)
    def test_eval_interval_rejects_prec_below_minus_one(self, x, prec):
        with pytest.raises(ValueError) as want:
            oracle_eval_interval(x, prec)
        with pytest.raises(ValueError) as got:
            x.eval_interval(prec)
        assert str(got.value) == str(want.value)

    @given(r=st.one_of(
        st.integers(1, 10**30),
        st.builds(Fraction, st.integers(1, 10**20), st.integers(1, 10**20)),
        st.floats(min_value=5e-324, allow_infinity=False),
        st.just(True),
    ))
    @example(r=1)
    @example(r=Fraction(1, 2))
    @example(r=Fraction(3, 2))
    @example(r=0.1)
    @settings(max_examples=200, deadline=None)
    def test_log_of_matches_fraction_path(self, r):
        got, want = LogLinear.log_of(r), oracle_log_of(r)
        assert (got.rational, got.logs) == (want.rational, want.logs)
        assert all(type(c) is Fraction for _, c in got.logs)

    @pytest.mark.parametrize("r", [0, -1, -10**30, Fraction(-1, 3), Fraction(0), 0.0, -0.5, False])
    def test_log_of_rejects_nonpositive(self, r):
        with pytest.raises(ValueError, match="log of a nonpositive value"):
            LogLinear.log_of(r)
