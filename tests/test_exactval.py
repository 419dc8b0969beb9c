import math
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmshift import exactval
from cmshift.exactval import Interval, LogLinear, _merge, log_interval
from cmshift.measures import convex_combination, measure_from_cycle, periodic_orbit
from cmshift.shifts import full_shift
from cmshift.suspension import RoofFunction, birkhoff_sum, log1p_roof, roof_integral, tail_log1p


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
                table={w: LogLinear.log_of(r) + 1 for w, r in table.items()},
                tail=tail_log1p(),
                floor=LogLinear.log_of(2),
                var2_bound=Fraction(0),
            ),
        ]
        total = sum(weights[: len(cycles)])
        combo = convex_combination(
            (Fraction(w, total), measure_from_cycle(full, c)) for w, c in zip(weights, cycles)
        )

        def run():
            out = []
            for roof in roofs:
                out += [birkhoff_sum(roof, periodic_orbit(full, c)) for c in cycles]
                out.append(roof_integral(roof, combo))
            return [(v.rational, v.logs) for v in out]

        got = run()
        with mock.patch.object(exactval, "_merge", oracle_merge):
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
