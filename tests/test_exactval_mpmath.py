"""Enclosure soundness against mpmath's high-precision logarithm.

Comparisons of `LogLinear` values are decided by their 32-bit enclosures
whenever those are disjoint, so every enclosure must contain the true
value.  mpmath runs at 800 bits here; its result is within 2**-700 of
the true value for every input below, which is the slack allowed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift.exactval import LogLinear, log_interval

mpmath = pytest.importorskip("mpmath")

PRECISIONS = (8, 32, 64, 200)
SLACK = Fraction(1, 2**700)


def _exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_  # x = (-1)**sign * man * 2**exp
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _mp_log(r: Fraction):
    return mpmath.log(mpmath.mpf(r.numerator)) - mpmath.log(mpmath.mpf(r.denominator))


def reference_log(r: Fraction) -> Fraction:
    with mpmath.mp.workprec(800):
        return _exact(_mp_log(r))


def reference_value(v: LogLinear) -> Fraction:
    with mpmath.mp.workprec(800):
        total = mpmath.mpf(0)
        for b, c in v.logs:
            total += mpmath.log(mpmath.mpf(b)) * c.numerator / c.denominator
        return v.rational + _exact(total)


def _assert_encloses(iv, ref: Fraction, prec: int) -> None:
    assert iv.width <= Fraction(1, 2**prec)
    assert iv.lo - SLACK <= ref <= iv.hi + SLACK


positive_rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**15),
    st.integers(min_value=1, max_value=10**15),
)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("x", [
    1, 2, 3, 7, 10**12, 10**12 + 1, 10**24 + 1, 2**64,
    Fraction(3, 2), Fraction(1, 7), Fraction(10**12 + 1, 10**12), Fraction(1, 10**30),
])
def test_log_interval_contains_reference(x, prec):
    _assert_encloses(log_interval(x, prec), reference_log(Fraction(x)), prec)


@given(x=positive_rationals, prec=st.sampled_from(PRECISIONS))
@settings(max_examples=60, deadline=None)
def test_log_interval_random(x, prec):
    _assert_encloses(log_interval(x, prec), reference_log(x), prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("make", [
    lambda: LogLinear.log_of(10**12 + 1) - LogLinear.log_of(10**12),
    lambda: LogLinear.log_of(6) + LogLinear.log_of(2) + LogLinear.log_of(Fraction(1, 2)),
    lambda: Fraction(-7, 3) + 5 * LogLinear.log_of(Fraction(12, 35)),
    lambda: LogLinear.from_rational(Fraction(1, 3)),
    lambda: LogLinear.log_of(2) * Fraction(-10**6, 7) + 10**5,
])
def test_eval_interval_contains_reference(make, prec):
    v = make()
    _assert_encloses(v.eval_interval(prec), reference_value(v), prec)


@given(
    terms=st.lists(
        st.tuples(positive_rationals, st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))),
        min_size=1, max_size=6,
    ),
    q=st.builds(Fraction, st.integers(-100, 100), st.integers(1, 30)),
    prec=st.sampled_from(PRECISIONS),
)
@settings(max_examples=60, deadline=None)
def test_eval_interval_random(terms, q, prec):
    v = LogLinear.from_rational(q)
    for r, c in terms:
        v = v + c * LogLinear.log_of(r)
    _assert_encloses(v.eval_interval(prec), reference_value(v), prec)
