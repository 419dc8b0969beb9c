"""The metric d and flow metric rho brackets against `sympy.Rational`.

An independent oracle for the integer bracket kernel: each bracket is
summed again in sympy's rationals, cylinder by cylinder, from masses
found by direct scans and from the same enclosure endpoints of c and I.
Skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from cmshift.measures import canonical_cylinders, metric_d  # noqa: E402
from cmshift.suspension import (  # noqa: E402
    FlowMeasure,
    constant_roof,
    flow_metric_rho,
    log1p_roof,
    parse_roof_text,
    roof_integral,
)
from conftest import DIFFERENTIAL_SHIFTS, naive_combo_mass, random_combo  # noqa: E402

ROOFS = {
    "log1p": log1p_roof(),
    "const": constant_roof(Fraction(3, 2)),
    "table": parse_roof_text("depth 2\ntable 1 2 : log:7\ntable 2 1 : 5/2\ntail log1p\nc log:2\n"),
}


def Q(x) -> "sympy.Rational":
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def sympy_abs(lo, hi):
    """|[lo, hi]| as an interval."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return sympy.Integer(0), max(-lo, hi)


def sympy_flow_brackets(nu, words, prec):
    """[lam c m / I] for each direct-scan base mass m, with c and I taken
    as their enclosures at `prec` (points when both are rational)."""
    if nu.is_zero:
        return [(sympy.Integer(0), sympy.Integer(0))] * len(words)
    c, integral = nu.roof.floor, nu.integral
    if c.is_rational and integral.is_rational:
        c_lo = c_hi = Q(c.as_fraction())
        i_lo = i_hi = Q(integral.as_fraction())
    else:
        civ, iiv = c.eval_interval(prec), integral.eval_interval(prec)
        c_lo, c_hi, i_lo, i_hi = Q(civ.lo), Q(civ.hi), Q(iiv.lo), Q(iiv.hi)
    out = []
    for w in words:
        m = Q(nu.lam) * Q(naive_combo_mass(nu.base, w))
        out.append((c_lo * m / i_hi, c_hi * m / i_lo))
    return out


def sympy_rho(nu1, nu2, N, spec, prec):
    words = canonical_cylinders(spec, N)
    lower = upper = sympy.Integer(0)
    pairs = zip(sympy_flow_brackets(nu1, words, prec), sympy_flow_brackets(nu2, words, prec))
    for n, ((x_lo, x_hi), (y_lo, y_hi)) in enumerate(pairs, start=1):
        d_lo, d_hi = sympy_abs(x_lo - y_hi, x_hi - y_lo)
        lower += d_lo * sympy.Rational(1, 2**n)
        upper += d_hi * sympy.Rational(1, 2**n)
    return lower, upper + sympy.Rational(1, 2**N)


def sympy_d(a, b, N, spec):
    lower = sympy.Integer(0)
    for n, w in enumerate(canonical_cylinders(spec, N), start=1):
        lower += abs(Q(naive_combo_mass(a, w)) - Q(naive_combo_mass(b, w))) * sympy.Rational(1, 2**n)
    return lower, lower + sympy.Rational(1, 2**N)


def random_flow(spec, roof, rng, cap):
    if rng.random() < 0.2:
        return FlowMeasure.zero(roof)
    base = random_combo(spec, rng, rng.randint(1, 3), cap, probability=True)
    return FlowMeasure(roof, base, roof_integral(roof, base), Fraction(rng.randint(1, 4), 4))


@settings(max_examples=40, deadline=None)
@given(
    shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
    roof=st.sampled_from(sorted(ROOFS)),
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 60),
    prec=st.sampled_from([16, 64]),
)
def test_rho_matches_sympy(shift, roof, seed, N, prec):
    spec, cap = DIFFERENTIAL_SHIFTS[shift]
    rng = random.Random(seed)
    nu1, nu2 = (random_flow(spec, ROOFS[roof], rng, cap) for _ in range(2))
    lo, hi = flow_metric_rho(nu1, nu2, N, spec, prec)
    if nu1.is_zero and nu2.is_zero:
        assert (lo, hi) == (0, Fraction(1, 2**N))
        return
    assert (Q(lo), Q(hi)) == sympy_rho(nu1, nu2, N, spec, prec)


@settings(max_examples=40, deadline=None)
@given(
    shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
    seed=st.integers(0, 2**32 - 1),
    terms=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    N=st.integers(1, 90),
)
def test_metric_d_matches_sympy(shift, seed, terms, N):
    spec, cap = DIFFERENTIAL_SHIFTS[shift]
    rng = random.Random(seed)
    a, b = (random_combo(spec, rng, k, cap) for k in terms)
    lo, hi = metric_d(a, b, N, spec)
    assert (Q(lo), Q(hi)) == sympy_d(a, b, N, spec)
