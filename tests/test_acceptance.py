"""Acceptance suite: one test per criterion, run at its stated tolerance.

Each test prints a single summary line; criteria with runtime budgets
assert them.  Expected values are exact rationals or bracketed reals,
and independent recomputations (matrix powers, rotation scans, sorted
enumerations) guard the library paths they check.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from cmshift.asymptotics import (
    EscapeSearchError,
    classify_limit,
    composite_sequence,
    cylinder_limit,
    escape_sequence,
    fixed_point_sequence,
    geometric_pair_loop_sequence,
    gurevich_entropy_estimate,
    pair_loop_sequence,
    sequence_from_measures,
)
from cmshift.exactval import LogLinear
from cmshift.measures import (
    canonical_cylinders,
    combo_of_cylinder,
    convex_combination,
    fixed_point_measure,
    invariance_check,
    measure_from_cycle,
    metric_d,
)
from cmshift.shifts import (
    SearchCaps,
    finite_full_shift,
    full_shift,
    is_admissible,
    loop_family_shift,
    star_shift,
)
from cmshift.suspension import (
    FlowMeasure,
    approximate_by_single_orbit,
    flow_cylinder_mass,
    flow_limit_analyze,
    flow_metric_rho,
    kac_lift,
    log1p_roof,
    roof_integral,
)
from conftest import random_cycle

TOL = Fraction(1, 1000)


def naive_rotation_mass(cycle, word):
    ext = cycle * (len(word) // len(cycle) + 2)
    hits = sum(1 for j in range(len(cycle)) if ext[j : j + len(word)] == tuple(word))
    return Fraction(hits, len(cycle))


def test_acceptance_01_defective_limit_of_pair_loops():
    t0 = time.monotonic()
    full = full_shift()
    seq = pair_loop_sequence(full, a=1, start=2)
    for n in (1, 37, 199):
        assert combo_of_cylinder(seq.term(n), (1,)) == Fraction(1, 2)
    report = cylinder_limit(seq, depth=2, symbol_cap=200, n_max=200, tol=TOL)
    assert report.limit_table.value((1,)) == Fraction(1, 2)
    for word in report.limit_table.entries:
        assert len(word) == 1  # every represented depth-2 value is zero
    assert report.limit_table.value((1, 17)) == 0
    cls = classify_limit(report, K=200, tol=TOL)
    assert cls.kind == "defective"
    assert dict(cls.defect_sites)[(1,)] == Fraction(1, 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: defective limit, defect 1/2 at [1] ({elapsed:.2f}s)")


def test_acceptance_02_escape_of_mass():
    t0 = time.monotonic()
    full = full_shift()
    report = cylinder_limit(fixed_point_sequence(full), 2, 25, 120, TOL)
    assert report.limit_table.entries == {}  # zero table past the cap
    fam = loop_family_shift(lambda n: n, name="loop_family:linear")
    caps = SearchCaps(symbol_cap=10**10)
    for k in range(1, 11):
        res = escape_sequence(fam, k=k, target_len=100 * k, caps=caps)
        cycle = res.measure.orbit.cycle
        expect = Fraction(sum(1 for s in cycle if s <= k), len(cycle))
        assert res.low_mass == expect  # exact, from occurrence counts
        assert res.low_mass <= Fraction(1, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: zero limit + escape certificates <= 1/k ({elapsed:.2f}s)")


def test_acceptance_03_star_shift_obstruction():
    star = star_shift()
    rng = random.Random(2024)
    for _ in range(500):
        cycle = random_cycle(star, rng, max_period=20, symbol_cap=40)
        mu = measure_from_cycle(star, cycle)
        mass = Fraction(sum(1 for s in mu.orbit.cycle if s == 1), mu.period)
        assert mass >= Fraction(1, 2)
        assert combo_of_cylinder(
            convex_combination([(1, mu)]), (1,)
        ) == mass
    with pytest.raises(EscapeSearchError):
        escape_sequence(star, k=1, target_len=80)
    print("\nACCEPTANCE 3 PASS: star loops give [1] mass >= 1/2; escape search exhausts")


def test_acceptance_04_invariance_of_random_periodic_measures():
    rng = random.Random(99)
    shifts = [full_shift(), star_shift(), finite_full_shift(9)]
    for idx in range(200):
        spec = shifts[idx % len(shifts)]
        cycle = random_cycle(spec, rng, max_period=12, symbol_cap=9)
        nu = convex_combination([(1, measure_from_cycle(spec, cycle))])
        report = invariance_check(nu, depth=3, symbol_cap=9)
        assert report.max_defect == 0
    print("\nACCEPTANCE 4 PASS: 200 invariance defects exactly 0 at depth 3")


def test_acceptance_05_gurevich_entropy_exact_counts():
    for m in (2, 3, 5):
        spec = finite_full_shift(m)
        report = gurevich_entropy_estimate(spec, 1, range(1, 13), m)
        # independent transfer-matrix-power oracle
        mat = [[1] * m for _ in range(m)]
        power = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        oracle = {}
        for n in range(1, 13):
            power = [
                [sum(power[i][k] * mat[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]
            oracle[n] = power[0][0]
        for row in report.rows:
            assert row.loop_count == oracle[row.n] == m ** (row.n - 1)
            expected = math.log(m) - math.log(m) / row.n
            assert abs(row.estimate - expected) <= 1e-10
    print("\nACCEPTANCE 5 PASS: loop counts m^(n-1) vs matrix powers; estimates within 1e-10")


def test_acceptance_06_kac_round_trip_and_flow_mass():
    full = full_shift()
    roof = log1p_roof()
    rng = random.Random(7)
    for _ in range(50):
        nu = convex_combination(
            [(1, measure_from_cycle(full, random_cycle(full, rng, 10, 30)))]
        )
        lifted = kac_lift(nu, roof)
        base, lam = lifted.base, lifted.lam
        assert base is nu and lam == Fraction(1)
    lifted = kac_lift(convex_combination([(1, fixed_point_measure(full, 1))]), roof)
    iv = flow_cylinder_mass(lifted, (1,), prec=50)
    assert iv.width <= Fraction(1, 10**10)
    assert iv.lo <= 1 <= iv.hi
    print("\nACCEPTANCE 6 PASS: 50 exact Kac round-trips; flow mass of [1] = 1 within 1e-10")


def test_acceptance_07_zero_flow_limit_on_star():
    star = star_shift()
    roof = log1p_roof()
    seq = geometric_pair_loop_sequence(star, a=1, base=10_000)
    terms = [seq.term(t) for t in range(1, 7)]
    integrals = [roof_integral(roof, nu) for nu in terms]
    for a, b in zip(integrals, integrals[1:]):
        assert b > a  # exact strict increase
    zero = FlowMeasure.zero(roof)
    uppers = []
    for nu in terms:
        _, hi = flow_metric_rho(kac_lift(nu, roof), zero, N=20, spec=star, prec=64)
        uppers.append(hi)
    assert all(b < a for a, b in zip(uppers, uppers[1:]))
    assert uppers[3] < Fraction(1, 100)  # below 1e-2 by t = 4
    report = flow_limit_analyze(seq, roof, n_max=6, depth=1, symbol_cap=30, tol=TOL)
    assert report.verdict == "zero flow limit"
    print("\nACCEPTANCE 7 PASS: integrals increase, rho uppers fall below 1e-2, zero verdict")


def test_acceptance_08_mass_lambda_limit_of_approximants():
    t0 = time.monotonic()
    full = full_shift()
    roof = log1p_roof()
    target = convex_combination(
        [
            (Fraction(1, 2), fixed_point_measure(full, 1)),
            (Fraction(1, 2), fixed_point_measure(full, 2)),
        ]
    )
    target_integral = roof_integral(roof, target)
    measures = []
    for n in range(1, 13):
        eps_n = Fraction(1, 2**n)
        # run the construction below eps_n so the per-cylinder brackets hold
        res = approximate_by_single_orbit(target, roof, eps_n / 8, full)
        nu = convex_combination([(1, res.measure)])
        for word in itertools.product((1, 2), repeat=2):
            gap = abs(combo_of_cylinder(nu, word) - combo_of_cylinder(target, word))
            assert gap <= eps_n
        gap_i = roof_integral(roof, nu) - target_integral
        if gap_i.sign() < 0:
            gap_i = -gap_i
        assert gap_i <= LogLinear.from_rational(eps_n)
        measures.append(nu)
    seq = sequence_from_measures(measures, "single-orbit approximants")
    report = flow_limit_analyze(seq, roof, n_max=12, depth=2, symbol_cap=2, tol=TOL)
    assert report.verdict == "flow limit with mass lambda"
    assert report.lam.lo >= 1 - Fraction(1, 1000)
    assert report.lam.hi <= 1 + Fraction(1, 1000)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: approximant masses within eps_n, lambda = 1 +- 1e-3 ({elapsed:.2f}s)")


def test_acceptance_09_single_orbit_certificates_recompute():
    full = full_shift()
    roof = log1p_roof()
    target = convex_combination(
        [
            (Fraction(1, 2), fixed_point_measure(full, 1)),
            (Fraction(1, 2), fixed_point_measure(full, 2)),
        ]
    )
    res = approximate_by_single_orbit(target, roof, Fraction(1, 1000), full)
    assert res.metric_bracket[1] <= Fraction(1, 1000)
    assert res.integral_gap <= LogLinear.from_rational(Fraction(1, 1000))
    # bit-for-bit recomputation from raw occurrence counts
    cycle = res.measure.orbit.cycle
    lower = Fraction(0)
    for idx, word in enumerate(canonical_cylinders(full, res.metric_depth), start=1):
        mine = naive_rotation_mass(cycle, word)
        theirs = combo_of_cylinder(target, word)
        lower += Fraction(1, 2**idx) * abs(mine - theirs)
    upper = lower + Fraction(1, 2**res.metric_depth)
    assert (lower, upper) == res.metric_bracket
    counts = Counter(cycle)
    integral = LogLinear.zero()
    for s, c in counts.items():
        integral = integral + Fraction(c, len(cycle)) * LogLinear.log_of(1 + s)
    gap = integral - roof_integral(roof, target)
    if gap.sign() < 0:
        gap = -gap
    assert gap == res.integral_gap
    print("\nACCEPTANCE 9 PASS: certificates match independent recomputation exactly")


def test_acceptance_10_subprobability_closure():
    full = full_shift()
    mu = convex_combination([(1, fixed_point_measure(full, 1))])
    for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        seq = composite_sequence(lam, mu, fixed_point_sequence(full))
        report = cylinder_limit(seq, depth=3, symbol_cap=20, n_max=100, tol=TOL)
        for depth in (1, 2, 3):
            assert report.limit_table.value((1,) * depth) == lam
            if lam > 0:
                assert set(report.limit_table.entries) == {
                    (1,), (1, 1), (1, 1, 1)
                }
        cls = classify_limit(report, K=20, tol=TOL)
        if lam == 1:
            assert cls.kind == "probability"
        else:
            assert cls.kind == "subprobability"
        assert cls.mass == lam
    print("\nACCEPTANCE 10 PASS: composite limits are exactly lambda * table, mass lambda")
