import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from cmshift.asymptotics import (
    composite_sequence,
    fixed_point_sequence,
    pair_loop_sequence,
    sequence_from_measures,
)
from cmshift.exactval import LogLinear
from cmshift.measures import (
    combo_of_cylinder,
    convex_combination,
    fixed_point_measure,
    measure_from_cycle,
    metric_d,
    periodic_orbit,
)
from cmshift.shifts import SearchCaps, finite_full_shift, is_admissible
from cmshift.suspension import (
    AmbiguousWordError,
    ApproximationError,
    FlowEscapeError,
    FlowMeasure,
    RoofFunction,
    RoofMismatchError,
    approximate_by_single_orbit,
    birkhoff_sum,
    class_R_check,
    constant_roof,
    flow_cylinder_mass,
    flow_escape_sequence,
    flow_limit_analyze,
    flow_metric_rho,
    kac_lift,
    kac_project,
    log1p_roof,
    parse_roof_text,
    roof_eval,
    roof_integral,
    tail_log1p,
)
from conftest import random_cycle


def naive_birkhoff_float(cycle, first_symbol_fn):
    return sum(first_symbol_fn(s) for s in cycle)


class TestRoofEval:
    def test_log_tail(self):
        roof = log1p_roof()
        v = roof_eval(roof, (5, 9, 2))
        assert v == LogLinear.log_of(6)
        iv = v.eval_interval(40)
        assert iv.lo <= Fraction(math.log(6)) <= iv.hi

    def test_constant(self):
        roof = constant_roof(3)
        assert roof_eval(roof, (9, 1)).as_fraction() == 3

    def test_depth_two_table_lookup(self):
        roof = RoofFunction(
            name="t2",
            depth=2,
            table={(1, 2): Fraction(3, 2), (1, 1): Fraction(2)},
            tail=tail_log1p(),
            floor=Fraction(1),
            var2_bound=Fraction(0),
        )
        assert roof_eval(roof, (1, 2, 5)).as_fraction() == Fraction(3, 2)
        assert roof_eval(roof, (3, 3)) == LogLinear.log_of(4)
        with pytest.raises(AmbiguousWordError):
            roof_eval(roof, (1,))

    def test_short_word_forced_when_untabulated(self):
        roof = RoofFunction(
            name="t2",
            depth=2,
            table={(2, 1): Fraction(5)},
            tail=None,
            floor=Fraction(1),
            var2_bound=Fraction(0),
        )
        assert roof_eval(roof, (2,)).as_fraction() == 5
        with pytest.raises(AmbiguousWordError):
            roof_eval(roof, (3,))


class TestClassR:
    def test_log1p_passes(self):
        report = class_R_check(log1p_roof(), 12)
        assert report.floor_holds
        assert report.m_nondecreasing
        assert report.tail_verdict == "increasing-at-horizon"
        assert report.passed
        assert math.isclose(report.m_rows[0][1], math.log(2))
        assert math.isclose(report.m_rows[4][1], math.log(6))

    def test_constant_fails_on_infinite_alphabet(self):
        report = class_R_check(constant_roof(3), 12)
        assert report.tail_verdict == "fails-constant-at-horizon"
        assert not report.passed

    def test_finite_alphabet_is_vacuous(self):
        report = class_R_check(log1p_roof(), 12, spec=finite_full_shift(5))
        assert report.tail_verdict == "vacuous-finite-alphabet"
        assert report.passed

    def test_floor_violations_reported(self):
        roof = RoofFunction(
            name="bad",
            depth=1,
            table={(3,): Fraction(1, 4)},
            tail=None,
            floor=Fraction(1, 2),
            var2_bound=Fraction(0),
        )
        report = class_R_check(roof, 4)
        assert not report.floor_holds


class TestBirkhoffAndIntegral:
    def test_pair_orbit(self, full):
        roof = log1p_roof()
        orbit = periodic_orbit(full, (1, 2))
        assert birkhoff_sum(roof, orbit) == LogLinear.log_of(2) + LogLinear.log_of(3)

    def test_constant_roof_scales_with_period(self, full):
        roof = constant_roof(3)
        orbit = periodic_orbit(full, (1, 2, 3, 4, 5))
        assert birkhoff_sum(roof, orbit).as_fraction() == 15

    def test_fixed_point(self, full):
        roof = log1p_roof()
        orbit = periodic_orbit(full, (7,))
        assert birkhoff_sum(roof, orbit) == LogLinear.log_of(8)

    def test_depth_wraps_around_short_cycles(self, full):
        roof = RoofFunction(
            name="t2",
            depth=2,
            table={(1, 1): Fraction(2), (1, 2): Fraction(3), (2, 1): Fraction(5)},
            tail=None,
            floor=Fraction(1),
            var2_bound=Fraction(0),
        )
        orbit = periodic_orbit(full, (1, 2))
        # windows read cyclically: (1,2) and (2,1)
        assert birkhoff_sum(roof, orbit).as_fraction() == 8

    def test_matches_float_oracle_on_random_orbits(self, full):
        roof = log1p_roof()
        rng = random.Random(23)
        for _ in range(15):
            cycle = random_cycle(full, rng, 8, 10)
            exact = birkhoff_sum(roof, periodic_orbit(full, cycle))
            approx = naive_birkhoff_float(cycle, lambda s: math.log(1 + s))
            assert math.isclose(float(exact), approx, rel_tol=1e-12)

    def test_integral_linearity(self, full):
        roof = log1p_roof()
        nu = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), fixed_point_measure(full, 4)),
            ]
        )
        expected = Fraction(1, 2) * LogLinear.log_of(2) + Fraction(1, 2) * LogLinear.log_of(5)
        assert roof_integral(roof, nu) == expected

    def test_integral_requires_probability(self, full):
        roof = log1p_roof()
        sub = convex_combination([(Fraction(1, 2), fixed_point_measure(full, 1))])
        with pytest.raises(ValueError):
            roof_integral(roof, sub)


class TestKacLayer:
    def test_round_trip_on_random_bases(self, full):
        roof = log1p_roof()
        rng = random.Random(31)
        for _ in range(20):
            nu = convex_combination(
                [(1, measure_from_cycle(full, random_cycle(full, rng, 9, 25)))]
            )
            lifted = kac_lift(nu, roof)
            base, lam = kac_project(lifted)
            assert base is nu and lam == 1

    def test_lift_rejects_non_probability(self, full):
        roof = log1p_roof()
        sub = convex_combination([(Fraction(1, 3), fixed_point_measure(full, 1))])
        with pytest.raises(ValueError):
            kac_lift(sub, roof)

    def test_flow_mass_of_whole_base_cylinder(self, full):
        roof = log1p_roof()
        lifted = kac_lift(
            convex_combination([(1, fixed_point_measure(full, 1))]), roof
        )
        iv = flow_cylinder_mass(lifted, (1,), prec=50)
        assert iv.contains(1)
        assert iv.width <= Fraction(1, 10**10)

    def test_rational_roof_masses_are_exact(self, full):
        roof = constant_roof(2)
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2)))])
        lifted = kac_lift(nu, roof)
        iv = flow_cylinder_mass(lifted, (1,))
        # lam * c * base(C) / I with c = I = 2: exactly the base mass
        assert iv.lo == iv.hi == Fraction(1, 2)

    def test_zero_measure(self, full):
        z = FlowMeasure.zero(log1p_roof())
        assert z.is_zero
        assert flow_cylinder_mass(z, (3,)).hi == 0
        base, lam = kac_project(z)
        assert base is None and lam == 0

    def test_pair_orbit_mass_bracket(self, full):
        roof = log1p_roof()
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2)))])
        iv = flow_cylinder_mass(kac_lift(nu, roof), (1,), prec=60)
        expected = math.log(2) / (math.log(2) + math.log(3))  # c*(1/2)/I
        assert float(iv.lo) <= expected <= float(iv.hi)
        assert iv.width <= Fraction(1, 2**40)

    def test_mass_times_integral_over_floor_recovers_base(self, full):
        # exact identity when roof values are rational
        roof = constant_roof(Fraction(5, 2))
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2, 2)))])
        lifted = kac_lift(nu, roof)
        for word in ((1,), (2,), (2, 2), (1, 2)):
            iv = flow_cylinder_mass(lifted, word)
            recovered = (
                iv.lo * lifted.integral.as_fraction() / roof.floor.as_fraction()
            )
            assert recovered == combo_of_cylinder(nu, word)


class TestFlowMetric:
    def test_identity_bracket(self, full):
        roof = log1p_roof()
        nu = kac_lift(convex_combination([(1, fixed_point_measure(full, 1))]), roof)
        assert flow_metric_rho(nu, nu, 10, full) == (0, Fraction(1, 2**10))

    def test_distance_to_zero_first_term(self, full):
        roof = log1p_roof()
        nu = kac_lift(convex_combination([(1, fixed_point_measure(full, 1))]), roof)
        lo, hi = flow_metric_rho(nu, FlowMeasure.zero(roof), 1, full, prec=60)
        # first canonical cylinder [1] has flow mass 1: term 1/2
        assert abs(float(lo) - 0.5) < 1e-9
        assert abs(float(hi) - 1.0) < 1e-9

    def test_symmetry(self, full):
        roof = log1p_roof()
        rng = random.Random(41)
        pairs = [
            kac_lift(
                convex_combination([(1, measure_from_cycle(full, random_cycle(full, rng, 6, 8)))]),
                roof,
            )
            for _ in range(4)
        ]
        for a in pairs:
            for b in pairs:
                assert flow_metric_rho(a, b, 8, full) == flow_metric_rho(b, a, 8, full)

    def test_mismatched_roofs_rejected(self, full):
        nu1 = kac_lift(convex_combination([(1, fixed_point_measure(full, 1))]), log1p_roof())
        nu2 = kac_lift(convex_combination([(1, fixed_point_measure(full, 1))]), constant_roof(3))
        with pytest.raises(RoofMismatchError):
            flow_metric_rho(nu1, nu2, 4, full)

    def test_default_named_roofs_compared_by_structure(self, full):
        # both files get the default name; the flow mass of [1] is 1/6
        # under the tabulated roof and 1/2 under the constant one
        tabled = parse_roof_text("table 1 : 5\ntail const 1\nc 1\n")
        plain = parse_roof_text("tail const 1\nc 1\n")
        assert tabled.name == plain.name
        half = Fraction(1, 2)
        base = convex_combination(
            [(half, fixed_point_measure(full, 1)), (half, fixed_point_measure(full, 2))]
        )
        nu1, nu2 = kac_lift(base, tabled), kac_lift(base, plain)
        assert flow_cylinder_mass(nu1, (1,)).lo == Fraction(1, 6)
        assert flow_cylinder_mass(nu2, (1,)).lo == half
        with pytest.raises(RoofMismatchError):
            flow_metric_rho(nu1, nu2, 4, full)

    def test_structurally_equal_roofs_are_one_roof(self, full):
        base = convex_combination([(1, fixed_point_measure(full, 1))])
        other = kac_lift(convex_combination([(1, fixed_point_measure(full, 2))]), log1p_roof())
        named = kac_lift(base, log1p_roof())
        parsed = kac_lift(base, parse_roof_text("tail log1p\nc log:2\n"))
        assert flow_metric_rho(parsed, other, 6, full) == flow_metric_rho(named, other, 6, full)
        assert flow_metric_rho(parsed, named, 6, full) == (0, Fraction(1, 2**6))

    def test_shared_base_needs_equal_integrals(self, full):
        roof = constant_roof(1)
        base = convex_combination([(1, fixed_point_measure(full, 1))])
        nu = kac_lift(base, roof)
        doubled = FlowMeasure(roof, base, nu.integral + nu.integral, Fraction(1))
        # [1] carries flow mass 1 against 1/2: term 1/2 * 1/2, tail 1/2
        assert flow_metric_rho(nu, doubled, 1, full) == (Fraction(1, 4), Fraction(3, 4))

    def test_uppers_fall_while_integrals_rise_on_star(self, star):
        # consecutive (1, n) orbits: integrals strictly increase while the
        # distance-to-zero upper bounds never do
        roof = log1p_roof()
        zero = FlowMeasure.zero(roof)
        integrals, uppers = [], []
        for n in range(2, 9):
            nu = convex_combination([(1, measure_from_cycle(star, (1, n)))])
            integrals.append(roof_integral(roof, nu))
            uppers.append(flow_metric_rho(kac_lift(nu, roof), zero, 12, star)[1])
        assert all(b > a for a, b in zip(integrals, integrals[1:]))
        assert all(b <= a for a, b in zip(uppers, uppers[1:]))


class TestFlowLimits:
    def test_escaping_fixed_points_go_to_zero(self, full):
        roof = log1p_roof()
        report = flow_limit_analyze(
            fixed_point_sequence(full), roof, 30, 1, 10, Fraction(1, 1000)
        )
        assert report.verdict == "zero flow limit"

    def test_constant_sequence_has_mass_one(self, full):
        roof = log1p_roof()
        nu = convex_combination([(1, fixed_point_measure(full, 1))])
        seq = sequence_from_measures([nu] * 16, "const")
        report = flow_limit_analyze(seq, roof, 16, 1, 4, Fraction(1, 1000))
        assert report.verdict == "flow limit with mass lambda"
        assert report.lam.contains(1)
        assert report.base_mass_is_one

    def test_half_mix_still_escapes(self, full):
        roof = log1p_roof()
        mu = convex_combination([(1, fixed_point_measure(full, 1))])
        seq = composite_sequence(Fraction(1, 2), mu, fixed_point_sequence(full))
        report = flow_limit_analyze(seq, roof, 40, 1, 10, Fraction(1, 1000))
        assert report.verdict == "zero flow limit"

    def test_oscillating_integrals_undetermined(self, full):
        roof = log1p_roof()
        a = convex_combination([(1, fixed_point_measure(full, 1))])
        b = convex_combination([(1, fixed_point_measure(full, 9))])
        seq = sequence_from_measures([a, b] * 10, "flip")
        report = flow_limit_analyze(seq, roof, 20, 1, 10, Fraction(1, 1000))
        assert report.verdict == "undetermined"


class TestFlowEscape:
    def test_star_uses_loops_with_growing_integrals(self, star):
        roof = log1p_roof()
        result = flow_escape_sequence(star, roof, caps=SearchCaps(symbol_cap=500))
        assert result.construction == "first-return-loops"
        assert result.integral_increasing
        first = result.integral_trace[0]
        assert first == (LogLinear.log_of(2) + LogLinear.log_of(3)) / 2

    def test_loop_family_uses_escape_words(self, fam_linear):
        roof = log1p_roof()
        result = flow_escape_sequence(
            fam_linear, roof, caps=SearchCaps(symbol_cap=10**10), terms=5,
            base_target_len=40,
        )
        assert result.construction == "escape-words"
        assert result.integral_increasing

    def test_finite_alphabet_has_no_construction(self, ff3):
        with pytest.raises(FlowEscapeError):
            flow_escape_sequence(ff3, log1p_roof(), terms=5)


class TestSingleOrbitApproximation:
    def test_two_fixed_points_on_full_shift(self, full):
        roof = log1p_roof()
        target = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), fixed_point_measure(full, 2)),
            ]
        )
        res = approximate_by_single_orbit(target, roof, Fraction(1, 1000), full)
        assert res.metric_bracket[1] <= Fraction(1, 1000)
        assert res.integral_gap.is_zero
        counts = Counter(res.word)
        assert counts[1] == counts[2] == res.repetitions // 2

    def test_single_component_returned_unchanged(self, full):
        roof = log1p_roof()
        mu = measure_from_cycle(full, (1, 3))
        target = convex_combination([(1, mu)])
        res = approximate_by_single_orbit(target, roof, Fraction(1, 1000), full)
        assert res.word == (1, 3)
        assert res.metric_bracket[0] == 0

    def test_star_shift_with_connectors(self, star):
        roof = log1p_roof()
        target = convex_combination(
            [
                (Fraction(1, 3), measure_from_cycle(star, (1, 2))),
                (Fraction(2, 3), measure_from_cycle(star, (1, 3))),
            ]
        )
        res = approximate_by_single_orbit(target, roof, Fraction(1, 100), star)
        assert is_admissible(star, res.word)
        assert res.metric_bracket[1] <= Fraction(1, 100)

    def test_certificates_recompute_bit_for_bit(self, full):
        roof = log1p_roof()
        target = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), fixed_point_measure(full, 2)),
            ]
        )
        res = approximate_by_single_orbit(target, roof, Fraction(1, 1000), full)
        approx = convex_combination([(1, res.measure)])
        assert metric_d(approx, target, res.metric_depth, full) == res.metric_bracket
        gap = roof_integral(roof, approx) - roof_integral(roof, target)
        assert (gap if gap.sign() >= 0 else -gap) == res.integral_gap

    def test_impossible_tolerance_reports_best(self, full):
        roof = log1p_roof()
        target = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), fixed_point_measure(full, 2)),
            ]
        )
        with pytest.raises(ApproximationError) as err:
            approximate_by_single_orbit(
                target, roof, Fraction(1, 10**9), full, max_doublings=3
            )
        assert err.value.best is not None


class TestRoofParsing:
    def test_text_round_trip(self):
        text = """
        depth 2
        table 1 2 : 3/2
        table 1 1 : 2
        tail log1p
        c log:2
        var2 0
        """
        roof = parse_roof_text(text)
        assert roof.depth == 2
        assert roof_eval(roof, (1, 2)).as_fraction() == Fraction(3, 2)
        assert roof_eval(roof, (4, 4)) == LogLinear.log_of(5)
        assert roof.floor == LogLinear.log_of(2)

    def test_missing_floor_rejected(self):
        with pytest.raises(ValueError):
            parse_roof_text("depth 1\ntail log1p\n")
