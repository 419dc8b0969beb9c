import itertools
import math
import random
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmshift import suspension
from cmshift.asymptotics import (
    MeasureSequence,
    composite_sequence,
    fixed_point_sequence,
    pair_loop_sequence,
    sequence_from_measures,
)
from cmshift.exactval import Interval, LogLinear
from cmshift.measures import (
    InadmissibleWordError,
    canonical_cylinder_iter,
    canonical_cylinders,
    convex_combination,
    fixed_point_measure,
    measure_from_cycle,
    metric_d,
    periodic_orbit,
)
from cmshift.shifts import SearchCaps, ShiftSpec, finite_full_shift, is_admissible
from cmshift.suspension import (
    AmbiguousWordError,
    ApproximationError,
    ClassRReport,
    FlowEscapeError,
    FlowMeasure,
    RoofFunction,
    _kac_brackets,
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
    log1p_roof,
    parse_roof_text,
    roof_eval,
    roof_integral,
    tail_constant,
    tail_log1p,
)
from conftest import DIFFERENTIAL_SHIFTS, naive_combo_mass, random_combo, random_cycle


def naive_birkhoff_float(cycle, first_symbol_fn):
    return sum(first_symbol_fn(s) for s in cycle)


def quadratic_class_R_oracle(roof, horizon, spec):
    """Oracle: the former class_R_check, which takes every m(k) as a fresh
    minimum over the whole pool of values with first symbol >= k."""
    violations = []
    for w, v in sorted(roof.table.items()):
        if v < roof.floor:
            violations.append((w, "table value below c"))
    tail_vals = {}
    if roof.tail is not None:
        for s in range(1, horizon + 1):
            tail_vals[s] = roof.tail(s)
            if tail_vals[s] < roof.floor:
                violations.append((s, "tail value below c"))
    m_rows = []
    prev = m_first = m_last = None
    nondecreasing = True
    for k in range(1, horizon + 1):
        pool = [v for w, v in roof.table.items() if w[0] >= k]
        pool.extend(v for s, v in tail_vals.items() if s >= k)
        if not pool:
            break
        m_k = pool[0]
        for v in pool[1:]:
            if v < m_k:
                m_k = v
        m_rows.append((k, float(m_k)))
        if prev is not None and m_k < prev:
            nondecreasing = False
        if m_first is None:
            m_first = m_k
        m_last = m_k
        prev = m_k
    if spec is not None and spec.alphabet_size is not None:
        tail_verdict = "vacuous-finite-alphabet"
    elif m_first is None or m_last is None:
        tail_verdict = "inconclusive"
    elif m_last == m_first:
        tail_verdict = "fails-constant-at-horizon"
    elif nondecreasing:
        tail_verdict = "increasing-at-horizon"
    else:
        tail_verdict = "inconclusive"
    var2_observed = None
    var2_ok = True
    if roof.depth <= 2:
        var2_observed = Fraction(0)
    else:
        by_head = {}
        for w, v in roof.table.items():
            by_head.setdefault(w[:2], []).append(v)
        worst = LogLinear.zero()
        for vals in by_head.values():
            for x in vals:
                for y in vals:
                    if x - y > worst:
                        worst = x - y
        var2_ok = worst <= LogLinear.from_rational(roof.var2_bound)
        var2_observed = None if not worst.is_rational else worst.as_fraction()
    return ClassRReport(
        floor_holds=not violations,
        floor_witnesses=tuple(violations),
        m_rows=tuple(m_rows),
        m_nondecreasing=nondecreasing,
        tail_verdict=tail_verdict,
        var2_observed=var2_observed,
        var2_ok=var2_ok,
        horizon=horizon,
    )


# roof values, among them equal values in different normal forms; 3*log 5
# and log 125, and log 2 + log 5 and log 10, print different floats, so a
# broken tie rule shows in m_rows
TIE_VALUES = (
    lambda: LogLinear(Fraction(0), ((5, Fraction(3)),)),
    lambda: LogLinear.log_of(125),
    lambda: LogLinear(Fraction(0), ((2, Fraction(2)),)),
    lambda: LogLinear.log_of(4),
    lambda: LogLinear.log_of(2) + LogLinear.log_of(3),
    lambda: LogLinear.log_of(6),
    lambda: LogLinear.from_rational(Fraction(5, 2)),
    lambda: LogLinear.from_rational(1),
    lambda: LogLinear.log_of(2),
    lambda: LogLinear.log_of(2) + LogLinear.log_of(5),
    lambda: LogLinear.log_of(10),
)


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

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_is_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            class_R_check(log1p_roof(), horizon)

    @pytest.mark.parametrize("depth, table, tail, message", [
        (1, {}, None, "neither a table nor a tail rule"),
        (1, {(0,): Fraction(2)}, None, "symbol below 1"),
        (1, {(0,): Fraction(2)}, tail_log1p(), "symbol below 1"),
        (2, {(3, 1): Fraction(2), (1, -4): Fraction(2)}, None, "symbol below 1"),
    ], ids=["empty", "symbol-0", "symbol-0-with-tail", "negative-symbol"])
    def test_impossible_roofs_are_rejected(self, depth, table, tail, message):
        # a word with a symbol below 1 is no cylinder of any shift, and a
        # roof without table or tail has no value anywhere
        with pytest.raises(ValueError, match=message):
            RoofFunction("bad", depth, table, tail, Fraction(1), Fraction(0))

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

    @given(
        depth=st.integers(1, 3),
        entries=st.lists(
            st.tuples(st.lists(st.integers(1, 14), min_size=3, max_size=3),
                      st.sampled_from(range(len(TIE_VALUES)))),
            max_size=12,
        ),
        tail=st.sampled_from(["log1p", "const", "none"]),
        horizon=st.integers(1, 12),
        floor=st.sampled_from([Fraction(1, 10), Fraction(3, 2), LogLinear.log_of(3)]),
        finite=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_quadratic_oracle(self, depth, entries, tail, horizon, floor, finite):
        # first symbols up to 14 run past every horizon; a roof needs a
        # table or a tail rule
        assume(entries or tail != "none")
        table = {tuple(w[:depth]): TIE_VALUES[i]() for w, i in entries}
        tails = {"log1p": tail_log1p(), "const": tail_constant(Fraction(5, 2)), "none": None}
        roof = RoofFunction("rand", depth, table, tails[tail], floor, Fraction(1, 3))
        spec = finite_full_shift(4) if finite else None
        assert class_R_check(roof, horizon, spec) == quadratic_class_R_oracle(roof, horizon, spec)

    def test_ties_keep_the_first_value_in_pool_order(self):
        # 3*log 5 and log 125 are equal but print different floats
        three_log5, log125 = TIE_VALUES[0](), TIE_VALUES[1]()
        assert three_log5 == log125 and float(three_log5) != float(log125)
        for first, second in ((three_log5, log125), (log125, three_log5)):
            for a, b in (((2,), (3,)), ((3,), (2,))):
                roof = RoofFunction("tie", 1, {a: first, b: second}, None, Fraction(1), 0)
                report = class_R_check(roof, 4)
                assert report == quadratic_class_R_oracle(roof, 4, None)
                assert report.m_rows[0] == (1, float(first))
        # a table value ties the log1p tail at 9: the table comes first
        log2_plus_log5 = TIE_VALUES[-2]()
        assert float(log2_plus_log5) != float(tail_log1p()(9))
        roof = RoofFunction("tie", 1, {(12,): log2_plus_log5}, tail_log1p(), Fraction(1), 0)
        report = class_R_check(roof, 12)
        assert report == quadratic_class_R_oracle(roof, 12, None)
        assert report.m_rows[8] == (9, float(log2_plus_log5))


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
            base, lam = lifted.base, lifted.lam
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
        assert iv.lo <= 1 <= iv.hi
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
        base, lam = z.base, z.lam
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
            assert recovered == naive_combo_mass(nu, word)


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

    @pytest.mark.parametrize("N", [0, -1])
    def test_N_must_be_positive(self, full, N):
        roof = log1p_roof()
        nu = kac_lift(convex_combination([(1, fixed_point_measure(full, 1))]), roof)
        other = kac_lift(convex_combination([(1, fixed_point_measure(full, 2))]), roof)
        for a, b in ((nu, other), (nu, nu), (nu, FlowMeasure.zero(roof))):
            with pytest.raises(ValueError, match="N must be >= 1"):
                flow_metric_rho(a, b, N, full)

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
        assert report.lam.lo <= 1 <= report.lam.hi
        assert report.base_mass_is_one

    def test_half_mix_still_escapes(self, full):
        roof = log1p_roof()
        mu = convex_combination([(1, fixed_point_measure(full, 1))])
        seq = composite_sequence(Fraction(1, 2), mu, fixed_point_sequence(full))
        report = flow_limit_analyze(seq, roof, 40, 1, 10, Fraction(1, 1000))
        assert report.verdict == "zero flow limit"

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_must_be_positive(self, full, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            flow_limit_analyze(
                fixed_point_sequence(full), log1p_roof(), n_max, 1, 10, Fraction(1, 1000)
            )

    @pytest.mark.parametrize("terms", ["constant", "escaping", "flip"])
    def test_each_term_generated_once(self, full, terms):
        # one verdict per branch: mass lambda (reaches cylinder_limit),
        # zero limit and undetermined
        roof = log1p_roof()
        calls = []

        def gen(n):
            calls.append(n)
            symbol = {"constant": 1, "escaping": n, "flip": 1 + 8 * (n % 2)}[terms]
            return convex_combination([(1, fixed_point_measure(full, symbol))])

        report = flow_limit_analyze(MeasureSequence(gen, "counted"), roof, 20, 1, 10,
                                    Fraction(1, 1000))
        assert calls == list(range(1, 21))
        assert report.verdict == {"constant": "flow limit with mass lambda",
                                  "escaping": "zero flow limit",
                                  "flip": "undetermined"}[terms]

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

    def test_best_is_chosen_without_floats(self, full, monkeypatch):
        # exit 3 keeps the best (metric upper, integral gap) pair; the
        # choice compares exact values, so no LogLinear becomes a float
        def no_float(self):
            raise AssertionError("float() of a LogLinear in a decision path")

        monkeypatch.setattr(LogLinear, "__float__", no_float)
        target = convex_combination(
            [
                (Fraction(1, 3), measure_from_cycle(full, (1, 2))),
                (Fraction(2, 3), fixed_point_measure(full, 3)),
            ]
        )
        with pytest.raises(ApproximationError) as err:
            approximate_by_single_orbit(
                target, log1p_roof(), Fraction(1, 10**9), full, max_doublings=4
            )
        assert err.value.best.repetitions in (6, 12, 24, 48)

    def test_admissibility_checks_stay_per_transition(self, full):
        # the 1e-5 densusp target of the benchmark: doubled block words of
        # up to 32 768 symbols, checked once per distinct transition
        calls = []
        spec = ShiftSpec("full", lambda i, j: calls.append((i, j)) or True,
                         successors_hint=full.successors_hint, transitive_declared=True)
        target = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(spec, 6)),
                (Fraction(1, 2), fixed_point_measure(spec, 1)),
            ]
        )
        blocks = []
        marks = []
        built = []
        real_block_runs = suspension._block_runs
        real_block_word = suspension._block_word

        def block_runs(spec, cycles, reps, caps):
            marks.append(len(calls))
            blocks.append(real_block_runs(spec, cycles, reps, caps))
            return blocks[-1]

        def block_word(block):
            marks.append(len(calls))
            built.append(real_block_word(block))
            return built[-1]

        # metric d reads the shift's canonical prefix; enumerate it first
        canonical_cylinders(spec, 18)
        calls.clear()
        with mock.patch.object(suspension, "_block_runs", block_runs), \
                mock.patch.object(suspension, "_block_word", block_word):
            res = approximate_by_single_orbit(target, log1p_roof(), Fraction(1, 10**5), spec)
        marks.append(len(calls))
        assert len(res.word) == 32_768
        assert len(blocks) > 10
        assert built == [res.word]  # the word is built once, for the result
        for block, before, after in zip(blocks, marks, marks[1:]):
            word = real_block_word(block)
            distinct = len(set(zip(word, word[1:] + word[:1])))
            junctions = 2  # between the two blocks, and the wrap
            assert after - before <= distinct + junctions
        # building the result checks the word once more, per transition
        # and at the close-up
        distinct = len(set(zip(res.word, res.word[1:])))
        assert marks[-1] - marks[-2] <= distinct + 1

    def test_small_eps_stops_at_the_block_word_cap(self, full):
        cap = suspension.BLOCK_WORD_CAP
        assert cap == 2**22
        real_block_word = suspension._block_word

        def guarded(block):
            # never let a runaway doubling build its word in this process
            if block.period > cap:
                raise AssertionError(f"a block word of {block.period} symbols")
            return real_block_word(block)

        target = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), fixed_point_measure(full, 2)),
            ]
        )
        with mock.patch.object(suspension, "_block_word", guarded):
            with pytest.raises(ApproximationError) as err:
                approximate_by_single_orbit(
                    target, log1p_roof(), Fraction(1, 10**300), full
                )
        assert str(cap) in str(err.value)
        best = err.value.best
        assert best.measure.period == len(best.word) == cap
        assert best.metric_bracket[1] > Fraction(1, 10**300)

    def test_cap_binds_before_the_first_doubling(self, full, monkeypatch):
        monkeypatch.setattr(suspension, "BLOCK_WORD_CAP", 1)
        target = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), fixed_point_measure(full, 2)),
            ]
        )
        with pytest.raises(ApproximationError, match="block-word cap of 1 ") as err:
            approximate_by_single_orbit(target, log1p_roof(), Fraction(1, 10), full)
        assert err.value.best is None

    def test_cap_keeps_every_word_within_it(self, full, monkeypatch):
        # a tolerance reached exactly at the cap still succeeds
        target = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), fixed_point_measure(full, 2)),
            ]
        )
        eps = Fraction(1, 1000)
        res = approximate_by_single_orbit(target, log1p_roof(), eps, full)
        monkeypatch.setattr(suspension, "BLOCK_WORD_CAP", len(res.word))
        assert approximate_by_single_orbit(target, log1p_roof(), eps, full) == res
        monkeypatch.setattr(suspension, "BLOCK_WORD_CAP", len(res.word) - 1)
        with pytest.raises(ApproximationError) as err:
            approximate_by_single_orbit(target, log1p_roof(), eps, full)
        assert len(err.value.best.word) == len(res.word) // 2


def _oracle_block_word(spec, cycles, reps, caps):
    """The former block-word builder: cycle blocks and connecting words,
    concatenated cyclically into one materialised word."""
    word = []

    def _bridge(a, b):
        if spec.is_allowed(a, b):
            return
        path = suspension.connect(
            spec, a, b, caps.connect_max_len, caps.symbol_cap,
            min_len=2 if a == b else 1,
        )
        if path is None or len(path) < 3:
            raise ApproximationError(f"no connector from {a} to {b} under the caps")
        word.extend(path[1:-1])

    for cyc, r in zip(cycles, reps):
        if word:
            _bridge(word[-1], cyc[0])
        word.extend(cyc * r)
    _bridge(word[-1], word[0])
    return tuple(word)


def materialised_densusp_oracle(target, roof, eps, spec, caps=None, max_doublings=40):
    """Oracle: the former densusp loop, which builds the block word, its
    periodic measure and both certificates from scratch on every doubling."""
    eps = Fraction(eps)
    caps = caps or SearchCaps()
    N = 1
    while Fraction(1, 2**N) > eps / 2:
        N += 1
    cycles = [mu.orbit.cycle for _, mu in target.terms]
    weights = [w for w, _ in target.terms]
    target_integral = roof_integral(roof, target)
    if len(cycles) == 1:
        measure = suspension.PeriodicMeasure(target.terms[0][1].orbit)
        lo, hi = metric_d(convex_combination([(1, measure)]), target, N, spec)
        return suspension.ApproxResult(
            measure=measure, repetitions=measure.period, metric_bracket=(lo, hi),
            metric_depth=N, integral_gap=LogLinear.zero(), target_integral=target_integral,
            word=measure.orbit.cycle,
        )
    R0 = 1
    for w, cyc in zip(weights, cycles):
        share = w / len(cyc)
        R0 = R0 * share.denominator // math.gcd(R0, share.denominator)
    best = None
    R = R0
    for _ in range(max_doublings):
        reps = [int(w * R / len(cyc)) for w, cyc in zip(weights, cycles)]
        word = _oracle_block_word(spec, cycles, reps, caps)
        measure = measure_from_cycle(spec, word)
        approx = convex_combination([(1, measure)])
        lo, hi = metric_d(approx, target, N, spec)
        gap = roof_integral(roof, approx) - target_integral
        if gap.sign() < 0:
            gap = -gap
        result = suspension.ApproxResult(
            measure=measure, repetitions=R, metric_bracket=(lo, hi), metric_depth=N,
            integral_gap=gap, target_integral=target_integral, word=word,
        )
        if best is None or (hi, gap) < (best.metric_bracket[1], best.integral_gap):
            best = result
        if hi <= eps and gap <= LogLinear.from_rational(eps):
            return result
        R *= 2
    raise ApproximationError(
        f"tolerance {eps} not reached within {max_doublings} doublings "
        f"(best metric upper bound {best.metric_bracket[1]})",
        best=best,
    )


def _same_approx(a, b):
    """Field by field, with the exact values compared in normal form."""
    assert a.measure == b.measure
    assert a.word == b.word
    assert a.repetitions == b.repetitions
    assert a.metric_bracket == b.metric_bracket
    assert a.metric_depth == b.metric_depth
    for x, y in ((a.integral_gap, b.integral_gap), (a.target_integral, b.target_integral)):
        assert (x.rational, x.logs) == (y.rational, y.logs)
    assert a.to_jsonable() == b.to_jsonable()


def _run_both(target, roof, eps, spec, **kw):
    outcomes = []
    for fn in (approximate_by_single_orbit, materialised_densusp_oracle):
        try:
            outcomes.append(fn(target, roof, eps, spec, **kw))
        except (ApproximationError, InadmissibleWordError) as exc:
            outcomes.append(exc)
    return outcomes


class TestRunLengthDensusp:
    """The run-length loop against the materialising oracle."""

    def _check(self, target, roof, eps, spec, **kw):
        new, old = _run_both(target, roof, eps, spec, **kw)
        assert type(new) is type(old)
        if isinstance(new, ApproximationError):
            assert str(new) == str(old)
            new, old = new.best, old.best
        _same_approx(new, old)
        return new

    @pytest.mark.parametrize("eps", ["1e-3", "1e-5"])
    def test_full_shift_fixed_points(self, full, eps):
        target = convex_combination(
            [(Fraction(1, 2), fixed_point_measure(full, 1)),
             (Fraction(1, 2), fixed_point_measure(full, 5))]
        )
        self._check(target, log1p_roof(), Fraction(eps), full)

    def test_star_shift_has_connectors(self, star):
        target = convex_combination(
            [(Fraction(1, 3), measure_from_cycle(star, (1, 2))),
             (Fraction(2, 3), measure_from_cycle(star, (1, 3)))]
        )
        res = self._check(target, log1p_roof(), Fraction(1, 100), star)
        assert is_admissible(star, res.word)

    def test_star_shift_two_connectors(self, star):
        # 2 -> 3 and 4 -> 5 are no edges of the star: each junction gets
        # the connector (1,), a one-symbol run between two blocks
        target = convex_combination(
            [(Fraction(1, 4), measure_from_cycle(star, c))
             for c in ((1, 2), (3, 1), (1, 4), (5, 1))]
        )
        runs = []
        real = suspension._block_runs
        with mock.patch.object(suspension, "_block_runs",
                               lambda *a: runs.append(real(*a)) or runs[-1]):
            self._check(target, log1p_roof(), Fraction(1, 1000), star)
        assert [r for s, r in runs[0].runs if s == (1,)] == [1, 1]
    def test_multi_symbol_cycles_and_depth_two_roof(self, full):
        roof = parse_roof_text(
            "depth 2\ntable 1 2 : 3/2\ntable 2 3 : log:5\ntail log1p\nc 1/2\nvar2 1\n"
        )
        target = convex_combination(
            [(Fraction(1, 3), measure_from_cycle(full, (1, 2, 3))),
             (Fraction(1, 6), measure_from_cycle(full, (2, 4))),
             (Fraction(1, 2), fixed_point_measure(full, 3))]
        )
        self._check(target, roof, Fraction(1, 10**4), full)

    def test_non_primitive_block_word(self, full):
        # two copies of one orbit: the block word is a power of its root
        target = convex_combination(
            [(Fraction(1, 2), measure_from_cycle(full, (1, 2))),
             (Fraction(1, 2), measure_from_cycle(full, (1, 2)))]
        )
        with pytest.warns(UserWarning, match="primitive root"):
            res = self._check(target, log1p_roof(), Fraction(1, 100), full)
        assert res.measure.period == 2 < len(res.word)

    def test_single_component(self, full):
        target = convex_combination([(1, measure_from_cycle(full, (1, 3)))])
        self._check(target, log1p_roof(), Fraction(1, 1000), full)

    @pytest.mark.parametrize("doublings", [1, 2, 3])
    def test_exit_three_best(self, full, doublings):
        target = convex_combination(
            [(Fraction(1, 3), measure_from_cycle(full, (1, 2))),
             (Fraction(2, 3), fixed_point_measure(full, 3))]
        )
        self._check(
            target, log1p_roof(), Fraction(1, 10**9), full, max_doublings=doublings
        )

    def test_exit_three_best_with_connectors(self, star):
        target = convex_combination(
            [(Fraction(1, 2), measure_from_cycle(star, (1, 2))),
             (Fraction(1, 2), measure_from_cycle(star, (3, 1)))]
        )
        self._check(target, log1p_roof(), Fraction(1, 10**9), star, max_doublings=3)

    def test_inadmissible_connector_raises_the_built_words_error(self):
        # a row hint that lists 2 -> 3, which the oracle forbids: the
        # connector 1 -> 2 -> 3 passes the search but not the word check
        forbidden = {(1, 3), (2, 3)}
        spec = ShiftSpec(
            "liar", lambda i, j: (i, j) not in forbidden,
            successors_hint=lambda i: iter((2,)) if i == 1 else itertools.count(1),
        )
        target = convex_combination(
            [(Fraction(1, 2), fixed_point_measure(spec, 1)),
             (Fraction(1, 2), fixed_point_measure(spec, 3))]
        )
        new, old = _run_both(target, log1p_roof(), Fraction(1, 10), spec)
        assert isinstance(new, InadmissibleWordError)
        assert type(new) is type(old) and str(new) == str(old)


class TestDensuspOrbit:
    """The returned orbit is built from its certified word without a
    second admissibility walk, and is the word's periodic measure."""

    @settings(max_examples=40, deadline=None)
    @given(
        shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
        seed=st.integers(0, 2**32 - 1),
        terms=st.integers(1, 3),
        eps=st.sampled_from([Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**9)]),
    )
    def test_measure_is_measure_from_cycle(self, shift, seed, terms, eps):
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        target = random_combo(spec, random.Random(seed), terms, cap, probability=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a block word may be a power
            try:
                res = approximate_by_single_orbit(
                    target, log1p_roof(), eps, spec, max_doublings=4
                )
            except ApproximationError as exc:
                res = exc.best
            assert res is not None
            assert res.measure == measure_from_cycle(spec, res.word)

    def test_checks_the_word_once(self, full, monkeypatch):
        # the orbit comes from the short certified word: the block word
        # of 2^k symbols is never walked by is_admissible
        seen = []
        inner = suspension.is_admissible

        def counting(spec, word):
            seen.append(len(word))
            return inner(spec, word)

        monkeypatch.setattr(suspension, "is_admissible", counting)
        monkeypatch.setattr("cmshift.measures.is_admissible", counting)
        target = convex_combination(
            [(Fraction(1, 2), fixed_point_measure(full, 1)),
             (Fraction(1, 2), fixed_point_measure(full, 5))]
        )
        res = approximate_by_single_orbit(target, log1p_roof(), Fraction(1, 10**4), full)
        assert len(res.word) > 1000
        assert seen and max(seen) <= 5


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

    @pytest.mark.parametrize("tail", ["tail", "tail   ", "tail const", "tail const  # no value"])
    def test_tail_line_without_rule_or_value_rejected(self, tail):
        with pytest.raises(ValueError, match="tail"):
            parse_roof_text(f"{tail}\nc 1\n")


def per_cylinder_flow_mass(nu, word, prec):
    """Oracle: the former `flow_cylinder_mass`, with a direct scan for the
    base mass and c and I evaluated again for every cylinder."""
    if nu.is_zero:
        return Interval.point(0)
    m = naive_combo_mass(nu.base, word) * nu.lam
    if m == 0:
        return Interval.point(0)
    c, integral = nu.roof.floor, nu.integral
    if c.is_rational and integral.is_rational:
        return Interval.point(m * c.as_fraction() / integral.as_fraction())
    return c.eval_interval(prec).scale(m).div_pos(integral.eval_interval(prec))


def per_cylinder_rho(nu1, nu2, N, spec, prec):
    """Oracle: the former `flow_metric_rho` loop over a fresh enumeration
    (for arguments that the shared-base shortcut does not catch)."""
    lower = upper = Fraction(0)
    words = itertools.islice(canonical_cylinder_iter(spec), N)
    for n, word in enumerate(words, start=1):
        diff = (
            per_cylinder_flow_mass(nu1, word, prec) - per_cylinder_flow_mass(nu2, word, prec)
        ).abs()
        lower += diff.lo * Fraction(1, 2**n)
        upper += diff.hi * Fraction(1, 2**n)
    return lower, upper + Fraction(1, 2**N)


FLOW_ROOFS = {
    "log1p": log1p_roof(),
    "const": constant_roof(Fraction(3, 2)),
    "table": parse_roof_text("depth 2\ntable 1 2 : log:7\ntable 2 1 : 5/2\ntail log1p\nc log:2\n"),
    "rational": parse_roof_text("table 1 : 3\ntable 2 : 7/2\ntail const 2\nc 2\n"),
}


def random_flow_measure(spec, roof, rng, cap):
    """Zero, or lam times the Kac lift of a random probability base."""
    terms = rng.randint(0, 3)
    if terms == 0:
        return FlowMeasure.zero(roof)
    base = random_combo(spec, rng, terms, cap, probability=True)
    lam = Fraction(rng.randint(1, 4), 4)
    return FlowMeasure(roof, base, roof_integral(roof, base), lam)


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# nonpositive and tiny precisions make the enclosure of I reach 0, so
# that div_pos raises; 16 and 64 give brackets of both kinds
RHO_PRECS = [-1, 0, 1, 2, 16, 64]


class TestFlowMassVectors:
    @settings(max_examples=120, deadline=None)
    @given(
        shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
        roof=st.sampled_from(sorted(FLOW_ROOFS)),
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 300),
        prec=st.sampled_from(RHO_PRECS),
    )
    def test_rho_matches_per_cylinder_oracle(self, shift, roof, seed, N, prec):
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        rng = random.Random(seed)
        nu1, nu2 = (random_flow_measure(spec, FLOW_ROOFS[roof], rng, cap) for _ in range(2))
        if nu1.is_zero and nu2.is_zero:
            return  # the shortcut answers (0, 2^-N) without a sum
        assert outcome(flow_metric_rho, nu1, nu2, N, spec, prec) == outcome(
            per_cylinder_rho, nu1, nu2, N, spec, prec
        )

    def test_intervals_are_evaluated_at_the_first_charged_cylinder(self, full):
        """At precision -1 the enclosure of I = log(11/10) reaches 0, so
        div_pos raises, but only once the cylinder (5,) is among the N."""
        roof = parse_roof_text("table 5 : log:11/10\ntail log1p\nc log:11/10\n")
        far = kac_lift(convex_combination([(1, measure_from_cycle(full, (5,)))]), roof)
        zero = FlowMeasure.zero(roof)
        k = canonical_cylinders(full, 100).index((5,)) + 1
        for N in (k - 1, k):
            for pair in ((far, zero), (zero, far)):
                assert outcome(flow_metric_rho, *pair, N, full, -1) == outcome(
                    per_cylinder_rho, *pair, N, full, -1
                )
        assert flow_metric_rho(far, zero, k - 1, full, -1) == (0, Fraction(1, 2 ** (k - 1)))
        with pytest.raises(ValueError, match="strictly positive divisor"):
            flow_metric_rho(far, zero, k, full, -1)

    @settings(max_examples=60, deadline=None)
    @given(
        roof=st.sampled_from(sorted(FLOW_ROOFS)),
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 300),
        prec=st.sampled_from(RHO_PRECS),
        first=st.booleans(),
    )
    def test_rho_with_a_side_massless_on_the_cylinders(self, roof, seed, N, prec, first):
        """One side lives on symbols beyond the first N cylinders of the
        full shift, so its c and I are never evaluated, at any precision."""
        spec, cap = DIFFERENTIAL_SHIFTS["full"]
        rng = random.Random(seed)
        top = max(max(w) for w in canonical_cylinders(spec, N))
        # top + 1 occurs once, so the cycle is primitive
        cycle = (top + 1, *(rng.randint(top + 2, top + 4) for _ in range(rng.randint(0, 3))))
        base = convex_combination([(1, measure_from_cycle(spec, cycle))])
        far = FlowMeasure(FLOW_ROOFS[roof], base, roof_integral(FLOW_ROOFS[roof], base), Fraction(1, 2))
        other = random_flow_measure(spec, FLOW_ROOFS[roof], rng, cap)
        pair = (far, other) if first else (other, far)
        got = outcome(flow_metric_rho, *pair, N, spec, prec)
        assert got == outcome(per_cylinder_rho, *pair, N, spec, prec)
        if other.is_zero:
            assert got == (0, Fraction(1, 2**N))

    @settings(max_examples=60, deadline=None)
    @given(
        shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
        roof=st.sampled_from(sorted(FLOW_ROOFS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flow_cylinder_mass_matches_oracle(self, shift, roof, seed):
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        rng = random.Random(seed)
        nu = random_flow_measure(spec, FLOW_ROOFS[roof], rng, cap)
        for word in itertools.islice(canonical_cylinder_iter(spec), 40):
            assert flow_cylinder_mass(nu, word) == per_cylinder_flow_mass(nu, word, 64)


def direct_roof_integral(base, tau, num=Fraction):
    """Oracle: sum over orbits of weight/period times the sum of a
    depth-1 roof `tau` along the cycle; `num` converts the rational
    factors to tau's number type."""
    return sum(
        num(wt / len(mu.orbit.cycle)) * sum(tau(s) for s in mu.orbit.cycle)
        for wt, mu in base.terms
    )


def to_decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / q.denominator


class TestKacDirect:
    """Flow masses against the direct Kac value lam * c * base(C) / integral."""

    WORDS = 60

    def _brackets(self, nu, spec):
        words = list(itertools.islice(canonical_cylinder_iter(spec), self.WORDS))
        nums, a, b = _kac_brackets(nu, words, 64)
        vector = [Interval(k * a, k * b) for k in nums]
        single = [flow_cylinder_mass(nu, w) for w in words]
        assert vector == single
        return words, single

    @pytest.mark.parametrize("shift", ["full", "star", "renewal", "rows"])
    def test_rational_roofs_are_exact(self, shift):
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        rng = random.Random(shift)
        table = {1: Fraction(3), 2: Fraction(7, 2)}  # FLOW_ROOFS["rational"], tail 2
        roofs = [
            (constant_roof(Fraction(5, 3)), Fraction(5, 3), lambda s: Fraction(5, 3)),
            (FLOW_ROOFS["rational"], Fraction(2), lambda s: table.get(s, Fraction(2))),
        ]
        for roof, c, tau in roofs:
            for _ in range(5):
                base = random_combo(spec, rng, rng.randint(1, 3), cap, probability=True)
                lam = Fraction(rng.randint(1, 5), 5)
                nu = FlowMeasure(roof, base, roof_integral(roof, base), lam)
                integral = direct_roof_integral(base, tau)
                words, brackets = self._brackets(nu, spec)
                for word, iv in zip(words, brackets):
                    exact = lam * c * naive_combo_mass(base, word) / integral
                    assert iv.lo == iv.hi == exact

    @pytest.mark.parametrize("shift", ["full", "star", "renewal", "rows"])
    def test_log1p_brackets_contain_the_value(self, shift):
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        rng = random.Random(shift)
        roof = log1p_roof()
        eps = Fraction(1, 10**40)  # far below the bracket widths, far above the error at 60 digits
        with localcontext() as ctx:
            ctx.prec = 60
            for _ in range(5):
                base = random_combo(spec, rng, rng.randint(1, 3), cap, probability=True)
                lam = Fraction(rng.randint(1, 5), 5)
                nu = FlowMeasure(roof, base, roof_integral(roof, base), lam)
                integral = direct_roof_integral(base, lambda s: Decimal(1 + s).ln(), to_decimal)
                ln2 = Decimal(2).ln()
                words, brackets = self._brackets(nu, spec)
                for word, iv in zip(words, brackets):
                    value = Fraction(ln2 * to_decimal(lam * naive_combo_mass(base, word)) / integral)
                    assert iv.lo <= value + eps and value - eps <= iv.hi
                    assert iv.width <= Fraction(1, 2**56)
