import gc
import itertools
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift.measures import (
    CylinderFunction,
    RunWord,
    _cyclic_window_counts,
    _mass_numerators,
    _primitive_root,
    _run_window_counts,
    InadmissibleWordError,
    SymbolCapError,
    TailInteractionError,
    TestFunction,
    UnrepresentedCylinderError,
    additivity_defect,
    c0_conditions_check,
    canonical_cylinder_iter,
    canonical_cylinders,
    combo_of_cylinder,
    convex_combination,
    fixed_point_measure,
    indicator,
    integrate_test_function,
    invariance_check,
    measure_from_cycle,
    measure_of_cylinder,
    metric_d,
    parse_combo_text,
    periodic_orbit,
    support_numerators,
    support_table,
)
from cmshift.shifts import ShiftSpec, is_admissible, load_shift_text, parse_shift_arg
from conftest import (
    DIFFERENTIAL_SHIFTS,
    HINTLESS_SHIFTS,
    naive_combo_mass,
    naive_cyclic_mass,
    random_combo,
    oracle_c0_conditions_check,
    oracle_canonical_cylinder_iter,
    random_cycle,
)


def naive_canonical(spec, count):
    """Oracle: sort all words of bounded symbol sum by (sum, len, word)."""
    words = []
    max_sum = 1
    while len(words) < count:
        max_sum += 1
        words = []
        for total in range(1, max_sum + 1):
            for length in range(1, total + 1):
                for word in itertools.product(range(1, total + 1), repeat=length):
                    if sum(word) == total and is_admissible(spec, word):
                        words.append(word)
        words.sort(key=lambda w: (sum(w), len(w), w))
    return words[:count]


def compositions(total, parts):
    """Every way to write `total` as an ordered sum of `parts` positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def generate_and_filter(spec, max_sum):
    """Oracle: the former enumerator, which tests every composition of
    each sum (shorter first, lexicographic) for admissibility."""
    for total in range(1, max_sum + 1):
        for length in range(1, total + 1):
            for word in compositions(total, length):
                if is_admissible(spec, word):
                    yield word


class TestPeriodicOrbits:
    def test_power_reduces_with_warning(self, full):
        with pytest.warns(UserWarning):
            orbit = periodic_orbit(full, (1, 2, 1, 2))
        assert orbit.cycle == (1, 2)

    def test_primitive_kept(self, full):
        assert periodic_orbit(full, (1, 1, 2)).cycle == (1, 1, 2)

    def test_inadmissible_rejected(self, star):
        with pytest.raises(InadmissibleWordError):
            periodic_orbit(star, (2, 3))
        with pytest.raises(InadmissibleWordError):
            periodic_orbit(star, (1, 2, 1, 3, 2))  # 2 -> closure 1 fine, 3->2 bad


class TestCylinderMasses:
    def test_half_on_pair_loop(self, full):
        mu = measure_from_cycle(full, (1, 7))
        assert measure_of_cylinder(mu, (1,)) == Fraction(1, 2)

    def test_cyclic_occurrence_count(self, full):
        mu = measure_from_cycle(full, (1, 2, 3))
        assert measure_of_cylinder(mu, (2, 3)) == Fraction(1, 3)
        assert measure_of_cylinder(mu, (3, 1)) == Fraction(1, 3)

    def test_zero_off_support(self, full):
        assert measure_of_cylinder(fixed_point_measure(full, 1), (2,)) == 0

    def test_word_longer_than_period(self, full):
        mu = measure_from_cycle(full, (1, 2))
        assert measure_of_cylinder(mu, (1, 2, 1, 2, 1)) == Fraction(1, 2)

    @pytest.mark.parametrize("shift_name", ["full", "star", "renewal"])
    def test_matches_naive_oracle(self, shift_name, request, full, star, renewal):
        spec = {"full": full, "star": star, "renewal": renewal}[shift_name]
        rng = random.Random(7)
        for _ in range(40):
            cycle = random_cycle(spec, rng, 10, 12)
            mu = measure_from_cycle(spec, cycle)
            for _ in range(6):
                length = rng.randint(1, 5)
                j = rng.randint(0, len(mu.orbit.cycle) - 1)
                ext = mu.orbit.cycle * 3
                word = ext[j : j + length]
                assert measure_of_cylinder(mu, word) == naive_cyclic_mass(
                    mu.orbit.cycle, word
                )

    def test_depth_partition_sums_to_one(self, full, star):
        rng = random.Random(11)
        for spec in (full, star):
            for _ in range(10):
                mu = measure_from_cycle(spec, random_cycle(spec, rng, 8, 9))
                for depth in (1, 2, 3):
                    symbols = sorted(mu.orbit.symbols)
                    total = sum(
                        measure_of_cylinder(mu, w)
                        for w in itertools.product(symbols, repeat=depth)
                        if is_admissible(spec, w)
                    )
                    assert total == 1


class TestConvexCombinations:
    def test_mixture_mass_and_values(self, full):
        half = Fraction(1, 2)
        nu = convex_combination(
            [(half, fixed_point_measure(full, 1)), (half, fixed_point_measure(full, 2))]
        )
        assert combo_of_cylinder(nu, (1,)) == half
        assert nu.mass == 1

    def test_subprobability(self, full):
        nu = convex_combination([(Fraction(1, 4), fixed_point_measure(full, 1))])
        assert nu.mass == Fraction(1, 4)
        assert combo_of_cylinder(nu, (1,)) == Fraction(1, 4)

    def test_mixed_orbits(self, full):
        nu = convex_combination(
            [
                (Fraction(1, 2), measure_from_cycle(full, (1, 2))),
                (Fraction(1, 2), measure_from_cycle(full, (1, 3))),
            ]
        )
        assert combo_of_cylinder(nu, (1,)) == Fraction(1, 2)

    def test_weight_validation(self, full):
        with pytest.raises(ValueError):
            convex_combination([(0, fixed_point_measure(full, 1))])
        with pytest.raises(ValueError):
            convex_combination(
                [
                    (Fraction(3, 4), fixed_point_measure(full, 1)),
                    (Fraction(3, 4), fixed_point_measure(full, 2)),
                ]
            )

    def test_weight_bounds_are_inclusive_at_one(self, full):
        one = convex_combination([(1, fixed_point_measure(full, 1))])
        assert one.terms[0][0] == 1 and type(one.terms[0][0]) is Fraction
        exact = convex_combination(
            [(Fraction(1, 3), fixed_point_measure(full, 1)),
             (Fraction(1, 6), fixed_point_measure(full, 2)),
             (Fraction(1, 2), fixed_point_measure(full, 3))]
        )
        assert exact.mass == 1

    @pytest.mark.parametrize("weights, message", [
        ((0,), "weight 0 outside (0, 1]"),
        ((Fraction(-1, 2),), "weight -1/2 outside (0, 1]"),
        ((Fraction(5, 4),), "weight 5/4 outside (0, 1]"),
        ((Fraction(3, 4), Fraction(3, 4)), "weights sum to 3/2 > 1"),
        ((Fraction(1, 3), Fraction(1, 6), Fraction(1, 2) + Fraction(1, 10**30)),
         f"weights sum to {1 + Fraction(1, 10**30)} > 1"),
        ((Fraction(1, 2), 2, Fraction(9, 10)), "weight 2 outside (0, 1]"),
    ])
    def test_weight_errors_name_the_value(self, full, weights, message):
        pairs = [(w, fixed_point_measure(full, i + 1)) for i, w in enumerate(weights)]
        with pytest.raises(ValueError) as err:
            convex_combination(pairs)
        assert str(err.value) == message

    def test_support_table_complete(self, full):
        nu = convex_combination([(1, measure_from_cycle(full, (1, 5)))])
        table = support_table(nu, 2, 10)
        assert table == {
            (1,): Fraction(1, 2),
            (5,): Fraction(1, 2),
            (1, 5): Fraction(1, 2),
            (5, 1): Fraction(1, 2),
        }

    def test_parse_combo_text(self, full):
        nu = parse_combo_text(full, "1/2:(1);1/2:(1,2)")
        assert nu.mass == 1
        assert combo_of_cylinder(nu, (1,)) == Fraction(3, 4)


class TestInvariance:
    def test_periodic_measures_have_zero_defect(self, full):
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2, 2)))])
        report = invariance_check(nu, 3, 10)
        assert report.max_defect == 0

    def test_mixture_zero_defect(self, full):
        nu = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), measure_from_cycle(full, (1, 2))),
            ]
        )
        assert invariance_check(nu, 2, 10).max_defect == 0

    def test_rejects_cylinder_tables(self):
        table = CylinderFunction({(1,): Fraction(1, 2)}, {1: 10})
        with pytest.raises(TypeError):
            invariance_check(table, 2, 10)

    def test_symbol_cap_reported(self, full):
        nu = convex_combination([(1, measure_from_cycle(full, (1, 40)))])
        with pytest.raises(SymbolCapError):
            invariance_check(nu, 2, 10)


class TestCanonicalEnumeration:
    def test_first_cylinder_is_one(self, full):
        assert canonical_cylinders(full, 1) == [(1,)]

    def test_size_two_order(self, full):
        assert canonical_cylinders(full, 3) == [(1,), (2,), (1, 1)]

    @pytest.mark.parametrize("name", ["full", "star", "renewal", "ff3"])
    def test_matches_sorting_oracle(self, name, request):
        spec = request.getfixturevalue(name)
        assert canonical_cylinders(spec, 25) == naive_canonical(spec, 25)

    def test_star_filters_inadmissible(self, star):
        words = canonical_cylinders(star, 40)
        assert (2, 3) not in words
        assert all(is_admissible(star, w) for w in words)
        assert len(set(words)) == 40


class TestFiniteLanguage:
    """Shifts with finitely many admissible words: (1), (2), (1, 2)."""

    @pytest.fixture
    def dead_end(self):
        return load_shift_text("1: 2\n2:\n")

    def test_enumeration_ends(self, dead_end):
        assert list(canonical_cylinder_iter(dead_end)) == [(1,), (2,), (1, 2)]

    def test_all_cylinders_can_be_asked_for(self, dead_end):
        assert canonical_cylinders(dead_end, 3) == [(1,), (2,), (1, 2)]
        nu = convex_combination([])
        assert metric_d(nu, nu, 3, dead_end) == (0, Fraction(1, 8))

    def test_asking_for_more_is_a_value_error(self, dead_end):
        nu = convex_combination([])
        with pytest.raises(ValueError, match="only 3 admissible cylinders"):
            canonical_cylinders(dead_end, 4)
        with pytest.raises(ValueError, match="only 3 admissible cylinders"):
            metric_d(nu, nu, 4, dead_end)

    def test_finite_alphabet_with_cycles_never_ends(self):
        spec = load_shift_text("1: 2\n2: 3\n3: 1\n")
        words = canonical_cylinders(spec, 20)
        assert max(map(len, words)) > 3
        assert words == list(generate_and_filter(spec, sum(words[-1])))[:20]


class TestMetricD:
    def test_identical_arguments(self, full):
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2)))])
        lo, hi = metric_d(nu, nu, 9, full)
        assert lo == 0 and hi == Fraction(1, 2**9)

    def test_distinct_fixed_points(self, full):
        a = convex_combination([(1, fixed_point_measure(full, 1))])
        b = convex_combination([(1, fixed_point_measure(full, 2))])
        lo, hi = metric_d(a, b, 1, full)
        assert (lo, hi) == (Fraction(1, 2), Fraction(1))

    def test_bracket_width_is_tail(self, full):
        rng = random.Random(3)
        for _ in range(10):
            a = convex_combination([(1, measure_from_cycle(full, random_cycle(full, rng, 6, 6)))])
            b = convex_combination([(1, measure_from_cycle(full, random_cycle(full, rng, 6, 6)))])
            for N in (1, 5, 12):
                lo, hi = metric_d(a, b, N, full)
                assert hi - lo == Fraction(1, 2**N)

    def test_symmetry_and_triangle(self, full):
        rng = random.Random(5)
        combos = [
            convex_combination([(1, measure_from_cycle(full, random_cycle(full, rng, 6, 6)))])
            for _ in range(5)
        ]
        for a, b in itertools.combinations(combos, 2):
            assert metric_d(a, b, 8, full) == metric_d(b, a, 8, full)
        for a, b, c in itertools.combinations(combos, 3):
            dab = metric_d(a, b, 8, full)[0]
            dbc = metric_d(b, c, 8, full)[0]
            dac = metric_d(a, c, 8, full)[0]
            assert dac <= dab + dbc + Fraction(2, 2**8)

    def test_zero_partial_iff_first_values_agree(self, full):
        a = convex_combination([(1, measure_from_cycle(full, (1, 2)))])
        b = convex_combination([(1, measure_from_cycle(full, (2, 1)))])
        lo, _ = metric_d(a, b, 10, full)
        assert lo == 0  # same orbit, same measure

    def test_table_argument_and_error_index(self, full):
        nu = convex_combination([(1, fixed_point_measure(full, 1))])
        table = CylinderFunction(
            {(1,): Fraction(1), (1, 1): Fraction(1)}, {1: 3, 2: 3}
        )
        lo, hi = metric_d(nu, table, 3, full)
        assert lo == 0
        with pytest.raises(UnrepresentedCylinderError) as err:
            metric_d(nu, table, 10, full)
        assert err.value.index is not None


class TestCylinderFunction:
    def test_default_zero_inside_envelope(self):
        F = CylinderFunction({(1,): Fraction(1, 2)}, {1: 200, 2: 200})
        assert F.value((7,)) == 0
        assert F.value((1, 3)) == 0
        with pytest.raises(UnrepresentedCylinderError):
            F.value((201,))
        with pytest.raises(UnrepresentedCylinderError):
            F.value((1, 1, 1))

    def test_additivity_defect_nomadic_table(self, full):
        F = CylinderFunction({(1,): Fraction(1, 2)}, {1: 200, 2: 200})
        for K in (1, 10, 150):
            assert additivity_defect(F, (1,), K, full) == Fraction(1, 2)

    def test_additivity_defect_zero_for_measures(self, full):
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2)))])
        F = CylinderFunction.from_combo(nu, 3, 10)
        assert additivity_defect(F, (1,), 5, full) == 0
        assert additivity_defect(F, (1, 2), 5, full) == 0

    def test_defect_nonincreasing_in_K(self, full):
        nu = convex_combination(
            [
                (Fraction(1, 2), measure_from_cycle(full, (1, 2))),
                (Fraction(1, 2), measure_from_cycle(full, (1, 4))),
            ]
        )
        F = CylinderFunction.from_combo(nu, 2, 10)
        defects = [additivity_defect(F, (1,), K, full) for K in range(1, 10)]
        assert all(a >= b for a, b in zip(defects, defects[1:]))
        assert defects[-1] == 0

    def test_consistency_violations_detected(self):
        bad = CylinderFunction(
            {(1,): Fraction(1, 4), (1, 1): Fraction(1, 2)}, {1: 4, 2: 4}
        )
        assert bad.consistency_violations()


class TestTestFunctions:
    def test_indicator_integral(self, full):
        nu = convex_combination([(1, fixed_point_measure(full, 1))])
        assert integrate_test_function(indicator((1,)), nu) == 1

    def test_linear_combination(self, full):
        f = TestFunction.from_atoms([(2, (1,)), (-1, (1, 2))])
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2)))])
        assert integrate_test_function(f, nu) == Fraction(1, 2)

    def test_off_support_zero(self, full):
        nu = convex_combination([(1, measure_from_cycle(full, (1, 2)))])
        assert integrate_test_function(indicator((3,)), nu) == 0

    def test_indicator_matches_cylinder_value(self, full):
        rng = random.Random(13)
        for _ in range(20):
            nu = convex_combination(
                [(1, measure_from_cycle(full, random_cycle(full, rng, 6, 6)))]
            )
            word = random_cycle(full, rng, 3, 6)
            assert integrate_test_function(indicator(word), nu) == naive_combo_mass(nu, word)

    def test_mixed_atoms_match_direct_scans(self, full, star):
        # atoms of mixed lengths, repeated atoms, and words longer than
        # the periods, against one direct scan per atom
        rng = random.Random(17)
        for spec in (full, star):
            for _ in range(20):
                nu = random_combo(spec, rng, rng.randint(0, 3), 6)
                windows = [
                    (mu.orbit.cycle * 4)[j : j + rng.randint(1, 2 * mu.period + 3)]
                    for _, mu in nu.terms
                    for j in range(mu.period)
                ]
                words = windows + [random_cycle(spec, rng, 5, 6) for _ in range(3)]
                atoms = [(Fraction(rng.randint(-4, 4), rng.randint(1, 5)), w) for w in words]
                atoms += atoms[: rng.randint(0, len(atoms))]  # repeats
                f = TestFunction.from_atoms(atoms)
                assert integrate_test_function(f, nu) == sum(
                    (a * naive_combo_mass(nu, w) for a, w in atoms), Fraction(0)
                )

    def test_tail_interaction_raises(self, full):
        f = TestFunction.from_atoms([], tail_threshold=2, tail_value=Fraction(1))
        nu = convex_combination([(1, fixed_point_measure(full, 5))])
        with pytest.raises(TailInteractionError):
            integrate_test_function(f, nu)
        low = convex_combination([(1, fixed_point_measure(full, 2))])
        assert integrate_test_function(f, low) == 0


# shifts for the C0 differential: without a hint, with finite rows, and
# with infinite rows that skip symbols, so that a row read up to a small
# cap can look empty above a floor and yet go on
C0_SHIFTS = {
    **HINTLESS_SHIFTS,
    **{name: DIFFERENTIAL_SHIFTS[name][0] for name in ("star", "rows", "finite_full:2")},
    "every-third": ShiftSpec(
        "every-third", lambda i, j: j % 3 == 1, successors_hint=lambda i: itertools.count(1, 3)
    ),
}


class TestC0Conditions:
    def test_plain_combination_vanishes(self, full):
        f = TestFunction.from_atoms([(1, (1,)), (Fraction(-1, 2), (2, 5))])
        report = c0_conditions_check(f, full, 8)
        assert report.uniformly_continuous
        assert report.sup_eventual == 0 and report.vanishes_at_infinity
        assert all(v == 0 for _, v in report.var_eventual)
        assert report.certified

    def test_constant_tail_fails_condition_two(self, full):
        f = TestFunction.from_atoms([], tail_threshold=0, tail_value=Fraction(1))
        report = c0_conditions_check(f, full, 6)
        assert all(v == 1 for _, v in report.sup_rows)
        assert not report.vanishes_at_infinity

    def test_indicator_has_zero_variation(self, full):
        report = c0_conditions_check(indicator((1,)), full, 6)
        (cyl, rows), = report.var_rows
        assert cyl == (1,)
        assert all(v == 0 for _, v in rows)

    def test_nested_atoms_vary_until_horizon(self, full):
        f = TestFunction.from_atoms([(1, (1,)), (1, (1, 3))])
        report = c0_conditions_check(f, full, 6)
        rows = dict(report.var_rows)[(1,)]
        assert dict(rows)[1] == 1  # x in [1] may or may not enter [1,3]
        assert dict(rows)[4] == 0  # beyond the extension symbol, constant

    @pytest.mark.parametrize("atoms", [
        [(1, (1,)), (1, (1, 4))],  # var row at 2: the row goes on past 4
        [(3, (2,)), (-3, (2, 1))],  # sup row at 2: [2] is not only [2, 1]
    ])
    def test_rows_that_skip_symbols_still_escape(self, atoms):
        spec = C0_SHIFTS["every-third"]
        f = TestFunction.from_atoms(atoms)
        report = c0_conditions_check(f, spec, 4)
        assert report == oracle_c0_conditions_check(f, spec, 4)
        assert report.certified

    @given(
        name=st.sampled_from(sorted(C0_SHIFTS)),
        atoms=st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
            ),
            max_size=4,
        ),
        tail=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        horizon=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_former_check(self, name, atoms, tail, horizon):
        spec = C0_SHIFTS[name]
        f = TestFunction.from_atoms(
            [(Fraction(a, 2), w) for a, w in atoms],
            tail_threshold=tail,
            tail_value=Fraction(1, 3) if tail is not None else 0,
        )
        assert c0_conditions_check(f, spec, horizon) == oracle_c0_conditions_check(
            f, spec, horizon
        )


# ---------------------------------------------------------------------------
# differential tests of the output-sensitive kernels against the former
# dense ones, kept here as oracles


def per_word_support_table(nu, depth, symbol_cap):
    """Oracle: the former support table, one direct scan per word."""
    words = set()
    for _, mu in nu.terms:
        cycle = mu.orbit.cycle
        T = len(cycle)
        ext = cycle * ((depth - 1) // T + 2)
        for j in range(T):
            for length in range(1, depth + 1):
                w = tuple(ext[j : j + length])
                if max(w) <= symbol_cap:
                    words.add(w)
    return {w: naive_combo_mass(nu, w) for w in sorted(words)}


def per_word_invariance(nu, depth, symbol_cap):
    """Oracle: the former invariance check, one direct scan per preimage
    symbol."""
    alphabet = sorted(nu.orbit_symbols)
    support = per_word_support_table(nu, depth, symbol_cap)
    defects = []
    for word, value in support.items():
        pre = sum(
            (naive_combo_mass(nu, (s,) + word) for s in alphabet), Fraction(0)
        )
        if value != pre:
            defects.append((word, abs(value - pre)))
    max_defect = max((d for _, d in defects), default=Fraction(0))
    return max_defect, tuple(defects), len(support)


ROW_LIST_TEXT = "1: 1 2\n2: 3\n3: 1 4\n4: 2 4\n"
DEFAULT_FULL_TEXT = "1: 2\n2: 1 3\n3: 1\ndefault full\n"


@pytest.fixture(
    params=[
        "full", "finite_full:1", "finite_full:2", "finite_full:3", "star",
        "renewal", "loop_family:linear", "row-list", "default-full",
    ]
)
def gallery_shift(request):
    if request.param == "row-list":
        return load_shift_text(ROW_LIST_TEXT)
    if request.param == "default-full":
        return load_shift_text(DEFAULT_FULL_TEXT)
    return parse_shift_arg(request.param)


def dfs_up_to_sum(spec, max_sum):
    return list(
        itertools.takewhile(
            lambda w: sum(w) <= max_sum, canonical_cylinder_iter(spec)
        )
    )


class TestEnumerationDifferential:
    def test_every_word_up_to_sum_14(self, gallery_shift):
        assert dfs_up_to_sum(gallery_shift, 14) == list(
            generate_and_filter(gallery_shift, 14)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.dictionaries(
            st.integers(1, 5), st.sets(st.integers(1, 5), max_size=5), min_size=1
        ),
        default_full=st.booleans(),
    )
    def test_random_row_lists(self, rows, default_full):
        text = "".join(f"{i}: {' '.join(map(str, sorted(r)))}\n" for i, r in rows.items())
        spec = load_shift_text(text + ("default full\n" if default_full else ""))
        assert dfs_up_to_sum(spec, 10) == list(generate_and_filter(spec, 10))

    def test_every_prefix_matches_the_former_dfs(self, gallery_shift):
        # classes are built as they are consumed, so a prefix of every
        # length, also one that stops inside a class, keeps the order
        oracle = list(itertools.islice(oracle_canonical_cylinder_iter(gallery_shift), 300))
        for k in range(len(oracle) + 1):
            prefix = itertools.islice(canonical_cylinder_iter(gallery_shift), k)
            assert list(prefix) == oracle[:k]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.dictionaries(
            st.integers(1, 6), st.sets(st.integers(1, 6), max_size=6), min_size=1
        ),
        default_full=st.booleans(),
        k=st.integers(0, 400),
    )
    def test_random_row_list_prefixes_match_the_former_dfs(self, rows, default_full, k):
        text = "".join(f"{i}: {' '.join(map(str, sorted(r)))}\n" for i, r in rows.items())
        spec = load_shift_text(text + ("default full\n" if default_full else ""))
        assert list(itertools.islice(canonical_cylinder_iter(spec), k)) == list(
            itertools.islice(oracle_canonical_cylinder_iter(spec), k)
        )

    @pytest.mark.parametrize("name", ["full", "star", "renewal", "finite_full:3"])
    @pytest.mark.parametrize("k", [1, 2, 7, 40, 333])
    def test_a_prefix_builds_nothing_past_its_class(self, name, k):
        # an oracle call (x, y) in class (t, r) has x + y <= t, so no
        # call may pass the sum of the last word taken
        base = parse_shift_arg(name)
        asked = []

        def allowed(i, j):
            asked.append(i + j)
            return base.allowed(i, j)

        spec = ShiftSpec(name, allowed, base.successors_hint, alphabet_size=base.alphabet_size)
        words = list(itertools.islice(canonical_cylinder_iter(spec), k))
        assert max(asked, default=0) <= sum(words[-1])

    def test_finite_languages_end_exactly(self):
        # a DAG on five symbols: every word is a path, the heaviest
        # 1-3-4-5 with sum 13
        spec = load_shift_text("1: 2 3\n2: 4\n3: 4 5\n4: 5\n5:\n")
        words = list(canonical_cylinder_iter(spec))
        assert words == list(generate_and_filter(spec, 16))
        assert max(map(len, words)) == 4


class TestWindowCountDifferential:
    @pytest.mark.parametrize("shift_name", ["full", "star", "renewal"])
    def test_support_and_invariance_match_per_word(self, shift_name, request):
        spec = request.getfixturevalue(shift_name)
        rng = random.Random(shift_name)
        cases = []
        for _ in range(40):
            terms = []
            weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
            for w in weights:
                cycle = random_cycle(spec, rng, 9, 12)
                terms.append((Fraction(w, sum(weights)), measure_from_cycle(spec, cycle)))
            nu = convex_combination(terms)
            depth = rng.randint(1, 5)
            cap = rng.randint(1, 14)  # often below the orbit symbols
            cases.append((nu, depth, cap))
        # the zero measure, and depths above every period of a combination
        cases += [(convex_combination([]), depth, 3) for depth in (1, 4)]
        cases += [(nu, nu.max_period() + extra, 14) for nu, _, _ in cases[:5] for extra in (1, 3)]
        for nu, depth, cap in cases:
            table = support_table(nu, depth, cap)
            oracle = per_word_support_table(nu, depth, cap)
            assert list(table.items()) == list(oracle.items())
            nums, L = support_numerators(nu, depth, cap)
            assert list(nums) == list(oracle)
            assert all(type(k) is int and Fraction(k, L) == oracle[w] for w, k in nums.items())
            cap = max(cap, max(nu.orbit_symbols, default=cap))
            report = invariance_check(nu, depth, cap)
            assert (report.max_defect, report.defects, report.words_checked) == (
                per_word_invariance(nu, depth, cap)
            )

    def test_long_words_wrap_short_cycles(self, full):
        nu = convex_combination(
            [
                (Fraction(1, 3), measure_from_cycle(full, (2,))),
                (Fraction(2, 3), measure_from_cycle(full, (1, 12, 1, 2))),
            ]
        )
        for depth in (1, 4, 9):
            assert support_table(nu, depth, 12) == per_word_support_table(nu, depth, 12)


class TestCyclicOccurrences:
    """The cyclic window counter against a direct scan; the symbols are
    chosen so that digit strings of different words overlap."""

    @settings(max_examples=200, deadline=None)
    @given(
        cycle=st.lists(st.sampled_from([1, 2, 11, 12, 21, 111]), min_size=1, max_size=7),
        word=st.lists(st.sampled_from([1, 2, 11, 12, 21, 111]), min_size=1, max_size=16),
    )
    def test_matches_naive_scan(self, cycle, word):
        cycle = tuple(cycle)
        counts = _cyclic_window_counts(cycle, len(word))
        assert sum(counts.values()) == len(cycle)  # one window per start
        assert Fraction(counts[tuple(word)], len(cycle)) == naive_cyclic_mass(cycle, word)

    @settings(max_examples=100, deadline=None)
    @given(
        cycle=st.lists(st.sampled_from([1, 2, 11, 12, 21, 111]), min_size=1, max_size=7),
        start=st.integers(0, 6),
        length=st.integers(1, 16),
    )
    def test_windows_of_the_cycle(self, cycle, start, length):
        cycle = tuple(cycle)
        ext = cycle * (length // len(cycle) + 3)
        word = ext[start % len(cycle) :][:length]
        counts = _cyclic_window_counts(cycle, length)
        assert counts[word] >= 1
        for w, count in counts.items():
            assert Fraction(count, len(cycle)) == naive_cyclic_mass(cycle, w)


def built_word(runs):
    return tuple(s for seg, r in runs for _ in range(r) for s in seg)


_segments = st.lists(st.sampled_from([1, 2, 11, 12]), min_size=1, max_size=4).map(tuple)


class TestRunWindowCounts:
    """The run-length count against the cyclic count of the built word:
    equal counts, keyed in the same first-occurrence order."""

    def check(self, runs, length):
        runs = tuple(runs)
        expected = _cyclic_window_counts(built_word(runs), length)
        assert list(_run_window_counts(runs, length).items()) == list(expected.items())

    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.lists(st.tuples(_segments, st.integers(1, 9)), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_matches_the_built_word(self, runs, data):
        period = RunWord(tuple(runs)).period
        self.check(runs, data.draw(st.integers(1, 2 * period + 3), label="length"))

    @settings(max_examples=100, deadline=None)
    @given(seg=_segments, r=st.integers(1, 40), length=st.integers(1, 12))
    def test_one_run(self, seg, r, length):
        self.check([(seg, r)], length)

    @settings(max_examples=100, deadline=None)
    @given(
        blocks=st.lists(st.tuples(_segments, st.integers(1, 3)), min_size=2, max_size=3),
        extra=st.integers(0, 8),
    )
    def test_runs_shorter_than_the_window(self, blocks, extra):
        # every run has r < ceil((length - 1) / |s|), so each is read whole
        # from its local slice
        length = max(len(s) * r for s, r in blocks) + 2 + extra
        self.check(blocks, length)

    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(st.tuples(_segments, st.integers(1, 3)), min_size=1, max_size=3),
        wraps=st.integers(2, 4),
        extra=st.integers(0, 3),
    )
    def test_window_wraps_the_whole_word(self, runs, wraps, extra):
        self.check(runs, wraps * RunWord(tuple(runs)).period + extra)

    @settings(max_examples=100, deadline=None)
    @given(
        a=_segments, b=_segments, ra=st.integers(1, 50), rb=st.integers(1, 50),
        conn_a=_segments, conn_b=_segments, length=st.integers(1, 9),
    )
    def test_blocks_with_connectors(self, a, b, ra, rb, conn_a, conn_b, length):
        self.check([(a, ra), (conn_a, 1), (b, rb), (conn_b, 1)], length)


def fresh_canonical(spec, count):
    """Oracle: a new enumeration, independent of the memoised prefix."""
    return list(itertools.islice(canonical_cylinder_iter(spec), count))


class TestCanonicalPrefix:
    """`canonical_cylinders` reads one memoised prefix per spec object."""

    def test_keyed_by_identity_not_name(self):
        loop = load_shift_text("1: 1\n")
        ring = load_shift_text("1: 2\n2: 1 2\n")
        assert loop.name == ring.name == "user"
        assert canonical_cylinders(loop, 4) == [(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)]
        assert canonical_cylinders(ring, 12) == fresh_canonical(ring, 12)
        assert canonical_cylinders(loop, 6) == fresh_canonical(loop, 6)

    def test_mixed_requests_match_a_fresh_enumeration(self):
        for name in ("full", "renewal", "star", "finite_full:2"):
            spec = parse_shift_arg(name)
            oracle = fresh_canonical(spec, 400)
            for count in (5, 2, 30, 30, 1, 7, 400, 120, 399):
                assert canonical_cylinders(spec, count) == oracle[:count]

    def test_every_over_ask_on_a_finite_language_raises(self):
        dead_end = load_shift_text("1: 2\n2:\n")
        for count in (4, 3, 5, 2, 4, 100, 3):
            if count <= 3:
                assert canonical_cylinders(dead_end, count) == [(1,), (2,), (1, 2)][:count]
            else:
                with pytest.raises(ValueError, match="only 3 admissible cylinders"):
                    canonical_cylinders(dead_end, count)

    def test_callers_get_copies(self, full):
        first = canonical_cylinders(full, 6)
        first.clear()
        second = canonical_cylinders(full, 6)
        assert second == fresh_canonical(full, 6)
        second.append((99,))
        assert canonical_cylinders(full, 7) == fresh_canonical(full, 7)

    def test_spec_is_collectable_after_del(self):
        # after several classes are built and stored, so that anything
        # the enumeration keeps would hold the spec
        spec = parse_shift_arg("renewal")
        words = canonical_cylinders(spec, 400)
        assert len(words) == 400 and len({(sum(w), len(w)) for w in words}) > 30
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None

    def test_a_failing_oracle_leaves_no_spent_prefix(self):
        calls = [0]
        full = parse_shift_arg("full")

        def flaky(i, j):
            calls[0] += 1
            if calls[0] == 20:
                raise RuntimeError("oracle failed")
            return True

        spec = ShiftSpec("flaky", flaky)
        with pytest.raises(RuntimeError):
            canonical_cylinders(spec, 200)
        assert canonical_cylinders(spec, 200) == fresh_canonical(full, 200)

    def test_concurrent_requests_agree(self):
        # more threads than cores and a short switch interval, so that an
        # unguarded prefix would interleave two extensions of one generator
        spec = parse_shift_arg("renewal")
        oracle = fresh_canonical(spec, 1600)
        got = {}

        def ask(k):
            got[k] = canonical_cylinders(spec, 200 * k)

        threads = [threading.Thread(target=ask, args=(k,)) for k in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got[k] == oracle[: 200 * k] for k in range(1, 9))


def per_cylinder_metric_d(a, b, N, spec):
    """Oracle: the former metric loop, one direct scan per cylinder and
    side over a fresh enumeration; a table raises at its first
    unrepresented index."""
    def value(obj, word, n):
        if isinstance(obj, CylinderFunction):
            try:
                return obj.value(word)
            except UnrepresentedCylinderError:
                raise UnrepresentedCylinderError(word, n) from None
        return naive_combo_mass(obj, word)

    lower = Fraction(0)
    for n, word in enumerate(fresh_canonical(spec, N), start=1):
        va, vb = value(a, word, n), value(b, word, n)
        if va != vb:
            lower += Fraction(1, 2**n) * abs(va - vb)
    return lower, lower + Fraction(1, 2**N)


class TestMassVectors:
    @settings(max_examples=150, deadline=None)
    @given(
        shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
        seed=st.integers(0, 2**32 - 1),
        terms=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        N=st.integers(1, 90),
    )
    def test_metric_d_matches_per_cylinder_oracle(self, shift, seed, terms, N):
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        rng = random.Random(seed)
        a, b = (random_combo(spec, rng, k, cap) for k in terms)
        assert metric_d(a, b, N, spec) == per_cylinder_metric_d(a, b, N, spec)
        if a.terms:
            mu = a.terms[0][1]  # a bare periodic measure is a valid argument too
            assert metric_d(mu, b, N, spec) == per_cylinder_metric_d(
                convex_combination([(1, mu)]), b, N, spec
            )

    @settings(max_examples=100, deadline=None)
    @given(
        shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
        seed=st.integers(0, 2**32 - 1),
        depths=st.tuples(st.integers(0, 7), st.integers(1, 7)),
        caps=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        N=st.integers(1, 90),
    )
    def test_table_arguments_raise_at_the_oracles_index(self, shift, seed, depths, caps, N):
        """A measure (depth 0) or a table against a table, in both orders:
        of two failing tables the lower index raises."""
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        rng = random.Random(seed)
        a, b = (
            CylinderFunction.from_combo(random_combo(spec, rng, 2, cap), depth, min(c, cap))
            if depth else random_combo(spec, rng, 2, cap)
            for depth, c in zip(depths, caps)
        )
        for x, y in ((a, b), (b, a)):
            outcomes = []
            for run in (metric_d, per_cylinder_metric_d):
                try:
                    outcomes.append(run(x, y, N, spec))
                except UnrepresentedCylinderError as exc:
                    outcomes.append((exc.word, exc.index))
            assert outcomes[0] == outcomes[1]

    def test_of_two_failing_tables_the_lower_index_wins(self, full):
        words = canonical_cylinders(full, 20)
        shallow = CylinderFunction({}, {1: 10})  # fails at (1, 1), index 3
        narrow = CylinderFunction({}, {1: 2, 2: 10, 3: 10})  # fails at (3,), index 4
        assert words[2:4] == [(1, 1), (3,)]
        for x, y in ((shallow, narrow), (narrow, shallow)):
            with pytest.raises(UnrepresentedCylinderError) as err:
                metric_d(x, y, 20, full)
            assert (err.value.word, err.value.index) == ((1, 1), 3)

    @settings(max_examples=100, deadline=None)
    @given(
        shift=st.sampled_from(sorted(DIFFERENTIAL_SHIFTS)),
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 120),
    )
    def test_cylinder_masses_match_direct_scans(self, shift, seed, N):
        spec, cap = DIFFERENTIAL_SHIFTS[shift]
        rng = random.Random(seed)
        nu = random_combo(spec, rng, rng.randint(0, 4), cap)
        words = fresh_canonical(spec, N)
        rng.shuffle(words)  # any order and any mix of lengths
        nums, L = _mass_numerators(nu, words)
        oracle = [naive_combo_mass(nu, w) for w in words]
        assert [Fraction(k, L) for k in nums] == oracle
        assert [combo_of_cylinder(nu, w) for w in words] == oracle
        # a run word against its built word, on windows of that word
        # longer than its period too
        runs = tuple(
            (random_cycle(spec, rng, 4, cap), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))
        )
        cycle = built_word(runs)
        ext = cycle * 3
        words += [
            ext[j : j + rng.randint(1, 2 * len(cycle) + 2)]
            for j in (rng.randrange(len(cycle)) for _ in range(8))
        ]
        nums, L = _mass_numerators(RunWord(runs), words)
        assert [Fraction(k, L) for k in nums] == [naive_cyclic_mass(cycle, w) for w in words]

    def test_empty_word_is_rejected(self, full):
        mu = fixed_point_measure(full, 1)
        nu = convex_combination([(1, mu)])
        zero = convex_combination([])
        calls = [
            lambda: _mass_numerators(nu, [(1,), ()]),
            lambda: _mass_numerators(zero, [()]),
            lambda: _mass_numerators(RunWord((((1, 2), 3),)), [()]),
            lambda: measure_of_cylinder(mu, ()),
            lambda: combo_of_cylinder(nu, ()),
            lambda: combo_of_cylinder(zero, ()),  # the zero measure too
            lambda: integrate_test_function(TestFunction(((Fraction(1), ()),)), zero),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="nonempty"):
                call()


def divisor_scan_primitive_root(word):
    """Oracle: the former `_primitive_root`, which tries every d in
    1..n-1 that divides n and builds word[:d] * (n // d)."""
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


# word lengths: 1, primes, powers of two, highly composite numbers and
# numbers with a large prime factor
PRIMITIVE_ROOT_LENGTHS = [1, 2, 3, 7, 97, 251, 4, 64, 512, 12, 60, 360, 720, 840, 2 * 127, 9 * 61]


class TestPrimitiveRoot:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.sampled_from(PRIMITIVE_ROOT_LENGTHS),
        data=st.data(),
        alphabet=st.integers(1, 3),
        off=st.booleans(),
    )
    def test_matches_divisor_scan(self, n, data, alphabet, off):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        d = data.draw(st.sampled_from(divisors))
        root = tuple(data.draw(st.lists(st.integers(1, alphabet), min_size=d, max_size=d)))
        word = root * (n // d)
        if off:  # one symbol off a power
            i = data.draw(st.integers(0, n - 1))
            word = word[:i] + (word[i] % 3 + 1,) + word[i + 1 :]
        assert _primitive_root(word) == divisor_scan_primitive_root(word)

    @pytest.mark.parametrize("word", [
        (1,), (1, 1), (1, 2), (1, 2) * 6, (1, 1, 2) * 4 + (1, 1, 1), (1,) * 2**10 + (2,) * 2**10,
    ])
    def test_examples(self, word):
        assert _primitive_root(word) == divisor_scan_primitive_root(word)
