import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from cmshift import asymptotics
from cmshift.asymptotics import (
    Classification,
    EscapeSearchError,
    NotEnoughLoopsError,
    SequenceGenerationError,
    _classify_table,
    _interior_word_search,
    _window,
    _window_oscillations,
    classify_limit,
    composite_sequence,
    cylinder_limit,
    escape_sequence,
    first_return_loops,
    fixed_point_sequence,
    gurevich_entropy_estimate,
    non_f_witness_sequence,
    pair_loop_sequence,
    sequence_from_measures,
    weak_star_trace,
)
from cmshift.measures import (
    CylinderFunction,
    additivity_defect,
    combo_of_cylinder,
    convex_combination,
    fixed_point_measure,
    indicator,
    measure_from_cycle,
    support_table,
)
from cmshift.shifts import (
    SearchCaps,
    ShiftSpec,
    enumerate_loops,
    finite_full_shift,
    full_shift,
    is_admissible,
    load_shift_text,
    loop_family_shift,
    parse_shift_arg,
    successor_iter,
)
from conftest import (
    KERNEL_SHIFTS,
    counted,
    oracle_first_return_loops,
    oracle_interior_word_search,
    oracle_successors,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotEnoughLoopsError as exc:
        return ("NotEnoughLoopsError", str(exc))


def matrix_loop_counts(m, n_top):
    """Oracle: powers of the full m x m transition matrix, exact integers."""
    mat = [[1] * m for _ in range(m)]
    power = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    counts = []
    for _ in range(n_top):
        power = [
            [sum(power[i][k] * mat[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)
        ]
        counts.append(power[0][0])
    # counts[n-1] = number of words of n+1 symbols from 1 to 1
    return counts


class TestCylinderLimit:
    def test_pair_loops_defective_limit(self, full):
        seq = pair_loop_sequence(full, a=1, start=2)
        report = cylinder_limit(seq, 2, 50, 60, Fraction(1, 1000))
        assert report.limit_table.value((1,)) == Fraction(1, 2)
        assert report.limit_table.value((1, 7)) == 0
        cls = classify_limit(report, 50, Fraction(1, 1000))
        assert cls.kind == "defective"
        assert cls.defect_sites == (((1,), Fraction(1, 2)),)

    def test_escaping_fixed_points(self, full):
        seq = fixed_point_sequence(full)
        report = cylinder_limit(seq, 2, 10, 80, Fraction(1, 1000))
        assert report.limit_table.entries == {}
        assert report.mass_bracket[0] == 0
        cls = classify_limit(report, 10, Fraction(1, 1000))
        assert cls.kind == "subprobability" and cls.mass == 0

    def test_constant_sequence_is_probability(self, full):
        nu = convex_combination([(1, fixed_point_measure(full, 1))])
        seq = sequence_from_measures([nu] * 24, "const")
        report = cylinder_limit(seq, 2, 8, 24, Fraction(1, 1000))
        assert report.classification.kind == "probability"
        assert report.classification.mass == 1

    def test_traces_are_exact(self, full):
        seq = pair_loop_sequence(full, a=1, start=2)
        report = cylinder_limit(seq, 2, 12, 12, Fraction(1, 1000))
        assert report.trace((1,)) == [Fraction(1, 2)] * 12
        spike = report.trace((1, 5))
        assert spike[3] == Fraction(1, 2)  # term 4 is the (1,6)... no: (1,5) at n=4
        assert sum(1 for v in spike if v != 0) == 1

    def test_generator_failure_carries_index(self, full):
        def gen(n):
            if n == 3:
                raise ValueError("boom")
            return convex_combination([(1, fixed_point_measure(full, 1))])

        from cmshift.asymptotics import MeasureSequence

        seq = MeasureSequence(gen, "flaky")
        with pytest.raises(SequenceGenerationError) as err:
            cylinder_limit(seq, 1, 4, 5, Fraction(1, 10))
        assert err.value.index == 3

    def test_classify_requires_representation(self, full):
        seq = fixed_point_sequence(full)
        report = cylinder_limit(seq, 2, 10, 30, Fraction(1, 1000))
        with pytest.raises(ValueError):
            classify_limit(report, 50, Fraction(1, 1000))


    def test_n_max_must_be_positive(self, full):
        with pytest.raises(ValueError, match="n_max"):
            cylinder_limit(fixed_point_sequence(full), 1, 4, 0, Fraction(1, 10))


def dense_oscillations(traces, window_idx):
    """Oracle: the former oscillation loop, which reads every window
    index of every trace (missing ones as 0) plus the final sample."""
    n_max = window_idx[-1]
    out = {}
    for word, sparse in traces.items():
        vals = [sparse.get(n, Fraction(0)) for n in window_idx]
        vals.append(sparse.get(n_max, Fraction(0)))
        out[word] = max(vals) - min(vals)
    return out


def dense_cylinder_limit(seq, depth, symbol_cap, n_max, window=None):
    """Oracle: the former sampling, with a support table kept per index."""
    samples = {n: support_table(seq.term(n), depth, symbol_cap) for n in range(1, n_max + 1)}
    traces = {}
    for n, table in samples.items():
        for word, value in table.items():
            traces.setdefault(word, {})[n] = value
    window_idx = _window(tuple(range(1, n_max + 1)), window)
    return samples[n_max], traces, dense_oscillations(traces, window_idx)


def quadratic_classify_table(table, depth, K, tol, mass_lo=None):
    """Oracle: the former `_classify_table`, which scans every table
    entry for the children of each parent word."""
    sites = []
    if depth >= 2:
        parents = {w for w in table.entries if len(w) < depth}
        for word in sorted(parents):
            total = table.value(word)
            children = sum(
                (v for w, v in table.entries.items() if w[:-1] == word),
                Fraction(0),
            )
            defect = total - children
            if defect > tol:
                sites.append((word, defect))
    if sites:
        return Classification("defective", defect_sites=tuple(sites))
    if mass_lo is None:
        mass_lo = sum((v for w, v in table.entries.items() if len(w) == 1), Fraction(0))
    if mass_lo >= 1 - tol:
        return Classification("probability", mass=mass_lo)
    return Classification("subprobability", mass=mass_lo)


def dense_classification(final, oscillations, depth, symbol_cap, tol):
    """Oracle: the verdict of the former `cylinder_limit` on the dense
    oracle's final table and oscillations."""
    if any(osc > tol for osc in oscillations.values()):
        return Classification("undetermined")
    table = CylinderFunction(
        {w: v for w, v in final.items() if v}, {d: symbol_cap for d in range(1, depth + 1)}
    )
    mass_lo = sum((v for w, v in final.items() if len(w) == 1), Fraction(0))
    return quadratic_classify_table(table, depth, symbol_cap, tol, mass_lo)


cycles = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=7).map(tuple)


@st.composite
def mixed_terms(draw):
    """Weights r / total with a total of its own per term, so the common
    denominator L of the terms (weight denominators times periods)
    changes from term to term; sometimes the zero measure."""
    parts = draw(st.lists(st.tuples(st.integers(1, 5), cycles), max_size=3))
    total = sum(r for r, _ in parts) + draw(st.integers(0, 4))
    full = full_shift()
    return convex_combination(
        [(Fraction(r, total), measure_from_cycle(full, c)) for r, c in parts]
    )


def assert_matches_dense(seq, depth, cap, n_max, tol, window):
    report = cylinder_limit(seq, depth, cap, n_max, tol, window)
    final, traces, oscillations = dense_cylinder_limit(seq, depth, cap, n_max, window)
    assert list(report.traces.items()) == list(traces.items())
    assert list(report.oscillations.items()) == list(oscillations.items())
    assert all(type(v) is Fraction for v in report.oscillations.values())
    assert all(type(v) is Fraction for t in report.traces.values() for v in t.values())
    assert report.limit_table.entries == {w: v for w, v in final.items() if v}
    mass_lo = sum((v for w, v in final.items() if len(w) == 1), Fraction(0))
    assert report.mass_bracket == (mass_lo, 1)
    assert report.classification == dense_classification(final, oscillations, depth, cap, tol)
    assert report.params["window"] == len(_window(range(1, n_max + 1), window))
    return report


class TestIntegerKernel:
    """`cylinder_limit` on integer numerators against the dense oracle."""

    @given(
        terms=st.lists(mixed_terms(), min_size=1, max_size=12),
        depth=st.integers(min_value=1, max_value=3),
        cap=st.integers(min_value=1, max_value=7),
        window=st.sampled_from(["none", "one", "n_max", "beyond"]),
        tol=st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:cycle .* is a power of")
    def test_matches_dense_oracle(self, terms, depth, cap, window, tol):
        n_max = len(terms)
        size = {"none": None, "one": 1, "n_max": n_max, "beyond": n_max + 3}[window]
        seq = sequence_from_measures(terms, "mixed")
        report = assert_matches_dense(seq, depth, cap, n_max, tol, size)
        top = max(report.oscillations.values(), default=0)
        if top:
            # the tol test is strict: tol equal to the largest oscillation passes
            at = cylinder_limit(seq, depth, cap, n_max, top, size)
            below = cylinder_limit(seq, depth, cap, n_max, top * (1 - Fraction(1, 10**9)), size)
            assert at.classification.kind != "undetermined"
            assert below.classification.kind == "undetermined"

    def test_tol_at_and_below_the_largest_oscillation(self, full):
        # (1, n) spikes to 1/2 at term n - 1 and is 0 elsewhere in the window
        seq = pair_loop_sequence(full, a=1, start=2)
        report = cylinder_limit(seq, 2, 50, 40, Fraction(1, 2))
        assert max(report.oscillations.values()) == Fraction(1, 2)
        assert report.classification.kind == "probability"  # defect 1/2 is not > tol
        below = cylinder_limit(seq, 2, 50, 40, Fraction(1, 2) - Fraction(1, 10**30))
        assert below.classification.kind == "undetermined"

    @pytest.mark.parametrize("window", [200, 250])
    def test_window_over_periods_one_to_two_hundred(self, full, window):
        # term n: weight n / (n + 1) on a period-n orbit, so L_n = n (n + 1)
        # and the window over all 200 terms has Lw = lcm(2..201)
        terms = [
            convex_combination(
                [(Fraction(n, n + 1), measure_from_cycle(full, (1,) * (n - 1) + (2,)))]
            )
            for n in range(1, 201)
        ]
        seq = sequence_from_measures(terms, "periods 1..200")
        report = assert_matches_dense(seq, 2, 2, 200, Fraction(1, 1000), window)
        assert report.classification.kind == "undetermined"
        # [1] has mass (n - 1) / (n + 1), [2] has 1 / (n + 1)
        assert report.oscillations[(1,)] == Fraction(199, 201)
        assert report.oscillations[(2,)] == Fraction(1, 2) - Fraction(1, 201)
        top = max(report.oscillations.values())
        assert cylinder_limit(seq, 2, 2, 200, top, window).classification.kind != "undetermined"


class TestClassifyTable:
    @given(
        entries=st.dictionaries(
            st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).map(tuple),
            st.fractions(min_value=0, max_value=1, max_denominator=12),
            max_size=40,
        ),
        depth=st.integers(min_value=1, max_value=4),
        tol=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool),
        with_mass=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_quadratic_oracle_on_random_tables(self, entries, depth, tol, with_mass):
        # words up to length 4 at any depth: parents without children,
        # children without parents, and entries past the depth
        table = CylinderFunction(entries, {d: 4 for d in range(1, depth + 1)})
        mass_lo = Fraction(1, 3) if with_mass else None
        assert _classify_table(table, depth, tol, mass_lo) == quadratic_classify_table(
            table, depth, 4, tol, mass_lo
        )

    @pytest.mark.filterwarnings("ignore:cycle .* is a power of")
    def test_matches_quadratic_oracle_on_support_tables(self, full):
        rng = random.Random(17)
        for _ in range(60):
            depth, cap = rng.randint(1, 4), rng.randint(1, 8)
            nu = convex_combination(
                (Fraction(1, 3), measure_from_cycle(full, tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 9)))))
                for _ in range(rng.randint(0, 3))
            )
            table = CylinderFunction.from_combo(nu, depth, cap)
            tol = Fraction(1, rng.choice([2, 10, 1000]))
            assert _classify_table(table, depth, tol) == quadratic_classify_table(
                table, depth, cap, tol
            )

    def test_long_cycle_table(self, full):
        rng = random.Random(600)
        cycle = tuple(rng.randint(1, 400) for _ in range(600))
        nu = convex_combination([(1, measure_from_cycle(full, cycle))])
        table = CylinderFunction.from_combo(nu, 3, 390)  # the cap leaves defects
        assert len(table.entries) > 1000
        tol = Fraction(1, 1000)
        got = _classify_table(table, 3, tol)
        assert got.kind == "defective"
        assert got == quadratic_classify_table(table, 3, 390, tol)


class TestSparseOscillations:
    def test_random_sparse_traces(self):
        # each index n has its own denominator L_n, so Lw changes with
        # the window; values are drawn as numerators over L_n
        rng = random.Random(5)
        for _ in range(300):
            n_max = rng.randint(1, 40)
            window_idx = _window(tuple(range(1, n_max + 1)), rng.choice([None, 1, 2, 7, 50]))
            dens = {n: rng.choice([1, 2, 3, 6, 7, 10, 12, 35]) for n in range(1, n_max + 1)}
            traces, samples = {}, {}
            for word in range(rng.randint(1, 6)):
                keep = sorted(rng.sample(range(1, n_max + 1), rng.randint(0, n_max)))
                pairs = [(rng.randint(1, dens[n]), dens[n]) for n in keep]
                traces[(word + 1,)] = {n: Fraction(k, L) for n, (k, L) in zip(keep, pairs)}
                window_pairs = [p for n, p in zip(keep, pairs) if n >= window_idx[0]]
                if window_pairs:
                    samples[(word + 1,)] = window_pairs
            tol = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            window_dens = {dens[n] for n in window_idx}
            sparse, undetermined = _window_oscillations(
                traces, samples, window_dens, len(window_idx), tol
            )
            dense = dense_oscillations(traces, window_idx)
            assert list(sparse.items()) == list(dense.items())
            assert all(type(v) is Fraction for v in sparse.values())
            assert undetermined == any(osc > tol for osc in dense.values())

    @pytest.mark.parametrize("window", [None, 1, 5, 500])
    def test_cylinder_limit_matches_dense(self, full, window):
        rng = random.Random(window)
        terms = [
            convex_combination(
                [(Fraction(1, 2), measure_from_cycle(full, (1, rng.randint(2, 9)))),
                 (Fraction(1, 2), measure_from_cycle(full, (rng.randint(1, 9),)))]
            )
            for _ in range(30)
        ]
        seqs = [
            pair_loop_sequence(full, a=1, start=2),
            fixed_point_sequence(full),
            sequence_from_measures(terms, "random mixtures"),
        ]
        for seq in seqs:
            report = cylinder_limit(seq, 3, 20, 30, Fraction(1, 1000), window)
            final, traces, oscillations = dense_cylinder_limit(seq, 3, 20, 30, window)
            assert list(report.traces.items()) == list(traces.items())
            assert list(report.oscillations.items()) == list(oscillations.items())
            assert report.limit_table.entries == {w: v for w, v in final.items() if v}


class TestCompositeSequences:
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    def test_limit_is_lambda_times_table(self, full, lam):
        mu = convex_combination([(1, fixed_point_measure(full, 1))])
        seq = composite_sequence(lam, mu, fixed_point_sequence(full))
        report = cylinder_limit(seq, 3, 20, 100, Fraction(1, 1000))
        for depth in (1, 2, 3):
            word = (1,) * depth
            assert report.limit_table.value(word) == lam
        cls = classify_limit(report, 20, Fraction(1, 1000))
        assert cls.kind == ("probability" if lam == 1 else "subprobability")
        assert cls.mass == lam


class TestEscape:
    def test_full_shift_construction(self, full):
        res = escape_sequence(full, k=3, target_len=10)
        assert res.word[0] <= 3 and res.word[-1] <= 3
        assert all(s >= 4 for s in res.word[1:-1])
        assert is_admissible(full, res.measure.orbit.cycle)
        assert res.low_mass <= res.bound

    def test_certificate_recomputation(self, full):
        res = escape_sequence(full, k=2, target_len=40)
        cycle = res.measure.orbit.cycle
        low = sum(1 for s in cycle if s <= 2)
        assert res.low_mass == Fraction(low, len(cycle))
        assert res.low_mass <= Fraction(res.connector_len + 2, 40)

    def test_loop_family_certificates(self, fam_linear):
        caps = SearchCaps(symbol_cap=10**10)
        for k in (1, 4, 7):
            res = escape_sequence(fam_linear, k, 100 * k, caps)
            assert res.low_mass <= Fraction(1, k)

    def test_star_shift_obstruction(self, star):
        with pytest.raises(EscapeSearchError):
            escape_sequence(star, k=1, target_len=50)

    def test_finite_alphabet_exhausts(self, ff3):
        with pytest.raises(EscapeSearchError):
            escape_sequence(ff3, k=3, target_len=10)

    # the row list `1: 4` with every row 4..40 listing 4..40: no exit
    # below 4, so the search walks its whole memo of (symbol, positions
    # left) states, a little over 400 000 reads
    DEAD_END = load_shift_text(
        "1: 4\n" + "".join(f"{i}: {' '.join(map(str, range(4, 41)))}\n" for i in range(4, 41))
    )

    def test_node_budget_message(self):
        caps = SearchCaps(symbol_cap=100, max_nodes=1000)
        with pytest.raises(EscapeSearchError) as exc:
            escape_sequence(self.DEAD_END, 3, 300, caps)
        assert str(exc.value) == (
            "interior search for k=3, length 298 exceeded the node budget 1000 (symbol cap 100)"
        )

    def test_default_budget_exhausts_the_search(self):
        with pytest.raises(EscapeSearchError, match="^no admissible word of length 300 "):
            escape_sequence(self.DEAD_END, 3, 300, SearchCaps(symbol_cap=100))

    def test_budget_bounds_the_reads(self):
        # the former search read row 3 through after its budget of 3 was
        # spent, since every symbol in it had failed before, and returned
        # None; the budget now bounds the reads, so the fourth raises
        spec = load_shift_text("1: 2 3\n2: 4 5\n3: 4 5\n4: 6\n5: 6\n")
        caps = SearchCaps(symbol_cap=10, max_nodes=3)
        assert oracle_interior_word_search(spec, 1, 2, caps) is None
        with pytest.raises(EscapeSearchError, match="exceeded the node budget 3"):
            _interior_word_search(spec, 1, 2, caps)
        assert _interior_word_search(spec, 1, 2, SearchCaps(symbol_cap=10, max_nodes=4)) is None


def _interior_search(search, module, spec, k, min_interior, caps):
    """The search's word, None or error text, and the interior symbols
    it read: symbols above k yielded by rows of symbols above k, the
    reads that `max_nodes` charges."""
    reads = 0

    def counting(spec, s, cap, tail=None):
        nonlocal reads
        for x in successor_iter(spec, s, cap, tail):
            reads += s > k and x > k
            yield x

    with mock.patch.object(module, "successor_iter", counting):
        try:
            result = search(spec, k, min_interior, caps)
        except EscapeSearchError as exc:
            result = str(exc)
    return result, reads


class TestInteriorSearchDifferential:
    @given(
        rows=st.dictionaries(
            st.integers(1, 10), st.sets(st.integers(1, 10), min_size=1, max_size=6), min_size=6
        ),
        hinted=st.booleans(),
        path_hint=st.none() | st.lists(st.integers(1, 10), min_size=3, max_size=11).map(tuple),
        k=st.integers(1, 4),
        min_interior=st.integers(1, 9),
        symbol_cap=st.integers(1, 20),
        max_nodes=st.sampled_from([5, 20, 100, 500_000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_former_search(
        self, rows, hinted, path_hint, k, min_interior, symbol_cap, max_nodes
    ):
        top = max([*rows, *(j for r in rows.values() for j in r)])
        text = "".join(f"{i}: {' '.join(map(str, sorted(r)))}\n" for i, r in rows.items())
        table = load_shift_text(text)
        hint = None if path_hint is None else lambda k, m, cap: path_hint
        spec = ShiftSpec(
            "rows",
            table.allowed,
            table.successors_hint if hinted else None,
            alphabet_size=top,
            interior_path_hint=hint,
        )
        caps = SearchCaps(symbol_cap=symbol_cap, max_nodes=max_nodes)
        new, new_reads = _interior_search(
            _interior_word_search, asymptotics, spec, k, min_interior, caps
        )
        old, old_reads = _interior_search(
            oracle_interior_word_search, conftest, spec, k, min_interior, caps
        )
        new_raised, old_raised = isinstance(new, str), isinstance(old, str)
        if not old_raised and old_reads <= max_nodes:
            # the former search finished within its budget
            assert new == old
        if new_raised:
            assert old_raised or old_reads > max_nodes
            if old_raised:
                assert new == old
        # the read that would pass the budget raises instead
        assert new_reads - new_raised <= old_reads


class TestNonFWitnesses:
    def test_full_shift_family(self, full):
        seq = non_f_witness_sequence(full, i=1, q=2, count=12, symbol_cap=100)
        for n in (1, 5, 12):
            assert combo_of_cylinder(seq.term(n), (1,)) == Fraction(1, 2)

    def test_star_shift_family(self, star):
        seq = non_f_witness_sequence(star, i=1, q=2, count=8, symbol_cap=50)
        masses = {combo_of_cylinder(seq.term(n), (1,)) for n in range(1, 9)}
        assert masses == {Fraction(1, 2)}

    def test_terms_are_pairwise_distinct(self, full):
        seq = non_f_witness_sequence(full, i=1, q=3, count=10, symbol_cap=60)
        orbits = {seq.term(n).terms[0][1].orbit.cycle for n in range(1, 11)}
        assert len(orbits) == 10

    def test_interior_avoids_base_symbol(self, full):
        loops = first_return_loops(full, 2, 3, 20, 50)
        assert all(s != 2 for w in loops for s in w[1:])

    @given(
        name=st.sampled_from(sorted(KERNEL_SHIFTS)),
        i=st.integers(min_value=1, max_value=4),
        q=st.integers(min_value=1, max_value=6),
        count=st.integers(min_value=1, max_value=30),
        symbol_cap=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_return_loops_match_brute_force(self, name, i, q, count, symbol_cap):
        spec = KERNEL_SHIFTS[name]
        assert _outcome(first_return_loops, spec, i, q, count, symbol_cap) == _outcome(
            oracle_first_return_loops, spec, i, q, count, symbol_cap
        )

    def test_loops_past_words_through_i(self, full):
        # 8^4 loop words (1, 1, ...) come first; a sweep of 1 050 loop
        # words at 1 found none of these and reported 0
        args = (full, 1, 6, 5, 8)
        assert first_return_loops(*args) == [(1, 2, 2, 2, 2, r) for r in range(2, 7)]
        assert first_return_loops(*args) == oracle_first_return_loops(*args)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_rejected(self, full, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            first_return_loops(full, 1, 2, count, 200)

    def test_finite_alphabet_runs_out(self, ff3):
        with pytest.raises(NotEnoughLoopsError):
            non_f_witness_sequence(ff3, i=1, q=2, count=10, symbol_cap=100)

    def test_limit_of_family_is_defective(self, full):
        seq = non_f_witness_sequence(full, i=1, q=2, count=60, symbol_cap=100)
        report = cylinder_limit(seq, 2, 25, 60, Fraction(1, 1000))
        cls = classify_limit(report, 25, Fraction(1, 1000))
        assert cls.kind == "defective"
        assert dict(cls.defect_sites)[(1,)] == Fraction(1, 2)


def oracle_entropy_dp(spec, a, top, symbol_cap):
    """Oracle: the former DP over eager rows, counts and truncation."""
    truncated = False
    counts = []
    vec = {a: 1}
    for step in range(1, top + 1):
        counts.append(sum(c for s, c in vec.items() if spec.is_allowed(s, a)))
        if step == top:
            break
        nxt = {}
        for s, c in vec.items():
            row, trunc = oracle_successors(spec, s, symbol_cap)
            truncated = truncated or trunc
            for j in row:
                nxt[j] = nxt.get(j, 0) + c
        vec = nxt
    return counts, truncated


class TestGurevichEntropy:
    @given(
        name=st.sampled_from(sorted(KERNEL_SHIFTS)),
        a=st.integers(min_value=1, max_value=4),
        top=st.integers(min_value=2, max_value=6),
        symbol_cap=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_former_dp(self, name, a, top, symbol_cap):
        spec = KERNEL_SHIFTS[name]
        report = gurevich_entropy_estimate(spec, a, range(1, top + 1), symbol_cap)
        counts, truncated = oracle_entropy_dp(spec, a, top, symbol_cap)
        assert [r.loop_count for r in report.rows] == counts
        assert report.truncated == truncated

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_counts_match_matrix_power_oracle(self, m):
        spec = finite_full_shift(m)
        report = gurevich_entropy_estimate(spec, 1, range(1, 13), m)
        oracle = matrix_loop_counts(m, 12)
        for row in report.rows:
            assert row.loop_count == m ** (row.n - 1)
            # a loop of n symbols is a closed path of n edges through 1,
            # which is the [1,1] entry of the n-th matrix power
            assert row.loop_count == oracle[row.n - 1]
        assert not report.truncated

    @pytest.mark.parametrize("m", [2, 3])
    def test_counts_match_loop_enumeration(self, m):
        spec = finite_full_shift(m)
        report = gurevich_entropy_estimate(spec, 1, range(1, 7), m)
        for row in report.rows:
            loops, _ = enumerate_loops(spec, 1, row.n, 10**6, m)
            assert row.loop_count == len(loops)

    def test_estimates_approach_log_m(self):
        report = gurevich_entropy_estimate(finite_full_shift(3), 1, range(1, 13), 10)
        for row in report.rows:
            expected = math.log(3) * (row.n - 1) / row.n
            assert abs(row.estimate - expected) < 1e-10

    def test_single_length_one(self, full, star):
        assert gurevich_entropy_estimate(full, 1, [1], 10).rows[0].loop_count == 1
        assert gurevich_entropy_estimate(star, 2, [1], 10).rows[0].loop_count == 0

    def test_loop_family_estimates_grow(self):
        from cmshift.shifts import loop_family_shift

        spec = loop_family_shift(lambda n: 2 ** (n * n), name="fast")
        report = gurevich_entropy_estimate(spec, 1, range(2, 4), 1050)
        ests = [r.estimate for r in report.rows]
        assert report.rows[0].loop_count == 2**4 + 1
        assert report.rows[1].loop_count == 2**9 + 2 * 2**4 + 1
        assert ests == sorted(ests) and ests[-1] > ests[0] + 0.5

    def test_renewal_has_entropy_log_two(self, renewal):
        report = gurevich_entropy_estimate(renewal, 1, range(2, 13), 200)
        assert report.rows[-1].loop_count == 2**11
        assert abs(report.rows[-1].estimate - math.log(2) * 11 / 12) < 1e-12

    @pytest.mark.parametrize("name, a, top, caps", [
        ("renewal", 1, 40, (1, 2, 5, 17, 39, 40, 41, 60)),
        ("renewal", 3, 25, (2, 4, 30)),
        ("full", 1, 4, (1, 3, 50, 200)),
        ("full", 2, 3, (7, 200)),
        ("star", 1, 8, (1, 2, 60, 200)),
        ("star", 5, 7, (4, 200)),
        ("loop_family:linear", 1, 12, (3, 20, 100)),
        ("loop_family:quadratic-exponential", 1, 4, (5, 40, 200)),
    ])
    def test_pooled_dp_matches_the_former_dp(self, name, a, top, caps):
        spec = parse_shift_arg(name)
        for symbol_cap in caps:
            report = gurevich_entropy_estimate(spec, a, range(1, top + 1), symbol_cap)
            counts, truncated = oracle_entropy_dp(spec, a, top, symbol_cap)
            assert [r.loop_count for r in report.rows] == counts
            assert report.truncated == truncated

    def test_loop_family_from_a_table(self):
        spec = loop_family_shift({1: 1, 2: 3, 4: 2, 5: 1})
        for symbol_cap in (2, 5, 9, 30):
            report = gurevich_entropy_estimate(spec, 1, range(1, 16), symbol_cap)
            counts, truncated = oracle_entropy_dp(spec, 1, 15, symbol_cap)
            assert [r.loop_count for r in report.rows] == counts
            assert report.truncated == truncated

    @pytest.mark.parametrize("name", ["renewal", "star", "full", "loop_family:linear"])
    def test_each_row_is_read_once(self, name):
        base = parse_shift_arg(name)
        spec, reads = counted(base)
        report = gurevich_entropy_estimate(spec, 1, range(1, 9), 30)
        assert set(reads.values()) == {1}
        # exactly the states reached before the last step
        reached, vec = {1}, {1}
        for _ in range(6):
            vec = {j for s in vec for j in successor_iter(base, s, 30)}
            reached |= vec
        assert reads.keys() == reached
        assert report.rows[-1].loop_count == oracle_entropy_dp(base, 1, 8, 30)[0][-1]

    @pytest.mark.parametrize("name", ["full", "star", "renewal", "loop_family:linear"])
    def test_return_to_a_is_asked_once_per_state(self, name):
        base = parse_shift_arg(name)
        asked = []

        def allowed(i, j):
            if j == 1:
                asked.append(i)
            return base.allowed(i, j)

        spec = ShiftSpec(name, allowed, base.successors_hint, alphabet_size=base.alphabet_size)
        report = gurevich_entropy_estimate(spec, 1, range(1, 31), 30)
        assert len(asked) == len(set(asked))
        counts, _ = oracle_entropy_dp(base, 1, 30, 30)
        assert [r.loop_count for r in report.rows] == counts

    def test_large_cap_memory_stays_in_the_distinct_rows(self):
        # one distinct row of 1 000 symbols, not one per state
        tracemalloc.start()
        try:
            report = gurevich_entropy_estimate(full_shift(), 1, range(1, 5), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.loop_count for r in report.rows] == [1, 1000, 1000**2, 1000**3]
        assert report.truncated
        assert peak < 2 * 2**20


class TestWeakStarTraces:
    def test_pair_loop_trace_is_constant(self, full):
        seq = pair_loop_sequence(full, 1, 2)
        trace = weak_star_trace(seq, [indicator((1,))], 8)
        assert trace[0] == [Fraction(1, 2)] * 8

    def test_escaping_trace_decays(self, full):
        seq = fixed_point_sequence(full)
        trace = weak_star_trace(seq, [indicator((1,))], 6)
        assert trace[0] == [Fraction(1)] + [Fraction(0)] * 5

    def test_probability_limits_match_integrals(self, full):
        # weak-star trace limit equals the integral against the limit
        nu = convex_combination(
            [
                (Fraction(1, 2), fixed_point_measure(full, 1)),
                (Fraction(1, 2), measure_from_cycle(full, (1, 2))),
            ]
        )
        seq = sequence_from_measures([nu] * 10, "const mix")
        from cmshift.measures import integrate_test_function

        fs = [indicator((1,)), indicator((1, 2)), indicator((2,))]
        traces = weak_star_trace(seq, fs, 10)
        for f, tr in zip(fs, traces):
            assert tr[-1] == integrate_test_function(f, nu)
