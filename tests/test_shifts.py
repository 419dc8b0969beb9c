import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift.asymptotics import EscapeSearchError, escape_sequence
from cmshift.shifts import (
    SearchCaps,
    ShiftSpec,
    check_shift,
    connect,
    enumerate_loops,
    f_property_probe,
    finite_full_shift,
    is_admissible,
    load_shift_text,
    loop_family_shift,
    make_builtin,
    parse_shift_arg,
    successors,
)


def brute_force_loop_words(spec, i, n, symbol_cap):
    """Oracle: all words of length n from i to i by raw product."""
    if n == 2:
        return [(i, i)] if spec.is_allowed(i, i) else []
    out = []
    for mid in itertools.product(range(1, symbol_cap + 1), repeat=n - 2):
        word = (i, *mid, i)
        if is_admissible(spec, word):
            out.append(word)
    return out


class TestAdmissibility:
    def test_full_allows_everything(self, full):
        assert is_admissible(full, (1, 7, 3))

    def test_star_examples(self, star):
        assert is_admissible(star, (1, 5, 1))
        assert not is_admissible(star, (5, 6))
        assert not is_admissible(star, (2, 3))

    def test_rejects_empty_and_nonpositive(self, full):
        assert not is_admissible(full, ())
        assert not is_admissible(full, (0, 1))

    def test_long_word_forbidden_only_at_the_end(self):
        calls = []

        def allowed(i, j):
            calls.append((i, j))
            return (i, j) != (3, 1)

        spec = ShiftSpec("no-3-1", allowed)
        word = (1, 2) * 20_000 + (3, 1)
        assert not is_admissible(spec, word)
        assert is_admissible(spec, word[:-1])
        # each distinct transition is asked once, in first-occurrence order
        assert calls == [(1, 2), (2, 1), (2, 3), (3, 1), (1, 2), (2, 1), (2, 3)]


class TestSuccessors:
    def test_full_truncates(self, full):
        assert successors(full, 1, 4) == ([1, 2, 3, 4], True)

    def test_star_finite_row(self, star):
        assert successors(star, 5, 100) == ([1], False)

    def test_finite_full_complete(self, ff3):
        assert successors(ff3, 2, 10) == ([1, 2, 3], False)

    @pytest.mark.parametrize("name", ["full", "star", "renewal", "loop_family:linear"])
    def test_prefix_monotone_in_cap(self, name):
        spec = parse_shift_arg(name)
        for i in (1, 2, 5):
            small, _ = successors(spec, i, 10)
            large, _ = successors(spec, i, 40)
            assert large[: len(small)] == small

    @given(i=st.integers(min_value=1, max_value=30), cap=st.integers(min_value=1, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_oracle_on_renewal(self, renewal, i, cap):
        row, _ = successors(renewal, i, cap)
        assert row == [j for j in range(1, cap + 1) if renewal.is_allowed(i, j)]


class TestConnect:
    def test_direct_edge(self, full):
        assert connect(full, 3, 7, 5, 100) == (3, 7)

    def test_star_goes_through_one(self, star):
        assert connect(star, 4, 9, 5, 100) == (4, 1, 9)

    def test_absent_within_length(self, star):
        assert connect(star, 4, 9, 2, 100) is None

    def test_result_is_shortest_and_lex_least(self, renewal):
        # 5 -> 4 -> 3 is forced; 1 -> anything is direct
        assert connect(renewal, 5, 3, 8, 100) == (5, 4, 3)
        assert connect(renewal, 1, 9, 8, 100) == (1, 9)

    def test_min_len_two_forces_a_cycle(self, full):
        assert connect(full, 1, 1, 4, 10, min_len=2) == (1, 1)
        star = parse_shift_arg("star")
        assert connect(star, 2, 2, 4, 10, min_len=2) == (2, 1, 2)

    @given(
        a=st.integers(min_value=1, max_value=12),
        b=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_connect_output_is_admissible(self, star, a, b):
        word = connect(star, a, b, 6, 50)
        assert word is not None
        assert word[0] == a and word[-1] == b
        assert is_admissible(star, word)


class TestEnumerateLoops:
    def test_finite_full_two(self):
        spec = finite_full_shift(2)
        loops, saturated = enumerate_loops(spec, 1, 2, 100, 100)
        assert loops == [(1, 1), (1, 2)]
        assert not saturated

    def test_full_saturates_at_cap(self, full):
        loops, saturated = enumerate_loops(full, 1, 2, 5, 1000)
        assert len(loops) == 5 and saturated

    def test_star_loops_of_length_two(self, star):
        loops, saturated = enumerate_loops(star, 1, 2, 10, 8)
        assert loops == [(1, k) for k in range(1, 9)]
        assert not saturated

    @given(n=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_loops_are_admissible_closed_and_distinct(self, ff3, n):
        loops, _ = enumerate_loops(ff3, 1, n, 10_000, 10)
        assert len(set(loops)) == len(loops)
        for w in loops:
            assert w[0] == 1
            assert is_admissible(ff3, w)
            assert ff3.is_allowed(w[-1], 1)


class TestFPropertyProbe:
    def test_full_shift_is_at_least(self, full):
        probe = f_property_probe(full, 1, 3, 100, 1000)
        assert probe.is_at_least and probe.count == 100
        assert probe.describe() == "AtLeast(100)"

    def test_finite_full_counts(self, ff3):
        probe = f_property_probe(ff3, 1, 3, 1000, 100)
        assert probe.is_finite and probe.count == 3

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_on_finite_full(self, i, m, n):
        spec = finite_full_shift(m)
        probe = f_property_probe(spec, i, n, 10**6, m)
        oracle = brute_force_loop_words(spec, i, n, m)
        assert probe.is_finite
        assert probe.count == len(oracle) == m ** (n - 2)

    def test_loop_family_single_length(self):
        # c simple loops of m edges: the words of m+1 symbols from the
        # root to itself are exactly those loops
        spec = loop_family_shift({4: 5})
        probe = f_property_probe(spec, 1, 5, 10**6, 10**6)
        assert probe.is_finite and probe.count == 5
        oracle = brute_force_loop_words(spec, 1, 5, spec.alphabet_size)
        assert len(oracle) == 5

    def test_infinite_family_not_certified(self, fam_linear):
        probe = f_property_probe(fam_linear, 1, 3, 10**6, 10**4)
        assert probe.is_at_least  # the root row never certifies finite


class TestBuiltinsAndLoaders:
    def test_make_builtin_finite_full(self):
        spec = make_builtin("finite_full", m=3)
        assert successors(spec, 1, 10)[0] == [1, 2, 3]

    def test_make_builtin_star_blocks_offroot(self):
        spec = make_builtin("star")
        assert not is_admissible(spec, (2, 3))

    def test_make_builtin_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_builtin("sofic")
        with pytest.raises(ValueError):
            make_builtin("finite_full", m=0)

    def test_loop_family_quadratic_exponential(self):
        spec = make_builtin("loop_family", counts="quadratic-exponential")
        # 2^(n^2) loops of n edges; count words of 3 symbols root->root:
        # compositions of 2 edges: a_2 + a_1^2 (self-loop collapses to one)
        probe = f_property_probe(spec, 1, 3, 10**6, 10**5)
        assert probe.count == 2**4 + 1

    def test_loop_family_chain_structure(self, fam_linear):
        w = fam_linear.interior_path_hint(10, 998, 10**10)
        assert w[0] == w[-1] == 1 and len(w) == 1000
        assert min(w[1:-1]) > 10
        assert is_admissible(fam_linear, w)

    def test_interior_path_stops_at_symbol_cap(self):
        # no chain of 299 symbols above 3 fits under 600, and bases only
        # grow, so the search must stop without extending the block table
        spec = parse_shift_arg("loop_family:linear")
        fam = spec.interior_path_hint.__self__
        assert spec.interior_path_hint(3, 298, 600) is None
        assert len(fam._bases) < 1000
        with pytest.raises(EscapeSearchError, match="symbol cap 600, node budget 500000"):
            escape_sequence(spec, 3, 300, SearchCaps(symbol_cap=600))
        assert len(fam._bases) < 1000

    def test_interior_path_unchanged_below_cap(self, fam_linear):
        # the first fitting chain is the same whether the cap binds or not
        for k, m in ((3, 10), (10, 40), (50, 7)):
            loose = fam_linear.interior_path_hint(k, m, 10**12)
            top = max(loose)
            assert fam_linear.interior_path_hint(k, m, top) == loose
            assert fam_linear.interior_path_hint(k, m, top - 1) != loose

    def test_text_loader_rows(self):
        spec = load_shift_text("1: 1 2\n2: 1\n")
        assert is_admissible(spec, (1, 2, 1))
        assert not is_admissible(spec, (2, 2))
        assert spec.alphabet_size == 2

    def test_text_loader_default_full(self):
        spec = load_shift_text("2: 1\ndefault full\n")
        assert is_admissible(spec, (5, 9))
        assert not is_admissible(spec, (2, 3))
        assert successors(spec, 3, 4) == ([1, 2, 3, 4], True)

    def test_check_shift_reports(self, star):
        report = check_shift(star, 6, 50)
        assert report.ok
        assert report.reachable_from_one == (1, 2, 3, 4, 5, 6)
        bad = load_shift_text("1: 2\n2: 2\n")
        rep = check_shift(bad, 2, 10)
        assert 1 in rep.empty_columns
