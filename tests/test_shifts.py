import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift.asymptotics import EscapeSearchError, escape_sequence
from cmshift.shifts import (
    SearchCaps,
    ShiftSpec,
    _loop_words,
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
    successor_iter,
    successors,
)
from conftest import (
    KERNEL_SHIFTS,
    counted,
    oracle_enumerate_loops,
    oracle_f_property_probe,
    oracle_loop_words,
    oracle_row_continues_beyond,
    oracle_successor_iter,
    oracle_successors,
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

    @given(
        word=st.lists(st.integers(-2, 8), max_size=8),
        alphabet_size=st.one_of(st.none(), st.integers(1, 7)),
    )
    def test_matches_naive_oracle(self, word, alphabet_size):
        spec = ShiftSpec("no-sum-3k", lambda i, j: (i + j) % 3 != 0, alphabet_size=alphabet_size)
        naive = bool(word) and all(
            s >= 1 and (alphabet_size is None or s <= alphabet_size) for s in word
        ) and all(spec.allowed(a, b) for a, b in zip(word, word[1:]))
        assert is_admissible(spec, word) == naive
        assert is_admissible(spec, iter(word)) == naive

    @pytest.mark.parametrize("word, expected", [
        ((0,), False), ((-1,), False), ((1, 0), False), ((-1, 1), False),
        ((4,), True), ((5,), False), ((1, 4), True), ((4, 5), False), ((1,), True),
    ])
    def test_alphabet_bounds(self, word, expected):
        spec = ShiftSpec("four", lambda i, j: True, alphabet_size=4)
        assert is_admissible(spec, word) is expected

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

    @pytest.mark.parametrize("name", sorted(KERNEL_SHIFTS))
    @pytest.mark.parametrize("i", [0, -1, -3])
    def test_a_non_symbol_has_the_empty_row(self, name, i):
        # no symbol lies below 1, so its row is empty and surely ends,
        # whatever the hint would say (star's and renewal's name the
        # row of 1 for every i != 1)
        spec = KERNEL_SHIFTS[name]
        assert successors(spec, i, 50) == ([], False)
        tail = []
        assert list(successor_iter(spec, i, 50, tail)) == [] and tail == [False]

    @pytest.mark.parametrize("name", ["full", "star", "renewal"])
    def test_non_symbols_connect_to_nothing(self, name):
        spec = parse_shift_arg(name)
        assert connect(spec, 0, 5, 8, 100) is None
        assert connect(spec, -3, 1, 8, 100) is None
        assert connect(spec, 1, 0, 8, 100) is None
        assert enumerate_loops(spec, 0, 3, 10, 20) == ([], False)

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

    def test_reads_rows_only_up_to_the_target(self):
        # the star's root row, counted: reading it up to the symbol cap
        # would pass 10^4 symbols long before 10^8
        read = [0]

        def hint(i):
            if i != 1:
                yield 1
                return
            for j in itertools.count(1):
                read[0] += 1
                if read[0] > 10_000:
                    raise AssertionError("root row read past 10^4 symbols")
                yield j

        spec = ShiftSpec("counted-star", lambda i, j: i == 1 or j == 1, successors_hint=hint)
        assert connect(spec, 4, 9, 8, 10**8) == (4, 1, 9)
        assert read[0] == 9

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


class TestLoopCapsBelowOne:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_enumerate_loops_rejects(self, ff3, n, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            enumerate_loops(ff3, 1, n, cap, 10)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_probe_rejects(self, ff3, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            f_property_probe(ff3, 1, 3, cap, 10)

    def test_cap_one_still_counts_one(self, ff3):
        assert enumerate_loops(ff3, 1, 3, 1, 10) == ([(1, 1, 1)], True)
        probe = f_property_probe(ff3, 1, 3, 1, 10)
        assert (probe.count, probe.exhausted) == (1, False)


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


class TestLoopFamilyLock:
    """A loop family's block table grows on demand and is shared by every
    caller of one spec; its `RLock` is the library's one lock."""

    # descending, so that each thread's first call grows the table from
    # its three initial entries to loop length 146 in one go
    SYMBOLS = range(10**6, 0, -5000)

    @staticmethod
    def answers(spec, symbols):
        decode = spec.allowed.__self__.decode
        return [
            (decode(s), spec.allowed(1, s), spec.allowed(s, s + 1), spec.allowed(s, 1))
            for s in symbols
        ]

    def test_threads_sharing_a_fresh_spec_agree_with_one_thread(self):
        oracle = self.answers(loop_family_shift(lambda n: n), self.SYMBOLS)
        # eight threads grow one fresh table at once, under a short switch
        # interval; without the lock about half of these rounds interleave
        # two extensions and misread symbols
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                spec = loop_family_shift(lambda n: n)
                start = threading.Barrier(8)
                got = {}

                def ask(k):
                    start.wait()
                    got[k] = self.answers(spec, self.SYMBOLS)

                threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert all(got[k] == oracle for k in range(8))
        finally:
            sys.setswitchinterval(interval)


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


class TestRowKernelDifferential:
    @given(
        name=st.sampled_from(sorted(KERNEL_SHIFTS)),
        i=st.integers(min_value=1, max_value=9),
        delta=st.integers(min_value=-2, max_value=2),
        free_cap=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_and_continuation_match_the_former_readers(self, name, i, delta, free_cap):
        spec = KERNEL_SHIFTS[name]
        # caps below, at and above the row's end, where it has one
        row, more = oracle_successors(spec, i, 60)
        cap = max(1, (row[-1] if row else 0) + delta) if not more else free_cap
        expected = oracle_successors(spec, i, cap)[0]
        cont = oracle_row_continues_beyond(spec, i, cap)
        assert successors(spec, i, cap) == (expected, cont)
        assert (cont is not False) == oracle_successors(spec, i, cap)[1]
        tail = []
        assert list(successor_iter(spec, i, cap, tail)) == expected
        assert tail == [cont]
        assert list(successor_iter(spec, i, cap)) == list(oracle_successor_iter(spec, i, cap))

    def test_a_consumer_that_stops_early_gets_no_answer(self, full):
        tail = []
        it = successor_iter(full, 1, 10, tail)
        assert next(it) == 1
        assert tail == []
        assert list(it) == list(range(2, 11)) and tail == [True]

    @pytest.mark.parametrize("i", [-2, 0, 5, 7])
    @pytest.mark.parametrize("cap", [3, 9])
    def test_a_symbol_outside_the_alphabet_has_an_empty_ended_row(self, monkeypatch, i, cap):
        asked = []
        is_allowed = ShiftSpec.is_allowed
        monkeypatch.setattr(
            ShiftSpec, "is_allowed", lambda spec, a, b: asked.append((a, b)) or is_allowed(spec, a, b)
        )
        spec = ShiftSpec("h", lambda i, j: True, alphabet_size=4)
        assert successors(spec, i, cap) == ([], False)
        assert asked == []

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_rejected(self, full, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            successors(full, 1, cap)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            next(successor_iter(full, 1, cap))

    def test_hint_must_increase_strictly(self):
        spec = ShiftSpec("bad", lambda i, j: True, successors_hint=lambda i: iter((1, 3, 3, 9)))
        with pytest.raises(ValueError, match="not strictly increasing"):
            successors(spec, 1, 5)
        with pytest.raises(ValueError, match="not strictly increasing"):
            list(successor_iter(spec, 1, 5))
        # the check reads no further than the cap
        assert successors(spec, 1, 2) == ([1], True)

    def test_check_shift_counts_only_rows_that_surely_end(self):
        def allowed(i, j):
            return i != 2

        assert check_shift(ShiftSpec("gap", allowed), 3, 10).empty_rows == ()
        closed = ShiftSpec("gap-3", allowed, alphabet_size=3)
        assert check_shift(closed, 3, 10).empty_rows == (2,)

    @given(
        name=st.sampled_from(sorted(KERNEL_SHIFTS)),
        a=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=4),
        cap=st.integers(min_value=1, max_value=40),
        symbol_cap=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_loops_match_the_former_dfs(self, name, a, n, cap, symbol_cap):
        spec = KERNEL_SHIFTS[name]
        assert enumerate_loops(spec, a, n, cap, symbol_cap) == oracle_enumerate_loops(
            spec, a, n, cap, symbol_cap
        )

    @given(
        name=st.sampled_from(sorted(KERNEL_SHIFTS)),
        i=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=2, max_value=5),
        cap=st.integers(min_value=1, max_value=40),
        symbol_cap=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_probe_matches_the_former_dfs(self, name, i, n, cap, symbol_cap):
        spec = KERNEL_SHIFTS[name]
        new = f_property_probe(spec, i, n, cap, symbol_cap)
        old = oracle_f_property_probe(spec, i, n, cap, symbol_cap)
        assert (new.count, new.exhausted, new.is_finite, new.cap, new.symbol_cap) == (
            old.count, old.exhausted, old.is_finite, old.cap, old.symbol_cap
        )
        if new.exhausted:
            assert new == old
        else:
            # rows read only in part before the cap stopped the probe
            # have not reported, so only the rows read through can
            # withdraw the certificate
            assert new.certified >= old.certified


# sparse row lists on a few symbols: the loop DFS meets the same
# (symbol, positions left) subtree many times, so its failure memo fires
ROW_LISTS = st.dictionaries(
    st.integers(1, 5), st.sets(st.integers(1, 5), max_size=3), min_size=1
).map(lambda rows: load_shift_text(
    "".join(f"{i}: {' '.join(map(str, sorted(r)))}\n" for i, r in rows.items())
))
MEMO_SHIFTS = st.one_of(
    st.sampled_from([make_builtin("renewal"), make_builtin("star")]), ROW_LISTS
)


class TestLoopMemoDifferential:
    @given(
        spec=MEMO_SHIFTS,
        a=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=10),
        cap=st.integers(min_value=1, max_value=300),
        symbol_cap=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_loops_match_the_former_dfs(self, spec, a, n, cap, symbol_cap):
        assert enumerate_loops(spec, a, n, cap, symbol_cap) == oracle_enumerate_loops(
            spec, a, n, cap, symbol_cap
        )

    @given(
        spec=MEMO_SHIFTS,
        i=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=2, max_value=10),
        cap=st.integers(min_value=1, max_value=300),
        symbol_cap=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_probe_matches_the_former_dfs(self, spec, i, n, cap, symbol_cap):
        new = f_property_probe(spec, i, n, cap, symbol_cap)
        old = oracle_f_property_probe(spec, i, n, cap, symbol_cap)
        assert (new.count, new.exhausted, new.is_finite) == (
            old.count, old.exhausted, old.is_finite
        )
        if new.exhausted:
            assert new == old
        # against the lazy DFS without the memo, also `certified` after
        # an early stop: a subtree skipped by the memo was read through
        tail = []
        words = oracle_loop_words(spec, i, n, symbol_cap, lambda x: x == i, tail)
        count = sum(1 for _ in itertools.islice(words, cap))
        assert new.certified == all(t is False for t in tail)
        assert new.count == count

    @given(
        spec=MEMO_SHIFTS,
        a=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=10),
        symbol_cap=st.integers(min_value=1, max_value=60),
        stop=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_prefix_reads_no_more_rows(self, spec, a, n, symbol_cap, stop):
        # a consumer that stops after `stop` words sees the former words
        # and starts no row the former search did not start
        def last(x):
            return spec.is_allowed(x, a)

        new_spec, new_reads = counted(spec)
        old_spec, old_reads = counted(spec)
        new = list(itertools.islice(_loop_words(new_spec, a, n, symbol_cap, last), stop))
        old = list(itertools.islice(oracle_loop_words(old_spec, a, n, symbol_cap, last), stop))
        assert new == old
        assert sum(new_reads.values()) <= sum(old_reads.values())
        assert new_reads.keys() <= old_reads.keys()


class TestSearchCosts:
    def test_renewal_loops_read_few_rows(self):
        # 256 loops; without the memo the search read 7 501 rows
        spec, reads = counted(make_builtin("renewal"))
        loops, saturated = enumerate_loops(spec, 1, 9, 400, 60)
        assert len(loops) == 256 and not saturated
        assert sum(reads.values()) <= 1000
