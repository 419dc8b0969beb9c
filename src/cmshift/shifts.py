"""Countable Markov shifts presented as lazy transition oracles.

A shift is a 0/1 transition rule over the positive-integer alphabet.
Rows may be infinite, so every search in this module carries explicit
caps (symbol bound, length bound, node budget) and reports truncation
rather than assuming it away.  Every row is read through one lazy
kernel, `successor_iter`, which also says whether the row goes on past
its cap, and every loop search is one depth-first search over it.
Words are plain tuples of positive integers; a cylinder is identified
with its defining word.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping

from ._record import record

__all__ = [
    "Word",
    "ShiftSpec",
    "SearchCaps",
    "ProbeResult",
    "is_admissible",
    "successor_iter",
    "successors",
    "connect",
    "enumerate_loops",
    "f_property_probe",
    "make_builtin",
    "parse_shift_arg",
    "load_shift_text",
    "check_shift",
    "full_shift",
    "finite_full_shift",
    "star_shift",
    "renewal_shift",
    "loop_family_shift",
]

Word = tuple[int, ...]


@record(eq=False)
class ShiftSpec:
    """A countable Markov shift given by a transition oracle.

    `allowed` must be a pure predicate.  `successors_hint`, when present,
    enumerates the row of a symbol in strictly increasing order; finite
    hints certify that the row ends, which is what lets searches report
    exact (rather than truncated) answers.  Only `successor_iter` reads
    the hint, and it checks the order.  `interior_path_hint` is an
    optional structural shortcut used by escape constructions; anything
    it returns is re-verified against `allowed` before use.
    """

    name: str
    allowed: Callable[[int, int], bool]
    successors_hint: Callable[[int], Iterator[int]] | None = None
    symbol_cap_default: int = 64
    alphabet_size: int | None = None
    transitive_declared: bool = False
    interior_path_hint: Callable[[int, int, int], Word | None] | None = None

    def is_allowed(self, i: int, j: int) -> bool:
        if i < 1 or j < 1:
            return False
        if self.alphabet_size is not None and (i > self.alphabet_size or j > self.alphabet_size):
            return False
        return bool(self.allowed(i, j))


@record
class SearchCaps:
    """Explicit resource bounds for semi-decidable searches."""

    symbol_cap: int = 10_000
    connect_max_len: int = 32
    max_nodes: int = 500_000


def is_admissible(spec: ShiftSpec, symbols: Iterable[int]) -> bool:
    """True when every symbol is in the alphabet and every transition allowed.

    `allowed` is pure, so each distinct transition is asked once, in
    first-occurrence order: a word of n symbols over t distinct
    transitions costs t oracle calls, not n - 1.
    """
    word = tuple(symbols)
    if not word or min(word) < 1:
        return False
    if spec.alphabet_size is not None and max(word) > spec.alphabet_size:
        return False
    return all(spec.is_allowed(a, b) for a, b in dict.fromkeys(zip(word, word[1:])))


def successor_iter(
    spec: ShiftSpec, i: int, cap: int, tail: list[bool | None] | None = None
) -> Iterator[int]:
    """Lazily yield the row of `i` up to `cap`, ascending.

    This is the one reader of `successors_hint`, and it raises
    ValueError when a hint is not strictly increasing or `cap` < 1.  A
    consumer that reads the row to its end and passes a `tail` list gets
    the row's continuation appended to it: True or False when certain
    that the row goes on past `cap`, None when the oracle cannot tell
    (no hint, and the alphabet is not known to end at or below `cap`).
    A consumer that stops early gets no answer.  No symbol lies below 1,
    so the row of such an `i` is empty and ends (the hint is not read);
    without a hint, so does the row of an `i` above a finite alphabet.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    hint = spec.successors_hint
    size = spec.alphabet_size
    if i < 1 or (hint is None and size is not None and i > size):
        more = False
    elif hint is None:
        for j in range(1, cap + 1):
            if spec.is_allowed(i, j):
                yield j
        more = None if size is None or size > cap else False
    else:
        prev, more = 0, False
        for j in hint(i):
            if j <= prev:
                raise ValueError(f"successors_hint for {i} is not strictly increasing")
            if j > cap:
                more = True
                break
            prev = j
            yield j
    if tail is not None:
        tail.append(more)


def successors(spec: ShiftSpec, i: int, cap: int) -> tuple[list[int], bool | None]:
    """Eager view of `successor_iter`: the row of `i` up to `cap` and
    its continuation past `cap` (True, False, or None for unknown)."""
    tail: list[bool | None] = []
    return list(successor_iter(spec, i, cap, tail)), tail[0]


def connect(
    spec: ShiftSpec,
    a: int,
    b: int,
    max_len: int,
    symbol_cap: int,
    min_len: int = 1,
) -> Word | None:
    """Shortest admissible word from `a` to `b` within the caps.

    Breadth-first over symbols <= symbol_cap; among shortest words the
    lexicographically least is returned.  Rows are read lazily and the
    search returns at the first `b`, so a huge `symbol_cap` costs
    nothing when `b` comes early in a row.  Absence is a value: the caps
    may simply be too small, and transitivity is never assumed.
    """
    if max_len < 1 or min_len > max_len:
        return None
    if min_len > 2:
        raise ValueError("min_len beyond 2 is not supported")
    if a == b and min_len <= 1:
        return (a,)
    parents: list[tuple[int, int]] = [(a, -1)]
    visited = {a}
    frontier = deque([0])
    length = 1
    while frontier and length < max_len:
        next_frontier: deque[int] = deque()
        while frontier:
            idx = frontier.popleft()
            for j in successor_iter(spec, parents[idx][0], symbol_cap):
                if j == b:
                    path = [b]
                    cur = idx
                    while cur != -1:
                        path.append(parents[cur][0])
                        cur = parents[cur][1]
                    return tuple(reversed(path))
                if j not in visited:
                    visited.add(j)
                    parents.append((j, idx))
                    next_frontier.append(len(parents) - 1)
        frontier = next_frontier
        length += 1
    return None


def _loop_words(
    spec: ShiftSpec,
    a: int,
    n: int,
    symbol_cap: int,
    last: Callable[[int], bool],
    tail: list[bool | None] | None = None,
) -> Iterator[Word]:
    """Admissible words (a, x2, ..., xn) with last(xn), lexicographically.

    One depth-first search serves every loop count: rows are read
    lazily up to `symbol_cap`, so a consumer that stops after k words
    reads no row further than those words need.  Each row read to its
    end appends its continuation to `tail` (see `successor_iter`).

    A failure memo keeps the search in proportion to its output: once
    the subtree below symbol s with r positions left is exhausted with
    no word yielded, (s, r) is recorded and never entered again, since
    the same rows and the same `last` give the same empty subtree.  Its
    rows were read to their end that first time, so `tail` already
    holds their continuations.
    """
    if n == 1:
        if last(a):
            yield (a,)
        return
    prefix = [a]
    rows = [successor_iter(spec, a, symbol_cap, tail)]  # rows[k] proposes x_{k+2}
    marks = [0]  # words yielded before each row was entered
    failed: set[tuple[int, int]] = set()  # (symbol, positions left after it)
    found = 0
    while rows:
        left = n - len(prefix) - 1  # positions left after the proposed symbol
        for j in rows[-1]:
            if left == 0:
                if last(j):
                    found += 1
                    yield (*prefix, j)
            elif (j, left) not in failed:
                prefix.append(j)
                rows.append(successor_iter(spec, j, symbol_cap, tail))
                marks.append(found)
                break
        else:
            rows.pop()
            if marks.pop() == found:
                failed.add((prefix[-1], n - len(prefix)))
            prefix.pop()


def enumerate_loops(
    spec: ShiftSpec, a: int, n: int, cap: int, symbol_cap: int
) -> tuple[list[Word], bool]:
    """Admissible words (a, x2, ..., xn) with allowed(xn, a), up to `cap`
    items, and whether `cap` was reached."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    words = _loop_words(spec, a, n, symbol_cap, lambda x: spec.is_allowed(x, a))
    found = list(itertools.islice(words, cap))
    return found, len(found) == cap


@record
class ProbeResult:
    """Truncation-relative count of words of a given length from i to i."""

    count: int
    exhausted: bool
    certified: bool
    cap: int
    symbol_cap: int

    @property
    def is_finite(self) -> bool:
        return self.exhausted and self.certified

    @property
    def is_at_least(self) -> bool:
        return not self.is_finite

    def describe(self) -> str:
        if self.is_finite:
            return f"FiniteCount({self.count})"
        return f"AtLeast({self.count})"


def f_property_probe(
    spec: ShiftSpec, i: int, n: int, cap: int, symbol_cap: int
) -> ProbeResult:
    """Count admissible words of length n starting and ending at i.

    A finite answer is claimed only when the enumeration exhausted with
    every visited row certified finite below symbol_cap; otherwise the
    count is a lower bound (evidence against finiteness once it reaches
    `cap`).  A probe that stops at `cap` leaves the rows it read only in
    part unreported, so `certified` then speaks for the rows read to
    their end; `count`, `exhausted` and `is_finite` do not depend on it.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    tail: list[bool | None] = []
    words = _loop_words(spec, i, n, symbol_cap, lambda x: x == i, tail)
    count = sum(1 for _ in itertools.islice(words, cap))
    certified = all(t is False for t in tail)
    return ProbeResult(count, count < cap, certified, cap, symbol_cap)


# ---------------------------------------------------------------------------
# built-in shift gallery


def full_shift() -> ShiftSpec:
    return ShiftSpec(
        name="full",
        allowed=lambda i, j: True,
        successors_hint=lambda i: itertools.count(1),
        transitive_declared=True,
    )


def finite_full_shift(m: int) -> ShiftSpec:
    if m < 1:
        raise ValueError("alphabet size must be positive")
    return ShiftSpec(
        name=f"finite_full:{m}",
        allowed=lambda i, j: i <= m and j <= m,
        successors_hint=lambda i: iter(range(1, m + 1)) if i <= m else iter(()),
        alphabet_size=m,
        transitive_declared=True,
    )


def star_shift() -> ShiftSpec:
    """Edges 1 <-> k for every k (and the self-loop at 1)."""
    return ShiftSpec(
        name="star",
        allowed=lambda i, j: i == 1 or j == 1,
        successors_hint=lambda i: itertools.count(1) if i == 1 else iter((1,)),
        transitive_declared=True,
    )


def renewal_shift() -> ShiftSpec:
    """Edges 1 -> j for every j and i -> i-1 for i >= 2."""
    return ShiftSpec(
        name="renewal",
        allowed=lambda i, j: i == 1 or j == i - 1,
        successors_hint=lambda i: itertools.count(1) if i == 1 else iter((i - 1,)),
        transitive_declared=True,
    )


class _LoopFamily:
    """Graph of `count(n)` simple loops of n edges rooted at symbol 1.

    Loop intermediates get consecutive symbols, so each loop's interior
    is a contiguous chain; symbols decode to (loop length, loop index,
    position) by bisection over lazily extended block bases.
    """

    def __init__(self, count: Callable[[int], int], max_len: int | None):
        self._count = count
        self._max_len = max_len  # largest n with count(n) > 0, if known
        self._bases = [0, 0, 2]  # _bases[n] = first intermediate symbol for length-n loops (n >= 2)
        self._top = 2
        # the lazy block table is shared state; `decode` holds the lock
        # across its reads and calls `base`, hence re-entrant
        self._grow = threading.RLock()

    def count(self, n: int) -> int:
        if n < 1 or (self._max_len is not None and n > self._max_len):
            return 0
        return max(0, int(self._count(n)))

    def base(self, n: int) -> int:
        if n < 2:
            raise ValueError("loop lengths with intermediates start at 2")
        if self._top < n:
            with self._grow:
                while self._top < n:
                    self._bases.append(
                        self._bases[self._top] + self.count(self._top) * (self._top - 1)
                    )
                    self._top += 1
        return self._bases[n]

    def decode(self, s: int) -> tuple[int, int, int] | None:
        """(n, j, pos) for an intermediate symbol, None if not in the graph."""
        if s < 2:
            return None
        with self._grow:
            flat = 0  # consecutive zero-count extensions; bail on a dead tail
            while self._bases[self._top] <= s:
                if self._max_len is not None and self._top > self._max_len:
                    break
                before = self._bases[self._top]
                self.base(self._top + 1)
                flat = flat + 1 if self._bases[self._top] == before else 0
                if flat > 100_000:
                    return None
            n = bisect_right(self._bases, s, lo=2, hi=self._top + 1) - 1
            if n < 2:
                return None
            lo = self._bases[n]
        if s >= lo + self.count(n) * (n - 1):
            return None
        off = s - lo
        return n, off // (n - 1) + 1, off % (n - 1) + 1

    def allowed(self, i: int, j: int) -> bool:
        if i == 1:
            if j == 1:
                return self.count(1) >= 1
            dec = self.decode(j)
            return dec is not None and dec[2] == 1
        dec = self.decode(i)
        if dec is None:
            return False
        n, _, pos = dec
        if pos < n - 1:
            return j == i + 1
        return j == 1

    def root_successors(self) -> Iterator[int]:
        if self.count(1) >= 1:
            yield 1
        n = 2
        while True:
            if self._max_len is not None and n > self._max_len:
                return
            b = self.base(n)
            for j in range(self.count(n)):
                yield b + j * (n - 1)
            n += 1

    def successors(self, i: int) -> Iterator[int]:
        if i == 1:
            return self.root_successors()
        dec = self.decode(i)
        if dec is None:
            return iter(())
        n, _, pos = dec
        return iter((i + 1,)) if pos < n - 1 else iter((1,))

    def interior_path(self, k: int, min_interior: int, symbol_cap: int) -> Word | None:
        """Word (1, chain, 1) whose interior avoids symbols <= k.

        A length-n chain starts at or above max(base(n), k + 1) and spans
        n - 1 symbols; both grow with n, so once that span passes
        `symbol_cap` no longer chain fits either.
        """
        n = max(2, min_interior + 1)
        for _ in range(200_000):
            if self._max_len is not None and n > self._max_len:
                return None
            b = self.base(n)
            if max(b, k + 1) + n - 2 > symbol_cap:
                return None
            c = self.count(n)
            if c:
                j = 1
                if b < k + 1:
                    j = 1 + -(-(k + 1 - b) // (n - 1))
                if j <= c:
                    start = b + (j - 1) * (n - 1)
                    if start + n - 2 <= symbol_cap:
                        return (1, *range(start, start + n - 1), 1)
            n += 1
        return None

    def alphabet_size(self) -> int | None:
        if self._max_len is None:
            return None
        return self.base(self._max_len) + self.count(self._max_len) * (self._max_len - 1) - 1


def loop_family_shift(
    counts: Mapping[int, int] | Callable[[int], int], name: str = "loop_family"
) -> ShiftSpec:
    if isinstance(counts, Mapping):
        table = {int(n): int(c) for n, c in counts.items() if c > 0}
        max_len = max(table, default=0)
        fam = _LoopFamily(lambda n: table.get(n, 0), max_len if max_len else 1)
    else:
        fam = _LoopFamily(counts, None)
    return ShiftSpec(
        name=name,
        allowed=fam.allowed,
        successors_hint=fam.successors,
        alphabet_size=fam.alphabet_size(),
        transitive_declared=True,
        interior_path_hint=fam.interior_path,
    )


_LOOP_COUNT_FAMILIES: dict[str, Callable[[int], int]] = {
    "linear": lambda n: n,
    "quadratic-exponential": lambda n: 2 ** (n * n),
}


def make_builtin(name: str, **params) -> ShiftSpec:
    """Built-in gallery: full, finite_full(m), star, renewal, loop_family."""
    if name == "full":
        return full_shift()
    if name == "finite_full":
        return finite_full_shift(int(params["m"]))
    if name == "star":
        return star_shift()
    if name == "renewal":
        return renewal_shift()
    if name == "loop_family":
        counts = params["counts"]
        if isinstance(counts, str):
            try:
                counts = _LOOP_COUNT_FAMILIES[counts]
            except KeyError:
                raise ValueError(f"unknown loop count family: {counts!r}") from None
        return loop_family_shift(counts)
    raise ValueError(f"unknown built-in shift: {name!r}")


def parse_shift_arg(text: str) -> ShiftSpec:
    """CLI shift reference: e.g. 'full', 'finite_full:3', 'loop_family:linear'."""
    name, _, arg = text.partition(":")
    if name == "finite_full":
        return make_builtin(name, m=int(arg))
    if name == "loop_family":
        return make_builtin(name, counts=arg or "linear")
    return make_builtin(name)


def load_shift_text(text: str, name: str = "user") -> ShiftSpec:
    """Parse the row-list format: one 'i: j1 j2 ...' line per symbol.

    An optional 'default full' line makes unlisted rows full; otherwise
    the alphabet ends at the largest symbol mentioned.
    """
    rows: dict[int, tuple[int, ...]] = {}
    default_full = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("default"):
            mode = line.split()[-1].lower()
            if mode == "full":
                default_full = True
            elif mode != "none":
                raise ValueError(f"unknown default rule: {line!r}")
            continue
        head, _, tail = line.partition(":")
        i = int(head)
        row = tuple(sorted({int(t) for t in tail.split()}))
        if i < 1 or any(j < 1 for j in row):
            raise ValueError("symbols must be positive integers")
        rows[i] = row
    if not rows and not default_full:
        raise ValueError("no rows given")
    top = max([i for i in rows] + [j for r in rows.values() for j in r], default=0)

    if default_full:
        def hint(i: int) -> Iterator[int]:
            return iter(rows[i]) if i in rows else itertools.count(1)

        def allowed(i: int, j: int) -> bool:
            return j in rows[i] if i in rows else True

        alphabet = None
    else:
        def hint(i: int) -> Iterator[int]:
            return iter(rows.get(i, ()))

        def allowed(i: int, j: int) -> bool:
            return j in rows.get(i, ())

        alphabet = top
    return ShiftSpec(
        name=name,
        allowed=allowed,
        successors_hint=hint,
        alphabet_size=alphabet,
    )


@record
class ShiftCheckReport:
    """Best-effort structural probe of a shift up to explicit truncation."""

    horizon: int
    symbol_cap: int
    empty_rows: tuple[int, ...]
    empty_columns: tuple[int, ...]
    reachable_from_one: tuple[int, ...]
    reachability_complete: bool
    transitive_declared: bool

    @property
    def ok(self) -> bool:
        return not self.empty_rows and not self.empty_columns

    def to_jsonable(self) -> dict:
        return {
            "horizon": self.horizon,
            "symbol_cap": self.symbol_cap,
            "empty_rows": list(self.empty_rows),
            "empty_columns": list(self.empty_columns),
            "reachable_from_one": list(self.reachable_from_one),
            "reachability_complete": self.reachability_complete,
            "transitive_declared": self.transitive_declared,
            "ok_up_to_truncation": self.ok,
        }


def check_shift(spec: ShiftSpec, horizon: int, symbol_cap: int) -> ShiftCheckReport:
    """No-empty-row/column and reachability probes, truncation-relative."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    top = horizon if spec.alphabet_size is None else min(horizon, spec.alphabet_size)
    empty_rows = []
    empty_cols = []
    for i in range(1, top + 1):
        row, more = successors(spec, i, symbol_cap)
        if not row and more is False:
            empty_rows.append(i)
    for j in range(1, top + 1):
        if not any(spec.is_allowed(i, j) for i in range(1, symbol_cap + 1)):
            empty_cols.append(j)
    seen = {1}
    frontier = [1]
    budget = 50_000
    while frontier and budget > 0:
        nxt = []
        for i in frontier:
            for j in successor_iter(spec, i, symbol_cap):
                budget -= 1
                if j <= top and j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    reachable = tuple(sorted(s for s in seen if s <= top))
    return ShiftCheckReport(
        horizon=horizon,
        symbol_cap=symbol_cap,
        empty_rows=tuple(empty_rows),
        empty_columns=tuple(empty_cols),
        reachable_from_one=reachable,
        reachability_complete=len(reachable) == top,
        transitive_declared=spec.transitive_declared,
    )
