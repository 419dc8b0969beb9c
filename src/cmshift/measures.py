"""Invariant measures from periodic orbits, with exact rational masses.

Everything in this module is exact: cylinder masses are occurrence
counts over a cycle divided by its period, invariance defects are
computed (not estimated) and must be zero, and the metric for the
topology of convergence on cylinders is returned as an exact bracket
(partial sum, partial sum + tail bound) over a fixed canonical
enumeration of admissible cylinders.

Every mass comes from one kernel, `_window_numerators`: one window
count per orbit and word length, scaled to integer numerators over
one common denominator.  Single cylinders, support tables, invariance
defects, test-function integrals and the metric brackets all read it.
"""

from __future__ import annotations

import itertools
import math
import threading
import warnings
import weakref
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .shifts import (
    ShiftSpec,
    Word,
    is_admissible,
    successors,
)

__all__ = [
    "PeriodicOrbit",
    "PeriodicMeasure",
    "RunWord",
    "ConvexCombination",
    "CylinderFunction",
    "TestFunction",
    "InadmissibleWordError",
    "SymbolCapError",
    "UnrepresentedCylinderError",
    "TailInteractionError",
    "periodic_orbit",
    "measure_from_cycle",
    "fixed_point_measure",
    "convex_combination",
    "measure_of_cylinder",
    "combo_of_cylinder",
    "support_numerators",
    "support_table",
    "invariance_check",
    "canonical_cylinders",
    "metric_d",
    "indicator",
    "integrate_test_function",
    "c0_conditions_check",
    "additivity_defect",
    "canonical_cylinder_iter",
    "InvarianceReport",
    "C0Report",
    "combo_to_jsonable",
    "parse_combo_text",
]


class InadmissibleWordError(ValueError):
    """A word violates the transition rule of its shift."""


class SymbolCapError(ValueError):
    """A symbol cap does not cover the symbols the operation must see."""


class UnrepresentedCylinderError(LookupError):
    """A cylinder table was queried outside its represented envelope."""

    def __init__(self, word: Word, index: int | None = None):
        self.word = word
        self.index = index
        where = f" (canonical index {index})" if index is not None else ""
        super().__init__(f"cylinder {word} not represented{where}")


class TailInteractionError(ValueError):
    """A test-function tail overlaps the support of the measure."""


# ---------------------------------------------------------------------------
# periodic orbits and their measures


@dataclass(frozen=True)
class PeriodicOrbit:
    """A primitive admissible cycle; build through `periodic_orbit`."""

    cycle: Word

    @property
    def period(self) -> int:
        return len(self.cycle)

    @property
    def symbols(self) -> frozenset[int]:
        return frozenset(self.cycle)


def _primitive_root(word: Word) -> Word:
    """The shortest u with word = u * (len(word) // len(u)).

    The periods of a word that divide its length n are the divisors of n
    that its primitive period divides.  So from d = n each prime p of n
    is divided out of d while d/p is still a period, one C-level slice
    comparison per step: O(n log n) whatever the divisors of n are.
    """
    n = len(word)
    d, rest, p = n, n, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # the last prime factor
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while d % p == 0 and word[d // p :] == word[: n - d // p]:
                d //= p
        p += 1
    return word[:d]


def periodic_orbit(spec: ShiftSpec, symbols: Iterable[int]) -> PeriodicOrbit:
    word = tuple(map(int, symbols))
    if not word:
        raise InadmissibleWordError("empty cycle")
    if not is_admissible(spec, word):
        raise InadmissibleWordError(f"word {word} is not admissible for {spec.name}")
    if not spec.is_allowed(word[-1], word[0]):
        raise InadmissibleWordError(f"cycle {word} does not close up")
    return _primitive_orbit(word)


def _primitive_orbit(word: Word) -> PeriodicOrbit:
    """The orbit of an admissible closed cycle, reduced to its primitive
    root with a warning; the caller has checked the cycle."""
    root = _primitive_root(word)
    if len(root) < len(word):
        warnings.warn(
            f"cycle {word} is a power of {root}; reduced to its primitive root",
            stacklevel=3,
        )
    return PeriodicOrbit(root)


@dataclass(frozen=True)
class PeriodicMeasure:
    """The invariant probability equidistributed on a periodic orbit."""

    orbit: PeriodicOrbit

    @property
    def period(self) -> int:
        return self.orbit.period


def measure_from_cycle(spec: ShiftSpec, symbols: Iterable[int]) -> PeriodicMeasure:
    return PeriodicMeasure(periodic_orbit(spec, symbols))


def fixed_point_measure(spec: ShiftSpec, symbol: int) -> PeriodicMeasure:
    return measure_from_cycle(spec, (symbol,))


@dataclass(frozen=True)
class RunWord:
    """The cyclic word s_1^r_1 s_2^r_2 ... held as its runs
    ((s_1, r_1), (s_2, r_2), ...): nonempty segments, repeats >= 1.

    Window counts (`_run_window_counts`), and with them cylinder masses
    and Birkhoff sums, read the runs and never build the word.
    """

    runs: tuple[tuple[Word, int], ...]

    @property
    def period(self) -> int:
        return sum(len(s) * r for s, r in self.runs)


def _cyclic_window_counts(
    cycle: Word, length: int, follow: Word | None = None
) -> Counter[Word]:
    """How often each word of `length` symbols is read from a start j in
    [0, period), keyed in first-occurrence order.

    Reading runs on past the end of the cycle into `follow` (at least
    length - 1 symbols), by default into the cycle itself, cyclically.
    One C-level count over `length` shifted slices of that extension:
    O(period * length) whatever the symbols are.
    """
    T = len(cycle)
    ext = cycle * ((length - 1) // T + 2) if follow is None else cycle + follow
    return Counter(zip(*[ext[i : i + T] for i in range(length)]))


def _next_symbols(runs: tuple[tuple[Word, int], ...], i: int, n: int) -> Word:
    """The n symbols that follow run i of a cyclic run word, wrapping
    around the word as often as n asks for."""
    out: list[int] = []
    while len(out) < n:
        i = (i + 1) % len(runs)
        seg, r = runs[i]
        out.extend(seg * min(r, -(-(n - len(out)) // len(seg))))
    return tuple(out[:n])


def _run_window_counts(
    runs: tuple[tuple[Word, int], ...], length: int
) -> Counter[Word]:
    """`_cyclic_window_counts` of the word of a `RunWord`, with the same
    counts in the same key order, from its runs.

    Let m = min(r, ceil((length - 1) / |s|)) for a run s^r.  A window
    that starts in one of its first r - m copies ends inside the run, so
    those copies read r - m times the cyclic windows of s.  The windows
    that start in the last m copies are read from s*m followed by the
    next length - 1 symbols of the word.  Keys enter in start order, as
    in the built word.  The cost is O(sum(|s| + length) * length),
    whatever the repeats are.
    """
    counts: Counter[Word] = Counter()
    for i, (seg, r) in enumerate(runs):
        m = min(r, -(-(length - 1) // len(seg)))
        if r > m:
            for w, c in _cyclic_window_counts(seg, length).items():
                counts[w] += (r - m) * c
        if m:
            follow = _next_symbols(runs, i, length - 1)
            counts.update(_cyclic_window_counts(seg * m, length, follow))
    return counts


def _window_counts(orbit: PeriodicOrbit | RunWord, length: int) -> Counter[Word]:
    """Cyclic window counts of a periodic orbit or of a run word."""
    if isinstance(orbit, RunWord):
        return _run_window_counts(orbit.runs, length)
    return _cyclic_window_counts(orbit.cycle, length)


# ---------------------------------------------------------------------------
# finite convex combinations (sub-probabilities)


@dataclass(frozen=True)
class ConvexCombination:
    """sum_j weight_j * mu_j with exact weights in (0, 1], total <= 1.

    An empty combination is the zero measure.
    """

    terms: tuple[tuple[Fraction, PeriodicMeasure], ...]

    @property
    def mass(self) -> Fraction:
        return sum((w for w, _ in self.terms), Fraction(0))

    @property
    def orbit_symbols(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for _, mu in self.terms:
            out |= mu.orbit.symbols
        return out

    def max_period(self) -> int:
        return max((mu.period for _, mu in self.terms), default=0)


def convex_combination(
    pairs: Iterable[tuple[Rational, PeriodicMeasure]]
) -> ConvexCombination:
    """Validated on integers: each weight p/q has 0 < p <= q, and the
    running sum num/den (den the lcm of the q so far) ends with num <= den."""
    terms = []
    num, den = 0, 1
    for w, mu in pairs:
        if type(w) is not Fraction:
            w = Fraction(w)
        p, q = w.numerator, w.denominator
        if not 0 < p <= q:
            raise ValueError(f"weight {w} outside (0, 1]")
        terms.append((w, mu))
        g = math.gcd(den, q)
        num, den = num * (q // g) + p * (den // g), den // g * q
    if num > den:
        raise ValueError(f"weights sum to {Fraction(num, den)} > 1")
    return ConvexCombination(tuple(terms))


# ---------------------------------------------------------------------------
# the mass kernel and its views


def _window_numerators(
    nu: ConvexCombination | PeriodicMeasure | RunWord, lengths: Iterable[int]
) -> tuple[dict[Word, int], int]:
    """The masses of all cyclic windows of the given lengths, as integer
    numerators k over one common denominator L: window w has mass
    nums[w] / L, and a word that is no window has mass 0.

    L is the lcm of weight denominator times period over the orbits.
    Each orbit is counted once per length (`_window_counts`, which reads
    a `RunWord` from its runs), and each count c becomes c * num * (L //
    den) for the orbit's weight num / den over its period.  A run word's
    masses equal those of the measure on its built word, since count /
    period does not change when a word is replaced by its primitive root.
    """
    lengths = set(lengths)
    if 0 in lengths:
        raise ValueError("cylinder words are nonempty")
    terms = nu.terms if isinstance(nu, ConvexCombination) else ((1, nu),)
    # mass of orbit j on a word: wt_j * count / period_j = num_j * count / den_j
    orbits = []
    for wt, mu in terms:
        orbit = mu if isinstance(mu, RunWord) else mu.orbit
        orbits.append((wt.numerator, wt.denominator * orbit.period, orbit))
    L = math.lcm(*(den for _, den, _ in orbits))
    nums: dict[Word, int] = {}
    for r in lengths:  # words of different lengths never collide
        row: dict[Word, int] = {}
        for num, den, orbit in orbits:
            scale = num * (L // den)
            counts = _window_counts(orbit, r)
            if row:
                for w, c in counts.items():
                    row[w] = row.get(w, 0) + c * scale
            else:  # the first orbit needs no merge
                row = counts if scale == 1 else {w: c * scale for w, c in counts.items()}
        nums.update(row)
    return nums, L


def _mass_numerators(
    nu: ConvexCombination | PeriodicMeasure | RunWord, words: list[Word]
) -> tuple[list[int], int]:
    """Integer numerators k_n of the masses of the cylinders of `words`
    over one common denominator L, so that mass n is k_n / L: one
    lookup per word in `_window_numerators`."""
    nums, L = _window_numerators(nu, {len(w) for w in words})
    return [nums.get(w, 0) for w in words], L


def _one_mass(nu: ConvexCombination | PeriodicMeasure, word: Iterable[int]) -> Fraction:
    """The mass of one cylinder: the kernel at one length."""
    w = tuple(word)
    nums, L = _window_numerators(nu, (len(w),))
    return Fraction(nums.get(w, 0), L)


def measure_of_cylinder(mu: PeriodicMeasure, word: Iterable[int]) -> Fraction:
    """Exact mass of the cylinder of `word`: cyclic occurrences over period."""
    return _one_mass(mu, word)


def combo_of_cylinder(nu: ConvexCombination, word: Iterable[int]) -> Fraction:
    """Exact mass of the cylinder of `word` under a combination."""
    return _one_mass(nu, word)


def support_numerators(
    nu: ConvexCombination, depth: int, symbol_cap: int
) -> tuple[dict[Word, int], int]:
    """All cylinders of length <= depth and symbols <= symbol_cap with
    nonzero mass, in sorted word order, each with its integer numerator
    k over the combination's common denominator L (mass k / L).

    Read off the orbits directly: the windows of `_window_numerators` up
    to `depth` are every such word, so no word is searched for.
    """
    nums, L = _window_numerators(nu, range(1, depth + 1))
    words = sorted(w for w in nums if max(w) <= symbol_cap)
    return {w: nums[w] for w in words}, L


def support_table(
    nu: ConvexCombination, depth: int, symbol_cap: int
) -> dict[Word, Fraction]:
    """`support_numerators` as exact masses, in sorted word order."""
    nums, L = support_numerators(nu, depth, symbol_cap)
    return {w: Fraction(k, L) for w, k in nums.items()}


# ---------------------------------------------------------------------------
# invariance diagnostics


@dataclass(frozen=True)
class InvarianceReport:
    max_defect: Fraction
    defects: tuple[tuple[Word, Fraction], ...]  # nonzero ones only
    words_checked: int
    depth: int
    symbol_cap: int


def invariance_check(
    nu: ConvexCombination, depth: int, symbol_cap: int
) -> InvarianceReport:
    """Exact defects |nu(D) - nu(preimage of D)| over words D up to `depth`.

    The preimage of a cylinder is the union of its one-symbol extensions
    to the left, and only orbit symbols can contribute, so the sum is
    finite and exact.  Words D outside the orbits' cyclic subwords have
    defect zero structurally: an occurrence of sD contains an occurrence
    of D, so both sides vanish.  The check therefore enumerates the
    support words of length up to `depth`; the reported count covers the
    whole depth by that argument.

    Both sides come from one window count per orbit and length up to
    depth + 1 (`_window_numerators`): the preimage mass of D is the
    total mass of the windows sD, which are exactly the windows of
    length len(D) + 1 whose tail is D.  The defects are taken on the
    integer numerators, and only a nonzero one becomes a Fraction.
    """
    if not isinstance(nu, ConvexCombination):
        raise TypeError(
            "invariance is checked for measures; cylinder tables have no "
            "preimage decomposition until they extend to a measure"
        )
    if depth < 1:
        raise ValueError("depth must be >= 1")
    alphabet = sorted(nu.orbit_symbols)
    if alphabet and alphabet[-1] > symbol_cap:
        raise SymbolCapError(
            f"symbol cap {symbol_cap} misses orbit symbol {alphabet[-1]}"
        )
    nums, L = _window_numerators(nu, range(1, depth + 2))
    preimage: dict[Word, int] = {}
    for w, k in nums.items():
        if len(w) > 1:
            preimage[w[1:]] = preimage.get(w[1:], 0) + k
    support = sorted(w for w in nums if len(w) <= depth)
    defects = []
    for word in support:
        gap = abs(nums[word] - preimage.get(word, 0))
        if gap:
            defects.append((word, Fraction(gap, L)))
    max_defect = max((d for _, d in defects), default=Fraction(0))
    return InvarianceReport(
        max_defect=max_defect,
        defects=tuple(defects),
        words_checked=len(support),
        depth=depth,
        symbol_cap=symbol_cap,
    )


# ---------------------------------------------------------------------------
# canonical cylinder enumeration and the metric d


def canonical_cylinder_iter(spec: ShiftSpec) -> Iterator[Word]:
    """Admissible cylinders in canonical order.

    Order: ascending symbol sum; within a sum, shorter words first; then
    lexicographic.  This is a bijective enumeration of the admissible
    cylinders, fixed once so that metric values are reproducible.

    Words are built by extension, not filtered: dropping the first
    symbol of an admissible word leaves an admissible word, so a word
    (x, y, ...) of sum t and length r > 1 is x in front of a stored
    word (y, ...) of class (t - x, r - 1).  Each stored class keeps its
    words grouped by first symbol, and a group is taken when
    `is_allowed(x, y)`: one oracle call per (x, y) group, and no row is
    read.  Taking x ascending, then the groups by y ascending, then each
    group in stored order gives lexicographic order.  Each group is
    yielded as soon as it is built, so a consumer that stops builds
    nothing past the class in progress, and the work follows the words
    yielded.  Lengths beyond the longest word yet yielded plus one are
    skipped.  With a finite alphabet A a word of length r has sum at
    most A*r, so lengths below ceil(sum / A) are skipped too.  When that
    leaves no length at all the language is finite (no word is longer
    than the longest yielded, and all of those have smaller sums), and
    the iterator ends.  Otherwise it is infinite.

    The shift is only ever reached through `spec`, so that a weak proxy
    passed in (as `canonical_cylinders` does) stays the only reference.
    """
    top = spec.alphabet_size
    # (sum, length) -> (words in canonical order, [(first symbol, start, stop)])
    classes: dict[tuple[int, int], tuple[list[Word], list[tuple[int, int, int]]]] = {}
    longest = 0
    total = 0
    while True:
        total += 1
        shortest = 1 if top is None else -(-total // top)
        if shortest > longest + 1:
            return
        for length in range(shortest, longest + 2):
            words: list[Word] = []
            groups: list[tuple[int, int, int]] = []
            if length == 1:
                # shortest is 1 only while total <= top
                words.append((total,))
                groups.append((total, 0, 1))
                longest = max(longest, 1)
                yield words[0]
            else:
                last = total - length + 1
                if top is not None:
                    last = min(last, top)
                for x in range(1, last + 1):
                    below = classes.get((total - x, length - 1))
                    if below is None:
                        continue
                    suffixes, suffix_groups = below
                    head = (x,)
                    start = len(words)
                    for y, lo, hi in suffix_groups:
                        if spec.is_allowed(x, y):
                            group = [head + w for w in suffixes[lo:hi]]
                            words.extend(group)
                            yield from group
                    if len(words) > start:
                        groups.append((x, start, len(words)))
                        longest = max(longest, length)
            if words:
                classes[total, length] = words, groups


class _Prefix:
    """The canonical cylinders of one shift enumerated so far, and the
    enumeration that extends them."""

    __slots__ = ("words", "rest", "lock", "spec")

    def __init__(self, spec: ShiftSpec):
        # the enumeration reads the shift through a proxy: a strong
        # reference from the memo's value would keep its key alive
        self.spec = weakref.proxy(spec)
        self.words: list[Word] = []
        self.rest = canonical_cylinder_iter(self.spec)
        self.lock = threading.Lock()

    def take(self, count: int) -> list[Word]:
        with self.lock:
            missing = count - len(self.words)
            if missing > 0:
                try:
                    self.words.extend(itertools.islice(self.rest, missing))
                except BaseException:
                    # a generator that raised is spent; start over next time
                    self.words = []
                    self.rest = canonical_cylinder_iter(self.spec)
                    raise
            return self.words[:count]


_prefixes: weakref.WeakKeyDictionary[ShiftSpec, _Prefix] = weakref.WeakKeyDictionary()
_prefixes_lock = threading.Lock()


def canonical_cylinders(spec: ShiftSpec, count: int) -> list[Word]:
    """The first `count` canonical cylinders, as a new list.

    The enumeration runs once per `ShiftSpec` object: each spec has a
    prefix that grows on demand (under a lock) and is freed with the
    spec, so repeated and growing requests read what earlier ones
    generated.  Specs are told apart by identity, never by name.

    Raises ValueError when the shift has fewer admissible cylinders.
    """
    with _prefixes_lock:
        prefix = _prefixes.get(spec)
        if prefix is None:
            prefix = _prefixes[spec] = _Prefix(spec)
    words = prefix.take(count)
    if len(words) < count:
        raise ValueError(
            f"{spec.name} has only {len(words)} admissible cylinders; "
            f"{count} were asked for"
        )
    return words


def _side_numerators(obj, words: list[Word]) -> tuple[list[int], int]:
    """Values of a measure or a cylinder table on `words`, in order, as
    integer numerators over one common denominator.

    A measure's come from `_mass_numerators`.  A table is read word by
    word, and its first unrepresented word raises with its canonical
    index.
    """
    if isinstance(obj, (ConvexCombination, PeriodicMeasure)):
        return _mass_numerators(obj, words)
    if not isinstance(obj, CylinderFunction):
        raise TypeError(f"cannot evaluate cylinders of {type(obj).__name__}")
    values = []
    for n, word in enumerate(words, start=1):
        try:
            values.append(obj.value(word))
        except UnrepresentedCylinderError:
            raise UnrepresentedCylinderError(word, n) from None
    L = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def metric_d(a, b, N: int, spec: ShiftSpec) -> tuple[Fraction, Fraction]:
    """Bracket for d(a, b) = sum_n 2^-n |a(C_n) - b(C_n)|.

    The lower bound is the exact partial sum over the first N canonical
    cylinders; the upper bound adds the tail bound 2^-N.  The cylinders
    come from the shift's memoised canonical prefix, and a measure's
    masses on all N of them from the one mass kernel
    (`_window_numerators`): one window count per orbit and word length,
    as integer numerators over one lcm.  The sum runs on those integers
    (`_metric_bracket`).  Of two tables that fail, the one with the
    lower canonical index raises, `a` on a tie.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    words = canonical_cylinders(spec, N)
    sides, failures = [], []
    for obj in (a, b):
        try:
            sides.append(_side_numerators(obj, words))
        except UnrepresentedCylinderError as exc:
            failures.append(exc)
    if failures:
        raise min(failures, key=lambda exc: exc.index)
    return _metric_bracket(*sides, N)


def _dyadic_sum(terms: list[int], denominator: int) -> Fraction:
    """sum_n 2^-n t_n / denominator over the integers t_1, ..., t_N: one
    Horner pass on integers, normalised once as a Fraction."""
    acc = 0
    for t in terms:
        acc = (acc << 1) + t
    return Fraction(acc, denominator << len(terms))


def _metric_bracket(
    side_a: tuple[list[int], int], side_b: tuple[list[int], int], N: int
) -> tuple[Fraction, Fraction]:
    """The `metric_d` bracket from the values of both sides on the first
    N canonical cylinders, in canonical order, each given as numerators
    k over its own denominator.

    Over L = lcm(L_a, L_b) the partial sum is one `_dyadic_sum` of
    |k_a * (L / L_a) - k_b * (L / L_b)| over L.
    """
    (nums_a, L_a), (nums_b, L_b) = side_a, side_b
    L = math.lcm(L_a, L_b)
    sa, sb = L // L_a, L // L_b
    lower = _dyadic_sum([abs(x * sa - y * sb) for x, y in zip(nums_a, nums_b)], L)
    return lower, lower + Fraction(1, 2**N)


# ---------------------------------------------------------------------------
# cylinder tables: finitely represented candidate limits


@dataclass(frozen=True, eq=False)
class CylinderFunction:
    """A finitely represented [0,1]-valued function on cylinders.

    `entries` lists the nonzero (or otherwise notable) values; at any
    depth in `depth_caps` every unlisted word with symbols at or below
    that depth's cap takes the default value 0.  Outside the envelope
    the table is simply not represented and lookups raise.
    """

    entries: Mapping[Word, Fraction]
    depth_caps: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        object.__setattr__(self, "depth_caps", dict(self.depth_caps))
        for word, value in self.entries.items():
            if not 0 <= value <= 1:
                raise ValueError(f"value {value} for {word} outside [0, 1]")

    def represented(self, word: Word) -> bool:
        if word in self.entries:
            return True
        cap = self.depth_caps.get(len(word))
        return cap is not None and max(word) <= cap

    def value(self, word: Iterable[int]) -> Fraction:
        w = tuple(word)
        if w in self.entries:
            return self.entries[w]
        cap = self.depth_caps.get(len(w))
        if cap is not None and max(w) <= cap:
            return Fraction(0)
        raise UnrepresentedCylinderError(w)

    @property
    def max_depth(self) -> int:
        depths = [len(w) for w in self.entries]
        depths.extend(self.depth_caps)
        return max(depths, default=0)

    @classmethod
    def from_combo(
        cls, nu: ConvexCombination, depth: int, symbol_cap: int
    ) -> "CylinderFunction":
        table = support_table(nu, depth, symbol_cap)
        caps = {d: symbol_cap for d in range(1, depth + 1)}
        return cls(table, caps)

    def consistency_violations(self) -> list[str]:
        """Monotonicity and within-table additivity diagnostics."""
        problems = []
        for word, value in self.entries.items():
            for cut in range(1, len(word)):
                prefix = word[:cut]
                if self.represented(prefix) and self.value(prefix) < value:
                    problems.append(
                        f"monotonicity: value({word})={value} exceeds "
                        f"value({prefix})={self.value(prefix)}"
                    )
        by_parent: dict[Word, Fraction] = {}
        for word, value in self.entries.items():
            if len(word) > 1:
                parent = word[:-1]
                by_parent[parent] = by_parent.get(parent, Fraction(0)) + value
        for parent, child_sum in by_parent.items():
            if self.represented(parent) and self.value(parent) < child_sum:
                problems.append(
                    f"additivity: children of {parent} sum to {child_sum} > "
                    f"value {self.value(parent)}"
                )
        return problems

    def to_jsonable(self) -> dict:
        return {
            "type": "cylinder_table",
            "depth_caps": {str(d): c for d, c in sorted(self.depth_caps.items())},
            "entries": [
                {
                    "word": list(w),
                    "numerator": v.numerator,
                    "denominator": v.denominator,
                }
                for w, v in sorted(self.entries.items())
            ],
        }


def additivity_defect(
    F: CylinderFunction, word: Iterable[int], K: int, spec: ShiftSpec | None = None
) -> Fraction:
    """Kolmogorov-consistency deficit F(C) - sum_{k<=K} F(Ck).

    Inadmissible children contribute 0 either way; passing the shift
    just skips their lookups.
    """
    w = tuple(word)
    total = F.value(w)
    children = Fraction(0)
    last = w[-1]
    for k in range(1, K + 1):
        if spec is not None and not spec.is_allowed(last, k):
            continue
        children += F.value(w + (k,))
    return total - children


# ---------------------------------------------------------------------------
# test functions: finite cylinder combinations, optionally with a
# constant first-symbol tail


@dataclass(frozen=True)
class TestFunction:
    """f = sum_i a_i 1_{C_i}, plus an optional constant value on every
    point whose first symbol exceeds a threshold."""

    __test__ = False  # domain object, not a pytest case

    atoms: tuple[tuple[Fraction, Word], ...]
    tail_threshold: int | None = None
    tail_value: Fraction = Fraction(0)

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[tuple[Rational, Iterable[int]]],
        tail_threshold: int | None = None,
        tail_value: Rational = 0,
    ) -> "TestFunction":
        packed = tuple((Fraction(a), tuple(w)) for a, w in atoms)
        if any(not w for _, w in packed):
            raise ValueError("atom cylinders must be nonempty words")
        return cls(packed, tail_threshold, Fraction(tail_value))

    @property
    def max_depth(self) -> int:
        return max((len(w) for _, w in self.atoms), default=1)


def indicator(word: Iterable[int]) -> TestFunction:
    return TestFunction.from_atoms([(1, tuple(word))])


def integrate_test_function(f: TestFunction, nu: ConvexCombination) -> Fraction:
    """Exact integral of f against a finite combination of periodic
    measures: one `_window_numerators` call for all atoms."""
    if f.tail_threshold is not None and f.tail_value != 0:
        above = [s for s in nu.orbit_symbols if s > f.tail_threshold]
        if above:
            raise TailInteractionError(
                f"tail threshold {f.tail_threshold} is below orbit symbols {sorted(above)}"
            )
    nums, L = _window_numerators(nu, {len(w) for _, w in f.atoms})
    return sum((a * nums.get(w, 0) for a, w in f.atoms), Fraction(0)) / L


@dataclass(frozen=True)
class C0Report:
    """Horizon-relative report on the vanishing-at-infinity conditions."""

    modulus_depth: int
    uniformly_continuous: bool
    sup_rows: tuple[tuple[int, Fraction], ...]
    sup_eventual: Fraction
    vanishes_at_infinity: bool
    var_rows: tuple[tuple[Word, tuple[tuple[int, Fraction], ...]], ...]
    var_eventual: tuple[tuple[Word, Fraction], ...]
    refines_to_zero: bool
    certified: bool
    horizon: int


def _branch_values(
    spec: ShiftSpec,
    prefix: Word,
    base: Fraction,
    atoms_below: list[tuple[Fraction, Word]],
    min_next: int | None,
    certified_box: list[bool],
) -> set[Fraction]:
    """Realizable values of f on points of [prefix], restricted (at the
    first step only) to next symbols >= min_next."""
    depth = len(prefix)
    here = base + sum(
        (a for a, w in atoms_below if w == prefix), Fraction(0)
    )
    deeper = [(a, w) for a, w in atoms_below if len(w) > depth]
    if not deeper and min_next is None:
        return {here}
    child_syms = sorted({w[depth] for _, w in deeper})
    floor = min_next if min_next is not None else 1
    relevant = [s for s in child_syms if s >= floor]
    values: set[Fraction] = set()
    # escape branch: a continuation with symbol >= floor avoiding every
    # deeper atom
    row, more = successors(spec, prefix[-1], max(child_syms + [floor]) + 1)
    escape = more or any(s >= floor and s not in relevant for s in row)
    if not escape and more is None:
        certified_box[0] = False
    if escape:
        values.add(here)
    for s in relevant:
        if not spec.is_allowed(prefix[-1], s):
            continue
        sub = [(a, w) for a, w in deeper if w[depth] == s]
        values |= _branch_values(
            spec, prefix + (s,), here, sub, None, certified_box
        )
    return values


def c0_conditions_check(
    f: TestFunction, spec: ShiftSpec, horizon: int
) -> C0Report:
    """Check the three vanishing-at-infinity conditions up to a horizon.

    Uniform continuity is structural: the function is constant on
    cylinders of the maximal atom depth.  The first-symbol sup rows and
    the tail-variation rows are exact; their eventual values are exact
    because beyond every atom symbol and tail threshold the function is
    literally constant.
    """
    certified_box = [True]
    depth = f.max_depth

    sup_rows = []
    for n in range(1, horizon + 1):
        row, more = successors(spec, n, max(n, spec.symbol_cap_default))
        if not row and more is False:
            sup_rows.append((n, Fraction(0)))  # [n] is empty
            continue
        base = f.tail_value if (f.tail_threshold is not None and n > f.tail_threshold) else Fraction(0)
        atoms_n = [(a, w) for a, w in f.atoms if w[0] == n]
        vals = _branch_values(spec, (n,), base, atoms_n, None, certified_box)
        sup_rows.append((n, max((abs(v) for v in vals), default=Fraction(0))))
    sup_eventual = abs(f.tail_value) if f.tail_threshold is not None else Fraction(0)

    var_rows = []
    var_eventual = []
    for _, cyl in f.atoms:
        rows = []
        fixed = sum(
            (a for a, w in f.atoms if w == cyl[: len(w)]), Fraction(0)
        )
        if f.tail_threshold is not None and cyl[0] > f.tail_threshold:
            fixed += f.tail_value
        extensions = [
            (a, w) for a, w in f.atoms if len(w) > len(cyl) and w[: len(cyl)] == cyl
        ]
        for n in range(1, horizon + 1):
            row, more = successors(spec, cyl[-1], max(n, spec.symbol_cap_default))
            populated = more or any(s >= n for s in row)
            if not populated and more is None:
                certified_box[0] = False
            if not populated:
                rows.append((n, Fraction(0)))  # C(>= n) is empty
                continue
            vals = _branch_values(spec, cyl, fixed, extensions, n, certified_box)
            spread = max(vals) - min(vals) if vals else Fraction(0)
            rows.append((n, spread))
        var_rows.append((cyl, tuple(rows)))
        var_eventual.append((cyl, Fraction(0)))

    return C0Report(
        modulus_depth=depth,
        uniformly_continuous=True,
        sup_rows=tuple(sup_rows),
        sup_eventual=sup_eventual,
        vanishes_at_infinity=sup_eventual == 0,
        var_rows=tuple(var_rows),
        var_eventual=tuple(var_eventual),
        refines_to_zero=True,
        certified=certified_box[0],
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# serialization helpers


def combo_to_jsonable(nu: ConvexCombination) -> dict:
    return {
        "type": "convex_combination",
        "terms": [
            {"weight": str(w), "orbit": list(mu.orbit.cycle)} for w, mu in nu.terms
        ],
    }


def parse_combo_text(spec: ShiftSpec, text: str) -> ConvexCombination:
    """Parse 'w1:(a,b,...);w2:(...)' into a combination of orbit measures."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        weight_s, _, orbit_s = chunk.partition(":")
        orbit = tuple(
            int(t) for t in orbit_s.strip().strip("()").replace(",", " ").split()
        )
        pairs.append((Fraction(weight_s.strip()), measure_from_cycle(spec, orbit)))
    return convex_combination(pairs)
