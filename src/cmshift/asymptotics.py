"""Sequences of measures and their cylinder-topology limits.

Convergence over an infinite cylinder basis is not decidable from
finitely many terms, so every report here is certified only up to its
parameters (depth, symbol cap, number of terms, tolerance) and carries
them.  Limit tables hold the values at the last sampled index; the
per-cylinder oscillation over the trailing window is the evidence for
(or against) stabilization.  Traces are read as integer numerators over
each term's common denominator, so oscillations and the tolerance test
are exact integer comparisons over the window's common denominator.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from numbers import Rational

from ._record import record
from .exactval import fraction_str
from .measures import (
    ConvexCombination,
    CylinderFunction,
    PeriodicMeasure,
    combo_of_cylinder,
    convex_combination,
    integrate_test_function,
    measure_from_cycle,
    support_numerators,
)
from .shifts import (
    SearchCaps,
    ShiftSpec,
    Word,
    _loop_words,
    connect,
    is_admissible,
    successor_iter,
)

__all__ = [
    "MeasureSequence",
    "LimitReport",
    "Classification",
    "EscapeResult",
    "EscapeSearchError",
    "NotEnoughLoopsError",
    "SequenceGenerationError",
    "cylinder_limit",
    "classify_limit",
    "escape_sequence",
    "first_return_loops",
    "non_f_witness_sequence",
    "gurevich_entropy_estimate",
    "weak_star_trace",
    "pair_loop_sequence",
    "fixed_point_sequence",
    "geometric_pair_loop_sequence",
    "composite_sequence",
    "sequence_from_measures",
]


class EscapeSearchError(RuntimeError):
    """The interior-word search exhausted its caps.

    This is evidence that the shift may obstruct escape locally (every
    long word keeps returning to low symbols), or simply that the caps
    are too small; the message says which caps were in force.
    """


class NotEnoughLoopsError(RuntimeError):
    """Fewer distinct first-return loops exist than requested."""


class SequenceGenerationError(RuntimeError):
    def __init__(self, index: int, cause: Exception):
        self.index = index
        super().__init__(f"sequence generator failed at index {index}: {cause}")


@record
class MeasureSequence:
    """Lazily generated sequence of finite convex combinations, 1-indexed."""

    generator: Callable[[int], ConvexCombination]
    description: str

    def term(self, n: int) -> ConvexCombination:
        try:
            return self.generator(n)
        except Exception as exc:  # noqa: BLE001 - propagate with the index
            raise SequenceGenerationError(n, exc) from exc


def sequence_from_measures(
    measures: Sequence[ConvexCombination], description: str
) -> MeasureSequence:
    terms = list(measures)

    def gen(n: int) -> ConvexCombination:
        return terms[n - 1]

    return MeasureSequence(gen, description)


def pair_loop_sequence(spec: ShiftSpec, a: int = 1, start: int = 2) -> MeasureSequence:
    """Orbits (a, start), (a, start+1), ... as a measure sequence."""

    def gen(n: int) -> ConvexCombination:
        return convex_combination(
            [(1, measure_from_cycle(spec, (a, start + n - 1)))]
        )

    return MeasureSequence(gen, f"loops ({a}, n) on {spec.name} from n={start}")


def fixed_point_sequence(spec: ShiftSpec) -> MeasureSequence:
    def gen(n: int) -> ConvexCombination:
        return convex_combination([(1, measure_from_cycle(spec, (n,)))])

    return MeasureSequence(gen, f"fixed points n-bar on {spec.name}")


def geometric_pair_loop_sequence(
    spec: ShiftSpec, a: int = 1, base: int = 10_000
) -> MeasureSequence:
    """Orbits (a, base**t): symbol growth scaled geometrically in t."""

    def gen(t: int) -> ConvexCombination:
        return convex_combination([(1, measure_from_cycle(spec, (a, base**t)))])

    return MeasureSequence(gen, f"loops ({a}, {base}^t) on {spec.name}")


def composite_sequence(
    lam: Rational, mu: ConvexCombination, escaping: MeasureSequence
) -> MeasureSequence:
    """lam * mu + (1 - lam) * escaping_n, with zero-weight parts dropped."""
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")

    def gen(n: int) -> ConvexCombination:
        terms = []
        if lam > 0:
            terms.extend((lam * w, m) for w, m in mu.terms)
        if lam < 1:
            terms.extend(((1 - lam) * w, m) for w, m in escaping.term(n).terms)
        return convex_combination(terms)

    return MeasureSequence(
        gen, f"{lam}*fixed + {1 - lam}*({escaping.description})"
    )


# ---------------------------------------------------------------------------
# limits on cylinders


@record
class Classification:
    kind: str  # probability | subprobability | defective | undetermined
    mass: Fraction | None = None
    defect_sites: tuple[tuple[Word, Fraction], ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "mass": None if self.mass is None else fraction_str(self.mass),
            "defect_sites": [
                {"word": list(w), "defect": fraction_str(d)} for w, d in self.defect_sites
            ],
        }


@record
class LimitReport:
    limit_table: CylinderFunction
    mass_bracket: tuple[Fraction, Fraction]
    classification: Classification
    sample_indices: tuple[int, ...]
    traces: dict[Word, dict[int, Fraction]]  # sparse: missing sample -> 0
    oscillations: dict[Word, Fraction]
    params: dict

    def trace(self, word: Word) -> list[Fraction]:
        sparse = self.traces.get(tuple(word), {})
        return [sparse.get(n, Fraction(0)) for n in self.sample_indices]


def _window(indices: Sequence[int], size: int | None) -> Sequence[int]:
    # default: the trailing quarter of the samples, at least two of them
    k = max(2, len(indices) // 4) if size is None else max(2, size)
    return indices[-k:]


def _window_oscillations(
    words: Iterable[Word],
    samples: dict[Word, list[tuple[int, int]]],
    dens: Iterable[int],
    size: int,
    tol: Fraction,
) -> tuple[dict[Word, Fraction], bool]:
    """Oscillation of each word over a window of `size` samples, and
    whether any exceeds `tol`.

    `samples[word]` lists the word's stored window samples as (k, L),
    mass k / L with L among `dens`; a word with fewer than `size` samples
    reads 0 at the others.  With Lw = lcm(dens), the oscillation is
    d / Lw for d = max - min of k * (Lw // L), plus 0 when a sample is
    missing, and d / Lw > tol = a / b exactly when d * b > a * Lw.  A
    word with no window sample gets 0 without a scan, and only a nonzero
    d becomes a new `Fraction`.
    """
    Lw = math.lcm(*dens)
    scale = {L: Lw // L for L in dens}
    zero = Fraction(0)
    b, bound = tol.denominator, tol.numerator * Lw
    undetermined = False
    oscillations: dict[Word, Fraction] = {}
    for word in words:
        pairs = samples.get(word)
        if pairs is None:
            oscillations[word] = zero
            continue
        ks = [k * scale[L] for k, L in pairs]
        d = max(ks) - (min(ks) if len(ks) == size else 0)  # masses are >= 0
        if d:
            oscillations[word] = Fraction(d, Lw)
            undetermined = undetermined or d * b > bound
        else:
            oscillations[word] = zero
    return oscillations, undetermined


def cylinder_limit(
    seq: MeasureSequence,
    depth: int,
    symbol_cap: int,
    n_max: int,
    tol: Rational,
    window: int | None = None,
) -> LimitReport:
    """Sample the sequence and extract the per-cylinder final values.

    Cylinders outside every sampled support are identically zero and are
    represented implicitly.  The report is undetermined if any tracked
    cylinder oscillates by more than `tol` over the trailing window
    (the last quarter of the samples unless `window` overrides it).

    Everything runs on integers.  Term n's support comes as numerators
    k over its common denominator L_n (`support_numerators`), and the
    sparse traces hold one shared `Fraction` per distinct (k, L_n).  The
    oscillations and the tol test are exact integer comparisons over the
    lcm of the window's L_n (`_window_oscillations`).  So the cost
    follows the nonzero trace entries, not words x window.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    indices = tuple(range(1, n_max + 1))
    window_idx = _window(indices, window)
    first = window_idx[0]
    traces: dict[Word, dict[int, Fraction]] = {}
    values: dict[int, dict[int, Fraction]] = {}  # L -> k -> the Fraction k / L
    samples: dict[Word, list[tuple[int, int]]] = {}  # window (k, L) per word
    window_dens: set[int] = set()
    for n in indices:
        nums, L = support_numerators(seq.term(n), depth, symbol_cap)
        shared = values.setdefault(L, {})
        in_window = n >= first
        if in_window:
            window_dens.add(L)
        for word, k in nums.items():
            value = shared.get(k)
            if value is None:
                value = shared[k] = Fraction(k, L)
            traces.setdefault(word, {})[n] = value
            if in_window:
                samples.setdefault(word, []).append((k, L))

    oscillations, undetermined = _window_oscillations(
        traces, samples, window_dens, len(window_idx), tol
    )

    table = CylinderFunction(
        {w: shared[k] for w, k in nums.items() if k},
        {d: symbol_cap for d in range(1, depth + 1)},
    )
    mass_lo = Fraction(sum(k for w, k in nums.items() if len(w) == 1), L)
    mass_bracket = (mass_lo, Fraction(1))
    params = {
        "depth": depth,
        "symbol_cap": symbol_cap,
        "n_max": n_max,
        "tol": str(tol),
        "window": len(window_idx),
        "description": seq.description,
    }
    if undetermined:
        classification = Classification("undetermined")
    else:
        classification = _classify_table(table, depth, tol, mass_lo)
    return LimitReport(
        limit_table=table,
        mass_bracket=mass_bracket,
        classification=classification,
        sample_indices=indices,
        traces=traces,
        oscillations=oscillations,
        params=params,
    )


def _classify_table(
    table: CylinderFunction,
    depth: int,
    tol: Fraction,
    mass_lo: Fraction | None = None,
) -> Classification:
    """Trichotomy on a represented table: defective / probability / sub.

    A parent word's defect is its value minus the sum over its children
    in the table; the children are summed by `w[:-1]` in one pass.
    """
    sites = []
    if depth >= 2:
        children: dict[Word, Fraction] = {}
        for w, v in table.entries.items():
            if len(w) > 1:
                parent = w[:-1]
                children[parent] = children.get(parent, 0) + v
        for word in sorted(w for w in table.entries if len(w) < depth):
            defect = table.entries[word] - children.get(word, 0)
            if defect > tol:
                sites.append((word, defect))
    if sites:
        return Classification("defective", defect_sites=tuple(sites))
    if mass_lo is None:
        mass_lo = sum(
            (v for w, v in table.entries.items() if len(w) == 1), Fraction(0)
        )
    if mass_lo >= 1 - tol:
        return Classification("probability", mass=mass_lo)
    return Classification("subprobability", mass=mass_lo)


def classify_limit(report: LimitReport, K: int, tol: Rational) -> Classification:
    """Classify the limit table at defect horizon K, tolerance tol.

    This looks only at the represented table, so a sequence whose late
    terms still spike on individual cylinders (escaping mass does) can
    nevertheless be classified from its stabilized values.

    K sets no horizon: it is only checked against the table's symbol
    caps at depths 2 and up, and each defect sums every child that the
    table represents.
    """
    tol = Fraction(tol)
    table = report.limit_table
    depth = max(table.depth_caps, default=1)
    for d, cap in table.depth_caps.items():
        if d > 1 and K > cap:
            raise ValueError(
                f"defect horizon {K} exceeds represented symbol cap {cap} at depth {d}"
            )
    return _classify_table(table, depth, tol)


# ---------------------------------------------------------------------------
# escape of mass


@record
class EscapeResult:
    measure: PeriodicMeasure
    low_mass: Fraction  # exact mass of the union of [s], s <= k
    bound: Fraction  # (connector_len + 2) / target_len
    connector_len: int
    word: Word
    k: int
    target_len: int

    def to_jsonable(self) -> dict:
        return {
            "cycle": list(self.measure.orbit.cycle),
            "low_mass": fraction_str(self.low_mass),
            "bound": fraction_str(self.bound),
            "connector_len": self.connector_len,
            "k": self.k,
            "target_len": self.target_len,
        }


def _interior_word_search(
    spec: ShiftSpec, k: int, min_interior: int, caps: SearchCaps
) -> Word | None:
    """Word (a, u..., b) with a, b <= k and interior symbols >= k+1.

    After the structural hint, one `_loop_words` search runs from a
    virtual root 0 whose row is 1..k, so one failure memo serves every
    endpoint a.  Rows keep only symbols above k; those read from
    interior rows are charged to `caps.max_nodes`, and the search raises
    rather than read one past it.  b is the first symbol <= k after u.
    """
    hint = spec.interior_path_hint
    word = None if hint is None else hint(k, min_interior, caps.symbol_cap)
    if (
        word is not None
        and len(word) >= min_interior + 2
        and word[0] <= k
        and word[-1] <= k
        and all(s > k for s in word[1:-1])
        and is_admissible(spec, word)
    ):
        return word

    spent = 0  # symbols read from interior rows
    exits: dict[int, int | None] = {}  # interior symbol -> first symbol <= k after it

    def row(s: int) -> Iterator[int]:
        nonlocal spent
        if s == 0:
            yield from range(1, k + 1)
            return
        for x in successor_iter(spec, s, caps.symbol_cap):
            if x <= k:
                continue
            if s > k:
                if spent >= caps.max_nodes:
                    raise EscapeSearchError(
                        f"interior search for k={k}, length {min_interior} "
                        f"exceeded the node budget {caps.max_nodes} "
                        f"(symbol cap {caps.symbol_cap})"
                    )
                spent += 1
            yield x

    def last(s: int) -> bool:
        if s not in exits:
            exits[s] = next(successor_iter(spec, s, k), None)
        return exits[s] is not None

    word = next(_loop_words(row, 0, min_interior + 2, last), None)
    return None if word is None else (*word[1:], exits[word[-1]])


def escape_sequence(
    spec: ShiftSpec, k: int, target_len: int, caps: SearchCaps | None = None
) -> EscapeResult:
    """A periodic measure giving mass at most (M0+2)/target_len to the
    first k symbols, built from a long word whose interior stays above k.

    Raises EscapeSearchError when no such word is found under the caps;
    on shifts where every orbit keeps returning to low symbols that is
    the expected outcome, and it is never silent.
    """
    if k < 1 or target_len < 3:
        raise ValueError("need k >= 1 and target_len >= 3")
    caps = caps or SearchCaps()
    word = _interior_word_search(spec, k, target_len - 2, caps)
    if word is None:
        raise EscapeSearchError(
            f"no admissible word of length {target_len} with endpoints <= {k} "
            f"and interior > {k} found on {spec.name} "
            f"(symbol cap {caps.symbol_cap}, node budget {caps.max_nodes})"
        )
    a, b = word[0], word[-1]
    if spec.is_allowed(b, a):
        connector_mid: Word = ()
    else:
        path = connect(spec, b, a, caps.connect_max_len, caps.symbol_cap, min_len=2)
        if path is None:
            raise EscapeSearchError(
                f"found interior word but no connector from {b} back to {a} "
                f"within length {caps.connect_max_len}"
            )
        connector_mid = path[1:-1]
    cycle = word + connector_mid
    measure = measure_from_cycle(spec, cycle)
    low = sum(1 for s in measure.orbit.cycle if s <= k)
    low_mass = Fraction(low, measure.period)
    bound = Fraction(len(connector_mid) + 2, target_len)
    if low_mass > bound:
        raise AssertionError("escape certificate violated; construction bug")
    return EscapeResult(
        measure=measure,
        low_mass=low_mass,
        bound=bound,
        connector_len=len(connector_mid),
        word=word,
        k=k,
        target_len=target_len,
    )


# ---------------------------------------------------------------------------
# witnesses against countably additive limits


def first_return_loops(
    spec: ShiftSpec, i: int, q: int, count: int, symbol_cap: int
) -> list[Word]:
    """First `count` cycles (i, r_1, ..., r_{q-1}) with no interior i,
    ascending; these are the period-q first-return loops at i.

    One lazy `_loop_words` pass over rows without i, so every word it
    yields is a first-return loop; NotEnoughLoopsError means that fewer
    than `count` of them exist under `symbol_cap`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")

    def row(s: int) -> Iterator[int]:
        return (x for x in successor_iter(spec, s, symbol_cap) if x != i)

    words = _loop_words(row, i, q, lambda x: spec.is_allowed(x, i))
    loops = list(itertools.islice(words, count))
    if len(loops) < count:
        raise NotEnoughLoopsError(
            f"only {len(loops)} first-return loops of period {q} at {i} exist "
            f"under symbol cap {symbol_cap}"
        )
    return loops


def non_f_witness_sequence(
    spec: ShiftSpec, i: int, q: int, count: int, symbol_cap: int
) -> MeasureSequence:
    """Pairwise-distinct periodic measures from first-return loops of
    period q at i; each gives the cylinder of i mass exactly 1/q."""
    loops = first_return_loops(spec, i, q, count, symbol_cap)
    measures = [
        convex_combination([(1, measure_from_cycle(spec, w))]) for w in loops
    ]
    for m in measures:
        assert combo_of_cylinder(m, (i,)) == Fraction(1, q)
    return sequence_from_measures(
        measures, f"first-return loops of period {q} at {i} on {spec.name}"
    )


# ---------------------------------------------------------------------------
# Gurevich entropy estimation


@record
class EntropyRow:
    n: int
    loop_count: int
    estimate: float  # log(count)/n, display scale


@record
class EntropyReport:
    symbol: int
    rows: tuple[EntropyRow, ...]
    truncated: bool
    symbol_cap: int

    @property
    def running_max(self) -> float:
        return max((r.estimate for r in self.rows), default=float("-inf"))

    def to_jsonable(self) -> dict:
        return {
            "symbol": self.symbol,
            "symbol_cap": self.symbol_cap,
            "truncated": self.truncated,
            "rows": [
                {"n": r.n, "loop_count": r.loop_count, "estimate_display": r.estimate}
                for r in self.rows
            ],
            "running_max_display": self.running_max,
        }


def gurevich_entropy_estimate(
    spec: ShiftSpec, a: int, n_values: Iterable[int], symbol_cap: int
) -> EntropyReport:
    """Exact loop counts via dynamic programming over reachable symbols
    (B. M. Gurevich, "Topological entropy of enumerable Markov chains",
    Soviet Math. Dokl. 10, 1969).

    Counts are big integers (no overflow); the estimate column is the
    display value log(count)/n.  A truncation flag is set whenever a row
    enumeration hit the symbol cap, making counts lower bounds.

    Each state's row is read once per call, and equal rows are pooled
    under one index.  The DP carries, per distinct row, the number of
    words whose last symbol has that row, and a step adds each distinct
    row once: on a shift whose rows repeat (every row of `full`, every
    row but one of `star`) a step then costs the distinct rows' length,
    not the states times the cap.  The walk starts from the one-symbol
    row (a,), and the loops of length n are the words of n symbols
    whose last symbol goes back to `a`: per distinct row, how many of
    its symbols do so is counted once, asking `is_allowed(j, a)` once
    per state j.  Memory beyond the two per-state memos is the distinct
    rows.
    """
    wanted = sorted(set(int(n) for n in n_values))
    if not wanted or wanted[0] < 1:
        raise ValueError("n values must be positive")
    top = wanted[-1]
    tails: list[bool | None] = []  # one continuation per row read
    pool: dict[tuple[int, ...], int] = {}  # distinct row -> its index
    distinct: list[tuple[int, ...]] = []  # the distinct rows, by index
    row_of: dict[int, int] = {}  # state -> index of its row
    returns: dict[int, bool] = {}  # state -> allowed(state, a)
    closing: dict[int, int] = {}  # row index -> its symbols that go back to a

    def index_of(row: tuple[int, ...]) -> int:
        r = pool.get(row)
        if r is None:
            r = pool[row] = len(distinct)
            distinct.append(row)
        return r

    def returns_to_a(j: int) -> bool:
        back = returns.get(j)
        if back is None:
            back = returns[j] = spec.is_allowed(j, a)
        return back

    # row index -> number of words of `step - 1` symbols whose last
    # symbol has that row; the words of `step` symbols end in its symbols
    pooled = {index_of((a,)): 1}
    counts: dict[int, int] = {}
    for step in range(1, top + 1):
        # loops of length `step`: words of that length from a with an
        # allowed transition back to a
        if step in wanted:
            total = 0
            for r, c in pooled.items():
                if r not in closing:
                    closing[r] = sum(map(returns_to_a, distinct[r]))
                total += c * closing[r]
            counts[step] = total
        if step == top:
            break
        nxt: dict[int, int] = {}
        for r, c in pooled.items():
            for j in distinct[r]:
                q = row_of.get(j)
                if q is None:
                    q = row_of[j] = index_of(tuple(successor_iter(spec, j, symbol_cap, tails)))
                nxt[q] = nxt.get(q, 0) + c
        pooled = nxt
    truncated = any(t is not False for t in tails)
    rows = tuple(
        EntropyRow(
            n=n,
            loop_count=counts[n],
            estimate=(math.log(counts[n]) / n) if counts[n] > 0 else float("-inf"),
        )
        for n in wanted
    )
    return EntropyReport(symbol=a, rows=rows, truncated=truncated, symbol_cap=symbol_cap)


# ---------------------------------------------------------------------------
# weak-star traces


def weak_star_trace(
    seq: MeasureSequence, fs: Sequence, n_max: int
) -> list[list[Fraction]]:
    """Exact integral traces [f][n-1] = integral of f against term n."""
    out: list[list[Fraction]] = [[] for _ in fs]
    for n in range(1, n_max + 1):
        combo = seq.term(n)
        for fi, f in enumerate(fs):
            out[fi].append(integrate_test_function(f, combo))
    return out
