"""Suspension flows over countable Markov shifts, via the Kac correspondence.

Flow phase space is never represented: a flow-invariant sub-probability
is carried as (base measure, roof integral, mass), which is all the
cylinder-level theory needs.  Roof functions are depth-k locally
constant models with a first-symbol tail rule; their Birkhoff sums over
periodic orbits are exact `LogLinear` values, and flow cylinder masses
come out as directed rational brackets.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from numbers import Rational

from ._record import record
from .asymptotics import (
    EscapeSearchError,
    MeasureSequence,
    NotEnoughLoopsError,
    cylinder_limit,
    escape_sequence,
    first_return_loops,
    sequence_from_measures,
)
from .exactval import Interval, LogLinear, fold_sum, fraction_str
from .measures import (
    ConvexCombination,
    PeriodicMeasure,
    PeriodicOrbit,
    RunWord,
    _dyadic_sum,
    _mass_numerators,
    _metric_bracket,
    _primitive_orbit,
    _window_counts,
    canonical_cylinders,
    convex_combination,
    measure_from_cycle,
    metric_d,
)
from .shifts import (
    SearchCaps,
    ShiftSpec,
    Word,
    connect,
    f_property_probe,
    is_admissible,
)

__all__ = [
    "TailRule",
    "RoofFunction",
    "FlowMeasure",
    "AmbiguousWordError",
    "RoofMismatchError",
    "FlowEscapeError",
    "ApproximationError",
    "tail_log1p",
    "tail_constant",
    "log1p_roof",
    "constant_roof",
    "parse_roof_arg",
    "parse_roof_text",
    "roof_eval",
    "class_R_check",
    "birkhoff_sum",
    "roof_integral",
    "kac_lift",
    "flow_cylinder_mass",
    "flow_metric_rho",
    "flow_limit_analyze",
    "flow_escape_sequence",
    "approximate_by_single_orbit",
]


class AmbiguousWordError(ValueError):
    """A word is shorter than the roof depth and its value is not forced."""


class RoofMismatchError(ValueError):
    """Two flow measures do not share the same roof and cut height."""


class FlowEscapeError(RuntimeError):
    """Neither escape construction applies under the given caps."""


class ApproximationError(RuntimeError):
    """The single-orbit approximation could not reach the tolerance."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


# one shared zero, so that positivity tests compute its enclosure once
_ZERO = LogLinear.zero()


def _as_value(x) -> LogLinear:
    if isinstance(x, LogLinear):
        return x
    if isinstance(x, Rational):
        return LogLinear.from_rational(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact roof value")


@record
class TailRule:
    """Named first-symbol rule for words outside the roof table."""

    name: str
    fn: Callable[[int], LogLinear]

    def __call__(self, symbol: int) -> LogLinear:
        return self.fn(symbol)


def tail_log1p() -> TailRule:
    return TailRule("log1p", lambda s: LogLinear.log_of(1 + s))


def tail_constant(q: Rational) -> TailRule:
    q = Fraction(q)
    if q <= 0:
        raise ValueError("roof values must be positive")
    return TailRule(f"const:{q}", lambda s: LogLinear.from_rational(q))


@record(eq=False)
class RoofFunction:
    """Depth-k locally constant roof with a first-symbol tail rule.

    `floor` is the claimed positive lower bound c; it is supplied, not
    inferred, and `class_R_check` validates it on everything it can see.
    Table values must be positive; values in (0, c) are accepted, and
    `class_R_check` reports them.  Table words are words of symbols >= 1,
    and a roof without a table needs a tail rule.
    """

    name: str
    depth: int
    table: Mapping[Word, LogLinear]
    tail: TailRule | None
    floor: LogLinear
    var2_bound: Fraction

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        object.__setattr__(
            self,
            "table",
            {tuple(w): _as_value(v) for w, v in dict(self.table).items()},
        )
        if not self.table and self.tail is None:
            raise ValueError("the roof has neither a table nor a tail rule")
        for w, v in self.table.items():
            if len(w) != self.depth:
                raise ValueError(f"table word {w} does not have depth {self.depth}")
            if min(w) < 1:
                raise ValueError(f"table word {w} has a symbol below 1")
            if v <= _ZERO:
                raise ValueError("roof values must be positive")
        if _as_value(self.floor).sign() <= 0:
            raise ValueError("the lower bound c must be positive")


def log1p_roof() -> RoofFunction:
    """The roof log(1 + first symbol); its infimum log 2 is the cut height."""
    return RoofFunction(
        name="log1p",
        depth=1,
        table={},
        tail=tail_log1p(),
        floor=LogLinear.log_of(2),
        var2_bound=Fraction(0),
    )


def constant_roof(q: Rational) -> RoofFunction:
    q = Fraction(q)
    return RoofFunction(
        name=f"const:{q}",
        depth=1,
        table={},
        tail=tail_constant(q),
        floor=LogLinear.from_rational(q),
        var2_bound=Fraction(0),
    )


def parse_roof_arg(text: str) -> RoofFunction:
    """CLI roof reference: 'log1p' or 'const:<rational>'."""
    name, _, arg = text.partition(":")
    if name == "log1p":
        return log1p_roof()
    if name == "const":
        return constant_roof(Fraction(arg))
    raise ValueError(f"unknown roof: {text!r}")


def _parse_value(text: str) -> LogLinear:
    text = text.strip()
    if text.startswith("log:"):
        return LogLinear.log_of(Fraction(text[4:]))
    return LogLinear.from_rational(Fraction(text))


def parse_roof_text(text: str, name: str = "user-roof") -> RoofFunction:
    """Roof file format::

        depth 2
        table 1 2 : 3/2
        tail log1p            # or: tail const 3/2, tail none
        c log:2               # rational or log:<rational>
        var2 0
    """
    depth = 1
    table: dict[Word, LogLinear] = {}
    tail: TailRule | None = None
    floor: LogLinear | None = None
    var2 = Fraction(0)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "depth":
            depth = int(rest)
        elif key == "table":
            word_s, _, value_s = rest.partition(":")
            word = tuple(int(t) for t in word_s.split())
            table[word] = _parse_value(value_s)
        elif key == "tail":
            parts = rest.split()
            if not parts:
                raise ValueError(f"tail line {raw.strip()!r} names no rule")
            if parts[0] == "log1p":
                tail = tail_log1p()
            elif parts[0] == "const":
                if len(parts) < 2:
                    raise ValueError(f"tail line {raw.strip()!r} gives const no value")
                tail = tail_constant(Fraction(parts[1]))
            elif parts[0] == "none":
                tail = None
            else:
                raise ValueError(f"unknown tail rule {rest!r}")
        elif key == "c":
            floor = _parse_value(rest)
        elif key == "var2":
            var2 = Fraction(rest)
        else:
            raise ValueError(f"unknown roof line {raw!r}")
    if floor is None:
        raise ValueError("roof file must declare its lower bound c")
    return RoofFunction(name, depth, table, tail, floor, var2)


def roof_eval(roof: RoofFunction, word: Iterable[int]) -> LogLinear:
    """Value on the cylinder of `word`; exact by local constancy.

    Words shorter than the roof depth are accepted only when every
    tabulated extension agrees (trivially true when none is tabulated
    and the tail rule applies).
    """
    w = tuple(word)
    if not w:
        raise ValueError("cannot evaluate on the empty word")
    if len(w) >= roof.depth:
        key = w[: roof.depth]
        if key in roof.table:
            return roof.table[key]
        if roof.tail is None:
            raise AmbiguousWordError(f"{key} is not tabulated and there is no tail rule")
        return roof.tail(w[0])
    values = [v for key, v in roof.table.items() if key[: len(w)] == w]
    if not values:
        if roof.tail is None:
            raise AmbiguousWordError(f"{w} has no tabulated extension and no tail rule")
        return roof.tail(w[0])
    if roof.tail is None and all(v == values[0] for v in values[1:]):
        return values[0]
    raise AmbiguousWordError(
        f"word {w} is shorter than the roof depth {roof.depth} and its "
        f"extensions do not force a single value"
    )


@record
class ClassRReport:
    floor_holds: bool
    floor_witnesses: tuple[tuple[Word | int, str], ...]  # violations, if any
    m_rows: tuple[tuple[int, float], ...]  # k -> inf over tested first symbols >= k
    m_nondecreasing: bool
    tail_verdict: str
    var2_observed: Fraction | None
    var2_ok: bool
    horizon: int

    @property
    def passed(self) -> bool:
        return self.floor_holds and self.tail_verdict in (
            "increasing-at-horizon",
            "vacuous-finite-alphabet",
        )

    def to_jsonable(self) -> dict:
        return {
            "floor_holds": self.floor_holds,
            "floor_violations": [str(w) for w, _ in self.floor_witnesses],
            "m_rows": [{"k": k, "display": v} for k, v in self.m_rows],
            "m_nondecreasing": self.m_nondecreasing,
            "tail_verdict": self.tail_verdict,
            "var2_observed": None
            if self.var2_observed is None
            else fraction_str(self.var2_observed),
            "var2_ok": self.var2_ok,
            "horizon": self.horizon,
            "passed": self.passed,
        }


def class_R_check(
    roof: RoofFunction, horizon: int, spec: ShiftSpec | None = None
) -> ClassRReport:
    """Semi-decidable membership report for the admissible roof class.

    Validates the floor on all tabulated words and on tail symbols up
    to the horizon; computes m(k) = inf of tested values with first
    symbol >= k and judges its growth.  Uniform continuity is structural
    (depth-k local constancy), so only the floor and the tail divergence
    need witnesses.

    The pool of k holds the table values with first symbol >= k in dict
    order, then the tail values of symbols k..horizon in ascending
    order, and m(k) is its first minimal value: equal values in other
    normal forms print other floats in `m_rows`.  Pools shrink as k
    grows, so one running minimum from the top symbol down, which keeps
    the earlier pool position on ties, gives every m(k) in
    O(horizon + |table|) comparisons, and m never decreases.
    A roof has a table word, whose symbols are >= 1, or a tail rule
    (`RoofFunction`), so the pool of 1 is never empty.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    violations = []
    for w, v in sorted(roof.table.items()):
        if v < roof.floor:
            violations.append((w, "table value below c"))
    tail_vals: dict[int, LogLinear] = {}
    if roof.tail is not None:
        for s in range(1, horizon + 1):
            tail_vals[s] = roof.tail(s)
            if tail_vals[s] < roof.floor:
                violations.append((s, "tail value below c"))

    # pool positions: table entries first, then the tail symbols; a table
    # word first enters the pool of k = min(first symbol, top)
    top = horizon if tail_vals else min(horizon, max((w[0] for w in roof.table), default=0))
    entering: dict[int, list[tuple[int, LogLinear]]] = {}
    for pos, (w, v) in enumerate(roof.table.items()):
        entering.setdefault(min(w[0], top), []).append((pos, v))
    for s, v in tail_vals.items():
        entering.setdefault(s, []).append((len(roof.table) + s, v))
    m_vals: list[LogLinear] = []
    best: LogLinear | None = None
    best_pos = 0
    for k in range(top, 0, -1):
        for pos, v in entering.get(k, ()):
            if best is None or (v <= best if pos < best_pos else v < best):
                best, best_pos = v, pos
        m_vals.append(best)
    m_vals.reverse()
    m_rows = [(k, float(m_k)) for k, m_k in enumerate(m_vals, start=1)]

    finite_alphabet = spec is not None and spec.alphabet_size is not None
    if finite_alphabet:
        tail_verdict = "vacuous-finite-alphabet"
    elif m_vals[-1] == m_vals[0]:
        tail_verdict = "fails-constant-at-horizon"
    else:
        tail_verdict = "increasing-at-horizon"

    var2_observed: Fraction | None = None
    var2_ok = True
    if roof.depth <= 2:
        var2_observed = Fraction(0)  # depth <= 2 roofs are constant on 2-cylinders
    else:
        by_head: dict[Word, list[LogLinear]] = {}
        for w, v in roof.table.items():
            by_head.setdefault(w[:2], []).append(v)
        worst = LogLinear.zero()
        for vals in by_head.values():
            for x in vals:
                for y in vals:
                    d = x - y
                    if d > worst:
                        worst = d
        var2_ok = worst <= LogLinear.from_rational(roof.var2_bound)
        var2_observed = None if not worst.is_rational else worst.as_fraction()

    return ClassRReport(
        floor_holds=not violations,
        floor_witnesses=tuple(violations),
        m_rows=tuple(m_rows),
        m_nondecreasing=True,
        tail_verdict=tail_verdict,
        var2_observed=var2_observed,
        var2_ok=var2_ok,
        horizon=horizon,
    )


def birkhoff_sum(roof: RoofFunction, orbit: PeriodicOrbit | RunWord) -> LogLinear:
    """Sum of the roof along one period, read cyclically; exact.

    The depth-k windows come from one cyclic window count
    (`_cyclic_window_counts`, or `_run_window_counts` for a run word) in
    first-occurrence order, and each distinct window adds count * value
    to the left fold (`fold_sum`).
    """
    windows = _window_counts(orbit, roof.depth)
    return fold_sum([(count, roof_eval(roof, w)) for w, count in windows.items()])


def roof_integral(roof: RoofFunction, nu: ConvexCombination) -> LogLinear:
    """Integral of the roof against a probability combination; exact."""
    if nu.mass != 1:
        raise ValueError(f"roof integrals are taken against probabilities; mass={nu.mass}")
    return fold_sum(
        [
            (Fraction(w.numerator, w.denominator * mu.period), birkhoff_sum(roof, mu.orbit))
            for w, mu in nu.terms
        ]
    )


# ---------------------------------------------------------------------------
# the Kac correspondence and flow measures


@record(eq=False)
class FlowMeasure:
    """lam times the flow probability with the given base; lam = 0 is the
    distinguished zero measure (no base, no integral)."""

    roof: RoofFunction
    base: ConvexCombination | None
    integral: LogLinear | None
    lam: Fraction

    @classmethod
    def zero(cls, roof: RoofFunction) -> "FlowMeasure":
        return cls(roof, None, None, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return self.lam == 0


def kac_lift(mu: ConvexCombination, roof: RoofFunction) -> FlowMeasure:
    if mu.mass == 0:
        raise ValueError("the zero measure does not lift; use FlowMeasure.zero")
    if mu.mass != 1:
        raise ValueError("only probability bases lift to flow probabilities")
    return FlowMeasure(roof, mu, roof_integral(roof, mu), Fraction(1))


def _kac_brackets(
    nu: FlowMeasure, words: list[Word], prec: int
) -> tuple[list[int], Fraction, Fraction]:
    """The flow brackets of `nu` on the cylinders of `words`, as integer
    numerators k_n and one rational pair (a, b): bracket n is
    [k_n * a, k_n * b], which holds lam*c*m_n/I for the base mass m_n.

    With the base masses k_n / L (`_mass_numerators`), rational c and I
    give the point a = b = lam*c/(I*L).  Otherwise [a, b] is the directed
    quotient c.eval_interval(prec).scale(lam).div_pos(I.eval_interval(prec))
    divided by L, evaluated once and only when some k_n is nonzero, so
    that its ValueError is raised exactly then.  The zero measure, and a
    measure with no mass on `words`, give a = b = 0.
    """
    nums, L = ([0] * len(words), 1) if nu.is_zero else _mass_numerators(nu.base, words)
    if not any(nums):
        return nums, Fraction(0), Fraction(0)
    c, integral = nu.roof.floor, nu.integral
    if c.is_rational and integral.is_rational:
        a = nu.lam * c.as_fraction() / (integral.as_fraction() * L)
        return nums, a, a
    iv = c.eval_interval(prec).scale(nu.lam).div_pos(integral.eval_interval(prec))
    return nums, iv.lo / L, iv.hi / L


def flow_cylinder_mass(
    nu: FlowMeasure, word: Iterable[int], prec: int = 64
) -> Interval:
    """Bracket for the measure of (cylinder x [0, c]): lam*c*base(C)/I."""
    (k,), a, b = _kac_brackets(nu, [tuple(word)], prec)
    return Interval(k * a, k * b)


def _same_roof(r1: RoofFunction, r2: RoofFunction) -> bool:
    """Structural equality; the name is only a label."""

    def key(r: RoofFunction) -> tuple:
        return (r.depth, None if r.tail is None else r.tail.name, r.floor, r.var2_bound)

    return r1 is r2 or (key(r1) == key(r2) and r1.table == r2.table)


def flow_metric_rho(
    nu1: FlowMeasure,
    nu2: FlowMeasure,
    N: int,
    spec: ShiftSpec,
    prec: int = 64,
) -> tuple[Fraction, Fraction]:
    """Bracket for the flow metric: partial sum over the first N canonical
    cylinders plus the 2^-N tail allowance.

    The N cylinders are enumerated once per call.  Each side's brackets
    on all N of them are integer numerators k_n times one rational pair
    [a, b] (`_kac_brackets`, which evaluates c and I at most once per
    side, and only when that side has mass on a cylinder).  Over one
    common denominator D of both sides' pairs every endpoint of every
    difference is an integer, so |x - y| is split into its cases on
    integers, and each endpoint sum is one `_dyadic_sum` over D.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not _same_roof(nu1.roof, nu2.roof):
        raise RoofMismatchError("flow distances require a common roof and cut height")
    tail = Fraction(1, 2**N)
    if nu1 is nu2 or (
        nu1.base is nu2.base
        and nu1.base is not None
        and nu1.lam == nu2.lam
        and nu1.integral == nu2.integral
    ) or (nu1.is_zero and nu2.is_zero):
        return Fraction(0), tail
    words = canonical_cylinders(spec, N)
    k1, a1, b1 = _kac_brackets(nu1, words, prec)
    k2, a2, b2 = _kac_brackets(nu2, words, prec)
    D = math.lcm(a1.denominator, b1.denominator, a2.denominator, b2.denominator)
    p1, q1, p2, q2 = (v.numerator * (D // v.denominator) for v in (a1, b1, a2, b2))
    lows, highs = [], []
    for x, y in zip(k1, k2):
        # D times (bracket x minus bracket y), then its absolute value
        lo, hi = x * p1 - y * q2, x * q1 - y * p2
        if lo < 0:
            lo, hi = (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))
        lows.append(lo)
        highs.append(hi)
    return _dyadic_sum(lows, D), _dyadic_sum(highs, D) + tail


# ---------------------------------------------------------------------------
# flow-level limit analysis


@record
class FlowLimitReport:
    verdict: str  # "zero flow limit" | "flow limit with mass lambda" | "undetermined"
    integral_trace: tuple[LogLinear, ...]
    params: dict
    lam: Interval | None = None
    limit_integral: LogLinear | None = None
    base_report: object = None
    base_mass_is_one: bool | None = None

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict,
            "integral_trace_display": [float(v) for v in self.integral_trace],
            "lambda": None
            if self.lam is None
            else {
                "lo": fraction_str(self.lam.lo),
                "hi": fraction_str(self.lam.hi),
                "display": self.lam.midpoint_float(),
            },
            "limit_integral_display": None
            if self.limit_integral is None
            else float(self.limit_integral),
            "base_mass_is_one": self.base_mass_is_one,
            "params": self.params,
        }


def _limit_table_integral(roof: RoofFunction, table) -> LogLinear:
    depth = max(table.depth_caps, default=0)
    if depth < roof.depth:
        raise ValueError(
            f"limit table depth {depth} is shallower than the roof depth {roof.depth}"
        )
    return fold_sum([
        (v, roof_eval(roof, w))
        for w, v in table.entries.items()
        if len(w) == roof.depth and v != 0
    ])


def flow_limit_analyze(
    seq: MeasureSequence,
    roof: RoofFunction,
    n_max: int,
    depth: int,
    symbol_cap: int,
    tol: Rational,
    prec: int = 64,
) -> FlowLimitReport:
    """Classify the flow-level limit of lifted probability terms.

    Integrals that keep growing through the trailing window force the
    zero verdict; a bounded, settling integral together with a base
    limit of full mass yields the mass-lambda verdict with
    lambda = (integral of the base limit) / (limit of the integrals).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tol = Fraction(tol)
    terms = []
    integrals = []
    for n in range(1, n_max + 1):
        terms.append(seq.term(n))
        integrals.append(roof_integral(roof, terms[-1]))
    integrals = tuple(integrals)
    window = integrals[max(0, n_max - max(2, n_max // 4)) :]
    params = {
        "n_max": n_max,
        "depth": depth,
        "symbol_cap": symbol_cap,
        "tol": str(tol),
        "roof": roof.name,
        "description": seq.description,
    }

    increasing = all(b > a for a, b in zip(window, window[1:]))
    doubled = integrals[-1] >= 2 * integrals[0]
    if increasing and doubled:
        return FlowLimitReport("zero flow limit", integrals, params)

    w_min, w_max = window[0], window[0]
    for v in window[1:]:
        if v < w_min:
            w_min = v
        if v > w_max:
            w_max = v
    osc = w_max - w_min
    rel_cap = tol * w_max  # oscillation small relative to the window scale
    if not (osc <= rel_cap):
        return FlowLimitReport("undetermined", integrals, params)

    # the base limit reads the terms already generated, not the generator
    base_report = cylinder_limit(
        sequence_from_measures(terms, seq.description), depth, symbol_cap, n_max, tol
    )
    mass_lo = base_report.mass_bracket[0]
    base_is_prob = mass_lo >= 1 - tol
    if not base_is_prob:
        return FlowLimitReport(
            "undetermined", integrals, params, base_report=base_report, base_mass_is_one=False
        )
    limit_integral = _limit_table_integral(roof, base_report.limit_table)
    li = limit_integral.eval_interval(prec)
    lim_lo = w_min.eval_interval(prec)
    lim_hi = w_max.eval_interval(prec)
    lam = Interval(li.lo, li.hi).div_pos(Interval(lim_lo.lo, lim_hi.hi))
    return FlowLimitReport(
        "flow limit with mass lambda",
        integrals,
        params,
        lam=lam,
        limit_integral=limit_integral,
        base_report=base_report,
        base_mass_is_one=mass_lo == 1,
    )


# ---------------------------------------------------------------------------
# flow escape sequences


@record
class FlowEscapeResult:
    sequence: MeasureSequence
    construction: str  # "escape-words" | "first-return-loops"
    integral_trace: tuple[LogLinear, ...]
    integral_increasing: bool
    certificates: tuple

    def to_jsonable(self) -> dict:
        return {
            "construction": self.construction,
            "integral_trace_display": [float(v) for v in self.integral_trace],
            "integral_increasing": self.integral_increasing,
            "terms": len(self.integral_trace),
        }


def flow_escape_sequence(
    spec: ShiftSpec,
    roof: RoofFunction,
    caps: SearchCaps | None = None,
    terms: int = 10,
    probe_symbols: int = 3,
    probe_len: int = 4,
    probe_symbol_cap: int = 10_000,
    base_target_len: int = 60,
) -> FlowEscapeResult:
    """Periodic flow measures whose roof integrals provably grow.

    First tries first-return loop families with unboundedly many loops
    (their symbols grow, so a diverging tail rule drives the integral);
    otherwise builds escape words at growing cutoffs and certifies the
    integral trace directly.  Fails loudly when neither construction
    works under the caps, e.g. on finite alphabets.
    """
    caps = caps or SearchCaps()
    # evidence of unboundedly many fixed-length loops somewhere low: the
    # family must overshoot the request (it keeps going) and the sampled
    # integrals must strictly increase, else this branch proves nothing.
    # A loop probe reads every row it finishes up to the symbol cap, so
    # it gets its own modest cap.
    loop_cap = min(probe_symbol_cap, caps.symbol_cap)
    for i in range(1, probe_symbols + 1):
        for q in range(1, probe_len + 1):
            probe = f_property_probe(
                spec, i, q + 1, cap=terms * 4, symbol_cap=loop_cap
            )
            if probe.count < terms:
                continue
            try:
                loops = first_return_loops(spec, i, q, 2 * terms, loop_cap)[:terms]
            except NotEnoughLoopsError:
                continue
            measures = [
                convex_combination([(1, measure_from_cycle(spec, w))])
                for w in loops
            ]
            trace = tuple(roof_integral(roof, m) for m in measures)
            if not all(b > a for a, b in zip(trace, trace[1:])):
                continue
            return FlowEscapeResult(
                sequence=sequence_from_measures(
                    measures, f"first-return loops at {i}, period {q} on {spec.name}"
                ),
                construction="first-return-loops",
                integral_trace=trace,
                integral_increasing=True,
                certificates=tuple(loops),
            )
    # otherwise: escape words, one per growing cutoff
    measures = []
    certs = []
    try:
        for k in range(1, terms + 1):
            res = escape_sequence(spec, k, base_target_len * k, caps)
            measures.append(convex_combination([(1, res.measure)]))
            certs.append(res)
    except EscapeSearchError as exc:
        raise FlowEscapeError(
            f"no diverging construction on {spec.name}: loop probes found no "
            f"unbounded family and the escape-word search failed ({exc})"
        ) from exc
    trace = tuple(roof_integral(roof, m) for m in measures)
    increasing = all(b > a for a, b in zip(trace, trace[1:]))
    return FlowEscapeResult(
        sequence=sequence_from_measures(measures, f"escape words on {spec.name}"),
        construction="escape-words",
        integral_trace=trace,
        integral_increasing=increasing,
        certificates=tuple(certs),
    )


# ---------------------------------------------------------------------------
# single-orbit approximation of rational convex combinations


@record
class ApproxResult:
    measure: PeriodicMeasure
    repetitions: int  # the realized block budget R
    metric_bracket: tuple[Fraction, Fraction]
    metric_depth: int
    integral_gap: LogLinear  # |integral(word orbit) - integral(target)|
    target_integral: LogLinear
    word: Word

    def to_jsonable(self) -> dict:
        return {
            "cycle": list(self.measure.orbit.cycle),
            "period": self.measure.period,
            "repetitions": self.repetitions,
            "metric_lower": fraction_str(self.metric_bracket[0]),
            "metric_upper": fraction_str(self.metric_bracket[1]),
            "metric_depth": self.metric_depth,
            "integral_gap_display": float(self.integral_gap),
            "target_integral_display": float(self.target_integral),
        }


# no block word is built beyond this many symbols: each doubling doubles
# the word, and the returned orbit (or exit-3 best) is built in memory
BLOCK_WORD_CAP = 2**22


def _block_runs(
    spec: ShiftSpec, cycles: list[Word], reps: list[int], caps: SearchCaps
) -> RunWord:
    """Cycle blocks joined by connecting words, cyclically, as runs: each
    cycle repeated its block budget, each connector once."""
    runs: list[tuple[Word, int]] = []

    def _bridge(a: int, b: int) -> None:
        if spec.is_allowed(a, b):
            return
        path = connect(
            spec, a, b, caps.connect_max_len, caps.symbol_cap,
            min_len=2 if a == b else 1,
        )
        if path is None or len(path) < 3:
            raise ApproximationError(f"no connector from {a} to {b} under the caps")
        runs.append((tuple(path[1:-1]), 1))

    for cyc, r in zip(cycles, reps):
        if runs:
            _bridge(runs[-1][0][-1], cyc[0])
        runs.append((cyc, r))
    _bridge(runs[-1][0][-1], runs[0][0][0])
    return RunWord(tuple(runs))


def _block_word(block: RunWord) -> Word:
    """The word of a run word, built."""
    return tuple(itertools.chain.from_iterable(s * r for s, r in block.runs))


def approximate_by_single_orbit(
    target: ConvexCombination,
    roof: RoofFunction,
    eps: Rational,
    spec: ShiftSpec,
    caps: SearchCaps | None = None,
    max_doublings: int = 40,
) -> ApproxResult:
    """One periodic orbit metric- and integral-close to a rational convex
    combination of periodic measures.

    Each component cycle is repeated proportionally to weight/period and
    the blocks are joined by connecting words; the block budget R doubles
    until both certificates hold: the metric upper bound is at most eps
    and the roof-integral gap is at most eps.  Certificates are sound by
    recomputation: they are exactly those of the returned orbit.

    Each doubling reads the block word in run-length form (`RunWord`):
    its cylinder masses and Birkhoff sum come from run window counts, so
    a doubling costs O(sum(|s| + k) * k) per word length k, whatever R
    is, and the target's masses are computed once.  Admissibility is
    checked per doubling on a short word with the same symbols and
    distinct transitions.  The word itself is built once, for the
    returned orbit or the exit-3 best, and is not checked again.
    Doubling stops before a block word would exceed `BLOCK_WORD_CAP`
    symbols.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if target.mass != 1:
        raise ValueError("the target must be a probability combination")
    caps = caps or SearchCaps()
    N = 1
    while Fraction(1, 2**N) > eps / 2:
        N += 1

    cycles = [mu.orbit.cycle for _, mu in target.terms]
    weights = [w for w, _ in target.terms]
    target_integral = roof_integral(roof, target)

    if len(cycles) == 1:
        measure = PeriodicMeasure(target.terms[0][1].orbit)
        lo, hi = metric_d(convex_combination([(1, measure)]), target, N, spec)
        return ApproxResult(
            measure=measure,
            repetitions=measure.period,
            metric_bracket=(lo, hi),
            metric_depth=N,
            integral_gap=LogLinear.zero(),
            target_integral=target_integral,
            word=measure.orbit.cycle,
        )

    # smallest R making every weight*R/period a positive integer
    R0 = 1
    for w, cyc in zip(weights, cycles):
        share = w / len(cyc)
        R0 = R0 * share.denominator // math.gcd(R0, share.denominator)

    def result(R: int, lo: Fraction, hi: Fraction, gap: LogLinear, block: RunWord):
        word = _block_word(block)
        return ApproxResult(
            measure=PeriodicMeasure(_primitive_orbit(word)),
            repetitions=R,
            metric_bracket=(lo, hi),
            metric_depth=N,
            integral_gap=gap,
            target_integral=target_integral,
            word=word,
        )

    words = canonical_cylinders(spec, N)
    target_side = _mass_numerators(target, words)
    eps_value = LogLinear.from_rational(eps)
    best = None  # (R, lo, hi, gap, block) of the best doubling so far
    R = R0
    for _ in range(max_doublings):
        reps = [int(w * R / len(cyc)) for w, cyc in zip(weights, cycles)]
        block = _block_runs(spec, cycles, reps, caps)
        if block.period > BLOCK_WORD_CAP:
            raise ApproximationError(
                f"tolerance {fraction_str(eps)} not reached within the block-word "
                f"cap of {BLOCK_WORD_CAP} symbols (the next block word has "
                f"{block.period}"
                + ("" if best is None else f"; best metric upper bound {fraction_str(best[2])}")
                + ")",
                best=None if best is None else result(*best),
            )
        # s^r with r >= 2 has the transitions of s^2, so this short cyclic
        # word has the block word's symbols and distinct transitions
        short = tuple(itertools.chain.from_iterable(s * min(r, 2) for s, r in block.runs))
        if not is_admissible(spec, short + short[:1]):
            measure_from_cycle(spec, _block_word(block))  # raises its error
        lo, hi = _metric_bracket(_mass_numerators(block, words), target_side, N)
        integral = birkhoff_sum(roof, block) * Fraction(1, block.period)
        gap = integral - target_integral
        if gap.sign() < 0:
            gap = -gap
        if best is None or (hi, gap) < (best[2], best[3]):
            best = (R, lo, hi, gap, block)
        if hi <= eps and gap <= eps_value:
            return result(R, lo, hi, gap, block)
        R *= 2
    raise ApproximationError(
        f"tolerance {fraction_str(eps)} not reached within {max_doublings} doublings "
        f"(best metric upper bound {fraction_str(best[2])})",
        best=result(*best),
    )
