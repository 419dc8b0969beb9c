"""Seeded task lists for the three benchmark workloads.

This module imports nothing from `cmshift`: every cycle is built from the
known structure of its shift (full, finite_full:m, star, renewal, or a
row-list file generated here), never by asking the library's oracle.

In `flow-exact` and `shift-measures` sizes come from fixed ladders and
the seed chooses contents (symbols, weights, graph edges), which keeps
each workload's total work nearly the same from seed to seed while no
two seeds send the program the same inputs.  In `readme-verbs` the seed
also moves each README size by up to 10%.

`build(workload, seed)` is pure: it returns the tasks and the input files
they reference, all under relative paths, so report bytes do not depend
on where a pass runs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("flow-exact", "shift-measures", "readme-verbs")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Task:
    """One CLI call: argv (without --out-dir), expected exit, checks."""

    id: str
    argv: tuple[str, ...]
    expect: int
    check: dict = field(default_factory=dict, compare=False)

    @property
    def out_dir(self) -> str:
        return f"out/{self.id}"

    def full_argv(self) -> list[str]:
        if self.argv and self.argv[0] == "run":
            return list(self.argv)  # the config file carries the out-dir
        return [*self.argv, "--out-dir", self.out_dir]


# ---------------------------------------------------------------------------
# cycles from known shift structure


def _primitive(cycle: list[int]) -> bool:
    n = len(cycle)
    return all(cycle != cycle[:d] * (n // d) for d in range(1, n) if n % d == 0)


def _retry_primitive(make) -> tuple[int, ...]:
    while True:
        cycle = make()
        if _primitive(cycle):
            return tuple(cycle)


def full_cycle(rng: random.Random, period: int, top: int) -> tuple[int, ...]:
    """Any word closes up on the full shift."""
    return _retry_primitive(lambda: [rng.randint(1, top) for _ in range(period)])


def star_cycle(rng: random.Random, blocks: int, top: int) -> tuple[int, ...]:
    """Blocks (1) or (1, k): every edge touches the root 1."""

    def make():
        out = []
        for _ in range(blocks):
            out.append(1)
            if rng.random() < 0.7:
                out.append(rng.randint(2, top))
        return out

    return _retry_primitive(make)


def renewal_cycle(rng: random.Random, blocks: int, top: int) -> tuple[int, ...]:
    """Blocks (1) or (1, j, j-1, ..., 2): 1 -> j, then count down to 1."""

    def make():
        out = []
        for _ in range(blocks):
            j = rng.randint(1, top)
            out.append(1)
            out.extend(range(j, 1, -1))
        return out

    return _retry_primitive(make)


def random_rows(rng: random.Random, size: int) -> dict[int, tuple[int, ...]]:
    """Ring 1 -> 2 -> ... -> size -> 1, a self-loop at 1, and one seeded
    chord in every other row, so every row has exactly two successors.

    The ring makes the graph irreducible; the self-loop at 1 fixes how
    far the canonical enumeration tests (see `canonical_count`).
    """
    rows = {1: (1, 2)}
    for i in range(2, size + 1):
        ring = i % size + 1
        chord = rng.choice([j for j in range(1, size + 1) if j != ring])
        rows[i] = tuple(sorted({ring, chord}))
    return rows


def rows_text(rows: dict[int, tuple[int, ...]]) -> str:
    return "".join(f"{i}: {' '.join(map(str, r))}\n" for i, r in sorted(rows.items()))


def rows_cycle(rng: random.Random, rows: dict[int, tuple[int, ...]], steps: int) -> tuple[int, ...]:
    """Random walk from 1, closed by following the ring back to 1."""
    size = len(rows)

    def make():
        out = [1]
        for _ in range(steps - 1):
            out.append(rng.choice(rows[out[-1]]))
        while out[-1] != size:
            out.append(out[-1] + 1)  # ring edges up to `size`, whose ring edge is back to 1
        return out

    return _retry_primitive(make)


def known_row(shift: str, s: int, cap: int) -> list[int]:
    """Successors of s up to cap on a built-in shift, from its definition."""
    name, _, arg = shift.partition(":")
    if name == "finite_full":
        m = int(arg)
        return list(range(1, min(m, cap) + 1)) if s <= m else []
    if name == "full":
        return list(range(1, cap + 1))
    if name in ("star", "renewal"):
        return list(range(1, cap + 1)) if s == 1 else [1 if name == "star" else s - 1]
    raise ValueError(f"no known structure for {shift!r}")


def canonical_count(row, max_sum: int) -> int:
    """Admissible words with symbol sum <= max_sum; row(i) lists i's successors.

    The canonical enumeration goes by sum, then length, then
    lexicographically, and tests every composition of each sum.  When 1
    has a self-loop, the word 1^s is admissible and comes last among the
    compositions of s, so asking for exactly this many cylinders makes
    the enumeration test all 2^max_sum - 1 compositions up to max_sum,
    whatever the rest of the graph looks like.
    """
    ends: list[dict[int, int]] = [{}]  # ends[t][j]: admissible words of sum t ending in j
    for t in range(1, max_sum + 1):
        cur = {t: 1} if row(t) else {}  # symbols outside the alphabet have no row
        for j in range(1, t + 1):
            cur[j] = cur.get(j, 0) + sum(c for i, c in ends[t - j].items() if j in row(i))
        ends.append({j: c for j, c in cur.items() if c})
    return sum(sum(e.values()) for e in ends)


def combo_text(parts: list[tuple[Fraction, tuple[int, ...]]]) -> str:
    return ";".join(f"{w}:({','.join(map(str, c))})" for w, c in parts)


def _weights(rng: random.Random, k: int) -> list[Fraction]:
    """k positive weights summing to exactly 1."""
    raw = [rng.randint(1, 9) for _ in range(k)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def _jitter(rng: random.Random, size: int) -> int:
    """A README size moved by up to 10% either way."""
    return max(1, size + rng.randint(-math.ceil(size / 10), math.ceil(size / 10)))


# ---------------------------------------------------------------------------
# workloads


class _TaskList:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.tasks: list[Task] = []
        self.files: dict[str, str] = {}

    def next_id(self, argv: list) -> str:
        verb = "-".join(str(a) for a in argv[:2] if not str(a).startswith(("-", "inputs/")))
        return f"t{len(self.tasks):03d}-{verb}"

    def add(self, argv: list, expect: int = 0, **check) -> None:
        tid = self.next_id(argv)
        self.tasks.append(Task(tid, tuple(str(a) for a in argv), expect, check))

    def file(self, name: str, text: str) -> str:
        path = f"inputs/{name}"
        self.files[path] = text
        return path


def _flow_exact(b: _TaskList) -> None:
    rng = b.rng
    # long orbits of many distinct symbols: roof integrals bound by the
    # coprime merge of log(1 + s) terms
    for period in (40, 80, 120, 160, 200, 240, 280):
        cyc = full_cycle(rng, period, 10_000)
        b.add(["flow", "integral", "--roof", "log1p", "--combo", combo_text([(Fraction(1), cyc)])],
              integral=[["1", list(cyc)]])
    for periods in ((150, 100), (90, 90, 90), (60, 40, 30, 20)):
        ws = _weights(rng, len(periods))
        parts = [(w, full_cycle(rng, p, 10_000)) for w, p in zip(ws, periods)]
        b.add(["flow", "integral", "--roof", "log1p", "--combo", combo_text(parts)],
              integral=[[str(w), list(c)] for w, c in parts])
    roof = b.file(
        "roof.txt",
        "depth 2\n"
        + "".join(
            f"table {rng.randint(1, 9)} {j} : log:{rng.randint(3, 50)}\n" for j in range(1, 10)
        )
        + "tail log1p\nc log:2\nvar2 0\n",
    )
    for period in (60, 120):
        cyc = full_cycle(rng, period, 9)
        b.add(["flow", "integral", "--roof-file", roof, "--combo", combo_text([(Fraction(1), cyc)])])
    # class-R floors and tails: many sign decisions between small values
    for horizon in (20, 40, 60, 90, 120):
        b.add(["flow", "classr", "--roof", "log1p", "--horizon", horizon])
    b.add(["flow", "classr", "--roof-file", roof, "--horizon", 40])
    # growing log1p integrals stop at the zero verdict; a constant roof
    # settles, so the base limit is taken too and every term is made twice
    for roof_ref, seq, n_max in (("log1p", "point-masses", 30), ("log1p", "point-masses", 60),
                                 ("log1p", "point-masses", 90), ("log1p", "pair-loops", 30),
                                 ("log1p", "pair-loops", 60), ("const:3/2", "pair-loops", 60),
                                 ("const:3/2", "point-masses", 90)):
        b.add(["flow", "limit", "--shift", "full", "--roof", roof_ref, "--seq", seq,
               "--n-max", n_max, "--symbol-cap", 200])
    # interval evaluation of flow masses over the dense enumeration of the
    # full shift; small symbols give most early cylinders nonzero mass, so
    # nearly every one needs an interval
    for N in (50, 100, 150, 200, 250):
        a = [(w, full_cycle(rng, p, 5)) for w, p in zip(_weights(rng, 2), (30, 20))]
        c = [(w, full_cycle(rng, p, 5)) for w, p in zip(_weights(rng, 3), (20, 15, 10))]
        b.add(["metric", "rho", "--shift", "full", "--roof", "log1p",
               "--combo-a", combo_text(a), "--combo-b", combo_text(c), "--N", N])
    # the doubling depth depends on where the target's cylinders sit in the
    # canonical order, so the symbols are fixed per rung and the seed only
    # orders the two components
    for eps, y in (("1e-3", 2), ("3e-4", 3), ("1e-4", 4), ("3e-5", 5), ("1e-5", 6)):
        target = combo_text(rng.sample([(Fraction(1, 2), (1,)), (Fraction(1, 2), (y,))], 2))
        b.add(["densusp", "--shift", "full", "--target", target, "--roof", "log1p", "--eps", eps])


def _shift_measures(b: _TaskList) -> None:
    rng = b.rng
    # canonical enumeration on sparse shifts: generate-and-filter is
    # exponential in N here, so the finite_full:1 sizes are fixed
    for N in (12, 13, 14):
        b.add(["metric", "d", "--shift", "finite_full:1", "--combo-a", "1:(1)",
               "--combo-b", "1:(1)", "--N", N], metric_d=N)
    # N is the count of admissible words up to a symbol sum, so every seed
    # tests the same 2^sum - 1 compositions; the seed picks the combos
    sparse = [
        ("finite_full:2", lambda: full_cycle(rng, rng.randint(2, 12), 2), (11, 12)),
        ("renewal", lambda: renewal_cycle(rng, rng.randint(1, 4), 6), (11, 12)),
        ("star", lambda: star_cycle(rng, rng.randint(1, 5), 8), (11, 12)),
    ]
    for shift, make, sums in sparse:
        for total in sums:
            N = canonical_count(lambda i: known_row(shift, i, total), total)
            a = combo_text([(w, make()) for w in _weights(rng, 2)])
            c = combo_text([(Fraction(1), make())])
            b.add(["metric", "d", "--shift", shift, "--combo-a", a, "--combo-b", c,
                   "--N", N], metric_d=None)
    rows = random_rows(rng, 6)
    shift_file = b.file("shift.txt", rows_text(rows))
    for total in (11, 12):
        N = canonical_count(lambda i: rows.get(i, ()), total)
        a = combo_text([(w, rows_cycle(rng, rows, rng.randint(2, 8))) for w in _weights(rng, 2)])
        c = combo_text([(Fraction(1), rows_cycle(rng, rows, rng.randint(2, 8)))])
        b.add(["metric", "d", "--shift-file", shift_file, "--combo-a", a, "--combo-b", c,
               "--N", N], metric_d=None)
    a = combo_text([(w, full_cycle(rng, rng.randint(2, 9), 9)) for w in _weights(rng, 2)])
    b.add(["metric", "d", "--shift", "full", "--combo-a", a, "--combo-b", "1:(1)",
           "--N", 300], metric_d=None)
    # limit traces: words x window cells of exact Fraction work, no LogLinear
    for seq, n_max, depth, cap in (("pair-loops", 100, 2, 150), ("pair-loops", 200, 2, 250),
                                   ("point-masses", 200, 2, 250), ("pair-loops", 150, 3, 200),
                                   ("pair-loops", 250, 3, 300)):
        b.add(["converge", "classify", "--shift", "full", "--seq", seq,
               "--n-max", n_max, "--depth", depth, "--symbol-cap", cap, "--K", 100])
    for periods in ((30, 20), (60,), (40, 30, 20)):
        parts = [(w, full_cycle(rng, p, 30)) for w, p in zip(_weights(rng, len(periods)), periods)]
        b.add(["measure", "invariance", "--combo", combo_text(parts), "--depth", 3,
               "--symbol-cap", 100], invariance=True)
    for q, count in ((2, 40), (3, 60), (2, 80)):
        b.add(["nonf-demo", "--shift", "full", "--i", rng.randint(1, 3), "--q", q,
               "--count", count])
    # the escape search that gives up only after walking far past its cap
    b.add(["escape", "--shift", "loop_family:linear", "--k", 3,
           "--target-len", 300, "--symbol-cap", 600], expect=3)
    for hi in (60, 120):
        n = hi
        b.add(["entropy", "--shift", "renewal", "--a", 1, "--n", f"1..{n}",
               "--symbol-cap", n + 10], entropy=["renewal", n])
    for shift, n in (("finite_full:3", 6), ("finite_full:4", 5), ("renewal", 9), ("star", 7)):
        b.add(["orbit", "enum", "--shift", shift, "--a", 1, "--n", n, "--cap", 400,
               "--symbol-cap", 60], enum=[shift, n, 400])
    for shift in ("renewal", "star", "full"):
        b.add(["shift", "check", "--shift", shift, "--horizon", 30,
               "--symbol-cap", 200])
    b.add(["shift", "check", "--shift-file", shift_file, "--horizon", 6])


def _readme_verbs(b: _TaskList) -> None:
    rng = b.rng
    j = lambda n: _jitter(rng, n)  # noqa: E731
    small = lambda: rng.randint(1, 9)  # noqa: E731
    # four rounds, one built-in shift per round for the shift verbs
    for shift in ("star", "renewal", "full", "finite_full:3"):
        b.add(["shift", "info", "--shift", shift, "--horizon", j(8)])
        b.add(["shift", "check", "--shift", shift, "--horizon", j(8)])
        m, n = rng.randint(2, 3), rng.randint(2, 4)
        b.add(["orbit", "enum", "--shift", f"finite_full:{m}", "--a", 1, "--n", n],
              enum=[f"finite_full:{m}", n, 100])
        b.add(["orbit", "connect", "--shift", "star", "--a", small() + 1, "--b", small() + 1])
        x, y = rng.sample(range(1, 10), 2)
        combo = [(Fraction(1, 2), (x,)), (Fraction(1, 2), full_cycle(rng, 2, 9))]
        b.add(["measure", "eval", "--combo", combo_text(combo), "--cylinder", x],
              eval=[[[str(w), list(c)] for w, c in combo], [x]])
        parts = [(Fraction(1, 3), full_cycle(rng, 3, 9)), (Fraction(1, 3), (y,))]
        b.add(["measure", "invariance", "--combo", combo_text(parts)], invariance=True)
        b.add(["metric", "d", "--combo-a", f"1:({x})", "--combo-b", f"1:({y})", "--N", j(12)],
              metric_d=None)
        b.add(["metric", "rho", "--roof", "log1p", "--combo-a", f"1:({x})",
               "--combo-b", combo_text([(Fraction(1), full_cycle(rng, 2, 9))]), "--N", j(12)])
        b.add(["escape", "--shift", "loop_family:linear", "--k", rng.randint(2, 4),
               "--target-len", j(300), "--symbol-cap", 100_000_000])
        # at README size, so the tail percentile falls inside this group
        b.add(["nonf-demo", "--shift", "full", "--i", 1, "--q", 2, "--count", 50])
        hi = j(12)
        b.add(["entropy", "--shift", "finite_full:3", "--a", 1, "--n", f"1..{hi}"],
              entropy=["finite_full:3", hi])
        cyc = full_cycle(rng, 2, 9)
        b.add(["flow", "integral", "--roof", "log1p", "--combo", combo_text([(Fraction(1), cyc)])],
              integral=[["1", list(cyc)]])
        b.add(["flow", "limit", "--shift", "full", "--seq", "point-masses", "--n-max", j(30)])
        b.add(["densusp", "--shift", "full", "--roof", "log1p", "--eps", "1e-3",
               "--target", combo_text([(Fraction(1, 2), (x,)), (Fraction(1, 2), (y,))])])
        b.add(["flow", "classr", "--roof", "log1p", "--horizon", 16])  # cost ~ horizon^2
    # the one large README example, a full CSV trace of the pair-loop limit;
    # its cost grows with n-max squared, so its size is not jittered
    b.add(["converge", "trace", "--shift", "full", "--seq", "pair-loops", "--n-max", 200,
           "--symbol-cap", 200])
    hi = j(10)
    config = b.file("config.json", json.dumps(
        {"argv": ["entropy", "--shift", "finite_full:2", "--a", 1, "--n", f"1..{hi}",
                  "--out-dir", f"out/{b.next_id(['run'])}"]}))
    b.add(["run", config], entropy=["finite_full:2", hi])
    # documented exit 2: bad configuration of several kinds
    b.add(["shift", "info", "--shift", "no_such_shift"], expect=2)
    b.add(["metric", "d", "--combo-a", "1:(1)", "--combo-b", "1:(2)", "--N", 0], expect=2)
    b.add(["orbit", "enum", "--shift", "full", "--a", 1], expect=2)  # argparse: --n missing
    b.add(["run", b.file("broken.json", "{\"argv\": ")], expect=2)
    b.add(["run", b.file("nested.json", json.dumps({"argv": ["run", "x.json"]}))], expect=2)
    b.add(["shift", "info", "--shift-file", "inputs/missing-shift.txt"], expect=2)
    # documented exit 3: searches that exhaust their caps
    b.add(["orbit", "connect", "--shift", "renewal", "--a", j(9), "--b", 40, "--max-len", 3],
          expect=3)
    b.add(["nonf-demo", "--shift", "renewal", "--i", 1, "--q", 3, "--count", 5], expect=3)


_WORKLOAD_TASKS = {
    "flow-exact": _flow_exact,
    "shift-measures": _shift_measures,
    "readme-verbs": _readme_verbs,
}


def build(workload: str, seed: int) -> tuple[list[Task], dict[str, str]]:
    """Tasks in run order and the input files they read, both from the seed."""
    if workload not in _WORKLOAD_TASKS:
        raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")
    b = _TaskList(workload, seed)
    _WORKLOAD_TASKS[workload](b)
    return b.tasks, b.files
