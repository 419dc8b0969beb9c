import random
from fractions import Fraction

import pytest

from cmshift.asymptotics import NotEnoughLoopsError
from cmshift.exactval import Interval, LogLinear, _int_log_interval
from cmshift.measures import C0Report, convex_combination, measure_from_cycle
from cmshift.shifts import (
    ProbeResult,
    ShiftSpec,
    finite_full_shift,
    full_shift,
    load_shift_text,
    loop_family_shift,
    parse_shift_arg,
    renewal_shift,
    star_shift,
    successor_iter,
)


@pytest.fixture(scope="session")
def full():
    return full_shift()


@pytest.fixture(scope="session")
def star():
    return star_shift()


@pytest.fixture(scope="session")
def renewal():
    return renewal_shift()


@pytest.fixture(scope="session")
def ff3():
    return finite_full_shift(3)


@pytest.fixture(scope="session")
def fam_linear():
    return loop_family_shift(lambda n: n, name="loop_family:linear")


def random_cycle(
    spec: ShiftSpec, rng: random.Random, max_period: int, symbol_cap: int
) -> tuple[int, ...]:
    """A random admissible cycle found by walking until a closure works."""
    for _ in range(4000):
        word = [rng.randint(1, symbol_cap)]
        for _ in range(rng.randint(0, max_period - 1)):
            row = list(successor_iter(spec, word[-1], symbol_cap))
            if not row:
                break
            word.append(rng.choice(row))
            if spec.is_allowed(word[-1], word[0]) and rng.random() < 0.35:
                break
        if spec.is_allowed(word[-1], word[0]) and len(word) <= max_period:
            w = tuple(word)
            for d in range(1, len(w)):
                if len(w) % d == 0 and w == w[:d] * (len(w) // d):
                    return w[:d]
            return w
    raise AssertionError("could not sample a random cycle; caps too tight")


def random_combo(
    spec: ShiftSpec, rng: random.Random, terms: int, symbol_cap: int, probability: bool = False
):
    """A random combination of `terms` periodic measures: a probability,
    or else a sub-probability whose mass may fall short of 1."""
    raw = [rng.randint(1, 9) for _ in range(terms)]
    total = sum(raw) + (0 if probability else rng.randint(0, 3))
    return convex_combination(
        (Fraction(r, total), measure_from_cycle(spec, random_cycle(spec, rng, 8, symbol_cap)))
        for r in raw
    )


def naive_cyclic_mass(cycle, word):
    """Oracle: scan every rotation of the cycle, extended periodically."""
    T = len(cycle)
    ext = cycle * (len(word) // T + 2)
    hits = sum(1 for j in range(T) if ext[j : j + len(word)] == tuple(word))
    return Fraction(hits, T)


def naive_combo_mass(nu, word) -> Fraction:
    """Oracle: a combination's mass on one cylinder, one scan per orbit."""
    return sum(
        (wt * naive_cyclic_mass(mu.orbit.cycle, word) for wt, mu in nu.terms), Fraction(0)
    )


# the shifts of the differential tests, with a symbol cap for random
# cycles; built once, so that their canonical prefixes are shared across
# examples and grow under mixed N
DIFFERENTIAL_SHIFTS = {
    name: (parse_shift_arg(name), cap)
    for name, cap in (("full", 6), ("star", 7), ("renewal", 6), ("finite_full:2", 2))
}
DIFFERENTIAL_SHIFTS["rows"] = (load_shift_text("1: 1 2\n2: 3\n3: 1 3 4\n4: 2\n"), 4)


# shifts without a successors hint: every row is read through `allowed`,
# and its continuation is known only when the alphabet ends
HINTLESS_SHIFTS = {
    "hintless-finite": ShiftSpec(
        "hintless-finite", lambda i, j: (i + 2 * j) % 3 != 0 or i == j, alphabet_size=4
    ),
    "hintless-open": ShiftSpec("hintless-open", lambda i, j: j <= i + 1 and (i + j) % 4 != 1),
}

# the row kernel's readers are compared with the former readers on these:
# hinted shifts with finite and infinite rows and alphabets, a row list
# with a full default, a loop family, and shifts without a hint
KERNEL_SHIFTS = {
    **{name: spec for name, (spec, _) in DIFFERENTIAL_SHIFTS.items()},
    "rows-default-full": load_shift_text("1: 2 3\n2: 1\n4: 1 4\ndefault full\n"),
    "loop_family:linear": parse_shift_arg("loop_family:linear"),
    **HINTLESS_SHIFTS,
}


# ---------------------------------------------------------------------------
# the former row readers, loop searches, canonical enumeration and C0
# check, kept as oracles for the lazy row kernel `successor_iter`, the
# memoised loop-word DFS and the canonical enumeration by extension


def oracle_successors(spec: ShiftSpec, i: int, cap: int) -> tuple[list[int], bool]:
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if spec.successors_hint is not None:
        row: list[int] = []
        prev = 0
        for j in spec.successors_hint(i):
            if j <= prev:
                raise ValueError(f"successors_hint for {i} is not strictly increasing")
            prev = j
            if j > cap:
                return row, True
            row.append(j)
        return row, False
    row = [j for j in range(1, cap + 1) if spec.is_allowed(i, j)]
    size = spec.alphabet_size
    truncated = size is None or (size > cap and 1 <= i <= size)
    return row, truncated


def oracle_successor_iter(spec: ShiftSpec, i: int, cap: int):
    if spec.successors_hint is not None:
        for j in spec.successors_hint(i):
            if j > cap:
                return
            yield j
        return
    for j in range(1, cap + 1):
        if spec.is_allowed(i, j):
            yield j


def oracle_row_continues_beyond(spec: ShiftSpec, i: int, cap: int):
    # no symbol lies below 1, and without a hint none above a finite
    # alphabet: such a row is empty and surely ends
    if i < 1:
        return False
    if spec.successors_hint is not None:
        for j in spec.successors_hint(i):
            if j > cap:
                return True
        return False
    size = spec.alphabet_size
    if size is not None and (size <= cap or i > size):
        return False
    return None


def oracle_enumerate_loops(spec, a, n, cap, symbol_cap):
    if n < 1:
        raise ValueError("n must be >= 1")
    found = []
    stack = []

    def _extensions(sym):
        row, _ = oracle_successors(spec, sym, symbol_cap)
        return iter(row)

    word = (a,)
    if n == 1:
        if spec.is_allowed(a, a):
            found.append(word)
        return found, len(found) >= cap
    stack.append((word, _extensions(a)))
    while stack:
        prefix, it = stack[-1]
        advanced = False
        for j in it:
            if len(prefix) + 1 == n:
                if spec.is_allowed(j, a):
                    found.append(prefix + (j,))
                    if len(found) >= cap:
                        return found, True
            else:
                stack.append((prefix + (j,), _extensions(j)))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return found, len(found) >= cap


def oracle_f_property_probe(spec, i, n, cap, symbol_cap):
    if n < 2:
        raise ValueError("n must be >= 2")
    count = 0
    certified = True

    def _row(sym):
        nonlocal certified
        row, truncated = oracle_successors(spec, sym, symbol_cap)
        if truncated:
            certified = False
        return row

    stack = [((i,), iter(_row(i)))]
    while stack:
        prefix, it = stack[-1]
        advanced = False
        for j in it:
            if len(prefix) + 1 == n:
                if j == i:
                    count += 1
                    if count >= cap:
                        return ProbeResult(count, False, certified, cap, symbol_cap)
            else:
                stack.append((prefix + (j,), iter(_row(j))))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return ProbeResult(count, True, certified, cap, symbol_cap)


def oracle_words_of(spec, total, length):
    """The former class search: admissible words of `length` symbols
    summing to `total`, lexicographically, by DFS along successor rows
    pruned by the remaining sum."""
    top = spec.alphabet_size
    if length == 1:
        if top is None or total <= top:
            yield (total,)
        return
    first = total - length + 1
    if top is not None:
        first = min(first, top)
    word = []
    rem = total
    rows = [iter(range(1, first + 1))]  # rows[i] proposes word[i]
    while rows:
        x = next(rows[-1], None)
        if x is None:
            rows.pop()
            if word:
                rem += word.pop()
            continue
        rem -= x
        after = length - len(word) - 1  # positions left after x
        if after == 1:
            if spec.is_allowed(x, rem):
                yield (*word, x, rem)
            rem += x
        else:
            word.append(x)
            rows.append(successor_iter(spec, x, rem - (after - 1)))


def oracle_canonical_cylinder_iter(spec):
    """The former canonical enumeration: one DFS per (sum, length)
    class, with the same length bounds and finite-language stop."""
    top = spec.alphabet_size
    longest = 0
    total = 0
    while True:
        total += 1
        shortest = 1 if top is None else -(-total // top)
        if shortest > longest + 1:
            return
        for length in range(shortest, longest + 2):
            for word in oracle_words_of(spec, total, length):
                longest = max(longest, length)
                yield word


def oracle_loop_words(spec, a, n, symbol_cap, last, tail=None):
    """The former lazy loop-word DFS, without the failure memo: every
    subtree is walked again wherever it recurs."""
    if n == 1:
        if last(a):
            yield (a,)
        return
    prefix = [a]
    rows = [successor_iter(spec, a, symbol_cap, tail)]
    while rows:
        for j in rows[-1]:
            if len(rows) + 1 == n:
                if last(j):
                    yield (*prefix, j)
            else:
                prefix.append(j)
                rows.append(successor_iter(spec, j, symbol_cap, tail))
                break
        else:
            rows.pop()
            prefix.pop()


def counted(spec):
    """`spec` with a hint that counts the rows it starts, per symbol."""
    reads = {}

    def hint(i):
        reads[i] = reads.get(i, 0) + 1
        return spec.successors_hint(i)

    return ShiftSpec(spec.name, spec.allowed, hint, alphabet_size=spec.alphabet_size), reads


def oracle_first_return_loops(spec, i, q, count, symbol_cap):
    """The former two passes: a padded enumeration, then a larger one."""
    if q < 1:
        raise ValueError("q must be >= 1")
    loops = []
    words, _ = oracle_enumerate_loops(
        spec, i, q, cap=max(count * 4, count + 16), symbol_cap=symbol_cap
    )
    for w in words:
        if all(s != i for s in w[1:]):
            loops.append(w)
        if len(loops) == count:
            return loops
    loops = []
    words, saturated = oracle_enumerate_loops(
        spec, i, q, cap=10 * count + 1000, symbol_cap=symbol_cap
    )
    for w in words:
        if all(s != i for s in w[1:]):
            loops.append(w)
        if len(loops) == count:
            return loops
    raise NotEnoughLoopsError(
        f"only {len(loops)} first-return loops of period {q} at {i} exist "
        f"under symbol cap {symbol_cap}"
        + ("" if not saturated else " (enumeration saturated)")
    )


def _oracle_branch_values(spec, prefix, base, atoms_below, min_next, certified_box):
    depth = len(prefix)
    here = base + sum((a for a, w in atoms_below if w == prefix), Fraction(0))
    deeper = [(a, w) for a, w in atoms_below if len(w) > depth]
    if not deeper and min_next is None:
        return {here}
    child_syms = sorted({w[depth] for _, w in deeper})
    floor = min_next if min_next is not None else 1
    relevant = [s for s in child_syms if s >= floor]
    values = set()
    scan_cap = max(child_syms + [floor]) + 1
    row, _ = oracle_successors(spec, prefix[-1], scan_cap)
    escape = any(s >= floor and s not in relevant for s in row)
    if not escape:
        cont = oracle_row_continues_beyond(spec, prefix[-1], scan_cap)
        if cont:
            escape = True
        elif cont is None:
            certified_box[0] = False
    if escape:
        values.add(here)
    for s in relevant:
        if not spec.is_allowed(prefix[-1], s):
            continue
        sub = [(a, w) for a, w in deeper if w[depth] == s]
        values |= _oracle_branch_values(spec, prefix + (s,), here, sub, None, certified_box)
    return values


def oracle_c0_conditions_check(f, spec, horizon):
    certified_box = [True]
    sup_rows = []
    for n in range(1, horizon + 1):
        row, truncated = oracle_successors(spec, n, max(n, spec.symbol_cap_default))
        if not row and not truncated:
            sup_rows.append((n, Fraction(0)))
            continue
        base = (
            f.tail_value
            if (f.tail_threshold is not None and n > f.tail_threshold)
            else Fraction(0)
        )
        atoms_n = [(a, w) for a, w in f.atoms if w[0] == n]
        vals = _oracle_branch_values(spec, (n,), base, atoms_n, None, certified_box)
        sup_rows.append((n, max((abs(v) for v in vals), default=Fraction(0))))
    sup_eventual = abs(f.tail_value) if f.tail_threshold is not None else Fraction(0)
    var_rows = []
    var_eventual = []
    for _, cyl in f.atoms:
        rows = []
        fixed = sum((a for a, w in f.atoms if w == cyl[: len(w)]), Fraction(0))
        if f.tail_threshold is not None and cyl[0] > f.tail_threshold:
            fixed += f.tail_value
        extensions = [
            (a, w) for a, w in f.atoms if len(w) > len(cyl) and w[: len(cyl)] == cyl
        ]
        for n in range(1, horizon + 1):
            row, _ = oracle_successors(spec, cyl[-1], max(n, spec.symbol_cap_default))
            populated = any(s >= n for s in row)
            if not populated:
                cont = oracle_row_continues_beyond(
                    spec, cyl[-1], max(n, spec.symbol_cap_default)
                )
                populated = bool(cont)
                if cont is None:
                    certified_box[0] = False
            if not populated:
                rows.append((n, Fraction(0)))
                continue
            vals = _oracle_branch_values(spec, cyl, fixed, extensions, n, certified_box)
            rows.append((n, max(vals) - min(vals) if vals else Fraction(0)))
        var_rows.append((cyl, tuple(rows)))
        var_eventual.append((cyl, Fraction(0)))
    return C0Report(
        modulus_depth=f.max_depth,
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
# the former Fraction loops of `LogLinear.eval_interval` and
# `LogLinear.log_of`, kept as oracles for the integer forms, with the
# directed dyadic roundings they use


def dyadic_floor(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


def oracle_eval_interval(x, prec: int):
    pad = (len(x.logs) + 1).bit_length() + 1
    lo = hi = x.rational
    for b, c in x.logs:
        cbits = (abs(c.numerator) // c.denominator + 1).bit_length() + 1
        iv = _int_log_interval(b, prec + pad + cbits).scale(c)
        lo += iv.lo
        hi += iv.hi
    return Interval(dyadic_floor(lo, prec + 1), dyadic_ceil(hi, prec + 1))


def oracle_log_of(r):
    r = Fraction(r)
    if r <= 0:
        raise ValueError("log of a nonpositive value")
    terms = ((r.numerator, Fraction(1)), (r.denominator, Fraction(-1)))
    return LogLinear._make(Fraction(0), {b: c for b, c in terms if b != 1})
