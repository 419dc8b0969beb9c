import random
from fractions import Fraction

import pytest

from cmshift.measures import convex_combination, measure_from_cycle
from cmshift.shifts import (
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
