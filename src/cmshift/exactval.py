"""Exact arithmetic for values of the form q + sum_i c_i * log(b_i).

Rationals are `fractions.Fraction`.  Logarithms of integers are kept
symbolically over a pairwise-coprime integer base, obtained by gcd
splitting (no factoring).  Over such a base the zero test is exact:

    q + sum_i c_i * log(b_i) = 0   iff   q = 0 and every c_i = 0,

because a product of pairwise-coprime integers >= 2 with rational
exponents equals 1 only trivially, and log of a rational other than 1
is irrational.  Sign decisions for nonzero values therefore terminate
by interval refinement, which makes `LogLinear` a totally ordered
exact domain for everything Birkhoff sums of log-type roof functions
can produce.

The base is not canonical.  `+` is a left fold: each sum merges the
two operands' bases, and what it splits depends on how the terms were
grouped.  `(log 6 + log 2) + log 1/2` gives the base {2: 1, 3: 1}, while
`log 6 + (log 2 + log 1/2)` gives {6: 1}.  Reports print that base, so
accumulation loops add term by term and there is deliberately no
one-shot `sum`, which would group differently and change report bytes.
Each `+` costs about O(n * k) gcds for operands of n and k terms (see
`_merge`).

Numeric enclosures are directed rational intervals: `eval_interval(p)`
returns a bracket of width at most 2**-p whose endpoints are dyadic
rationals, computed from the atanh series with outward rounding at
every step.  Order comparisons first test the cached 32-bit enclosures
of both sides and refine the sign of the difference only when they
overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from numbers import Rational

__all__ = ["Interval", "LogLinear", "log_interval"]

_ZERO = Fraction(0)


def _dyadic_floor(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi], used for directed enclosures."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, q: Rational) -> "Interval":
        q = Fraction(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def scale(self, q: Rational) -> "Interval":
        q = Fraction(q)
        if q >= 0:
            return Interval(self.lo * q, self.hi * q)
        return Interval(self.hi * q, self.lo * q)

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(_ZERO, max(-self.lo, self.hi))

    def div_pos(self, other: "Interval") -> "Interval":
        """self / other for nonnegative self and strictly positive other."""
        if other.lo <= 0:
            raise ValueError("division requires a strictly positive divisor")
        if self.lo < 0:
            raise ValueError("division requires a nonnegative dividend")
        return Interval(self.lo / other.hi, self.hi / other.lo)

    def contains(self, q: Rational) -> bool:
        return self.lo <= q <= self.hi

    def rounded(self, bits: int) -> "Interval":
        return Interval(_dyadic_floor(self.lo, bits), _dyadic_ceil(self.hi, bits))

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)


def _floor_log2(x: Fraction) -> int:
    m = x.numerator.bit_length() - x.denominator.bit_length()
    while _cmp_pow2(x, m) < 0:
        m -= 1
    while _cmp_pow2(x, m + 1) >= 0:
        m += 1
    return m


def _cmp_pow2(x: Fraction, m: int) -> int:
    # sign of x - 2^m
    if m >= 0:
        lhs, rhs = x.numerator, x.denominator << m
    else:
        lhs, rhs = x.numerator << (-m), x.denominator
    return (lhs > rhs) - (lhs < rhs)


def _log_in_1_2(u: Fraction, prec: int) -> Interval:
    """Enclosure of log(u) for 1 <= u <= 2, width <= 2**-prec."""
    if u == 1:
        return Interval(_ZERO, _ZERO)
    bits = prec + 10
    while True:
        z = (u - 1) / (u + 1)
        z_lo = _dyadic_floor(z, bits)
        z_hi = _dyadic_ceil(z, bits)
        target = Fraction(1, 1 << (prec + 2))
        lo_sum, hi_sum = z_lo, z_hi
        pow_lo, pow_hi = z_lo, z_hi
        z2_lo, z2_hi = z_lo * z_lo, z_hi * z_hi
        k = 1
        while True:
            pow_lo *= z2_lo
            pow_hi *= z2_hi
            k += 2
            lo_sum += pow_lo / k
            hi_sum += pow_hi / k
            tail = pow_hi * z2_hi / ((k + 2) * (1 - z2_hi))
            if 2 * tail <= target:
                break
            lo_sum = _dyadic_floor(lo_sum, bits)
            hi_sum = _dyadic_ceil(hi_sum, bits)
            pow_lo = _dyadic_floor(pow_lo, bits)
            pow_hi = _dyadic_ceil(pow_hi, bits)
        out = Interval(
            _dyadic_floor(2 * lo_sum, prec + 2),
            _dyadic_ceil(2 * (hi_sum + tail), prec + 2),
        )
        if out.width <= Fraction(1, 1 << prec):
            return out
        bits += 16


@lru_cache(maxsize=None)
def _log2_interval(prec: int) -> Interval:
    return _log_in_1_2(Fraction(2), prec)


def _log_pos_interval(x: Fraction, prec: int) -> Interval:
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    if x == 1:
        return Interval(_ZERO, _ZERO)
    if x < 1:
        return -_log_pos_interval(1 / x, prec)
    m = _floor_log2(x)
    if m == 0:
        return _log_in_1_2(x, prec)
    u = x / (1 << m)
    guard = m.bit_length() + 1
    l2 = _log2_interval(prec + guard)
    base = _log_in_1_2(u, prec + 1)
    return Interval(m * l2.lo + base.lo, m * l2.hi + base.hi)


@lru_cache(maxsize=4096)
def _int_log_interval(b: int, prec: int) -> Interval:
    return _log_pos_interval(Fraction(b), prec)


def log_interval(x: Rational, prec: int) -> Interval:
    """Directed enclosure of log(x) for rational x > 0, width <= 2**-prec."""
    x = Fraction(x)
    if x.denominator == 1:
        return _int_log_interval(x.numerator, prec)
    return _log_pos_interval(x, prec)


def _merge(left, right) -> dict[int, Fraction]:
    """Combine two normal-form term lists over a pairwise-coprime base.

    Bases sharing a factor are split by gcd until no pair does; the value
    sum c * log(base) is preserved exactly throughout.  Work items are
    popped from the end of left + right, and each is tested against the
    bases in insertion order; the first base sharing a factor is split.
    This is the general merge over the flat list left + right, except
    that gcd tests known to give 1 are skipped, so the first hit of each
    scan, and hence the result, is unchanged.  Skipped are the tests of

    * an input term against the bases inserted by its own list, whose
      terms are pairwise coprime;
    * the piece b // g of a popped term b, as for b, since it divides b;
    * the pieces g and e // g of a split base e against the bases that
      input terms inserted: the bases stay pairwise coprime, so e was
      coprime to all of them, and no input term is popped while a piece
      is pending.

    A base inserted by an input term carries its list's bit (1 for left,
    2 for right), a base inserted by a piece carries 0.  A work item
    carries the mask of bits it may skip and scans `views[mask]`, the
    bases whose bit is not in the mask.  A scan so covers at most the
    other list's bases and the bases pieces inserted: a sum of n and k
    terms costs O(n * k) gcds plus O(n + k) per base a piece inserted,
    where the general merge costs O((n + k)^2).
    """
    bases: dict[int, Fraction] = {}
    views: dict[int, dict[int, None]] = {1: {}, 2: {}, 3: {}}
    work = [(b, c, 1, 1) for b, c in left] + [(b, c, 2, 2) for b, c in right]
    while work:
        b, c, mask, bit = work.pop()
        if b == 1 or c == 0:
            continue
        if b in bases:
            bases[b] += c
            if bases[b] == 0:
                del bases[b]
                for view in views.values():
                    view.pop(b, None)
            continue
        for e in views[mask]:
            g = gcd(b, e)
            if g > 1:
                ce = bases.pop(e)
                for view in views.values():
                    view.pop(e, None)
                work.append((g, ce + c, 3, 0))
                work.append((e // g, ce, 3, 0))
                work.append((b // g, c, mask, 0))
                break
        else:
            bases[b] = c
            for m, view in views.items():
                if not m & bit:
                    view[b] = None
    return bases


@dataclass(frozen=True, eq=False)
class LogLinear:
    """Exact value q + sum_i c_i * log(b_i); see module docstring.

    `logs` is the normal form: (b_i, c_i) sorted by base, with pairwise
    coprime bases b_i >= 2 and nonzero c_i.  Every constructor in this
    module keeps it, and `_merge` relies on it.
    """

    rational: Fraction
    logs: tuple[tuple[int, Fraction], ...]

    @classmethod
    def _make(cls, q: Fraction, logmap: dict[int, Fraction]) -> "LogLinear":
        return cls(q, tuple(sorted(logmap.items())))

    @classmethod
    def from_rational(cls, q: Rational) -> "LogLinear":
        return cls(Fraction(q), ())

    @classmethod
    def log_of(cls, r: Rational) -> "LogLinear":
        """Exact log(r) for rational r > 0."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("log of a nonpositive value")
        # numerator and denominator are coprime: two one-term normal forms
        merged = _merge([(r.numerator, Fraction(1))], [(r.denominator, Fraction(-1))])
        return cls._make(_ZERO, merged)

    @classmethod
    def zero(cls) -> "LogLinear":
        return cls(_ZERO, ())

    @property
    def is_rational(self) -> bool:
        return not self.logs

    def as_fraction(self) -> Fraction:
        if self.logs:
            raise ValueError(f"{self!r} is not rational")
        return self.rational

    @property
    def is_zero(self) -> bool:
        return not self.logs and self.rational == 0

    def _coerce(self, other) -> "LogLinear | None":
        if isinstance(other, LogLinear):
            return other
        if isinstance(other, Rational):
            return LogLinear.from_rational(other)
        return None

    def __add__(self, other) -> "LogLinear":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = _merge(self.logs, o.logs)
        return LogLinear._make(self.rational + o.rational, merged)

    __radd__ = __add__

    def __neg__(self) -> "LogLinear":
        return LogLinear(-self.rational, tuple((b, -c) for b, c in self.logs))

    def __sub__(self, other) -> "LogLinear":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LogLinear":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "LogLinear":
        if not isinstance(other, Rational):
            return NotImplemented
        q = Fraction(other)
        if q == 0:
            return LogLinear.zero()
        return LogLinear(self.rational * q, tuple((b, c * q) for b, c in self.logs))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogLinear":
        if not isinstance(other, Rational):
            return NotImplemented
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division of an exact value by zero")
        return self * (1 / q)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; terminates because zero is decidable."""
        if self.is_zero:
            return 0
        if not self.logs:
            return 1 if self.rational > 0 else -1
        prec = 32
        while prec <= 1 << 20:
            iv = self.eval_interval(prec)
            if iv.lo > 0:
                return 1
            if iv.hi < 0:
                return -1
            prec *= 2
        raise ArithmeticError(f"sign refinement did not settle for {self!r}")

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero

    @cached_property
    def _enclosure(self) -> Interval:
        return self.eval_interval(32)  # the precision `sign` starts at

    def _compare(self, o: "LogLinear") -> int:
        """Sign of self - o, from the cached enclosures when they are disjoint."""
        if not self.logs and not o.logs:
            return (self.rational > o.rational) - (self.rational < o.rational)
        a, b = self._enclosure, o._enclosure
        if a.hi < b.lo:
            return -1
        if a.lo > b.hi:
            return 1
        return (self - o).sign()

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._compare(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._compare(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._compare(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._compare(o) >= 0

    __hash__ = None  # normal forms are not unique; semantic equality only

    def eval_interval(self, prec: int) -> Interval:
        """Directed enclosure of the value, width <= 2**-prec."""
        pad = (len(self.logs) + 1).bit_length() + 1
        lo = hi = self.rational
        for b, c in self.logs:
            cbits = (abs(c.numerator) // c.denominator + 1).bit_length() + 1
            iv = _int_log_interval(b, prec + pad + cbits).scale(c)
            lo += iv.lo
            hi += iv.hi
        return Interval(lo, hi).rounded(prec + 1)

    def __float__(self) -> float:
        # display convenience; certified values come from eval_interval
        return float(self.rational) + sum(float(c) * math.log(b) for b, c in self.logs)

    def to_jsonable(self) -> dict:
        return {
            "rational": str(self.rational),
            "logs": {str(b): str(c) for b, c in self.logs},
            "display": float(self),
        }

    def __repr__(self) -> str:
        parts = []
        if self.rational or not self.logs:
            parts.append(str(self.rational))
        for b, c in self.logs:
            parts.append(f"{c}*log({b})" if c != 1 else f"log({b})")
        return " + ".join(parts)
