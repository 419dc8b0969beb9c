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
sums keep the grouping of a left fold.  Each `+` of operands of n and k
terms costs n + k gcds against two products to find the terms that
share a factor with the other operand, and splits only those: O(n' * k')
gcds when n' and k' of them do (see `_merge`).

`fold_sum(pairs)` is the one-shot form of the same fold: it returns
`((0 + w1 * v1) + w2 * v2) + ...` with exactly the normal form that
fold gives.  A fold of one pair is the scaling `w1 * v1`, since v1's
bases are already coprime and sorted; `*` works on integer numerators
and builds one `Fraction` per distinct coefficient.  A longer fold keeps
the running sum as integer numerators over one common denominator, with
no `Fraction` work until the normal form is built once, at the end.  It
takes its adds in blocks of 16: one C-level gcd pass per block, of the
accumulated bases against the product of the block's bases, sets aside
every base that no add of the block can touch, and each add then scans
only the few bases that are left.  A long fold so costs about one gcd
per accumulated base per block, not per add.  This is one level of the
product/remainder filtering of D. J. Bernstein, "Factoring into coprimes
in essentially linear time", J. Algorithms 54 (2005).  An add of one
log term, as every window of a log1p Birkhoff sum is, takes its base as
the product of the gcd pass, and when that base is a product of powers
of the bases it hits, it only raises their coefficients, with the
split's own result (see `_add_powers`).

Numeric enclosures are directed rational intervals: `eval_interval(p)`
returns a bracket of width at most 2**-p whose endpoints are dyadic
rationals, computed from the atanh series with outward rounding at
every step.  The log enclosures are dyadic too, so `eval_interval`
sums them times the coefficients, with the rational part, as integer
numerators over one denominator lcm(denominators) * 2**k and rounds
each endpoint outward once; the endpoints are those of the same sum in
`Fraction`s.  Order comparisons first test the cached 32-bit
enclosures of both sides and refine the sign of the difference only
when they overlap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, repeat
from math import gcd
from numbers import Rational

from ._record import record

__all__ = ["Interval", "LogLinear", "fold_sum", "fraction_str", "log_interval"]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


# an integer of at most this many bits has at most 603 digits, below 640,
# the lowest int-to-str digit limit Python accepts
_STR_SAFE_BITS = 2000


def fraction_str(q: Rational) -> str:
    """`str(Fraction(q))`, also for integers past the int-to-str digit
    limit: `decimal` converts integers of any size exactly, and the
    process-wide limit is left alone.  Integers too short to reach any
    limit take `str` itself."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    if n.bit_length() > _STR_SAFE_BITS or d.bit_length() > _STR_SAFE_BITS:
        n, d = Decimal(n), Decimal(d)
    return str(n) if d == 1 else f"{n}/{d}"


def _display_float(q: Fraction) -> float:
    """`float(q)`, saturated to +-inf beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


@record
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
    """Enclosure of log(u) for 1 <= u <= 2, width <= 2**-prec.

    log u = 2 atanh z = 2 * sum_j z**(2j+1) / (2j+1) with z = (u-1)/(u+1)
    <= 1/3.  The series runs on integers at scale S = 2**bits: z, the
    powers and both partial sums are held as S times their value, floored
    for the lower sum and ceiled for the upper one, and z**2 exactly at
    scale S**2.  Each step forms the next power exactly at scale S**3 and
    floors or ceils it and its sum back to scale S with `//` and shifts.
    The series stops once twice the geometric tail bound
    z**(k+2) z**2 / ((k+2) (1 - z**2)) is at most 2**-(prec+2), decided by
    bit lengths and, for the last few terms, one integer comparison; the
    division by k runs after the shift, in linear time, with the same
    floors.  The last power is then added exactly, and
    each endpoint is one floor or ceiling of the exact value at scale
    2**(prec+2).  The endpoints are those of the same series evaluated
    in `Fraction`s with the same directed roundings.  If the result is
    wider than 2**-prec, the series reruns with 16 more bits.
    """
    if u == 1:
        return Interval(_ZERO, _ZERO)
    num, den = u.numerator - u.denominator, u.numerator + u.denominator
    bits = prec + 10
    while True:
        two, three = 2 * bits, 3 * bits
        out_shift = three - (prec + 3)  # from scale S**3 to 2 * 2**(prec+2)
        z_lo = (num << bits) // den
        z_hi = -((-num << bits) // den)
        zz_lo, zz_hi = z_lo * z_lo, z_hi * z_hi
        one_minus_zz = (1 << two) - zz_hi  # 1 - z_hi**2 at scale S**2
        lo_sum, hi_sum = z_lo, z_hi
        pow_lo, pow_hi = z_lo, z_hi
        zz_bits = zz_hi.bit_length() + prec + 2
        k = 1
        while True:
            x_lo = pow_lo * zz_lo
            x_hi = pow_hi * zz_hi
            k += 2
            bound = (k + 2) * one_minus_zz
            # the product x_hi * zz_hi has at least bit_length sum - 1
            # bits, so the bit lengths alone reject all but the last terms
            if (
                x_hi.bit_length() + zz_bits <= bound.bit_length() + three
                and (x_hi * zz_hi) << (prec + 3) <= bound << three
            ):
                break
            # floor(x / (k * 2**two)) == floor(floor(x / 2**two) / k)
            lo_sum += (x_lo >> two) // k
            hi_sum -= (-x_hi >> two) // k
            pow_lo = x_lo >> two
            pow_hi = -(-x_hi >> two)
        # lo_sum + x_lo / k and hi_sum + x_hi / k + tail, at scale S**3
        lo = ((lo_sum * k << two) + x_lo) // (k << out_shift)
        d = (k + 2) * one_minus_zz
        hi_num = ((hi_sum * k << two) + x_hi) * d + x_hi * zz_hi * k
        hi = -(-hi_num // (k * d << out_shift))
        if hi - lo <= 4:  # width (hi - lo) / 2**(prec+2) <= 2**-prec
            return Interval(Fraction(lo, 1 << (prec + 2)), Fraction(hi, 1 << (prec + 2)))
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


@lru_cache(maxsize=4096)
def _log_numerators(b: int, prec: int) -> tuple[int, int, int]:
    """`_int_log_interval(b, prec)` as (lo, hi, k), the enclosure
    [lo / 2**k, hi / 2**k]; its endpoints are dyadic."""
    iv = _int_log_interval(b, prec)
    lo, hi = iv.lo, iv.hi
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    return (lo.numerator << k) // lo.denominator, (hi.numerator << k) // hi.denominator, k


def log_interval(x: Rational, prec: int) -> Interval:
    """Directed enclosure of log(x) for rational x > 0, width <= 2**-prec."""
    x = Fraction(x)
    if x.denominator == 1:
        return _int_log_interval(x.numerator, prec)
    return _log_pos_interval(x, prec)


def _merge(left, right) -> dict[int, Fraction]:
    """Combine two normal-form term lists over a pairwise-coprime base.

    Bases sharing a factor are split by gcd until no pair does; the value
    sum c * log(base) is preserved exactly throughout.  The result is
    that of the general merge over the flat list left + right, which
    pops work items from the end and splits each against the first base,
    in insertion order, that shares a factor with it.

    Only the terms that interact enter the split loop (`_split`).  A term
    is hit when its base shares a factor with a base of the other
    operand; one gcd per term against a product finds them all: each
    base of the larger operand against the product of the smaller
    operand's bases, then each base of the smaller operand against the
    product of the larger operand's hit bases.  Every other term is
    copied into the result as it is.  This is exact for every sign
    pattern: each piece the loop creates divides a base of the other
    operand or a hit base of the term's own operand, and the bases of one
    operand are pairwise coprime, so a term that is not hit is coprime to
    every piece.  No piece can equal it, its scan finds no factor, and
    leaving it out of every scan changes no scan's first hit.  The two
    hit subsets are still normal forms, and `_split` runs on them as the
    general merge would, so the result is unchanged.  A sum of n and k
    terms of which n' and k' are hit so costs n + k gcds against two
    products plus the split of the hits; terms that share no factor with
    the other operand cost one gcd each.
    """
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    p = math.prod(b for b, _ in small)
    hit = {b for b, _ in large if gcd(b, p) > 1}
    q = math.prod(hit)
    # a base in both operands is hit in both, so one set serves both
    hit.update([b for b, _ in small if gcd(b, q) > 1])
    bases: dict[int, Fraction] = {}
    work = []
    for bit, terms in ((1, left), (2, right)):
        for b, c in terms:
            if b in hit:
                work.append((b, c, bit, bit))
            else:
                bases[b] = c
    _split(bases, work)
    return bases


def _split(bases: dict, work: list) -> None:
    """Add the hit terms in `work` into `bases`, splitting by gcd.

    `work` holds the left operand's hit terms as `(b, c, 1, 1)`, in
    ascending base order, then the right operand's as `(b, c, 2, 2)`;
    items are popped from the end.  `bases` holds the terms that are not
    hit, which no scan needs to see (see `_merge`), and receives the
    result in place.  The loop is the general merge's, except that gcd
    tests known to give 1 are skipped, so the first hit of each scan is
    unchanged.  Skipped are the tests of

    * an input term against the bases inserted by its own list, whose
      terms are pairwise coprime;
    * the piece b // g of a popped term b, as for b, since it divides b;
    * the pieces g and e // g of a split base e against the bases that
      input terms inserted: the bases stay pairwise coprime, so e was
      coprime to all of them, and no input term is popped while a piece
      is pending.

    A base inserted by an input term carries its list's bit (1 for left,
    2 for right), a base inserted by a piece carries 0; `ins` maps each
    base the loop inserted to its bit, in insertion order.  A work item
    carries the mask of bits it may skip and scans the bases of `ins`
    whose bit is not in the mask.  A split pushes only the pieces that
    are live: a piece of 1, or of coefficient 0, would be popped and
    skipped, and the other pieces keep their order.  For n' and k' hit
    terms this costs O(n' * k') gcds and O(n' + k') per base a piece
    inserted.

    Coefficients are `Fraction`s for `+` and integer numerators over one
    positive common denominator for `fold_sum`: the loop branches only on
    bases and on a coefficient being zero, which scaling leaves alone.
    """
    ins: dict[int, int] = {}
    while work:
        b, c, mask, bit = work.pop()
        ce = bases.get(b)
        if ce is not None:
            c += ce
            if c:
                bases[b] = c
            else:
                del bases[b]
                del ins[b]
            continue
        for e, eb in ins.items():
            if eb & mask:
                continue
            g = gcd(b, e)
            if g > 1:
                ce = bases.pop(e)
                del ins[e]
                if ce + c:
                    work.append((g, ce + c, 3, 0))
                if e != g:
                    work.append((e // g, ce, 3, 0))
                if b != g:
                    work.append((b // g, c, mask, 0))
                break
        else:
            bases[b] = c
            ins[b] = bit


def _add_powers(hot: dict[int, int], hits: list[int], b: int, n: int) -> bool:
    """Add the one-log term n * log(b) into `hot` without a split when b is
    a product of powers of its hits, as `_split` would; otherwise return
    False and leave `hot` as it is.

    `hits` are the bases of `hot` that share a factor with b.  The
    shortcut holds when b = r * prod(h ** a_h) with every a_h >= 1 and r
    coprime to every hit, and when no hit cancels part-way:
    c_h + j * n != 0 for 0 < j < a_h, c_h being h's numerator.  `_split`
    then inserts b first, and each hit h, from the largest down, splits
    the factors h off what is left of b one at a time: its piece
    (h, c_h + j * n) meets that remainder again, as the first base of its
    scan (the other hits' pieces are coprime to h), until no factor h is
    left.  The result is {h: c_h + a_h * n} and {r: n} if r > 1, less the
    zero coefficients.  A part-way cancellation would drop h's piece and
    leave h ** (a_h - j) inside the remainder, so that case, like every
    other, is left to `_split`.
    """
    r = b
    sums = []
    for h in hits:
        a = 0
        while not r % h:
            r //= h
            a += 1
        if not a or gcd(r, h) > 1:
            return False
        c = hot[h]
        if a > 1 and not c % n and 0 < -c // n < a:
            return False
        sums.append(c + a * n)
    for h, c in zip(hits, sums):
        if c:
            hot[h] = c
        else:
            del hot[h]
    if r > 1:
        hot[r] = n
    return True


# adds per block of `fold_sum`; of 4, 8, 16, 32 and 64, 16 was fastest on
# long Birkhoff folds
_FOLD_BLOCK = 16


def fold_sum(pairs: Sequence[tuple[Rational, "LogLinear"]]) -> "LogLinear":
    """The left fold `((0 + w1 * v1) + w2 * v2) + ...` of rational weights
    times `LogLinear` values, with exactly the normal form of that fold.

    A fold of one pair is `w1 * v1`: `0 + x` keeps x's normal form.

    Otherwise the running log terms are integer numerators over one
    common denominator `den`, kept a multiple of every coefficient
    denominator times weight denominator seen, so that each term's
    numerator is one product; an add that needs a new denominator
    rescales them to the lcm.  Weights of 0 are skipped, as `0 * v` is
    zero.  The normal form is built once, at the end.

    The adds are taken in blocks of `_FOLD_BLOCK`.  Each block starts with
    one C-level gcd pass of every accumulated base against the product of
    the block's bases, which moves the bases that share a factor with it
    into a small hot dict.  The rest stay cold.  A cold base is coprime to
    every base of the block and, since the accumulated bases are pairwise
    coprime, to every hot base, so it is coprime to every piece the block
    creates: no scan of the block would hit it and no piece can equal it,
    and leaving it out changes nothing (the argument of `_merge`).  The
    hot dict goes back into the cold one when the next block starts.

    Within a block each add runs against the hot dict alone, as `+` runs
    through `_merge`: its bases are tested against the hot bases with one
    gcd pass against their product, terms that share no factor with the
    other side are copied in, and the rest go through `_split`, the
    accumulator's hits in ascending base order as its sorted normal form
    lists them.  An add of one log term b needs no product: b is the
    product, and it shares a factor with every hit; `_add_powers` settles
    it without a split when b is a product of powers of its hits, which
    most windows of a log1p Birkhoff sum are.  So a fold of n adds scans
    its m accumulated bases about n / `_FOLD_BLOCK` times, instead of once
    per add, and each add scans only the few bases of its block.
    """
    if len(pairs) == 1:
        ((w, v),) = pairs
        return v * w
    q = _ZERO
    cold: dict[int, int] = {}
    hot: dict[int, int] = {}
    den = 1
    gt1 = (1).__lt__
    for start in range(0, len(pairs), _FOLD_BLOCK):
        block = pairs[start : start + _FOLD_BLOCK]
        if start:
            # a new block: set aside the bases it cannot touch
            cold.update(hot)
            p = math.prod([b for x, y in block if x for b, _ in y.logs])
            hits = [*compress(cold, map(gt1, map(gcd, cold, repeat(p))))]
            hot = {b: cold.pop(b) for b in hits}
        for w, v in block:
            if not w:
                continue
            if v.rational:
                q += w * v.rational
            logs = v.logs
            if not logs:
                continue
            wn, wd = w.numerator, w.denominator
            # den stays a multiple of every c.denominator * wd, so each
            # term's numerator is c * w * den without a gcd
            if len(logs) == 1:
                # a one-log add: b is its own product, and shares a factor
                # with every hit
                ((b, c),) = logs
                d = c.denominator * wd
                if den % d:
                    cold, hot, den = _rescaled(cold, hot, den, d)
                n = c.numerator * wn * (den // d)
                hits = [*compress(hot, map(gt1, map(gcd, hot, repeat(b))))]
                if not hits:
                    hot[b] = n
                elif not _add_powers(hot, hits, b, n):
                    hits.sort()
                    work = [(h, hot.pop(h), 1, 1) for h in hits]
                    work.append((b, n, 2, 2))
                    _split(hot, work)
                continue
            d = math.lcm(*[c.denominator for _, c in logs]) * wd
            if den % d:
                cold, hot, den = _rescaled(cold, hot, den, d)
            terms = [(b, c.numerator * wn * (den // (c.denominator * wd))) for b, c in logs]
            p = math.prod([b for b, _ in terms])
            # the hot bases with gcd(b, p) > 1, in one C-level pass
            hits = sorted(compress(hot, map(gt1, map(gcd, hot, repeat(p)))))
            if not hits:
                hot.update(terms)
                continue
            work = [(h, hot.pop(h), 1, 1) for h in hits]
            p = math.prod(hits)
            for b, n in terms:
                if gcd(b, p) > 1:
                    work.append((b, n, 2, 2))
                else:
                    hot[b] = n
            _split(hot, work)
    cold.update(hot)
    return _from_numerators(q, sorted(cold.items()), den)


def _rescaled(cold: dict, hot: dict, den: int, d: int) -> tuple[dict, dict, int]:
    """`fold_sum`'s running numerators over lcm(den, d) instead of den."""
    r = d // gcd(den, d)
    return {b: n * r for b, n in cold.items()}, {b: n * r for b, n in hot.items()}, den * r


def _from_numerators(q: Fraction, nums, den: int) -> "LogLinear":
    """`LogLinear(q, ((b, n / den) for b, n in nums))` for sorted, pairwise
    coprime bases and nonzero n, with one `Fraction` per distinct
    numerator: few coefficients differ."""
    logs = []
    fracs: dict[int, Fraction] = {}
    for b, n in nums:
        c = fracs.get(n)
        if c is None:
            c = fracs[n] = Fraction(n, den)
        logs.append((b, c))
    return LogLinear(q, tuple(logs))


@record(eq=False)
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
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        n, d = r.numerator, r.denominator
        if n <= 0:
            raise ValueError("log of a nonpositive value")
        # n and d are coprime: the normal form is log n - log d, sorted by
        # base, less whichever is 1
        if d == 1:
            return cls(_ZERO, ((n, _ONE),) if n != 1 else ())
        if n == 1:
            return cls(_ZERO, ((d, _MINUS_ONE),))
        if n < d:
            return cls(_ZERO, ((n, _ONE), (d, _MINUS_ONE)))
        return cls(_ZERO, ((d, _MINUS_ONE), (n, _ONE)))

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
        """The scaling by a rational, in the normal form of the fold
        `0 + other * self`: the bases stay, the coefficients are integer
        numerators over lcm(coefficient denominators) * other's
        denominator, and `_from_numerators` builds one `Fraction` per
        distinct one.  `self * 1` is `self`; `self * 0` is zero."""
        if not isinstance(other, (int, Fraction)):
            if not isinstance(other, Rational):
                return NotImplemented
            other = Fraction(other)
        f, g = other.numerator, other.denominator
        if f == g:  # other == 1: the normal form is unchanged
            return self
        if not f:
            return LogLinear.zero()
        q = self.rational
        if q:
            q *= other
        logs = self.logs
        if not logs:
            return LogLinear(q, ())
        # the coefficients as numerators over lcm(denominators) * other's
        den = 1
        for _, c in logs:
            d = c.denominator
            if den % d:
                den = den // gcd(den, d) * d
        nums = [(b, c.numerator * (den // c.denominator) * f) for b, c in logs]
        return _from_numerators(q, nums, den * g)

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
        # a rational value is its own point enclosure, which decides every
        # comparison that a rounded one decides; otherwise the precision
        # `sign` starts at
        if not self.logs:
            return Interval.point(self.rational)
        return self.eval_interval(32)

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
        """Directed enclosure of the value, width <= 2**-prec.

        Each log enclosure is taken `pad + cbits` bits finer than the
        result and scaled by its coefficient; the sum of these with the
        rational part is rounded outward once, to 2**-(prec + 1).  The
        sum runs on integer numerators over den * 2**k, where den is the
        lcm of the rational denominators and 2**-k the finest log grid.
        """
        pad = (len(self.logs) + 1).bit_length() + 1
        q = self.rational
        den, k = q.denominator, 0
        terms = []
        for b, c in self.logs:
            cn, cd = c.numerator, c.denominator
            cbits = (abs(cn) // cd + 1).bit_length() + 1
            lo, hi, bits = _log_numerators(b, prec + pad + cbits)
            # the lower end of c * [lo, hi] is c * hi for c < 0
            terms.append((lo, hi, bits, cn, cd) if cn > 0 else (hi, lo, bits, cn, cd))
            den = math.lcm(den, cd)
            k = max(k, bits)
        lo_sum = hi_sum = q.numerator * (den // q.denominator) << k
        for lo, hi, bits, cn, cd in terms:
            f = cn * (den // cd)
            lo_sum += lo * f << (k - bits)
            hi_sum += hi * f << (k - bits)
        p = prec + 1
        scale = den << k
        return Interval(
            Fraction((lo_sum << p) // scale, 1 << p),
            Fraction(-((-hi_sum << p) // scale), 1 << p),
        )

    def __float__(self) -> float:
        # display convenience; certified values come from eval_interval.
        # An explicit left-to-right loop: builtin sum() of floats is
        # compensated from Python 3.12 on and would change the last digit.
        total = 0.0
        for b, c in self.logs:
            total += _display_float(c) * math.log(b)
        return _display_float(self.rational) + total

    def to_jsonable(self) -> dict:
        return {
            "rational": fraction_str(self.rational),
            "logs": {str(b): fraction_str(c) for b, c in self.logs},
            "display": float(self),
        }

    def __repr__(self) -> str:
        parts = []
        if self.rational or not self.logs:
            parts.append(str(self.rational))
        for b, c in self.logs:
            parts.append(f"{c}*log({b})" if c != 1 else f"log({b})")
        return " + ".join(parts)
