"""Well-ordered semigroups generated by delta-sequences.

Every sequence kind generates a semigroup in its ambient ordered group:
integers, plane vectors under lexicographic order, rationals, or a real
quadratic extension.  This module provides the shared operations on those
semigroups: exact comparison of values, the unique bounded representation
of a member over the generators, and one ordered walk over the members with
their representations.  Enumeration up to a bound, the successor of a value
and the pair count omega (the number of ordered pairs of members summing to
a given value) are views on that walk.  The engines yield integer rows;
value objects are built from them only where a caller asks for values.

Representations are unique under the bound pattern reported alongside the
exponents: the first exponent is always free, interior exponents are bounded
by the quotients n_i of the underlying integer sequence, and whether the last
exponent is free depends on the kind.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import groupby
from math import isqrt, lcm
from operator import itemgetter

from .deltaseq import (
    DeltaN,
    telescopic_exponents,
    telescopic_members,
    validate_n,
)
from .errors import DomainError
from .genesis import DeltaQ, DeltaR, DeltaZ2, extend_n
from .quadratics import QuadExt, floor_of, sign_of

__all__ = [
    "LexValue",
    "QuadValue",
    "RatValue",
    "Representation",
    "compare",
    "enumerate_upto",
    "generators",
    "omega",
    "represent",
    "rows_upto",
    "successor",
    "walk",
    "zero_of",
]


@dataclass(frozen=True)
class LexValue:
    """A plane vector compared lexicographically."""

    x: int
    y: int


@dataclass(frozen=True)
class RatValue:
    """A rational value."""

    value: Fraction


@dataclass(frozen=True)
class QuadValue:
    """The value r + m * tau in a real quadratic extension."""

    r: Fraction
    m: int
    tau: QuadExt

    def exact(self) -> QuadExt:
        return self.tau * self.m + self.r


@dataclass(frozen=True)
class Representation:
    """Exponents over the generators, with the uniqueness bound pattern.

    ``bounds[i]`` is ``None`` when the i-th exponent is unbounded, otherwise
    the exclusive upper bound it must stay below.
    """

    exponents: tuple[int, ...]
    bounds: tuple[int | None, ...]


def _quad_sign(r: Fraction, m: int, tau: QuadExt) -> int:
    """Sign of r + m * tau, without building a quadratic value."""
    return sign_of(r + m * tau.a, m * tau.b, tau.d)


def compare(left, right) -> int:
    """Exact three-way comparison; -1, 0, or 1.

    Values of different kinds cannot be compared, except rationals against
    quadratic values, which embed in the same real line.
    """
    if isinstance(left, LexValue) and isinstance(right, LexValue):
        lhs, rhs = (left.x, left.y), (right.x, right.y)
        return (lhs > rhs) - (lhs < rhs)
    if isinstance(left, RatValue) and isinstance(right, RatValue):
        return (left.value > right.value) - (left.value < right.value)
    if isinstance(left, QuadValue) and isinstance(right, QuadValue):
        if left.tau != right.tau:
            raise DomainError("order mismatch: values live over different tails")
        return _quad_sign(left.r - right.r, left.m - right.m, left.tau)
    if isinstance(left, RatValue) and isinstance(right, QuadValue):
        return _quad_sign(left.value - right.r, -right.m, right.tau)
    if isinstance(left, QuadValue) and isinstance(right, RatValue):
        return _quad_sign(left.r - right.value, left.m, left.tau)
    raise DomainError("order mismatch: values of different kinds")


# --- per-kind engines -------------------------------------------------------


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


class _Engine:
    """The ordered walk shared by every kind.

    An engine supplies ``between(lo, hi)``: the members in the window
    (lo, hi] (from zero on when lo is None) in increasing order, as a pair
    (scale, rows).  A row is ``(v, exps)``: ``v`` is the integer numerator
    over ``scale`` of the member's rational part, or the plane vector (x, y)
    for the planar kind (scale 1), and ``exps`` are its exponents; for the
    quadratic kind the member is v / scale + exps[-1] * tau.  ``values``
    turns one window's rows into (value, Representation) pairs.  The walk
    strings windows together, doubling the upper end, so every member is
    yielded once and in order.
    """

    def walk(self, after=None):
        """Every member above ``after`` (from zero on when None), unbounded."""
        lo = after
        hi = self.add(self.zero() if after is None else after, self.generators()[0])
        while True:
            yield from self.values(*self.between(lo, hi))
            lo, hi = hi, self.add(hi, hi)


class _HeadEngine(_Engine):
    """A kind whose members are a member s of the integer semigroup ``head``
    plus m times one free generator.  ``top(value, m)`` is the largest s
    whose member with m copies is <= value, negative when there is none;
    ``copies(value)`` is the least m whose m copies alone exceed value, so
    top(value, m) >= 0 exactly for m < copies(value)."""

    def runs(self, lo, hi):
        """(m, head rows) for each m: the rows (s, exps) of the head members
        whose member with m copies lies in the window (lo, hi], by s."""
        for m in range(self.copies(hi)):
            bottom = -1 if lo is None else self.top(lo, m)
            yield m, telescopic_members(self.head, bottom, self.top(hi, m))


class _RationalEngine(_Engine):
    """Arithmetic shared by the kinds whose members are rational numbers."""

    def lift(self, value) -> RatValue:
        if isinstance(value, RatValue):
            return value
        raise DomainError("value kind mismatch")

    def zero(self) -> RatValue:
        return RatValue(Fraction(0))

    def add(self, a: RatValue, b: RatValue) -> RatValue:
        return RatValue(a.value + b.value)

    def sub(self, a: RatValue, b: RatValue) -> RatValue:
        return RatValue(a.value - b.value)


class _IntegerEngine(_RationalEngine):
    """The integer sequence's own telescopic semigroup."""

    def __init__(self, delta: DeltaN) -> None:
        self.delta = delta
        self.bounds = (None,) + tuple(delta.structure.n)

    def generators(self) -> tuple[RatValue, ...]:
        return tuple(RatValue(Fraction(v)) for v in self.delta.deltas)

    def represent(self, value: RatValue) -> Representation:
        if value.value < 0:
            raise DomainError("below zero")
        if value.value.denominator != 1:
            raise DomainError("not a member")
        exps = telescopic_exponents(self.delta, int(value.value))
        if exps is None:
            raise DomainError("not a member")
        return Representation(exps, self.bounds)

    def between(self, lo, hi: RatValue):
        bottom = -1 if lo is None else _floor(lo.value)
        return 1, telescopic_members(self.delta, bottom, _floor(hi.value))

    def values(self, scale: int, rows):
        bounds = self.bounds
        return [(RatValue(Fraction(v)), Representation(exps, bounds)) for v, exps in rows]


def _least_scalar_above(u: tuple[int, int], t: tuple[int, int]) -> int:
    """The least integer s >= 0 with s * u lexicographically above t."""
    ux, uy = u
    tx, ty = t
    if ux > 0:
        quo, rem = divmod(tx, ux)
        s = quo if rem == 0 and quo * uy > ty else quo + 1
        return max(s, 0)
    if tx < 0:
        return 0
    if tx > 0:
        raise DomainError("no scalar multiple exceeds the bound")
    return max(ty // uy + 1, 0)


class _PlanarEngine(_HeadEngine):
    """Plane-vector semigroup: s * u for s in the telescopic head, plus m
    times the last generator, peeled off by the determinant of the witness
    pair."""

    def __init__(self, delta: DeltaZ2) -> None:
        self.delta = delta
        w = delta.witness
        self.u = w.u
        self.off = w.off
        self.cg = w.cg
        self.last = delta.deltas[-1]
        self.head = validate_n(w.head_c)
        self.det = w.u[0] * w.off[1] - w.u[1] * w.off[0]
        self.bounds = (None,) + tuple(self.head.structure.n) + (None,)

    def lift(self, value) -> LexValue:
        if isinstance(value, LexValue):
            return value
        raise DomainError("value kind mismatch")

    def zero(self) -> LexValue:
        return LexValue(0, 0)

    def generators(self) -> tuple[LexValue, ...]:
        return tuple(LexValue(x, y) for x, y in self.delta.deltas)

    def add(self, a: LexValue, b: LexValue) -> LexValue:
        return LexValue(a.x + b.x, a.y + b.y)

    def sub(self, a: LexValue, b: LexValue) -> LexValue:
        return LexValue(a.x - b.x, a.y - b.y)

    def represent(self, value: LexValue) -> Representation:
        if (value.x, value.y) < (0, 0):
            raise DomainError("below zero")
        ux, uy = self.u
        last = -(ux * value.y - uy * value.x) * self.det
        if last < 0:
            raise DomainError("not a member")
        rx = value.x + last * self.off[0]
        ry = value.y + last * self.off[1]
        if ux:
            s, rem = divmod(rx, ux)
            if rem or s * uy != ry:
                raise DomainError("not a member")
        else:
            s, rem = divmod(ry, uy)
            if rem or rx:
                raise DomainError("not a member")
        s -= last * self.cg
        if s < 0:
            raise DomainError("not a member")
        head_exps = telescopic_exponents(self.head, s)
        if head_exps is None:
            raise DomainError("not a member")
        return Representation(head_exps + (last,), self.bounds)

    def top(self, value: LexValue, m: int) -> int:
        lx, ly = self.last
        return _least_scalar_above(self.u, (value.x - m * lx, value.y - m * ly)) - 1

    def copies(self, value: LexValue) -> int:
        # raises when the free generator is on the y axis and value.x > 0
        return _least_scalar_above(self.last, (value.x, value.y))

    def between(self, lo, hi: LexValue):
        if any(gx == 0 for gx, _ in self.delta.deltas):
            raise DomainError(
                "enumeration is infinite: a generator has first component zero"
            )
        (ux, uy), (lx, ly) = self.u, self.last
        found = []
        for m, run in self.runs(lo, hi):
            found += [((s * ux + m * lx, s * uy + m * ly), exps + (m,)) for s, exps in run]
        found.sort(key=itemgetter(0))
        return 1, found

    def values(self, scale: int, rows):
        bounds = self.bounds
        return [(LexValue(x, y), Representation(acc, bounds)) for (x, y), acc in rows]


# Bits below the point kept by the quadratic kind's integer sort key.
_KEY_BITS = 32


class _QuadraticEngine(_HeadEngine):
    """Rational head s / scale, s in the integer sequence's semigroup, plus
    m times one irrational tail generator tau."""

    def __init__(self, delta: DeltaR) -> None:
        self.delta = delta
        self.head = delta.witness.dstar
        self.scale = self.head.deltas[1]
        self.tau = delta.tail
        self.bounds = (None,) + tuple(self.head.structure.n) + (None,)
        # Common denominator that makes v / scale + m * tau an integer pair.
        self.den = lcm(self.scale, self.tau.a.denominator, self.tau.b.denominator)

    def lift(self, value) -> QuadValue:
        if isinstance(value, QuadValue):
            if value.tau != self.tau:
                raise DomainError("order mismatch: values live over different tails")
            return value
        if isinstance(value, RatValue):
            return QuadValue(value.value, 0, self.tau)
        raise DomainError("value kind mismatch")

    def zero(self) -> QuadValue:
        return QuadValue(Fraction(0), 0, self.tau)

    def generators(self) -> tuple[QuadValue, ...]:
        head = tuple(QuadValue(h, 0, self.tau) for h in self.delta.head)
        return head + (QuadValue(Fraction(0), 1, self.tau),)

    def add(self, a: QuadValue, b: QuadValue) -> QuadValue:
        return QuadValue(a.r + b.r, a.m + b.m, self.tau)

    def sub(self, a: QuadValue, b: QuadValue) -> QuadValue:
        return QuadValue(a.r - b.r, a.m - b.m, self.tau)

    def represent(self, value: QuadValue) -> Representation:
        if _quad_sign(value.r, value.m, self.tau) < 0:
            raise DomainError("below zero")
        if value.m < 0:
            raise DomainError("not a member")
        scaled = value.r * self.scale
        if scaled.denominator != 1 or scaled < 0:
            raise DomainError("not a member")
        exps = telescopic_exponents(self.head, int(scaled))
        if exps is None:
            raise DomainError("not a member")
        return Representation(exps + (value.m,), self.bounds)

    def top(self, value: QuadValue, m: int) -> int:
        """floor((value - m * tau) * scale)."""
        k, tau = value.m - m, self.tau
        return floor_of((value.r + k * tau.a) * self.scale, k * tau.b * self.scale, tau.d)

    def copies(self, value: QuadValue) -> int:
        """value.m + floor(value.r / tau) + 1, with r / tau = r * (a - b sqrt(d))
        / (a^2 - b^2 d)."""
        tau = self.tau
        norm = tau.a * tau.a - tau.b * tau.b * tau.d
        return value.m + floor_of(value.r * tau.a / norm, -value.r * tau.b / norm, tau.d) + 1

    def between(self, lo, hi: QuadValue):
        """The head members for each multiple m of tau, sorted on the exact
        integer key floor(value * 2**_KEY_BITS).  floor is monotone, so only
        rows with equal keys need the exact comparison of
        den * value = v * step + m * a_den + m * b_den * sqrt(d)."""
        tau, scale, den, d = self.tau, self.scale, self.den, self.tau.d
        step, a_den, b_den = den // scale, int(tau.a * den), int(tau.b * den)
        shift = _KEY_BITS
        keyed = []
        for m, run in self.runs(lo, hi):
            # floor(m * b_den * sqrt(d) * 2**shift): the root is irrational
            # unless m = 0, so below zero it is one less than -isqrt.  Adding
            # the integer part and dividing by den keep the floor exact.
            irr = m * b_den
            root = isqrt(irr * irr * d << 2 * shift)
            base = (m * a_den << shift) + (root if irr >= 0 else -root - 1)
            keyed += [(((v * step << shift) + base) // den, v, exps + (m,)) for v, exps in run]
        first = itemgetter(0)
        keyed.sort(key=first)
        if len(set(map(first, keyed))) < len(keyed):

            def exact(p, q):
                dm = p[2][-1] - q[2][-1]
                return sign_of((p[1] - q[1]) * step + dm * a_den, dm * b_den, d)

            keyed = [
                row
                for _, tied in groupby(keyed, first)
                for row in sorted(tied, key=cmp_to_key(exact))
            ]
        return scale, [(v, exps) for _, v, exps in keyed]

    def values(self, scale: int, rows):
        tau, bounds = self.tau, self.bounds
        return [
            (QuadValue(Fraction(v, scale), exps[-1], tau), Representation(exps, bounds))
            for v, exps in rows
        ]


class _ChainEngine(_RationalEngine):
    """Rational chain; every query works inside a stage whose next generator
    would already exceed the query bound.  The stages beyond the sequence's
    own are grown once and kept as a ladder."""

    def __init__(self, delta: DeltaQ) -> None:
        self.delta = delta
        self.ladder = [delta.stages[-1]]
        # appended[k]: the generator that ladder[k + 1] appends, normalized.
        self.appended: list[Fraction] = []

    def generators(self) -> tuple[RatValue, ...]:
        return tuple(RatValue(v) for v in self.delta.generators())

    def covering_stage(self, bound: Fraction) -> DeltaN:
        while not self.appended or self.appended[-1] <= bound:
            grown = extend_n(self.ladder[-1])
            self.ladder.append(grown)
            self.appended.append(Fraction(grown.deltas[-1], grown.deltas[1]))
        return self.ladder[bisect_right(self.appended, bound)]

    def represent(self, value: RatValue) -> Representation:
        if value.value < 0:
            raise DomainError("below zero")
        stage = self.covering_stage(value.value)
        scaled = value.value * stage.deltas[1]
        if scaled.denominator != 1:
            raise DomainError("not a member")
        exps = telescopic_exponents(stage, int(scaled))
        if exps is None:
            raise DomainError("not a member")
        return Representation(exps, (None,) + tuple(stage.structure.n))

    def between(self, lo, hi: RatValue):
        stage = self.covering_stage(hi.value)
        scale = stage.deltas[1]
        bottom = -1 if lo is None else _floor(lo.value * scale)
        return scale, telescopic_members(stage, bottom, _floor(hi.value * scale))

    def values(self, scale: int, rows):
        if not rows:
            return []
        # every ladder step appends one generator, so the row width names the stage
        stage = self.ladder[len(rows[0][1]) - len(self.ladder[0].deltas)]
        bounds = (None,) + tuple(stage.structure.n)
        return [(RatValue(Fraction(v, scale)), Representation(exps, bounds)) for v, exps in rows]


# Bounded: an engine keeps the chain's stage ladder, and one that is evicted
# is rebuilt with the same results.
@lru_cache(maxsize=16)
def _engine(delta):
    if isinstance(delta, DeltaN):
        return _IntegerEngine(delta)
    if isinstance(delta, DeltaZ2):
        return _PlanarEngine(delta)
    if isinstance(delta, DeltaR):
        return _QuadraticEngine(delta)
    if isinstance(delta, DeltaQ):
        return _ChainEngine(delta)
    raise DomainError("unsupported sequence kind")


# --- public operations ------------------------------------------------------


def generators(delta):
    """The generators of the semigroup as comparable values."""
    return _engine(delta).generators()


def zero_of(delta):
    """The zero member as a comparable value."""
    return _engine(delta).zero()


def represent(delta, value) -> Representation:
    """The unique bounded representation of a member over the generators."""
    eng = _engine(delta)
    return eng.represent(eng.lift(value))


def walk(delta):
    """Every member from zero on in increasing order, with its representation.

    The walk does not end.  For the chain kind a representation may carry
    trailing zero exponents of generators beyond the member's own stage.
    """
    return _engine(delta).walk()


def rows_upto(delta, bound):
    """All members up to the bound in increasing order as integer rows: a
    pair (scale, rows) with rows ``(v, exps)``, read as in ``_Engine``."""
    eng = _engine(delta)
    return eng.between(None, eng.lift(bound))


def enumerate_upto(delta, bound):
    """All members up to the bound in increasing order, with representations."""
    return _engine(delta).values(*rows_upto(delta, bound))


def successor(delta, value):
    """The least member strictly greater than the given value."""
    eng = _engine(delta)
    value = eng.lift(value)
    zero = eng.zero()
    if compare(value, zero) < 0:
        return zero
    member, _ = next(eng.walk(after=value))
    return member


def omega(delta, value) -> int:
    """How many ordered pairs of members sum to the value."""
    eng = _engine(delta)
    value = eng.lift(value)
    if compare(value, eng.zero()) < 0:
        return 0
    members = [v for v, _ in enumerate_upto(delta, value)]
    seen = set(members)
    count = 0
    for member in members:
        if eng.sub(value, member) in seen:
            count += 1
    return count
