"""Well-ordered semigroups generated by delta-sequences.

Every sequence kind generates a semigroup in its ambient ordered group:
integers, plane vectors under lexicographic order, rationals, or a real
quadratic extension.  This module provides the shared operations on those
semigroups: exact comparison of values, the unique bounded representation
of a member over the generators, and one ordered walk over the members with
their representations.  Enumeration up to a bound and the pair count omega
(the number of ordered pairs of members summing to a given value) are views
on that walk.  The engines yield integer rows;
value objects are built from them only where a caller asks for values.

Representations are unique under the bound pattern reported alongside the
exponents: the first exponent is always free, interior exponents are bounded
by the quotients n_i of the underlying integer sequence, and whether the last
exponent is free depends on the kind.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import isqrt, lcm
from operator import itemgetter

from ._value import Value, _set
from .deltaseq import (
    DeltaN,
    gap_count_telescopic,
    telescopic_exponents,
    telescopic_members,
    validate_n,
)
from .errors import DomainError
from .genesis import DeltaQ, DeltaR, DeltaZ2, extend_n
from .quadratics import QuadExt, floor_surd, sign_of

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
    "walk",
    "zero_of",
]


class LexValue(Value):
    """A plane vector compared lexicographically."""

    __slots__ = _fields = ("x", "y")


class RatValue(Value):
    """A rational value."""

    __slots__ = _fields = ("value",)


class QuadValue(Value):
    """The value r + m * tau in a real quadratic extension."""

    __slots__ = _fields = ("r", "m", "tau")

    def exact(self) -> QuadExt:
        return self.tau * self.m + self.r


class Representation(Value):
    """Exponents over the generators, with the uniqueness bound pattern.

    ``bounds[i]`` is ``None`` when the i-th exponent is unbounded, otherwise
    the exclusive upper bound it must stay below.
    """

    __slots__ = _fields = ("exponents", "bounds")


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

    An engine supplies ``blocks(lo, hi, label)``: the members in the window
    (lo, hi] (from zero on when lo is None) in increasing order, as a pair
    (scale, blocks), each block a list of rows.  A row is ``(v, c, tail)``:
    ``v`` is the integer numerator over ``scale`` of the member's rational
    part, or the plane vector (x, y) for the planar kind (scale 1), and its
    exponents are c followed by the tuple ``tail``, one object shared by
    the rows with the same tail (``label(tail)`` in its place when a label
    is given); for the quadratic kind the member is v / scale + tail[-1] *
    tau.  The integer and chain kinds give one block per multiple of their
    first generator, the others one block for the window.  ``values`` turns
    rows of one window into (value, Representation) pairs as they are read.
    The walk strings windows together, doubling the upper end, so every
    member is yielded once and in order; it builds a member's pair only when
    the member is consumed.
    """

    def walk(self):
        """Every member from zero on, unbounded."""
        lo, hi = None, self.generators()[0]
        while True:
            scale, blocks = self.blocks(lo, hi)
            for block in blocks:
                yield from self.values(scale, block)
            lo, hi = hi, self.add(hi, hi)


class _HeadEngine(_Engine):
    """A kind whose members are a member s of the integer semigroup ``head``
    plus m times one free generator.  ``top(value, m)`` is the largest s
    whose member with m copies is <= value, negative when there is none;
    ``copies(value)`` is the least m whose m copies alone exceed value, so
    top(value, m) >= 0 exactly for m < copies(value)."""

    def runs(self, lo, hi, label=None):
        """(m, head rows) for each m: the rows (s, c, tail) of the head
        members whose member with m copies lies in the window (lo, hi], by
        s, with m appended to each tail (and the label applied to that)."""
        for m in range(self.copies(hi)):
            bottom = -1 if lo is None else self.top(lo, m)

            def with_m(tail):  # called for every tail before the call below returns
                return tail + (m,) if label is None else label(tail + (m,))

            blocks = telescopic_members(self.head, bottom, self.top(hi, m), with_m)
            yield m, [row for block in blocks for row in block]


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

    def blocks(self, lo, hi: RatValue, label=None):
        bottom = -1 if lo is None else _floor(lo.value)
        return 1, telescopic_members(self.delta, bottom, _floor(hi.value), label)

    def values(self, scale: int, rows):
        bounds = self.bounds
        return (
            (RatValue(Fraction(v)), Representation((c,) + tail, bounds)) for v, c, tail in rows
        )


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

    def blocks(self, lo, hi: LexValue, label=None):
        if any(gx == 0 for gx, _ in self.delta.deltas):
            raise DomainError(
                "enumeration is infinite: a generator has first component zero"
            )
        (ux, uy), (lx, ly) = self.u, self.last
        found = []
        for m, run in self.runs(lo, hi, label):
            found += [((s * ux + m * lx, s * uy + m * ly), c, tail) for s, c, tail in run]
        found.sort(key=itemgetter(0))
        return 1, [found]

    def values(self, scale: int, rows):
        bounds = self.bounds
        return (
            (LexValue(x, y), Representation((c,) + tail, bounds)) for (x, y), c, tail in rows
        )


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
        # Integers for top and copies, which take floors without Fractions:
        # tau = (a + b sqrt(d)) / e, and 1 / tau = e (a - b sqrt(d)) / norm
        # with norm = a^2 - b^2 d, both signs flipped when norm < 0.
        e = lcm(self.tau.a.denominator, self.tau.b.denominator)
        a, b = int(self.tau.a * e), int(self.tau.b * e)
        norm = a * a - b * b * self.tau.d
        sign = 1 if norm > 0 else -1
        self.top_ints = (self.scale * e, self.scale * a, self.scale * b, e)
        self.copies_ints = (sign * e * a, -sign * e * b, sign * norm)

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
        """floor((value - m * tau) * scale): with value.r = p / r and k = value.m
        - m, (p e + k a r + k b r sqrt(d)) * scale / (r e)."""
        k, p, r = value.m - m, value.r.numerator, value.r.denominator
        se, sa, sb, e = self.top_ints
        return floor_surd(p * se + k * sa * r, k * sb * r, r * e, self.tau.d)

    def copies(self, value: QuadValue) -> int:
        """value.m + floor(value.r / tau) + 1, with value.r / tau = p (c0 + c1
        sqrt(d)) / (r norm) for value.r = p / r."""
        p, r = value.r.numerator, value.r.denominator
        c0, c1, norm = self.copies_ints
        return value.m + floor_surd(p * c0, p * c1, r * norm, self.tau.d) + 1

    def blocks(self, lo, hi: QuadValue, label=None):
        """The head members for each multiple m of tau, sorted on the integer
        key floor(value * 2**shift), which no two members of the window share.

        den * value = A + B sqrt(d) with integers A = v * step + m * a_den and
        B = m * b_den.  For two distinct members let dA, dB be the differences.
        If dB = 0 then |dA| >= 1.  Otherwise dA^2 - dB^2 d is a nonzero integer
        (d is squarefree), so |dA + dB sqrt(d)| >= 1 / |dA - dB sqrt(d)| >=
        1 / (|dA| + |dB| sqrt(d)).  In the window |A| <= a_max and |B| <= b_max,
        so |dA| + |dB| sqrt(d) <= 2 (a_max + b_max (isqrt(d) + 1)), and with
        2**shift above den times that, two members differ by at least
        2**-shift and their keys differ: the sort is exact on its own."""
        tau, scale, den, d = self.tau, self.scale, self.den, self.tau.d
        step, a_den, b_den = den // scale, int(tau.a * den), int(tau.b * den)
        runs = list(self.runs(lo, hi, label))
        top_m = len(runs) - 1
        top_v = max((run[-1][0] for _, run in runs if run), default=0)
        a_max = top_v * step + top_m * abs(a_den)
        b_max = top_m * abs(b_den)
        shift = (2 * den * (a_max + b_max * (isqrt(d) + 1))).bit_length()
        keyed = []
        while runs:  # last first, each freed once keyed: the keys are distinct
            m, run = runs.pop()
            # floor(m * b_den * sqrt(d) * 2**shift): the root is irrational
            # unless m = 0, so below zero it is one less than -isqrt.  Adding
            # the integer part and dividing by den keep the floor exact.
            irr = m * b_den
            root = isqrt(irr * irr * d << 2 * shift)
            base = (m * a_den << shift) + (root if irr >= 0 else -root - 1)
            keyed += [(((v * step << shift) + base) // den, v, c, tail) for v, c, tail in run]
        keyed.sort(key=itemgetter(0))
        return scale, [[(v, c, tail) for _, v, c, tail in keyed]]

    def values(self, scale: int, rows):
        tau, bounds = self.tau, self.bounds
        return (
            (QuadValue(Fraction(v, scale), tail[-1], tau), Representation((c,) + tail, bounds))
            for v, c, tail in rows
        )


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

    def blocks(self, lo, hi: RatValue, label=None):
        stage = self.covering_stage(hi.value)
        scale = stage.deltas[1]
        bottom = -1 if lo is None else _floor(lo.value * scale)
        return scale, telescopic_members(stage, bottom, _floor(hi.value * scale), label)

    def values(self, scale: int, rows):
        if not rows:
            return ()
        # every ladder step appends one generator, so the row width names the stage
        stage = self.ladder[len(rows[0][2]) + 1 - len(self.ladder[0].deltas)]
        bounds = (None,) + tuple(stage.structure.n)
        return (
            (RatValue(Fraction(v, scale)), Representation((c,) + tail, bounds))
            for v, c, tail in rows
        )


_ENGINES = {
    DeltaN: _IntegerEngine,
    DeltaZ2: _PlanarEngine,
    DeltaR: _QuadraticEngine,
    DeltaQ: _ChainEngine,
}


def _engine(delta):
    """The sequence's own engine, built on its first use and kept in its
    ``_engine`` slot, so the engine (and the chain's stage ladder) is freed
    with the sequence."""
    engine = getattr(delta, "_engine", None)
    if engine is None:
        kind = _ENGINES.get(type(delta))
        if kind is None:
            raise DomainError("unsupported sequence kind")
        engine = kind(delta)
        _set(delta, "_engine", engine)
    return engine


# --- pair counts ------------------------------------------------------------


def _pair_counts(delta, walked, start: int = 0) -> list[int]:
    """omega of each member of ``walked[start:]``, where ``walked`` holds the
    (value, Representation) pairs of every member from zero on, in order, as
    ``walk`` yields them: how many members each one exceeds by a member.

    Every kind but the chain is the telescopic head H plus m copies of one
    free generator (none for the integer kind, whose head is itself), and a
    member is s * u + m * L with s in H, both read from its own exponents.
    As u and L are independent, a - b is a member exactly when m_a >= m_b
    and s_a - s_b lies in H, so omega is (m + 1) * nu_H(s), nu_H(s) the
    number of head members h <= s with s - h in H.  H is telescopic, so its
    conductor is c = 2g for g gaps, and for s >= 2c - 1 the gaps and s minus
    the gaps are disjoint: nu_H(s) = s + 1 - 2g (Kirfel and Pellikaan 1995).
    Below that bound nu_H(s) is a popcount of the head members' bits against
    their mirror image, taken up to the largest such s asked for.

    The chain counts instead, on the integer keys that the members times the
    lcm of their denominators are: the earlier-or-equal members that a
    member exceeds by a member.
    """
    eng = _engine(delta)
    if isinstance(eng, _ChainEngine):
        den = lcm(*(v.value.denominator for v, _ in walked))
        keys = [v.value.numerator * (den // v.value.denominator) for v, _ in walked]
        seen = set(keys)
        # keys are distinct, so are the differences from one key
        return [
            len(seen.intersection([keys[i] - k for k in keys[: i + 1]]))
            for i in range(start, len(keys))
        ]
    head = eng.head if isinstance(eng, _HeadEngine) else delta
    g, deltas = gap_count_telescopic(head), head.deltas
    exponents = [rep.exponents for _, rep in walked[start:]]
    sums = [sum(a * v for a, v in zip(exps, deltas)) for exps in exponents]
    top = max((s for s in sums if s < 4 * g - 1), default=-1)
    below = [v for block in telescopic_members(head, -1, top) for v, _, _ in block]
    bits = sum(1 << v for v in below)
    mirror = sum(1 << (top - v) for v in below)
    counts = [
        s + 1 - 2 * g if s > top else (bits & (mirror >> (top - s))).bit_count() for s in sums
    ]
    if head is delta:
        return counts
    return [(exps[-1] + 1) * nu for exps, nu in zip(exponents, counts)]


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


def rows_upto(delta, bound, label=None):
    """All members up to the bound in increasing order as integer rows: a
    pair (scale, blocks), the blocks a lazy sequence of lists of rows
    ``(v, c, tail)``, read as in ``_Engine``, with ``label(tail)`` in place
    of each tail when a label is given (called once per tail).  Every error
    is raised here, before the first block is asked for."""
    eng = _engine(delta)
    return eng.blocks(None, eng.lift(bound), label)


def enumerate_upto(delta, bound):
    """All members up to the bound in increasing order, with representations."""
    eng = _engine(delta)
    scale, blocks = eng.blocks(None, eng.lift(bound))
    return list(eng.values(scale, [row for block in blocks for row in block]))


def omega(delta, value) -> int:
    """How many ordered pairs of members sum to the value: 0 below zero and
    for a non-member."""
    eng = _engine(delta)
    value = eng.lift(value)
    if compare(value, eng.zero()) < 0:
        return 0
    walked = enumerate_upto(delta, value)
    if walked[-1][0] != value:
        return 0
    return _pair_counts(delta, walked, len(walked) - 1)[0]
