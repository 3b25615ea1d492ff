"""Well-ordered semigroups generated by delta-sequences.

Every sequence kind generates a semigroup in its ambient ordered group:
integers, plane vectors under lexicographic order, rationals, or a real
quadratic extension.  This module provides the shared operations on those
semigroups: exact comparison of values, the unique bounded representation
of a member over the generators, and one ordered walk over the members with
their representations.  Enumeration up to a bound is a view on that walk.
The pair count omega (the number of ordered pairs of members summing to a
given value) is read from the value's representation alone, with no walk.
The engines yield integer windows, built from the entries of one
residue-sorted table of tails; value objects are built from them only where
a caller asks for values.

Representations are unique under the bound pattern reported alongside the
exponents: the first exponent is always free, interior exponents are bounded
by the quotients n_i of the underlying integer sequence, and whether the last
exponent is free depends on the kind.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import floor, isqrt, lcm
from operator import mul

from ._value import Value, _set
from .deltaseq import (
    DeltaN,
    gap_count_telescopic,
    _sweep,
    _tail_table,
    _tails,
    telescopic_exponents,
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


class _Engine:
    """The ordered walk shared by every kind.

    A member is a member s of a telescopic integer semigroup, the head, plus
    m copies of one free generator: the planar and quadratic kinds have one,
    the integer kind (its own head) and the chain (whose head is the stage
    that covers the values at hand) none, so they have no ``copies``.
    ``stage(value)`` is the (head, scale) that covers the members up to the
    value, and ``stage_of(width)`` the head that a representation of that
    width is written over; ``top(value, m)`` is the largest s whose member
    with m copies is <= value, negative when there is none; ``copies(value)``
    is the least m whose m copies alone exceed value.

    Members come one sub-window (k g_0, (k + 1) g_0] at a time (the first
    closed at zero), g_0 the first generator.  Moving a value by g_0 moves
    every top by delta_0, the head's first generator, so copy m takes the
    head members above its top at the last upper end, up to that plus
    delta_0: one ``_sweep`` of one table of at most delta_0 head tails,
    built up to top(bound, 0) for a listing and grown by doubling in the
    walk.  ``top`` is called once per copy as it enters and at a listing's
    bound, as top(k g_0, 0) = k delta_0.  ``sort`` builds one row per member
    of a sub-window from the sweep's entries and puts them in order.  The
    kinds with no free generator override ``_windows``: their members are
    the head's blocks, already in order.

    ``upto(bound, label)`` gives the members up to the bound as a pair
    (scale, windows), and raises every error before the first window is
    asked for.  A window of the planar kind is a list of sorted rows (x, y,
    c, tail, m), of the quadratic kind (v, c, tail, m), and of the integer
    and chain kinds one ``_sweep`` block (base, k, entries), which holds
    the members base + r with exponent k - q on delta_0 for its entries
    (r, q, tail).  ``v`` is the integer numerator over ``scale`` of the
    member's rational part, (x, y) the plane vector, and the exponents are
    c, the tuple ``tail`` and m, the tail one object shared by the members
    with that tail (its text, when a ``label`` renders each exponent); a
    quadratic member is v / scale + m * tau.  ``values`` turns one window
    into (value, Representation) pairs as they are read.
    """

    scale = 1

    def finite(self) -> None:
        """Raise when the members below some value are infinitely many."""

    def stage(self, value):
        return self.head, self.scale

    def stage_of(self, width: int) -> DeltaN:
        return self.head

    def upto(self, bound, label=None):
        self.finite()
        head, scale = self.stage(bound)
        extent = self.top(bound, 0)
        return scale, self._windows(head, extent, _tail_table(head, extent, label), bound)

    def walk(self):
        """Every member from zero on, unbounded."""
        self.finite()
        head, _ = self.stage(self.generators()[0])
        for window in self._windows(head, -1):
            yield from self.values(window)

    def _windows(self, head, extent, table=((), ()), bound=None):
        """The sorted rows of each sub-window up to the bound (unbounded when
        None), from a ``table`` of the head's tails up to ``extent`` (none at
        first in the walk), which the walk grows by doubling when it passes
        it; a listing never does."""
        first = head.deltas[0]
        residues, order = table
        edge = upper = self.generators()[0]
        bottoms, tops = [-1], [0]  # the tops at zero, which the first sub-window holds
        while True:
            end = bound is not None and compare(upper, bound) >= 0
            value = bound if end else upper
            tops = [
                tops[m] + first if m < len(tops) and not end else self.top(value, m)
                for m in range(self.copies(value))
            ]
            if not tops:  # the bound is below zero
                return
            if tops[0] > extent and len(order) < first:
                extent = max(tops[0], 2 * extent)
                residues, order = _tail_table(head, extent)
            bottoms += [-1] * (len(tops) - len(bottoms))
            yield self.sort(
                [(m, _sweep(first, residues, order, lo + 1, hi))
                 for m, (lo, hi) in enumerate(zip(bottoms, tops))]
            )
            if end:
                return
            bottoms, upper = tops, self.add(upper, edge)


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

    def represent(self, value: RatValue) -> Representation:
        if value.value < 0:
            raise DomainError("below zero")
        head, scale = self.stage(value)
        scaled = value.value * scale
        if scaled.denominator != 1:
            raise DomainError("not a member")
        exps = telescopic_exponents(head, int(scaled))
        if exps is None:
            raise DomainError("not a member")
        return Representation(exps, (None,) + tuple(head.structure.n))

    def top(self, value: RatValue, m: int) -> int:
        return floor(value.value * self.stage(value)[1])

    def stage_end(self, value: Fraction):
        """The least value above ``value`` that ``stage`` covers with another
        stage, once ``stage`` has been asked for ``value``; None for the
        integer kind, which has one stage."""
        return None

    def _windows(self, head, extent, table=((), ()), bound=None):
        """The head's blocks, on integer tops: a listing is one sweep up to
        the bound's top, extent.  The walk sweeps sub-window k up to its top
        (k + 1) delta_0 and grows the table as ``_Engine._windows`` does; it
        reads a value only where a sub-window's upper end (k + 1) g_0 enters
        the next chain stage.  Each stage is the one before it times z,
        delta_0 and delta_1 included, so g_0 is one block of every stage, and
        the walk multiplies its bottom by z as it enters one."""
        first = head.deltas[0]
        residues, order = table
        if bound is not None:
            yield from _sweep(first, residues, order, 0, extent)
            return
        edge = self.generators()[0].value
        k, bottom, upper = 0, -1, edge
        while True:
            end = self.stage_end(upper)
            enter = None if end is None else -(-end // edge) - 1
            while k != enter:
                top = (k + 1) * first
                if top > extent and len(order) < first:
                    extent = max(top, 2 * extent)
                    residues, order = _tail_table(head, extent)
                yield from _sweep(first, residues, order, bottom + 1, top)
                k, bottom = k + 1, top
            upper = edge * (k + 1)
            new = self.stage(RatValue(upper))[0]
            bottom *= new.deltas[0] // first
            head, first, extent, order = new, new.deltas[0], -1, ()


class _IntegerEngine(_RationalEngine):
    """The integer sequence's own telescopic semigroup, its own head."""

    def __init__(self, delta: DeltaN) -> None:
        self.delta = self.head = delta
        self.bounds = (None,) + tuple(delta.structure.n)

    def generators(self) -> tuple[RatValue, ...]:
        return tuple(RatValue(Fraction(v)) for v in self.delta.deltas)

    def values(self, block):
        base, k, entries = block
        bounds = self.bounds
        return (
            (RatValue(Fraction(base + r)), Representation((k - q,) + tail, bounds))
            for r, q, tail in entries
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


class _PlanarEngine(_Engine):
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

    def finite(self) -> None:
        if any(gx == 0 for gx, _ in self.delta.deltas):
            raise DomainError(
                "enumeration is infinite: a generator has first component zero"
            )

    def sort(self, runs):
        """The rows (x, y, c, tail, m) of one sub-window in the order of
        their vectors, which are distinct."""
        (ux, uy), (lx, ly) = self.u, self.last
        rows = []
        for m, blocks in runs:
            for base, k, entries in blocks:
                x, y = base * ux + m * lx, base * uy + m * ly
                rows += [(x + r * ux, y + r * uy, k - q, tail, m) for r, q, tail in entries]
        rows.sort()
        return rows

    def values(self, rows):
        bounds = self.bounds
        return (
            (LexValue(x, y), Representation((c, *tail, m), bounds))
            for x, y, c, tail, m in rows
        )


class _QuadraticEngine(_Engine):
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

    def sort(self, runs):
        """The rows of one sub-window sorted on the integer key
        floor(den * value * 2**shift), which no two of its members share.

        den * value = A + B sqrt(d) with integers A = v * step + m * a_den and
        B = m * b_den.  For two distinct members let dA, dB be the differences;
        their keys differ when |dA + dB sqrt(d)| >= 1.  Otherwise dB != 0, as
        dA would be a nonzero integer, so dA^2 - dB^2 d is a nonzero integer
        (d is squarefree) and |dA + dB sqrt(d)| >= 1 / |dA - dB sqrt(d)|.
        Then |dA| < 1 + |dB| sqrt(d), so |dA - dB sqrt(d)| < 1 + 2 |dB|
        sqrt(d) <= 1 + 2 b_max sqrt(d) <= 2**shift, as m < len(runs) in the
        sub-window and 2**shift > 2 b_max (isqrt(d) + 1): the keys differ by
        at least one, and the sort is exact on its own."""
        tau, den, d = self.tau, self.den, self.tau.d
        step, a_den, b_den = den // self.scale, int(tau.a * den), int(tau.b * den)
        shift = (2 * (len(runs) - 1) * abs(b_den) * (isqrt(d) + 1)).bit_length()
        unit, rows, keys = step << shift, [], []
        for m, blocks in runs:
            # floor(m * b_den * sqrt(d) * 2**shift): the root is irrational
            # unless m = 0, so below zero it is one less than -isqrt.  Adding
            # the integer part keeps the floor exact.
            irr = m * b_den
            root = isqrt(irr * irr * d << 2 * shift)
            shifted = (m * a_den << shift) + (root if irr >= 0 else -root - 1)
            for base, k, entries in blocks:
                offset = base * unit + shifted
                rows += [(base + r, k - q, tail, m) for r, q, tail in entries]
                keys += [r * unit + offset for r, _, _ in entries]
        # list.sort calls its key once per row, in order, before it compares
        rows.sort(key=partial(next, iter(keys)))
        return rows

    def values(self, rows):
        tau, bounds, scale = self.tau, self.bounds, self.scale
        return (
            (QuadValue(Fraction(v, scale), m, tau), Representation((c, *tail, m), bounds))
            for v, c, tail, m in rows
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

    def stage(self, value: RatValue):
        stage = self.covering_stage(value.value)
        return stage, stage.deltas[1]

    def stage_end(self, value: Fraction) -> Fraction:
        return self.appended[bisect_right(self.appended, value)]

    def stage_of(self, width: int) -> DeltaN:
        """Every ladder step appends one generator, so a representation's
        width names its stage."""
        return self.ladder[width - len(self.ladder[0].deltas)]

    def values(self, block):
        base, k, entries = block
        if not entries:
            return ()
        stage = self.stage_of(len(entries[0][2]) + 1)
        bounds, scale = (None,) + tuple(stage.structure.n), stage.deltas[1]
        return (
            (RatValue(Fraction(base + r, scale)), Representation((k - q,) + tail, bounds))
            for r, q, tail in entries
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


def _pair_counts(delta, reps) -> list[int]:
    """omega of each member given by its Representation in ``reps``: how
    many members it exceeds by a member.

    Every kind is the telescopic head H plus m copies of one free generator
    (none for the integer kind, whose head is itself, and for the chain,
    whose head is the ladder stage its widest representation is written
    over: that stage covers every member up to that one).  A member is
    s * u + m * L with s in H, both read from its own exponents.  As u and L
    are independent, a - b is a member exactly when m_a >= m_b and s_a - s_b
    lies in H, so omega is (m + 1) * nu_H(s), nu_H(s) the number of head
    members h <= s with s - h in H.  H is telescopic, so its conductor is
    c = 2g for g gaps, and for s >= 2c - 1 the gaps and s minus the gaps are
    disjoint: nu_H(s) = s + 1 - 2g (Kirfel and Pellikaan 1995).

    Below that bound the head's bounded tails are its Apery set with respect
    to delta_0: the least member A[r] of each residue class r.  So a member
    is t + c delta_0 for one tail t and c >= 0, and the pairs summing to s
    are, for each tail t <= s with t' = A[(s - t) mod delta_0] <= s - t, the
    (s - t - t') / delta_0 + 1 ways to share the multiples of delta_0.  The
    pair of tails (t, t') is met again from t', so only t <= t' (hence
    t <= s / 2) is visited and a pair of distinct tails counts twice.  Each
    distinct s is counted once.
    """
    eng = _engine(delta)
    head = eng.stage_of(max(len(rep.exponents) for rep in reps))
    first, deltas, g = head.deltas[0], head.deltas, gap_count_telescopic(head)
    sums = [sum(map(mul, rep.exponents, deltas)) for rep in reps]
    below = {s for s in sums if s < 4 * g - 1}
    tails = sorted(t for t, _ in _tails(head, max(below, default=-1)))
    apery = {t % first: t for t in tails}
    nu = {}
    for s in below:
        count, half, beyond = 0, s // 2, s + 1  # beyond: no tail up to s
        for t in tails:
            if t > half:
                break
            rest = s - t
            other = apery.get(rest % first, beyond)
            if t <= other <= rest:
                ways = (rest - other) // first + 1
                count += ways if other == t else 2 * ways
        nu[s] = count
    counts = [nu.get(s, s + 1 - 2 * g) for s in sums]
    if len(reps[0].exponents) > len(deltas):  # the last exponent is m
        return [(rep.exponents[-1] + 1) * count for rep, count in zip(reps, counts)]
    return counts


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

    The walk does not end.  It takes one sub-window (k g_0, (k + 1) g_0] at
    a time, g_0 the first generator (``_Engine``), and a chain member's
    representation has the width of the stage that covers its sub-window's
    upper end: it may end in zeros beyond the member's own stage."""
    return _engine(delta).walk()


def rows_upto(delta, bound, label=None):
    """All members up to the bound in increasing order as integer windows:
    a pair (scale, windows), the windows a lazy sequence, read as in
    ``_Engine``: for the planar and quadratic kinds one list of sorted rows
    ``(x, y, c, tail, m)`` or ``(v, c, tail, m)`` per sub-window, and for the
    integer and chain kinds one ``_sweep`` block ``(base, k, entries)`` per
    block of delta_0 head values, for the chain all in the bound's stage.
    When a ``label`` is given it renders one exponent, called once per
    exponent value and position here, and each tail is the text of its
    exponents' labels joined.  Every error is raised here, before the first
    window is asked for."""
    eng = _engine(delta)
    return eng.upto(eng.lift(bound), label)


def omega(delta, value) -> int:
    """How many ordered pairs of members sum to the value: 0 below zero and
    for a non-member.  ``_pair_counts`` reads it from the value's
    representation alone, for every kind: no member is walked."""
    eng = _engine(delta)
    value = eng.lift(value)
    if compare(value, eng.zero()) < 0:
        return 0
    eng.finite()
    try:
        rep = eng.represent(value)
    except DomainError:  # not a member
        return 0
    return _pair_counts(delta, [rep])[0]
