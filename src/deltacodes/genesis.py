"""Builders for the three derived kinds of delta-sequences.

From a validated integer sequence one can build:

- a planar sequence in Z^2 (lexicographic order) by expanding the continued
  fraction of its last Newton slope into the convergent-vector table,
- a quadratic-irrational sequence over Q(sqrt(d)) by appending a tail obtained
  from a continued fraction with an irrational final digit,
- a rational sequence of unbounded length by repeatedly scaling the sequence
  and appending a new coprime element.

Each result carries a witness recording exactly the data used, so equal
witnesses reproduce equal sequences.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._value import Value
from .deltaseq import DeltaN, normalize, telescopic_exponents, validate_n
from .errors import DomainError
from .quadratics import QuadExt, sqrt_of

__all__ = [
    "CFValue",
    "DeltaQ",
    "DeltaR",
    "DeltaZ2",
    "QuadExt",
    "build_type_c",
    "build_type_d",
    "build_type_e",
    "cf_eval",
    "extend_n",
    "sqrt_of",
]


class CFValue(Value):
    """A folded continued fraction with its convergents (h_j, k_j)."""

    __slots__ = _fields = ("value", "convergents")


def cf_eval(digits, tail: QuadExt | None = None) -> CFValue:
    """Fold continued-fraction digits, optionally continuing with an
    irrational tail after the last digit."""
    ds = tuple(int(v) for v in digits)
    if not ds:
        raise DomainError("continued fraction needs at least one digit")
    if any(v < 1 for v in ds):
        raise DomainError("continued-fraction digits must be positive")
    if tail is not None:
        if not isinstance(tail, QuadExt) or tail.is_rational:
            raise DomainError("tail must be irrational")
        if not tail > 1:
            raise DomainError("tail must exceed 1")
    h_prev, k_prev = 1, 0
    h, k = ds[0], 1
    convergents = [(h, k)]
    for a in ds[1:]:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        convergents.append((h, k))
    if tail is None:
        return CFValue(Fraction(h, k), tuple(convergents))
    value = (tail * h + h_prev) / (tail * k + k_prev)
    return CFValue(value, tuple(convergents))


def extend_n(delta: DeltaN, choice: tuple[int, int] | None = None) -> DeltaN:
    """Scale the sequence by z and append delta'; by default the smallest
    z >= 2 coprime to the last entry with delta' = (z + 1) * last."""
    last = delta.deltas[-1]
    if choice is None:
        z = 2
        while gcd(z, last) != 1:
            z += 1
        new = (z + 1) * last
    else:
        z, new = int(choice[0]), int(choice[1])
        if z < 2:
            raise DomainError("scale factor z must be at least 2")
        if new <= z * last:
            raise DomainError("normalized sequence not increasing")
    return validate_n(tuple(z * v for v in delta.deltas) + (new,))


# --- planar sequences -------------------------------------------------------


class CWitness(Value):
    """Everything used to expand an integer sequence into the plane.

    ``ys`` is the convergent-vector table (y_{-1}, y_0, ..., y_{t-1});
    ``ab`` and ``abp`` are the two vectors the last generator is built from.
    The derived shape data satisfies deltas[i] = head_c[i] * u for i < g and
    deltas[g] = cg * u - off with det(u, off) = +-1.
    """

    __slots__ = _fields = ("dstar", "cf", "ab", "abp", "ys", "u", "head_c", "cg", "off")


class DeltaZ2(Value):
    """A delta-sequence of lexicographically ordered plane vectors.  Its
    semigroup engine ``_engine`` is kept outside the value."""

    __slots__ = ("deltas", "witness", "_engine")
    _fields = ("deltas", "witness")

    @property
    def g(self) -> int:
        return len(self.deltas) - 1


def build_type_c(dstar) -> DeltaZ2:
    """Expand an integer sequence into plane vectors along its last slope."""
    delta = dstar if isinstance(dstar, DeltaN) else validate_n(dstar)
    s = delta.structure
    if s.cf is None:
        raise DomainError("type C expansion needs Newton data (at least one slope)")
    digits = s.cf
    t = len(digits)
    ys: list[tuple[int, int]] = [(0, 1), (1, 0)]  # y_{-1}, y_0
    for i in range(1, t):
        a = digits[t - i - 1]
        ys.append(
            (a * ys[-1][0] + ys[-2][0], a * ys[-1][1] + ys[-2][1])
        )
    ab, abp = ys[t - 1], ys[t - 2]  # y_{t-2} and y_{t-3} (list offset by one)
    a_t = digits[-1]
    den = ab[0] * a_t + ab[1]
    seq = delta.deltas
    g = delta.g

    def scaled(vec: tuple[int, int], c: int) -> tuple[int, int]:
        return (c * vec[0], c * vec[1])

    if not s.divisible and g == 1:
        u = ys[t]  # y_{t-1}
        head_c = (1,)
        cg, off = 1, ys[t - 1]
        out = (u, (u[0] - off[0], u[1] - off[1]))
    elif s.divisible and g == 2:
        u = ys[t - 1]  # y_{t-2}
        step = seq[0] - seq[1]
        if seq[0] % step:
            raise DomainError("inconsistent witness")
        j = seq[0] // step
        head_c = (j, j - 1)
        cg = j + s.n[0] * (j - 1)
        off = ys[t]
        out = (scaled(u, j), scaled(u, j - 1), (cg * u[0] - off[0], cg * u[1] - off[1]))
    else:
        u = ab
        if any(v % den for v in seq[:g]):
            raise DomainError("inconsistent witness")
        head_c = tuple(v // den for v in seq[:g])
        num = seq[g] + abp[0] * a_t + abp[1]
        if num % den:
            raise DomainError("inconsistent witness")
        cg = num // den
        off = abp
        out = tuple(scaled(u, c) for c in head_c) + (
            (cg * u[0] - off[0], cg * u[1] - off[1]),
        )
    witness = CWitness(
        delta, digits, ab, abp, tuple(ys), u, head_c, cg, off
    )
    return DeltaZ2(out, witness)


# --- quadratic-irrational sequences ----------------------------------------


class DWitness(Value):
    """Integer sequence, digits, and irrational final digit behind a tail."""

    __slots__ = _fields = ("dstar", "digits", "b")


class DeltaR(Value):
    """A finite sequence of rationals followed by one quadratic-irrational
    tail.  Its semigroup engine ``_engine`` is kept outside the value."""

    __slots__ = ("head", "tail", "witness", "_engine")
    _fields = ("head", "tail", "witness")


def build_type_d(dstar, digits, b: QuadExt | int = 3) -> DeltaR:
    """Append the tail (n_g delta_g - <a_1; a_2, ..., a_j, b>) / delta_1.

    The digits must leave room below n_g * delta_g - 1 and the first two
    tail witnesses delta_bar^2, delta_bar^3 must lie in the integer semigroup;
    the recurrence delta_bar^{j+1} = a_{j+1} delta_bar^j + delta_bar^{j-1}
    puts every later witness in the semigroup automatically.
    """
    delta = dstar if isinstance(dstar, DeltaN) else validate_n(dstar)
    if delta.g < 1:
        raise DomainError("type D needs at least two integer entries")
    if isinstance(b, int):
        b = sqrt_of(b)
    ds = tuple(int(v) for v in digits)
    if len(ds) < 3:
        raise DomainError("type D needs at least three digits before the tail")
    folded = cf_eval(ds, tail=b)  # validates digits and the tail
    seq = delta.deltas
    nd = delta.structure.n[-1] * seq[-1]
    if not ds[0] < nd - 1:
        raise DomainError(
            f"type D condition violated: a_1 = {ds[0]} must be below "
            f"n_g * delta_g - 1 = {nd - 1}"
        )
    for j in (2, 3):
        h, k = folded.convergents[j - 1]
        bar = k * nd - h
        if telescopic_exponents(delta, bar) is None:
            raise DomainError(
                f"type D condition violated: delta_bar^{j} = {bar} is outside "
                f"the integer semigroup"
            )
    tail = (nd - folded.value) / seq[1]
    return DeltaR(normalize(delta), tail, DWitness(delta, ds, b))


# --- rational sequences of unbounded length ---------------------------------


class DeltaQ(Value):
    """A rational sequence built by repeated scale-and-append extension.

    ``stages`` holds every integer sequence along the way (the first being the
    starting sequence); extension never mutates, it returns a new value.  Its
    semigroup engine ``_engine``, with the stages grown beyond these, is kept
    outside the value.
    """

    __slots__ = ("stages", "choices", "_engine")
    _fields = ("stages", "choices")

    def generators(self) -> tuple[Fraction, ...]:
        """Current normalized generators delta_i / delta_1."""
        return normalize(self.stages[-1])

    def extended(self, choice: tuple[int, int] | None = None) -> DeltaQ:
        new = extend_n(self.stages[-1], choice)
        return DeltaQ(self.stages + (new,), self.choices + (choice,))


# A time budget of about 2 s for a command on a chain, as a step count.
# Each extension validates a stage one entry longer, so the time grows about
# as the fourth power of the steps, doubling every 25 or so.  The costliest
# commands, ``table`` and ``approximates``, build the chain and then the
# family's recurrence; at 150 steps they took 0.8 to 1.7 s (2 vCPUs) from
# (7, 5), (11, 9), (3, 1) and (36, 24, 8, 18, 13) with the default choices,
# and ``construct`` 0.4 to 0.9 s for about 490 KB.  Choices with longer
# numbers than the default ones make every entry longer, and a longer start
# every stage: either is slower.
MAX_CHAIN_STEPS = 150


def build_type_e(start, steps: int, choices=None) -> DeltaQ:
    """Extend a starting integer sequence the given number of times, at most
    ``MAX_CHAIN_STEPS``; more steps are rejected before any extension."""
    if steps > MAX_CHAIN_STEPS:
        raise DomainError(f"type E chain: {steps} steps exceed the limit of {MAX_CHAIN_STEPS}")
    delta = start if isinstance(start, DeltaN) else validate_n(start)
    picks: list[tuple[int, int] | None] = list(choices or [])
    if len(picks) > steps:
        raise DomainError("more choices than steps")
    picks += [None] * (steps - len(picks))
    out = DeltaQ((delta,), ())
    for choice in picks:
        out = out.extended(choice)
    return out
