"""Increasing-gcd sequences of positive integers and their semigroup structure.

A sequence (delta_0, ..., delta_g) is accepted when the gcd chain
d_i = gcd(delta_0, ..., delta_{i-1}) reaches 1 exactly at d_{g+1} with every
quotient n_i = d_i / d_{i+1} > 1, each n_i * delta_i lies in the semigroup of
the earlier entries, and the entries satisfy delta_0 > delta_1 together with
delta_i < delta_{i-1} * n_{i-1} from the third entry on.  The derived structure
records the gcd chain, the n_i, the slopes (e_j, m_j) of the associated Newton
segments, and the continued fraction of the last slope.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

from ._value import Value
from .errors import DomainError

__all__ = [
    "DeltaN",
    "DeltaStructure",
    "canonical_cf",
    "cf_of",
    "denormalize",
    "gap_count_telescopic",
    "normalize",
    "structure_of",
    "telescopic_count",
    "telescopic_exponents",
    "telescopic_members",
    "validate_n",
]

class DeltaStructure(Value):
    """Derived data of a valid sequence.

    ``d`` is the gcd chain (d_1, ..., d_{g+1}); ``n`` the quotients
    (n_1, ..., n_g); ``newton`` the slope pairs (e_j, m_j); ``cf`` the
    continued-fraction digits of the last slope m/e (None when there are no
    slopes); ``divisible`` whether delta_0 - delta_1 divides delta_0, which
    merges the first two slopes; ``rows`` the bounded exponents of each
    n_i * delta_i over delta_0, ..., delta_{i-1}, i = 1, ..., g, the rows that
    condition (2) found.
    """

    __slots__ = _fields = ("d", "n", "newton", "cf", "divisible", "rows")


class DeltaN(Value):
    """A validated sequence of positive integers with its derived structure.
    Its semigroup engine ``_engine`` is kept outside the value."""

    __slots__ = ("deltas", "structure", "_engine")
    _fields = ("deltas", "structure")

    @property
    def g(self) -> int:
        return len(self.deltas) - 1


def _gcd_chain(deltas: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    acc = 0
    for v in deltas:
        acc = gcd(acc, v)
        out.append(acc)
    return tuple(out)


def validate_n(deltas) -> DeltaN:
    """Validate a sequence, naming the first violated condition on failure."""
    seq = tuple(int(v) for v in deltas)
    if not seq:
        raise DomainError("sequence must not be empty")
    if any(v <= 0 for v in seq):
        raise DomainError("sequence entries must be positive integers")
    g = len(seq) - 1
    d = _gcd_chain(seq)
    if d[-1] != 1:
        raise DomainError(f"condition (1): gcd chain must end at 1, got d = {d[-1]}")
    n = tuple(d[i] // d[i + 1] for i in range(g))
    if any(v == 1 for v in n):
        raise DomainError("condition (1): every n_i must exceed 1")
    rows = []
    for i in range(1, g + 1):
        # The prefix divided by its gcd d_i is telescopic (its own conditions
        # (2) were checked in earlier rounds), so gcd descent decides
        # membership exactly; n_i * delta_i is always a multiple of d_i.
        d_i = d[i - 1]
        prefix = tuple(v // d_i for v in seq[:i])
        chain = tuple(v // d_i for v in d[:i])
        rows.append(_descend(prefix, chain, n[: i - 1], n[i - 1] * seq[i] // d_i))
        if rows[-1] is None:
            raise DomainError(
                f"condition (2): n_{i} * delta_{i} = {n[i - 1] * seq[i]} is not in "
                f"the semigroup of the first {i} entries"
            )
    if g >= 1 and seq[0] <= seq[1]:
        raise DomainError("condition (3): delta_0 must exceed delta_1")
    for i in range(2, g + 1):
        if seq[i] >= seq[i - 1] * n[i - 2]:
            raise DomainError(
                f"condition (3): delta_{i} must be below delta_{i - 1} * n_{i - 1}"
            )
    return DeltaN(seq, _structure(seq, d, n, tuple(rows)))


def structure_of(deltas) -> DeltaStructure:
    """Structure of a sequence, validating it first."""
    return validate_n(deltas).structure


def _structure(
    seq: tuple[int, ...], d: tuple[int, ...], n: tuple[int, ...], rows: tuple
) -> DeltaStructure:
    g = len(seq) - 1
    divisible = g >= 1 and seq[0] % (seq[0] - seq[1]) == 0
    newton: list[tuple[int, int]] = []
    if g >= 1 and not divisible:
        newton.append((seq[0] - seq[1], seq[0]))
        for i in range(1, g):
            newton.append((d[i], n[i - 1] * seq[i] - seq[i + 1]))
    elif g >= 2:
        newton.append((d[1], seq[0] + n[0] * seq[1] - seq[2]))
        for i in range(1, g - 1):
            newton.append((d[i + 1], n[i] * seq[i + 1] - seq[i + 2]))
    cf = None
    if newton:
        e, m = newton[-1]
        cf = cf_of(Fraction(m, e))
    return DeltaStructure(tuple(d), n, tuple(newton), cf, divisible, rows)


def cf_of(value: Fraction) -> tuple[int, ...]:
    """Continued-fraction digits of a positive rational, last digit >= 2
    unless the value is an integer."""
    if value <= 0:
        raise DomainError("continued fractions need a positive value")
    digits = []
    num, den = value.numerator, value.denominator
    while den:
        digits.append(num // den)
        num, den = den, num % den
    return tuple(digits)


def canonical_cf(digits) -> tuple[int, ...]:
    """Canonicalize digits so the expansion never ends in 1 (..., a, 1 -> ..., a+1)."""
    out = tuple(int(v) for v in digits)
    if not out:
        raise DomainError("continued fraction needs at least one digit")
    if out[0] < 1 or any(v < 1 for v in out[1:]):
        raise DomainError("continued-fraction digits must be positive")
    if len(out) > 1 and out[-1] == 1:
        out = out[:-2] + (out[-2] + 1,)
    return out


def normalize(delta: DeltaN) -> tuple[Fraction, ...]:
    """The sequence scaled so its second entry becomes 1."""
    if delta.g < 1:
        raise DomainError("normalization needs at least two entries")
    return tuple(Fraction(v, delta.deltas[1]) for v in delta.deltas)


def denormalize(values) -> tuple[int, ...]:
    """Clear denominators by the lcm, recovering the integer sequence."""
    fracs = [Fraction(v) for v in values]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    return tuple(int(f * lcm) for f in fracs)


def gap_count_telescopic(delta: DeltaN) -> int:
    """Closed-form gap count (sum (n_i - 1) delta_i - delta_0 + 1) / 2."""
    n = delta.structure.n
    total = sum((n[i - 1] - 1) * delta.deltas[i] for i in range(1, delta.g + 1))
    value = Fraction(total - delta.deltas[0] + 1, 2)
    if value.denominator != 1:
        raise DomainError("closed-form gap count is not an integer")
    return int(value)


def telescopic_exponents(delta: DeltaN, value: int) -> tuple[int, ...] | None:
    """The unique exponents with value = sum gamma_i delta_i, gamma_i < n_i
    for i >= 1 and gamma_0 >= 0, or None when value is not a member.

    Works by gcd descent: modulo d_i the value determines gamma_i, because the
    earlier entries are all divisible by d_i while delta_i / d_{i+1} is
    invertible mod n_i.
    """
    return _descend(delta.deltas, delta.structure.d, delta.structure.n, value)


def _descend(seq, d, n, value: int) -> tuple[int, ...] | None:
    """Gcd descent on a telescopic sequence given by its entries, gcd chain
    (d[i] holds d_{i+1}) and quotients."""
    if value < 0:
        return None
    exps = [0] * len(seq)
    v = value
    for i in range(len(seq) - 1, 0, -1):
        d_next = d[i]
        if v % d_next:
            return None
        n_i = n[i - 1]
        w = seq[i] // d_next
        exps[i] = (v // d_next) * pow(w, -1, n_i) % n_i
        v -= exps[i] * seq[i]
        if v < 0:
            return None
    if v % seq[0]:
        return None
    exps[0] = v // seq[0]
    return tuple(exps)


def _tails(delta: DeltaN, hi: int, label=None) -> list[tuple[int, tuple[int, ...] | str]]:
    """Every bounded tail (gamma_1, ..., gamma_g), gamma_i < n_i, whose sum
    s = sum gamma_i delta_i is <= hi, as pairs (s, tail) in no set order.
    With a ``label``, which renders one exponent, the tail is the text of
    its labels joined instead, each label rendered once per exponent.

    Representations are unique, so distinct tails have distinct sums modulo
    delta_0: there are at most min(hi + 1, delta_0) of them.
    """
    seq, n = delta.deltas, delta.structure.n
    tails = [(0, () if label is None else "")] if hi >= 0 else []
    for i in range(delta.g, 0, -1):
        step, cap = seq[i], n[i - 1]
        digits = [(c,) if label is None else label(c) for c in range(cap)]
        tails = [
            (s + c * step, digits[c] + tail)
            for s, tail in tails
            for c in range(min(cap, (hi - s) // step + 1))
        ]
    return tails


def _tail_table(delta: DeltaN, hi: int, label=None) -> tuple[list, list]:
    """The bounded tails whose sum s = q delta_0 + r is <= hi, sorted by
    their residue r: a pair (residues, order), ``order`` holding (r, q, tail),
    the tail labelled as in ``_tails`` when a label is given.  Residues are
    distinct, so no two tails are compared."""
    first = delta.deltas[0]
    order = sorted((s % first, s // first, tail) for s, tail in _tails(delta, hi, label))
    return [r for r, _, _ in order], order


def telescopic_members(delta: DeltaN, lo: int, hi: int):
    """Members v with lo < v <= hi in increasing order, one list of rows per
    block [k delta_0, (k + 1) delta_0) of the window.

    A row is (v, c, tail): v = c * delta_0 + sum gamma_i delta_i, with the
    bounded tail (gamma_1, ..., gamma_g) one object shared by every member
    with that tail, built from the entries of ``_sweep``.  The tails are
    found before the first block is asked for.
    """
    residues, order = _tail_table(delta, hi)
    return (
        [(base + r, k - q, tail) for r, q, tail in entries]
        for base, k, entries in _sweep(delta.deltas[0], residues, order, max(lo + 1, 0), hi)
    )


def _sweep(first: int, residues: list, order: list, lo: int, hi: int):
    """The members lo <= v <= hi, one triple (base, k, entries) per block
    [base, base + delta_0) with base = k delta_0, from a ``_tail_table`` that
    holds every tail with sum <= hi.

    ``entries`` are the table's own (r, q, tail) triples with q <= k, in
    increasing r: a tail with sum s = q delta_0 + r gives the member
    base + r of block k, with exponent k - q on delta_0, whenever k >= q
    (a tail with a larger sum gives none).  Distinct tails have distinct
    residues, so sorting the tails by r once puts every block in order: the
    work is the at most min(hi + 1, delta_0) tails plus the output, whatever
    the width of the window, and no member is built here."""
    for k in range(lo // first, hi // first + 1):
        base = k * first
        start, stop = bisect_left(residues, lo - base), bisect_right(residues, hi - base)
        yield base, k, [entry for entry in order[start:stop] if entry[1] <= k]


def telescopic_count(delta: DeltaN, w: int) -> int:
    """How many members lie below w: each bounded tail s < w is completed by
    (w - 1 - s) // delta_0 + 1 multiples of delta_0.  The work is at most
    min(w, delta_0) tails, whatever the size of w."""
    first = delta.deltas[0]
    return sum((w - 1 - s) // first + 1 for s, _ in _tails(delta, w - 1))
