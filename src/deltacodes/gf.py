"""Exact arithmetic in small finite fields GF(p^m) and linear algebra over them.

Elements are coefficient tuples over the prime field (little-endian in the
generator g); all arithmetic goes through precomputed tables, so everything is
integer-exact.  For extension fields the modulus is configurable; the default
is the smallest primitive monic polynomial, which for GF(2^5) is g^5+g^2+1.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "FieldElement",
    "FieldSpec",
    "Matrix",
    "field_arith",
    "mat_rank_kernel",
]

# The q^2 tables (lists plus the kernel's arrays) take about 0.3 s and 70 MB
# at 2^10; 2^12 took 5 s and 890 MB.
MAX_FIELD_SIZE = 1 << 10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _digits(v: int, p: int, m: int) -> tuple[int, ...]:
    """The m base-p digits of v, least significant first."""
    out = []
    for _ in range(m):
        v, digit = divmod(v, p)
        out.append(digit)
    return tuple(out)


def _encode(coeffs, p: int) -> int:
    """The value of little-endian base-p digits; inverts :func:`_digits`."""
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _poly_rem(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a by a monic modulus, truncated to len(mod) - 1 residues."""
    m = len(mod) - 1
    work = list(a)
    for i in range(len(work) - 1, m - 1, -1):
        c = work[i] % p
        if c:
            for j in range(m + 1):
                work[i - m + j] = (work[i - m + j] - c * mod[j]) % p
    out = (work + [0] * m)[:m]
    return tuple(v % p for v in out)


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg(mod)/2."""
    return all(
        any(_poly_rem(mod, _digits(code, p, deg) + (1,), p))
        for deg in range(1, (len(mod) - 1) // 2 + 1)
        for code in range(p**deg)
    )


def _powers(root: int, p: int, mod: tuple[int, ...]) -> list[int]:
    """Encoded powers 1, root, root^2, ... of a residue modulo ``mod``, up to
    the first return to 1 and at most p^deg(mod) of them.  For a nonzero
    residue of a field the length is its multiplicative order, so the root
    is primitive exactly when the length is q - 1 (Lidl & Niederreiter,
    *Finite Fields*, ch. 3)."""
    m = len(mod) - 1
    cap, one, step = p**m, _digits(1, p, m), _digits(root, p, m)
    out, acc = [1], step
    while acc != one and len(out) < cap:
        out.append(_encode(acc, p))
        acc = _poly_rem(_poly_mul(acc, step, p), mod, p)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """A finite field GF(p^m); ``modulus`` is little-endian, monic, length m+1."""

    p: int
    m: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise DomainError(f"p = {self.p} is not prime")
        if self.m < 1:
            raise DomainError("m must be >= 1")
        if self.p**self.m > MAX_FIELD_SIZE:
            raise DomainError(f"field size {self.p}^{self.m} exceeds {MAX_FIELD_SIZE}")
        if self.m == 1:
            if self.modulus is not None:
                raise DomainError("modulus applies only to extension fields (m > 1)")
            return
        if self.modulus is None:
            object.__setattr__(self, "modulus", _default_modulus(self.p, self.m))
            return
        mod = tuple(int(c) % self.p for c in self.modulus)
        if len(mod) != self.m + 1:
            raise DomainError(f"modulus must have {self.m + 1} coefficients")
        if mod[-1] != 1:
            raise DomainError("modulus must be monic")
        if not _is_irreducible(mod, self.p):
            raise DomainError("modulus is reducible")
        object.__setattr__(self, "modulus", mod)

    @property
    def q(self) -> int:
        return self.p**self.m

    @functools.cached_property
    def _t(self) -> _Tables:
        """The field's tables, built on first use and freed with this spec."""
        return _Tables(self)

    @property
    def is_primitive(self) -> bool:
        """Whether the generator class of g has full multiplicative order."""
        return self.m > 1 and len(_powers(self.p, self.p, self.modulus)) == self.q - 1

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.m)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def element(self, value: int | tuple[int, ...] | list[int] | FieldElement) -> FieldElement:
        """Element from an encoded integer, coefficient sequence, or element."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise DomainError("field mismatch")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.q:
                raise DomainError(f"encoded value {value} outside [0, {self.q})")
            return FieldElement(self, _digits(value, self.p, self.m))
        coeffs = tuple(int(c) for c in value)
        if len(coeffs) != self.m or any(not 0 <= c < self.p for c in coeffs):
            raise DomainError(f"coefficients must be {self.m} residues mod {self.p}")
        return FieldElement(self, coeffs)


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest (by encoded value) monic primitive polynomial of degree m."""
    for code in range(1, p**m):
        mod = _digits(code, p, m) + (1,)
        # the irreducibility filter first: it is cheaper than the walk
        if _is_irreducible(mod, p) and len(_powers(p, p, mod)) == p**m - 1:
            return mod
    raise DomainError(f"no primitive polynomial of degree {m} over GF({p})")


@dataclass(frozen=True)
class FieldElement:
    """An element of a finite field, as little-endian coefficients in g.

    ``encoded`` is the coefficients read as base-p digits, the index into the
    field's tables; it is computed once and takes no part in equality, hashing
    or the repr.
    """

    field: FieldSpec
    coeffs: tuple[int, ...]
    encoded: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoded", _encode(self.coeffs, self.field.p))

    def __int__(self) -> int:
        return self.encoded

    def _other(self, other: FieldElement) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise DomainError(f"cannot combine field element with {type(other).__name__}")
        # elements of one field usually share its FieldSpec object
        if other.field is not self.field and other.field != self.field:
            raise DomainError("field mismatch")
        return other

    def __add__(self, other: FieldElement) -> FieldElement:
        t = self.field._t
        return t.by_val[t.add[self.encoded * t.q + self._other(other).encoded]]

    def __sub__(self, other: FieldElement) -> FieldElement:
        t = self.field._t
        return t.by_val[t.sub[self.encoded * t.q + self._other(other).encoded]]

    def __mul__(self, other: FieldElement) -> FieldElement:
        t = self.field._t
        return t.by_val[t.mul[self.encoded * t.q + self._other(other).encoded]]

    def __truediv__(self, other: FieldElement) -> FieldElement:
        return self * self._other(other).inverse()

    def __neg__(self) -> FieldElement:
        t = self.field._t
        return t.by_val[t.neg[self.encoded]]

    def __pow__(self, n: int) -> FieldElement:
        base = self
        if n < 0:
            base, n = self.inverse(), -n
        t = self.field._t
        acc, b = 1, base.encoded
        while n:
            if n & 1:
                acc = t.mul[acc * t.q + b]
            b = t.mul[b * t.q + b]
            n >>= 1
        return t.by_val[acc]

    def inverse(self) -> FieldElement:
        v = self.encoded
        if v == 0:
            raise DomainError("division by zero")
        t = self.field._t
        return t.by_val[t.inv[v]]

    def __bool__(self) -> bool:
        return self.encoded != 0

    def __str__(self) -> str:
        if self.field.m == 1:
            return str(self.coeffs[0])
        v = self.encoded
        if v == 0:
            return "0"
        t = self.field._t
        if t.dlog is not None:
            k = t.dlog[v]
            return "1" if k == 0 else ("g" if k == 1 else f"g^{k}")
        return "+".join(
            f"{'' if c == 1 else c}g^{i}" for i, c in enumerate(self.coeffs) if c
        ).replace("g^0", "1")


@dataclass
class Matrix:
    """Row-major matrix of field elements."""

    rows: int
    cols: int
    entries: list[FieldElement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise DomainError(
                f"matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        specs = {e.field for e in self.entries}
        if len(specs) > 1:
            raise DomainError("field mismatch")

    def at(self, i: int, j: int) -> FieldElement:
        return self.entries[i * self.cols + j]


def _digitwise(p: int, m: int, op) -> list[int]:
    """Flat table of a coefficient-wise operation mod p on encoded values,
    grown one base-p digit at a time: for a = a_low + P * a_top (a_low < P)
    the entry at (a, b) is the entry at (a_low, b_low) plus
    P * (op(a_top, b_top) mod p)."""
    table, size = [0], 1
    for _ in range(m):
        width = size * p
        grown = [0] * (width * width)
        at = 0
        for a_top in range(p):
            for a_low in range(size):
                row = table[a_low * size : (a_low + 1) * size]
                for b_top in range(p):
                    shift = op(a_top, b_top) % p * size
                    grown[at : at + size] = [v + shift for v in row]
                    at += size
        table, size = grown, width
    return table


class _Tables:
    """Flat arithmetic tables for one field, indexed by encoded values."""

    def __init__(self, spec: FieldSpec) -> None:
        p, m, q = spec.p, spec.m, spec.q
        self.q = q
        self.by_val = [FieldElement(spec, _digits(v, p, m)) for v in range(q)]
        self.add = _digitwise(p, m, lambda x, y: x + y)
        # in characteristic 2, a - b = a + b: one table serves both
        self.sub = self.add if p == 2 else _digitwise(p, m, lambda x, y: x - y)
        self.neg = self.sub[:q]

        # Powers of a primitive element, found by trial (the class of g first,
        # so a primitive modulus keeps g as the logarithm base).  Every
        # nonzero product and inverse then follows from the logarithms.
        order, mod = q - 1, spec.modulus or (0, 1)  # GF(p) is F_p[x] / (x)
        for root in sorted(range(1, q), key=lambda c: c != p):
            powers = _powers(root, p, mod)
            if len(powers) == order:
                break
        log = [0] * q
        for k, v in enumerate(powers):
            log[v] = k
        cycle = powers + powers
        logs = log[1:]
        self.mul = [0] * (q * q)
        for a in range(1, q):
            la = log[a]
            self.mul[a * q + 1 : (a + 1) * q] = [cycle[la + lb] for lb in logs]
        self.inv = [0] + [powers[-la % order] for la in logs]
        # the logarithms to base g, when g is primitive
        self.dlog = log if m > 1 and root == p else None

    @functools.cached_property
    def kernel_tables(self) -> tuple[array, array, array]:
        """``mul``, ``sub`` and ``inv`` as array('i'), the form the compiled
        column-search kernel reads, made once per field."""
        return array("i", self.mul), array("i", self.sub), array("i", self.inv)


def _tables(spec: FieldSpec) -> _Tables:
    """The spec's own tables; perfbench's kernel job reads them by this name."""
    return spec._t


def field_arith(
    spec: FieldSpec, op: str, operands: list[FieldElement | int | tuple[int, ...]]
) -> FieldElement:
    """Apply add/sub/mul/inv/pow to operands coerced into the field."""
    if op == "pow":
        if len(operands) != 2 or not isinstance(operands[1], int):
            raise DomainError("pow needs a field element and an integer exponent")
        return spec.element(operands[0]) ** operands[1]
    args = [spec.element(v) for v in operands]
    if op == "inv":
        if len(args) != 1:
            raise DomainError("inv takes one operand")
        return args[0].inverse()
    if len(args) != 2:
        raise DomainError(f"{op} takes two operands")
    a, b = args
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise DomainError(f"unknown operation {op!r}")


def rank_nullspace_ints(
    int_rows: list[list[int]], cols: int, spec: FieldSpec
) -> tuple[int, list[list[int]]]:
    """Rank and right-nullspace basis of an encoded-integer matrix.

    Operates on encoded values to keep the inner loops cheap; used directly by
    the code-scanning layer and wrapped by :func:`mat_rank_kernel`.
    """
    t = spec._t
    q = t.q
    work = [row[:] for row in int_rows]
    pivots: list[tuple[int, int]] = []  # (row, col)
    prow = 0
    for col in range(cols):
        sel = next((r for r in range(prow, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        inv_p = t.inv[work[prow][col]]
        row = work[prow]
        for j in range(col, cols):
            row[j] = t.mul[inv_p * q + row[j]]
        for r in range(len(work)):
            if r != prow and work[r][col]:
                f = work[r][col]
                rr = work[r]
                for j in range(col, cols):
                    rr[j] = t.sub[rr[j] * q + t.mul[f * q + row[j]]]
        pivots.append((prow, col))
        prow += 1
    rank = len(pivots)
    pivot_cols = {c for _, c in pivots}
    basis: list[list[int]] = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = [0] * cols
        vec[free] = 1
        for r, c in pivots:
            vec[c] = t.neg[work[r][free]]
        basis.append(vec)
    return rank, basis


def mat_rank_kernel(matrix: Matrix) -> tuple[int, list[list[FieldElement]]]:
    """Rank and a basis of the right kernel; rank + len(kernel) == cols."""
    if not matrix.entries:
        raise DomainError("matrix has no entries")
    spec = matrix.entries[0].field
    int_rows = [
        [int(matrix.at(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)
    ]
    rank, basis = rank_nullspace_ints(int_rows, matrix.cols, spec)
    t = spec._t
    return rank, [[t.by_val[v] for v in vec] for vec in basis]
