"""Exact arithmetic in small finite fields GF(p^m).

Elements are coefficient tuples over the prime field (little-endian in the
generator g); all arithmetic goes through precomputed tables, which the kernel
fills, so everything is integer-exact.  For extension fields the modulus is
configurable; the default is the smallest primitive monic polynomial, which
for GF(2^5) is g^5+g^2+1, read from a table.  Linear algebra over these
fields is the kernel's (``extend_echelon``), not this module's.
"""

from __future__ import annotations

import functools
from array import array

from . import minweight
from ._value import Value, _set
from .errors import DomainError

__all__ = ["FieldElement", "FieldSpec"]

# The q^2 tables of the largest fields, p = 1021 and 2^10, take about 0.02 s
# and 26 MB peak with the compiled kernel, and 0.6 s and 62 MB with the pure
# one, whose lists hold 8 bytes an entry where the arrays hold 4.
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


def _axpy(u: int, c: int, v: int, p: int) -> int:
    """The encoded u + c * v, digit by digit mod p."""
    if p == 2:  # digits add without carries, and c is 0 or 1
        return u ^ v if c else u
    out, place = 0, 1
    while u or v:
        u, a = divmod(u, p)
        v, b = divmod(v, p)
        out += (a + c * b) % p * place
        place *= p
    return out


def _powers(root: int, p: int, mod: tuple[int, ...]) -> list[int]:
    """Encoded powers 1, root, root^2, ... of a residue modulo ``mod``, up to
    the first return to 1 and at most p^deg(mod) of them.  For a nonzero
    residue of a field the length is its multiplicative order, so the root
    is primitive exactly when the length is q - 1 (Lidl & Niederreiter,
    *Finite Fields*, ch. 3).

    A step adds c * acc * g^j over the root's digits c_j.  Multiplying by g
    shifts the digits up one place, and a digit c that leaves the top comes
    back as c * g^m = -c * (mod_0 + mod_1 g + ... + mod_{m-1} g^{m-1})."""
    m = len(mod) - 1
    cap, top = p**m, p ** (m - 1)
    g_m = _encode([-c % p for c in mod[:m]], p)
    terms = [(j, c) for j, c in enumerate(_digits(root, p, m)) if c]
    out, acc = [1], root
    while acc != 1 and len(out) < cap:
        out.append(acc)
        total, shifted, at = 0, acc, 0
        for j, c in terms:
            for _ in range(at, j):
                high, low = divmod(shifted, top)
                shifted = _axpy(low * p, high, g_m, p)
            total, at = _axpy(total, c, shifted, p), j
        acc = total
    return out


# The smallest (by encoded value) monic primitive polynomial of each
# extension field with q <= MAX_FIELD_SIZE, little-endian; a test checks
# each against a search.  A field's encoding depends on its modulus.
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 3, 0, 1),
    (5, 4): (2, 2, 1, 0, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 3, 0, 1),
    (11, 2): (7, 1, 1),
    (13, 2): (2, 1, 1),
    (17, 2): (3, 1, 1),
    (19, 2): (2, 1, 1),
    (23, 2): (7, 1, 1),
    (29, 2): (3, 1, 1),
    (31, 2): (12, 1, 1),
}


class FieldSpec(Value):
    """A finite field GF(p^m); ``modulus`` is little-endian, monic, length m+1,
    given as coefficients or as their base-p encoding (0x25 is g^5+g^2+1).
    Its tables ``_t`` live in its ``__dict__``, outside the value."""

    _fields = ("p", "m", "modulus")

    def __init__(self, p: int, m: int = 1, modulus: tuple[int, ...] | int | None = None) -> None:
        # Neither trial division nor p**m may grow with the input: a p above
        # the bound is not tried, and 2^m exceeds it once m reaches its bits.
        if p <= MAX_FIELD_SIZE and not _is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if m < 1:
            raise DomainError("m must be >= 1")
        if p > MAX_FIELD_SIZE or m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE:
            raise DomainError(f"field size {p}^{m} exceeds {MAX_FIELD_SIZE}")
        if m == 1:
            if modulus is not None:
                raise DomainError("modulus applies only to extension fields (m > 1)")
        elif modulus is None:
            modulus = _DEFAULT_MODULI[p, m]
        else:
            if isinstance(modulus, int):
                if not 0 <= modulus < p ** (m + 1):
                    raise DomainError(f"modulus {modulus} is not a polynomial of degree <= {m}")
                modulus = _digits(modulus, p, m + 1)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1:
                raise DomainError(f"modulus must have {m + 1} coefficients")
            if modulus[-1] != 1:
                raise DomainError("modulus must be monic")
            if not _is_irreducible(modulus, p):
                raise DomainError("modulus is reducible")
        _set(self, "p", p)
        _set(self, "m", m)
        _set(self, "modulus", modulus)
        # every element's hash hashes its spec, so the spec's is kept
        _set(self, "_hash", hash((p, m, modulus)))

    def __hash__(self) -> int:
        return self._hash

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
            return FieldElement._of(self, value)
        coeffs = tuple(int(c) for c in value)
        if len(coeffs) != self.m or any(not 0 <= c < self.p for c in coeffs):
            raise DomainError(f"coefficients must be {self.m} residues mod {self.p}")
        return FieldElement(self, coeffs)


class FieldElement(Value):
    """An element of a finite field, as little-endian coefficients in g.

    ``encoded`` is the coefficients read as base-p digits, the index into the
    field's tables; it is computed once and takes no part in equality, hashing
    or the repr.
    """

    __slots__ = ("field", "coeffs", "encoded")
    _fields = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]) -> None:
        _set(self, "field", field)
        _set(self, "coeffs", coeffs)
        _set(self, "encoded", _encode(coeffs, field.p))

    @classmethod
    def _of(cls, field: FieldSpec, encoded: int) -> FieldElement:
        """The element whose encoded value is ``encoded``, in [0, q), which
        is not checked; its digits are computed and not encoded again."""
        self = object.__new__(cls)
        _set(self, "field", field)
        _set(self, "coeffs", _digits(encoded, field.p, field.m))
        _set(self, "encoded", encoded)
        return self

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
        return t.by_val[t.sub[self.encoded * t.q + t.neg[self._other(other).encoded]]]

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
            str(c) if i == 0 else f"{'' if c == 1 else c}g^{i}"
            for i, c in enumerate(self.coeffs)
            if c
        )


def _primitive_powers(spec: FieldSpec) -> tuple[int, list[int]]:
    """A primitive element, found by trial, and its q - 1 encoded powers.
    The class of g comes first, so a primitive modulus keeps g as the
    logarithm base."""
    p, q = spec.p, spec.q
    mod = spec.modulus or (0, 1)  # GF(p) is F_p[x] / (x)
    for root in sorted(range(1, q), key=lambda c: c != p):
        powers = _powers(root, p, mod)
        if len(powers) == q - 1:
            return root, powers
    raise DomainError(f"GF({p}^{spec.m}) has no primitive element")


class _Tables:
    """Arithmetic tables for one field, indexed by encoded values: ``sub``
    and ``mul`` are flat q*q array('i') that the kernel fills, and ``neg``,
    ``inv``, ``by_val`` and ``dlog`` are q-sized lists, ``by_val`` built on
    its first use.  A sum is a difference, a + b = a - neg[b], so no third
    q*q table is kept.  ``gpow`` lists the encoded powers 1, g, g^2, ...
    of the class of g (encoded p) up to its order, so g^k is
    gpow[k % len(gpow)]; None for a prime field."""

    def __init__(self, spec: FieldSpec) -> None:
        p, m, q = spec.p, spec.m, spec.q
        self.q = q
        self._spec = spec

        # Every nonzero product and inverse follows from the logarithms.
        root, powers = _primitive_powers(spec)
        order, log = q - 1, [0] * q
        for k, v in enumerate(powers):
            log[v] = k
        self.inv = [0] + [powers[-log[a] % order] for a in range(1, q)]
        # the logarithms to base g, when g is primitive
        self.dlog = log if m > 1 and root == p else None
        if m == 1:
            self.gpow = None
        else:
            self.gpow = powers if root == p else _powers(p, p, spec.modulus)

        self.sub, self.mul = array("i", [0]) * (q * q), array("i", [0]) * (q * q)
        minweight.kernel().field_tables(array("i", powers), p, m, self.sub, self.mul)
        self.neg = self.sub[:q].tolist()

    @functools.cached_property
    def by_val(self) -> list[FieldElement]:
        """Every element, indexed by its encoded value."""
        spec = self._spec
        return [FieldElement._of(spec, v) for v in range(self.q)]

    def kernel_tables(self, backend: str | None = None) -> tuple:
        """``mul``, ``sub`` and ``inv`` in the form the backend reads fastest:
        the arrays themselves for the compiled kernel, lists for the pure
        one; each form is made once, on its first use."""
        if (backend or minweight.BACKEND) == "pure":
            return self._lists
        return self._arrays

    @functools.cached_property
    def _arrays(self) -> tuple[array, array, array]:
        return self.mul, self.sub, array("i", self.inv)

    @functools.cached_property
    def _lists(self) -> tuple[list[int], list[int], list[int]]:
        # entries share the q int objects: above 256 each would be its own
        values = list(range(self.q))
        return [values[v] for v in self.mul], [values[v] for v in self.sub], self.inv


def _tables(spec: FieldSpec) -> _Tables:
    """The spec's own tables; perfbench's kernel job reads them by this name."""
    return spec._t

