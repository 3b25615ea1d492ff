"""Exact arithmetic and ordering in real quadratic extensions Q(sqrt(d)).

Values are a + b*sqrt(d) with rational a, b and squarefree d >= 2.  Signs and
comparisons are decided exactly with rational comparisons plus one squaring,
never through floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from ._value import Value, _set
from .errors import DomainError

__all__ = ["QuadExt", "floor_of", "floor_surd", "sign_of", "sqrt_of"]


def _is_squarefree(d: int) -> bool:
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


RationalLike = int | Fraction


def sign_of(a: RationalLike, b: RationalLike, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and squarefree d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    rational_dominates = lhs > rhs
    return (1 if rational_dominates else -1) * (1 if a > 0 else -1)


def floor_of(a: Fraction, b: Fraction, d: int) -> int:
    """Largest integer <= a + b*sqrt(d) for rational a, b and squarefree d >= 2."""
    if b == 0:
        return a.numerator // a.denominator
    den = lcm(a.denominator, b.denominator)
    whole = a.numerator * (den // a.denominator)
    root = b.numerator * (den // b.denominator)
    return floor_surd(whole, root, den, d)


def floor_surd(whole: int, root: int, den: int, d: int) -> int:
    """Largest integer <= (whole + root*sqrt(d)) / den for integers whole and
    root, den > 0 and squarefree d >= 2."""
    # For root nonzero, root**2 * d is never a perfect square (d squarefree),
    # so sqrt(root**2 * d) lies strictly between t and t + 1; t = 0 for root 0.
    t = isqrt(root * root * d)
    if root >= 0:
        return (whole + t) // den
    return (whole - t - 1) // den


class QuadExt(Value):
    """The real number a + b*sqrt(d); d is 0 exactly when the value is rational.
    Unlike other values, a rational one also equals the int or Fraction."""

    __slots__ = _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int) -> None:
        _set(self, "a", Fraction(a))
        _set(self, "b", Fraction(b))
        _set(self, "d", d)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The radicand check of a value built from outside."""
        if self.b == 0:
            _set(self, "d", 0)
            return
        if self.d < 2 or not _is_squarefree(self.d):
            raise DomainError(f"radicand must be squarefree and >= 2, got {self.d}")

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> QuadExt:
        """An arithmetic result: a and b are already fractions and d comes
        from a validated operand, so the radicand check is skipped."""
        out = object.__new__(cls)
        _set(out, "a", a)
        _set(out, "b", b)
        _set(out, "d", d if b else 0)
        return out

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _coerce(self, other) -> QuadExt:
        if isinstance(other, QuadExt):
            if other.b and self.b and other.d != self.d:
                raise DomainError("incompatible radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(Fraction(other), Fraction(0), 0)
        raise DomainError(f"cannot combine quadratic value with {type(other).__name__}")

    def _radicand(self, other: QuadExt) -> int:
        return self.d or other.d

    def __add__(self, other) -> QuadExt:
        o = self._coerce(other)
        return QuadExt._of(self.a + o.a, self.b + o.b, self._radicand(o))

    __radd__ = __add__

    def __sub__(self, other) -> QuadExt:
        o = self._coerce(other)
        return QuadExt._of(self.a - o.a, self.b - o.b, self._radicand(o))

    def __rsub__(self, other) -> QuadExt:
        return self._coerce(other) - self

    def __mul__(self, other) -> QuadExt:
        o = self._coerce(other)
        d = self._radicand(o)
        return QuadExt._of(
            self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadExt:
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> QuadExt:
        return self._coerce(other) * self.inverse()

    def __neg__(self) -> QuadExt:
        return QuadExt._of(-self.a, -self.b, self.d)

    def inverse(self) -> QuadExt:
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            if self.a == 0 and self.b == 0:
                raise DomainError("division by zero")
            raise DomainError("value has zero norm")  # impossible for valid d
        return QuadExt._of(self.a / norm, -self.b / norm, self.d)

    def sign(self) -> int:
        return sign_of(self.a, self.b, self.d)

    def floor(self) -> int:
        """Largest integer <= the exact real value."""
        return floor_of(self.a, self.b, self.d)

    def _cmp(self, other) -> int:
        return (self - self._coerce(other)).sign()

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        def frac(f: Fraction) -> str:
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        if self.b == 0:
            return frac(self.a)
        root = f"sqrt({self.d})"
        mag = abs(self.b)
        irr = root if mag == 1 else f"{frac(mag)}*{root}"
        if self.a == 0:
            return irr if self.b > 0 else f"-{irr}"
        op = "+" if self.b > 0 else "-"
        return f"{frac(self.a)} {op} {irr}"


def sqrt_of(d: int) -> QuadExt:
    """The positive square root of a squarefree integer d >= 2."""
    return QuadExt(Fraction(0), Fraction(1), d)
