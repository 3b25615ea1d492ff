"""Sparse bivariate polynomials over a finite field and approximate families.

An approximate family attaches one polynomial to each generator of a
delta-sequence's semigroup: q_0 = x and q_1 = y for the first two, then

    q_{i+1} = q_i^{n_i} - prod_j q_j^{a_{ij}}

where the exponent row (a_{ij}) is the unique bounded representation of
n_i * delta_i over the preceding generators.  The polynomial attached to the
(i+1)-th generator therefore has that generator's value as its weight, and
products of family members indexed by a representation span the function
space below any semigroup element.

A family holds only this recurrence: evaluation is a ring homomorphism, so
the value of every q_i at a point follows from it without multiplying any
polynomial out.  ``expand_family`` multiplies them out, for the callers that
print or compare the polynomials themselves.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd

from ._value import Value
from .deltaseq import DeltaN, telescopic_exponents, validate_n
from .errors import DomainError
from .genesis import DeltaQ, DeltaR, DeltaZ2
from .gf import FieldElement, FieldSpec
from .semigroup import generators

__all__ = [
    "ApproximateFamily",
    "BivarPoly",
    "ExpansionStep",
    "build_approximates",
    "expand_family",
    "expansion_terms",
]


def _term_order(item):
    (ex, ey), _ = item
    return (-(ex + ey), -ey, -ex)


class BivarPoly(Value):
    """An exact sparse polynomial in x and y over one finite field.

    Terms are stored sorted by decreasing total degree then decreasing
    y-degree, with no zero coefficients.
    """

    __slots__ = _fields = ("spec", "terms")

    @classmethod
    def from_coeffs(cls, spec: FieldSpec, mapping) -> BivarPoly:
        """Build from a {(x-exponent, y-exponent): coefficient} mapping.

        Integer coefficients are reduced mod p for prime fields; extension
        fields require encoded values or field elements.
        """
        acc: dict[tuple[int, int], FieldElement] = {}
        for key, coeff in mapping.items():
            if isinstance(coeff, int) and spec.m == 1:
                coeff = spec.element(coeff % spec.p)
            else:
                coeff = spec.element(coeff)
            if coeff:
                acc[(int(key[0]), int(key[1]))] = coeff
        return cls(spec, tuple(sorted(acc.items(), key=_term_order)))

    def _merge(self, other: BivarPoly, negate: bool) -> BivarPoly:
        if self.spec != other.spec:
            raise DomainError("field mismatch")
        acc = dict(self.terms)
        for key, coeff in other.terms:
            add = -coeff if negate else coeff
            total = acc[key] + add if key in acc else add
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return BivarPoly(self.spec, tuple(sorted(acc.items(), key=_term_order)))

    def __add__(self, other: BivarPoly) -> BivarPoly:
        return self._merge(other, negate=False)

    def __sub__(self, other: BivarPoly) -> BivarPoly:
        return self._merge(other, negate=True)

    def __mul__(self, other: BivarPoly) -> BivarPoly:
        if self.spec != other.spec:
            raise DomainError("field mismatch")
        acc: dict[tuple[int, int], FieldElement] = {}
        for (ax, ay), ac in self.terms:
            for (bx, by), bc in other.terms:
                key = (ax + bx, ay + by)
                prod = ac * bc
                total = acc[key] + prod if key in acc else prod
                if total:
                    acc[key] = total
                else:
                    acc.pop(key, None)
        return BivarPoly(self.spec, tuple(sorted(acc.items(), key=_term_order)))

    def __pow__(self, power: int) -> BivarPoly:
        if power < 0:
            raise DomainError("negative polynomial power")
        result = BivarPoly.from_coeffs(self.spec, {(0, 0): 1})
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (ex, ey), coeff in self.terms:
            factors = []
            text = str(coeff)
            if text != "1" or (ex == 0 and ey == 0):
                factors.append(text)
            if ex:
                factors.append("x" if ex == 1 else f"x^{ex}")
            if ey:
                factors.append("y" if ey == 1 else f"y^{ey}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class ExpansionStep(Value):
    """One recurrence step: the n_i used and the prefix exponent row a_{ij}."""

    __slots__ = _fields = ("n", "exponents")


class ApproximateFamily(Value):
    """The recurrence of the approximates q_0..q_r: their field, their
    weights, and one expansion step for each q_i with i >= 2.  The width,
    the number of approximates, is ``len(weights)``."""

    __slots__ = _fields = ("spec", "weights", "expansion")


def _base_sequence(delta) -> DeltaN:
    if isinstance(delta, DeltaN):
        return delta
    if isinstance(delta, (DeltaZ2, DeltaR)):
        return delta.witness.dstar
    if isinstance(delta, DeltaQ):
        return delta.stages[-1]
    raise DomainError("unsupported sequence kind")


def _prefix_row(base: DeltaN, i: int) -> tuple[int, ...]:
    """Bounded exponents of n_i * delta_i over delta_0..delta_{i-1}."""
    n_i = base.structure.n[i - 1]
    target = n_i * base.deltas[i]
    prefix = base.deltas[:i]
    d = reduce(gcd, prefix)
    if target % d:
        raise DomainError("inconsistent δ-sequence")
    scaled = validate_n(tuple(v // d for v in prefix))
    exps = telescopic_exponents(scaled, target // d)
    if exps is None:
        raise DomainError("inconsistent δ-sequence")
    return exps


def build_approximates(delta, spec: FieldSpec, depth: int | None = None) -> ApproximateFamily:
    """The recurrence of the family of approximates for a delta-sequence over
    a field; no polynomial is multiplied out.

    A row that ``_prefix_row`` accepts always gives a nonzero q_{i+1}, so
    no expansion is needed to check it.  By induction q_i is monic in y of
    degree D_i = n_1 ... n_{i-1} (q_0 = x has y-degree 0, q_1 = y has 1).
    The row is bounded, a_ij < n_j for j >= 1, so the product has y-degree
    sum_j a_ij D_j <= sum_j (n_j - 1) D_j = D_i - 1 (the sum telescopes,
    D_{j+1} = n_j D_j), below the degree n_i D_i of q_i^{n_i}.  So q_{i+1}
    keeps the leading term y^{n_i D_i} of q_i^{n_i}: it is monic of
    degree D_{i+1}, and in particular not zero.
    """
    weights = generators(delta)
    max_depth = len(weights) - 1
    if depth is None:
        depth = max_depth
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if depth > max_depth:
        raise DomainError("depth exceeds the generator count")
    base = _base_sequence(delta)
    steps = tuple(
        ExpansionStep(base.structure.n[i - 1], _prefix_row(base, i)) for i in range(1, depth)
    )
    return ApproximateFamily(spec, tuple(weights[: depth + 1]), steps)


# A time budget of about 2 s for the expansion, as an estimated term count.
# Along one family the time grows about as the square of the estimate; the
# steepest family measured (2 vCPUs) is the chain (12, 8, 6, 9): 99,464
# estimated terms in 0.17 s at 6 steps and 395,529 in 3.1 s at 7, so
# 300,000 comes to about 1.8 s there.  Every other chain measured stays
# below 0.25 s under the limit.  The estimate bounds the terms, not the time,
# so a family denser than these could take longer.
MAX_EXPANSION_TERMS = 300_000


def expansion_terms(fam: ApproximateFamily) -> int:
    """An upper bound on the number of terms of the expanded family, from the
    recurrence alone: deg q_{i+1} <= max(n_i deg q_i, sum_j a_ij deg q_j),
    and a polynomial of total degree D has at most C(D + 2, 2) terms."""
    degrees = [1, 1]
    for i, step in enumerate(fam.expansion, start=1):
        product = sum(a * d for a, d in zip(step.exponents, degrees))
        degrees.append(max(step.n * degrees[i], product))
    return sum(comb(d + 2, 2) for d in degrees)


def expand_family(fam: ApproximateFamily) -> tuple[BivarPoly, ...]:
    """The approximates q_0..q_r multiplied out.  A family whose estimated
    term count exceeds ``MAX_EXPANSION_TERMS`` is rejected before any
    product."""
    estimate = expansion_terms(fam)
    if estimate > MAX_EXPANSION_TERMS:
        raise DomainError(
            f"expanding the approximates: an estimated {estimate} terms exceed"
            f" the limit of {MAX_EXPANSION_TERMS}"
        )
    spec = fam.spec
    polys = [BivarPoly.from_coeffs(spec, {(1, 0): 1}), BivarPoly.from_coeffs(spec, {(0, 1): 1})]
    for i, step in enumerate(fam.expansion, start=1):
        polys.append(polys[i] ** step.n - _product_of(spec, polys, step.exponents))
    return tuple(polys)


def _product_of(spec: FieldSpec, polys, exponents: tuple[int, ...]) -> BivarPoly:
    result = BivarPoly.from_coeffs(spec, {(0, 0): 1})
    for q, a in zip(polys, exponents):
        if a:
            result = result * q**a
    return result


def _fit_exponents(fam: ApproximateFamily, exps: tuple[int, ...]) -> tuple[int, ...]:
    width = len(fam.weights)
    if len(exps) > width:
        if any(exps[width:]):
            raise DomainError(
                "extend prefix: the bound needs generators beyond the family"
            )
        return exps[:width]
    return exps + (0,) * (width - len(exps))
