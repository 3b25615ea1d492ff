"""Evaluation codes from approximate families, with four distance estimates.

Evaluating the basis element of every semigroup member at a fixed list of
points yields a nested chain of evaluation spaces E_alpha and dual codes
C_alpha.  The chain stabilises at the rank bound Omega_n, the least positive
member whose evaluation space already has full rank n.  For each bound alpha
the module computes the true minimum distance of C_alpha together with three
lower bounds: the order (weight) bound over all members above alpha, the
sharper variant restricted to members where the dual chain strictly steps,
and a product bound from the bounded representations.  A fourth, purely
semigroup-theoretic estimate in the style of one-point Goppa codes is derived
from the gap count of an integer scaling of the family prefix.

The scan walks the members in blocks of n - rank and hands each block's rows
to the kernel's ``extend_echelon``, which keeps the echelon basis of the rows
so far; the pair counts behind the order bounds are taken on integer keys.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm

from . import minweight
from .approximants import ApproximateFamily, BasisElement, _fit_exponents
from .deltaseq import DeltaN, denormalize, gaps, members_below, normalize
from .errors import DomainError
from .genesis import DeltaQ, DeltaR, DeltaZ2
from .gf import FieldElement, FieldSpec, _tables, rank_nullspace_ints
from .minweight import min_dependent_columns
from .quadratics import QuadExt
from .semigroup import (
    LexValue,
    QuadValue,
    RatValue,
    _engine,
    compare,
    represent,
    walk,
)

__all__ = [
    "CodePair",
    "DEFAULT_HORIZON",
    "EvalMap",
    "TableRow",
    "code_at",
    "evaluation_matrix",
    "feng_rao",
    "goppa_distance",
    "min_distance",
    "omega_n_bound",
    "render_exponents",
    "render_value",
    "scan_table",
    "table_csv",
]

DEFAULT_HORIZON = 4096


class EvalMap:
    """Distinct evaluation points over one field.  Instances hash by
    identity, so the scan cached for a map is shared by its users."""

    def __init__(self, spec: FieldSpec, points) -> None:
        self.spec = spec
        coerced = tuple((spec.element(x), spec.element(y)) for x, y in points)
        if not coerced:
            raise DomainError("an evaluation map needs at least one point")
        if len(set(coerced)) != len(coerced):
            raise DomainError("evaluation points must be distinct")
        self.points = coerced

    @property
    def n(self) -> int:
        return len(self.points)

    def row(self, element: BasisElement) -> tuple[int, ...]:
        """The element's expanded polynomial evaluated at every point, as
        encoded field values."""
        poly = element.expanded
        if poly.spec != self.spec:
            raise DomainError(
                "field mismatch: the family and the points use different fields"
            )
        return tuple(int(poly.evaluate(pt)) for pt in self.points)


@dataclass(frozen=True)
class CodePair:
    """An evaluation space and its dual code at one bound.

    ``gen_e`` holds independent evaluated rows spanning E_alpha (a parity
    check matrix of the dual), ``gen_c`` a basis of the dual code itself,
    and ``k = n - dim_e`` the dual dimension.
    """

    alpha: object
    gen_e: tuple[tuple[FieldElement, ...], ...]
    dim_e: int
    gen_c: tuple[tuple[FieldElement, ...], ...]
    k: int


@dataclass(frozen=True)
class TableRow:
    """One scan row: a bound with its code parameters and distance bounds."""

    alpha: object
    exponents: tuple[int, ...]
    k: int
    d: int | None
    d_ev: int | None
    d_fr: int
    fr_product_bound: int
    goppa: int


def evaluation_matrix(ev: EvalMap, basis) -> tuple[tuple[FieldElement, ...], ...]:
    """Every basis element evaluated at every point, in basis order, by
    multiplying out its polynomial (the reference for the scan's rows)."""
    by_val = _tables(ev.spec).by_val
    return tuple(
        tuple(by_val[v] for v in ev.row(element)) for element in basis
    )


# --- the rank scan ----------------------------------------------------------


@dataclass(frozen=True)
class _ScanData:
    members: tuple                     # ascending, members[0] = 0
    exponents: tuple                   # fitted representation per member
    rows: tuple                        # encoded evaluation row per member
    jump: tuple                        # whether the rank grew at this member
    rank_after: tuple                  # rank of the first i + 1 rows
    omega_index: int                   # index of the rank bound Omega_n
    weights: tuple                     # ordered-pair count per member
    suffix_all: tuple                  # min weight over members[i:]
    suffix_jump: tuple                 # same, restricted to jump members
    suffix_prod: tuple                 # min product bound over [i, Omega_n)


class _PointwiseRows:
    """Basis rows at the points of one map, as encoded field values.

    Evaluation is a ring homomorphism, so the value of q_{i+1} = q_i^{n_i} -
    prod q_j^{a_ij} at a point follows from the values of the earlier
    approximants there, and a basis element's row is the pointwise product
    of powers of approximant rows.  Powers are kept as they are first needed.
    """

    def __init__(self, fam: ApproximateFamily, ev: EvalMap) -> None:
        t = _tables(ev.spec)
        self.q, self.mul = t.q, t.mul
        self.ones = [1] * ev.n
        self.powers: list[list[list[int]]] = []
        for coords in zip(*ev.points):
            self.powers.append([self.ones, [int(v) for v in coords]])
        for i, step in enumerate(fam.expansion, start=1):
            lead, rest = self.power(i, step.n), self.row(step.exponents)
            value = [t.sub[a * self.q + b] for a, b in zip(lead, rest)]
            self.powers.append([self.ones, value])

    def power(self, i: int, k: int) -> list[int]:
        known = self.powers[i]
        q, mul, base = self.q, self.mul, known[1]
        while len(known) <= k:
            known.append([mul[a * q + b] for a, b in zip(known[-1], base)])
        return known[k]

    def row(self, exponents) -> list[int]:
        q, mul = self.q, self.mul
        acc = self.ones
        for i, k in enumerate(exponents):
            if k:
                factor = self.power(i, k)
                if acc is not self.ones:
                    factor = [mul[a * q + b] for a, b in zip(acc, factor)]
                acc = factor
        return acc


def _kernel_tables(t, backend: str | None):
    """``mul``, ``sub`` and ``inv`` in the form the backend reads fastest."""
    if (backend or minweight.BACKEND) == "pure":
        return t.mul, t.sub, t.inv  # the pure loops index lists faster
    return t.kernel_tables


def _pair_counts(members) -> list[int]:
    """omega of every member: how many earlier-or-equal members it exceeds by
    a member.  Members are compared on integer keys that add like the
    members: a rational value times the lcm L of the denominators, the pair
    (r * L, m) for r + m * tau, and the plane vector itself."""
    first = members[0]
    if isinstance(first, LexValue):
        keys = [(v.x, v.y) for v in members]
    elif isinstance(first, RatValue):
        den = lcm(*(v.value.denominator for v in members))
        keys = [v.value.numerator * (den // v.value.denominator) for v in members]
    else:
        den = lcm(*(v.r.denominator for v in members))
        keys = [(v.r.numerator * (den // v.r.denominator), v.m) for v in members]
    seen = set(keys)
    # keys are distinct, so are the differences from one key
    if isinstance(keys[0], int):
        return [
            len(seen.intersection([key - k for k in keys[: i + 1]]))
            for i, key in enumerate(keys)
        ]
    return [
        len(seen.intersection([(x - a, y - b) for a, b in keys[: i + 1]]))
        for i, (x, y) in enumerate(keys)
    ]


def _build_scan(
    delta, fam: ApproximateFamily, ev: EvalMap, horizon: int, backend: str | None = None
) -> _ScanData:
    """Walk the members up to the rank bound, with each member's row and
    rank step, then the pair counts and the bounds built from them.

    Members are walked in blocks of n - rank (at least one), and each block's
    rows are reduced by one ``minweight.extend_echelon`` call against the
    echelon basis kept here: the rank can reach n only on the last row of a
    block, so the walk stops at the rank bound as a row-at-a-time walk would.
    """
    if fam.spec != ev.spec:
        raise DomainError(
            "field mismatch: the family and the points use different fields"
        )
    n = ev.n
    t = _tables(ev.spec)
    evaluate = _PointwiseRows(fam, ev)
    tables = _kernel_tables(t, backend)
    basis, pivots = array("i", [0]) * (n * n), array("i", [0]) * n

    members = []
    exponents = []
    rows = []
    jump = []
    rank_after = []
    rank = 0
    walker = walk(delta)
    # Only positive members can be the rank bound; members[0] is zero.
    while rank < n or len(members) == 1:
        if len(members) >= horizon:
            raise DomainError(
                f"rank ceiling: rank {rank} of {n} after {horizon} members"
            )
        start, block = len(members), []
        for current, rep in islice(walker, min(max(n - rank, 1), horizon - start)):
            exps = _fit_exponents(fam, rep.exponents)
            row = tuple(evaluate.row(exps))
            members.append(current)
            exponents.append(exps)
            rows.append(row)
            block.extend(row)
        flags = minweight.extend_echelon(
            block, len(members) - start, n, ev.spec.q, *tables, basis, pivots, rank,
            backend=backend,
        )
        for flag in flags:
            rank += flag
            jump.append(flag == 1)
            rank_after.append(rank)

    omega_index = len(members) - 1
    weights = _pair_counts(members)

    suffix_all: list[int] = [0] * len(members)
    suffix_jump: list[int | None] = [None] * len(members)
    best = weights[-1]
    best_jump = weights[-1] if jump[-1] else None
    for i in range(len(members) - 1, -1, -1):
        best = min(best, weights[i])
        if jump[i]:
            best_jump = weights[i] if best_jump is None else min(best_jump, weights[i])
        suffix_all[i] = best
        suffix_jump[i] = best_jump

    suffix_prod: list[int] = [0] * len(members)
    best_prod = None
    for i in range(omega_index - 1, -1, -1):
        prod = 1
        for a in exponents[i]:
            prod *= a + 1
        best_prod = prod - 2 if best_prod is None else min(best_prod, prod - 2)
        suffix_prod[i] = best_prod

    return _ScanData(
        tuple(members),
        tuple(exponents),
        tuple(rows),
        tuple(jump),
        tuple(rank_after),
        omega_index,
        tuple(weights),
        tuple(suffix_all),
        tuple(suffix_jump),
        tuple(suffix_prod),
    )


@lru_cache(maxsize=None)
def _scan(delta, fam: ApproximateFamily, ev: EvalMap) -> _ScanData:
    return _build_scan(delta, fam, ev, DEFAULT_HORIZON)


def _member_index(data: _ScanData, alpha) -> int | None:
    """Index of alpha in the scan members, None when beyond the rank bound."""
    lo, hi = 0, data.omega_index
    if compare(alpha, data.members[hi]) > 0:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if compare(data.members[mid], alpha) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


# --- codes at a bound -------------------------------------------------------


def code_at(delta, fam: ApproximateFamily, ev: EvalMap, alpha) -> CodePair:
    """The evaluation space and dual code at a semigroup member."""
    represent(delta, alpha)
    data = _scan(delta, fam, ev)
    by_val = _tables(ev.spec).by_val
    idx = _member_index(data, alpha)
    if idx is None:
        rank = ev.n
        top = data.omega_index
    else:
        rank = data.rank_after[idx]
        top = idx
    enc = [data.rows[j] for j in range(top + 1) if data.jump[j]][:rank]
    gen_e = tuple(tuple(by_val[v] for v in row) for row in enc)
    _, kernel = rank_nullspace_ints([list(row) for row in enc], ev.n, ev.spec)
    gen_c = tuple(tuple(by_val[v] for v in row) for row in kernel)
    return CodePair(alpha, gen_e, rank, gen_c, ev.n - rank)


def omega_n_bound(delta, fam: ApproximateFamily, ev: EvalMap, horizon: int | None = None):
    """The least positive member whose evaluation space has full rank."""
    if horizon is None:
        data = _scan(delta, fam, ev)
    else:
        data = _build_scan(delta, fam, ev, horizon)
    return data.members[data.omega_index]


def feng_rao(delta, fam: ApproximateFamily, ev: EvalMap, alpha, literal: bool = False):
    """The weight bound, its strict-step variant, and the product bound.

    Returns ``(d_fr, d_ev, fr_product_bound)`` for the dual code at alpha.
    With ``literal=True`` the strict-step variant instead ranges over members
    whose successor is a strict step, which shifts the candidate set down by
    one member and can run dry near the rank bound.
    """
    represent(delta, alpha)
    data = _scan(delta, fam, ev)
    idx = _member_index(data, alpha)
    if idx is None or idx == data.omega_index:
        raise DomainError("dual code is zero at and beyond the rank bound")
    d_fr = data.suffix_all[idx + 1]
    if literal:
        candidates = [
            data.weights[j]
            for j in range(idx + 1, data.omega_index + 1)
            if j + 1 <= data.omega_index and data.jump[j + 1]
        ]
        if not candidates:
            raise DomainError("no dual jump above alpha")
        d_ev = min(candidates)
    else:
        d_ev = data.suffix_jump[idx + 1]
    return (d_fr, d_ev, data.suffix_prod[idx])


# --- minimum distance -------------------------------------------------------


def _distance_of_rows(spec: FieldSpec, enc_rows, n: int, backend=None, wmin=1) -> int:
    """Minimum distance of the dual of the code with parity rows ``enc_rows``;
    ``wmin`` must not exceed it (the search starts there)."""
    r = len(enc_rows)
    if r == 0:
        return 1
    t = _tables(spec)
    cols = [0] * (r * n)
    for i, row in enumerate(enc_rows):
        for j, v in enumerate(row):
            cols[j * r + i] = v
    w = min_dependent_columns(
        cols, r, n, spec.q, *_kernel_tables(t, backend), r + 1, wmin, backend=backend
    )
    if w == 0:
        raise DomainError("distance search exhausted without a dependency")
    return w


def min_distance(code: CodePair, backend: str | None = None) -> int:
    """True minimum distance of the dual code, by column search on gen_e."""
    if code.k == 0:
        raise DomainError("zero code has no minimum distance")
    if not code.gen_e:
        return 1
    spec = code.gen_e[0][0].field
    enc = [tuple(int(v) for v in row) for row in code.gen_e]
    return _distance_of_rows(spec, enc, len(enc[0]), backend)


# --- the Goppa-style estimate -----------------------------------------------


@lru_cache(maxsize=None)
def _gap_count(star: tuple[int, ...]) -> int:
    return len(gaps(star))


def _chi(star: tuple[int, ...], value: int) -> int:
    return len(members_below(star, value)) - 1


def _least_member_at_least(star: tuple[int, ...], w_min: int) -> int:
    if w_min <= 0:
        return 0
    step = min(v for v in star if v > 0)
    for v in members_below(star, w_min + step):
        if v >= w_min:
            return v
    raise DomainError("member search failed")


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


def _goppa_of_star(star: tuple[int, ...], least_member_above, b_top: int) -> int:
    xi = _gap_count(star)
    best = None
    for j in range(b_top + 1):
        d_j = (_chi(star, least_member_above(j)) + 1 - xi) * (j + 1)
        if best is None or d_j < best:
            best = d_j
    return best


def goppa_distance(delta, alpha) -> int:
    """A one-point-code style distance estimate from the family prefix.

    The estimate scales the prefix of the sequence to an integer semigroup,
    counts its gaps, and minimises a rank-times-multiplicity expression over
    all ways of splitting the bound along the last generator.  It can be
    negative, in which case it carries no information.
    """
    rep = represent(delta, alpha)

    if isinstance(delta, DeltaN):
        if delta.g < 1:
            raise DomainError("the estimate needs at least two generators")
        prefix = delta.deltas[:-1]
        scale = delta.structure.d[delta.g - 1]
        star = tuple(v // scale for v in prefix)
        last = delta.deltas[-1]
        a = int(alpha.value)
        b_top = a // last + 1

        def above(j: int) -> int:
            t_val = a - j * last
            return _least_member_at_least(star, max(t_val // scale + 1, 0))

        return _goppa_of_star(star, above, b_top)

    if isinstance(delta, DeltaZ2):
        w = delta.witness
        star = w.head_c
        last = delta.deltas[-1]
        target = (alpha.x, alpha.y)
        b_top = max(_least_scalar_above(last, target), 1)

        def above(j: int) -> int:
            t_vec = (target[0] - j * last[0], target[1] - j * last[1])
            return _least_member_at_least(star, _least_scalar_above(w.u, t_vec))

        return _goppa_of_star(star, above, b_top)

    if isinstance(delta, DeltaR):
        star = delta.witness.dstar.deltas
        scale = star[1]
        tau = delta.tail
        if isinstance(alpha, RatValue):
            r_part, m_part = alpha.value, 0
        else:
            r_part, m_part = alpha.r, alpha.m
        ratio = QuadExt(r_part, Fraction(0), tau.d) / tau
        b_top = m_part + ratio.floor() + 1

        def above(j: int) -> int:
            x = (QuadExt(r_part, Fraction(0), tau.d) + tau * (m_part - j)) * scale
            return _least_member_at_least(star, max(x.floor() + 1, 0))

        return _goppa_of_star(star, above, b_top)

    if isinstance(delta, DeltaQ):
        # the stage the representation was taken in, from the engine's ladder
        stage = _engine(delta).covering_stage(alpha.value)
        s_last = 0
        for i, a in enumerate(rep.exponents):
            if a:
                s_last = i
        s_eff = max(s_last, 1)
        star = denormalize(normalize(stage)[: s_eff + 1])
        value = sum(a * v for a, v in zip(rep.exponents, star))
        return _chi(star, value) + 1 - _gap_count(star)

    raise DomainError("unsupported sequence kind")


# --- scans and rendering ----------------------------------------------------


def scan_table(
    delta,
    fam: ApproximateFamily,
    ev: EvalMap,
    mode: str = "jumps",
    limit: int | None = None,
) -> list[TableRow]:
    """Code parameters along the member chain below the rank bound.

    ``jumps`` keeps one row per strict step of the dual chain strictly
    between zero and the rank bound; ``full`` reports every member below the
    rank bound, zero included.  ``limit`` caps the number of rows.
    """
    data = _scan(delta, fam, ev)
    if mode == "jumps":
        indices = [i for i in range(1, data.omega_index) if data.jump[i]]
    elif mode == "full":
        indices = list(range(data.omega_index))
    else:
        raise DomainError(f"unknown mode: {mode!r}")
    if limit is not None:
        indices = indices[:limit]

    # The parity rows of a later row extend those of an earlier one, so its
    # dual code is a subcode and d never decreases: the search for a new rank
    # starts at the d of the previous one (never at d_ev or d_fr, which are
    # checked against d).
    distances: dict[int, int] = {}
    floor = 1
    out = []
    for i in indices:
        rank = data.rank_after[i]
        if rank == ev.n:
            d = None
        elif rank in distances:
            d = distances[rank]
        else:
            enc = [data.rows[j] for j in range(i + 1) if data.jump[j]][:rank]
            d = floor = _distance_of_rows(ev.spec, enc, ev.n, wmin=floor)
            distances[rank] = d
        out.append(
            TableRow(
                data.members[i],
                data.exponents[i],
                ev.n - rank,
                d,
                data.suffix_jump[i + 1],
                data.suffix_all[i + 1],
                data.suffix_prod[i],
                goppa_distance(delta, data.members[i]),
            )
        )
    return out


def render_value(value) -> str:
    """A compact single-token rendering of a semigroup value."""
    if isinstance(value, LexValue):
        return f"({value.x},{value.y})"
    if isinstance(value, RatValue):
        return str(value.value)
    if isinstance(value, QuadValue):
        return f"{value.r} + {value.m}*tau"
    raise DomainError("unsupported value kind")


def render_exponents(exponents: tuple[int, ...]) -> str:
    """Digits joined without separator while they stay single digits."""
    if all(a < 10 for a in exponents):
        return "".join(str(a) for a in exponents)
    return ".".join(str(a) for a in exponents)


def table_csv(rows) -> str:
    """The scan rows as CSV with a fixed header; empty cells for unknowns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "exp", "k", "d", "d_ev", "d_fr", "fr_bound", "goppa"])
    for row in rows:
        writer.writerow(
            [
                render_value(row.alpha),
                render_exponents(row.exponents),
                row.k,
                "" if row.d is None else row.d,
                "" if row.d_ev is None else row.d_ev,
                row.d_fr,
                row.fr_product_bound,
                row.goppa,
            ]
        )
    return buf.getvalue()
