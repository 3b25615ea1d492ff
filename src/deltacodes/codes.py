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

A ``Scan`` holds the whole chain for one family and one point set; callers
keep it and ask it for the code and bounds at each alpha.  It walks the
members in blocks of n - rank and hands each block's rows to the kernel's
``extend_echelon``, which keeps the echelon basis of the rows so far; the
pair counts behind the order bounds are taken on integer keys.
"""

from __future__ import annotations

import csv
import io
from array import array
from itertools import islice
from math import gcd, lcm

from . import minweight
from ._value import Value, _set
from .approximants import ApproximateFamily, _fit_exponents
from .deltaseq import (
    DeltaN,
    denormalize,
    gap_count_telescopic,
    normalize,
    telescopic_count,
    validate_n,
)
from .errors import DomainError
from .genesis import DeltaQ, DeltaR, DeltaZ2
from .gf import FieldElement, FieldSpec, rank_nullspace_ints
from .minweight import min_dependent_columns
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
    "Scan",
    "Table",
    "TableRow",
    "goppa_distance",
    "min_distance",
    "render_exponents",
    "render_ratio",
    "render_value",
    "scan_table",
    "table_csv",
]

DEFAULT_HORIZON = 4096


class EvalMap:
    """Distinct evaluation points over one field."""

    def __init__(self, spec: FieldSpec, points) -> None:
        self.spec = spec
        coerced = tuple((spec.element(x), spec.element(y)) for x, y in points)
        if not coerced:
            raise DomainError("an evaluation map needs at least one point")
        # elements of one field are equal exactly when their encodings are
        if len({(x.encoded, y.encoded) for x, y in coerced}) != len(coerced):
            raise DomainError("evaluation points must be distinct")
        self.points = coerced

    @property
    def n(self) -> int:
        return len(self.points)


class CodePair(Value):
    """An evaluation space and its dual code at one bound.

    ``gen_e`` holds independent evaluated rows spanning E_alpha (a parity
    check matrix of the dual), ``gen_c`` a basis of the dual code itself,
    and ``k = n - dim_e`` the dual dimension.
    """

    __slots__ = _fields = ("alpha", "gen_e", "dim_e", "gen_c", "k")

    def __init__(
        self,
        alpha: object,
        gen_e: tuple[tuple[FieldElement, ...], ...],
        dim_e: int,
        gen_c: tuple[tuple[FieldElement, ...], ...],
        k: int,
    ) -> None:
        _set(self, "alpha", alpha)
        _set(self, "gen_e", gen_e)
        _set(self, "dim_e", dim_e)
        _set(self, "gen_c", gen_c)
        _set(self, "k", k)


class TableRow(Value):
    """One scan row: a bound with its code parameters and distance bounds."""

    __slots__ = _fields = (
        "alpha", "exponents", "k", "d", "d_ev", "d_fr", "fr_product_bound", "goppa"
    )

    def __init__(
        self,
        alpha: object,
        exponents: tuple[int, ...],
        k: int,
        d: int | None,
        d_ev: int | None,
        d_fr: int,
        fr_product_bound: int,
        goppa: int,
    ) -> None:
        _set(self, "alpha", alpha)
        _set(self, "exponents", exponents)
        _set(self, "k", k)
        _set(self, "d", d)
        _set(self, "d_ev", d_ev)
        _set(self, "d_fr", d_fr)
        _set(self, "fr_product_bound", fr_product_bound)
        _set(self, "goppa", goppa)


class Table(list):
    """The rows of a table scan, and ``dropped``, the number of rows that
    its limit left out."""

    __slots__ = ("dropped",)

    def __init__(self, rows, dropped: int) -> None:
        super().__init__(rows)
        self.dropped = dropped


# --- the rank scan ----------------------------------------------------------


class _PointwiseRows:
    """Basis rows at the points of one map, as encoded field values.

    Evaluation is a ring homomorphism, so the value of q_{i+1} = q_i^{n_i} -
    prod q_j^{a_ij} at a point follows from the values of the earlier
    approximants there, and a basis element's row is the pointwise product
    of powers of approximant rows.  Powers are kept as they are first needed.
    """

    def __init__(self, fam: ApproximateFamily, ev: EvalMap) -> None:
        t = ev.spec._t
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


class Scan:
    """The chain of codes for one family at one set of points, up to the
    rank bound Omega_n.

    The constructor walks the members with each member's row and rank step,
    then takes the pair counts and the bounds built from them.  Members are
    walked in blocks of n - rank (at least one), and each block's rows are
    reduced by one ``minweight.extend_echelon`` call against the echelon
    basis kept here: the rank can reach n only on the last row of a block,
    so the walk stops at the rank bound as a row-at-a-time walk would.  Hold
    one scan to ask it about many bounds; the library keeps no reference
    to it.
    """

    def __init__(
        self,
        delta,
        fam: ApproximateFamily,
        ev: EvalMap,
        horizon: int = DEFAULT_HORIZON,
        backend: str | None = None,
    ) -> None:
        if fam.spec != ev.spec:
            raise DomainError(
                "field mismatch: the family and the points use different fields"
            )
        n = ev.n
        if n > horizon:
            # the rank cannot exceed the number of members walked
            raise DomainError(
                f"rank ceiling: rank {n} needs at least {n} members, above the"
                f" horizon of {horizon}"
            )
        t = ev.spec._t
        evaluate = _PointwiseRows(fam, ev)
        tables = t.kernel_tables(backend)
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

        self.delta = delta
        self.spec = ev.spec
        self.n = n
        self.members = tuple(members)          # ascending, members[0] = 0
        self.exponents = tuple(exponents)      # fitted representation per member
        self.rows = tuple(rows)                # encoded evaluation row per member
        self.jump = tuple(jump)                # whether the rank grew at this member
        self.rank_after = tuple(rank_after)    # rank of the first i + 1 rows
        self.omega_index = omega_index         # index of the rank bound Omega_n
        self.weights = tuple(weights)          # ordered-pair count per member
        self.suffix_all = tuple(suffix_all)    # min weight over members[i:]
        self.suffix_jump = tuple(suffix_jump)  # same, restricted to jump members
        self.suffix_prod = tuple(suffix_prod)  # min product bound over [i, Omega_n)

    @property
    def omega_n(self):
        """The least positive member whose evaluation space has full rank."""
        return self.members[self.omega_index]

    def _index(self, alpha) -> int | None:
        """Index of alpha in the members, None when beyond the rank bound."""
        lo, hi = 0, self.omega_index
        if compare(alpha, self.members[hi]) > 0:
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if compare(self.members[mid], alpha) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _parity_rows(self, i: int) -> list[tuple[int, ...]]:
        """The encoded rows at rank steps up to members[i]: a basis of the
        evaluation space there."""
        return [self.rows[j] for j in range(i + 1) if self.jump[j]]

    def code_at(self, alpha) -> CodePair:
        """The evaluation space and dual code at a semigroup member."""
        represent(self.delta, alpha)
        idx = self._index(alpha)
        enc = self._parity_rows(self.omega_index if idx is None else idx)
        by_val = self.spec._t.by_val
        gen_e = tuple(tuple(by_val[v] for v in row) for row in enc)
        _, kernel = rank_nullspace_ints([list(row) for row in enc], self.n, self.spec)
        gen_c = tuple(tuple(by_val[v] for v in row) for row in kernel)
        return CodePair(alpha, gen_e, len(enc), gen_c, self.n - len(enc))

    def feng_rao(self, alpha, literal: bool = False):
        """The weight bound, its strict-step variant, and the product bound.

        Returns ``(d_fr, d_ev, fr_product_bound)`` for the dual code at
        alpha.  With ``literal=True`` the strict-step variant instead ranges
        over members whose successor is a strict step, which shifts the
        candidate set down by one member and can run dry near the rank bound.
        """
        represent(self.delta, alpha)
        idx = self._index(alpha)
        if idx is None or idx == self.omega_index:
            raise DomainError("dual code is zero at and beyond the rank bound")
        d_fr = self.suffix_all[idx + 1]
        if literal:
            candidates = [
                self.weights[j]
                for j in range(idx + 1, self.omega_index)
                if self.jump[j + 1]
            ]
            if not candidates:
                raise DomainError("no dual jump above alpha")
            d_ev = min(candidates)
        else:
            d_ev = self.suffix_jump[idx + 1]
        return (d_fr, d_ev, self.suffix_prod[idx])


# --- minimum distance -------------------------------------------------------


def _distance_of_rows(spec: FieldSpec, enc_rows, n: int, backend=None, wmin=1) -> int:
    """Minimum distance of the dual of the code with parity rows ``enc_rows``;
    ``wmin`` must not exceed it (the search starts there)."""
    r = len(enc_rows)
    if r == 0:
        return 1
    t = spec._t
    cols = [0] * (r * n)
    for i, row in enumerate(enc_rows):
        cols[i::r] = row
    w = min_dependent_columns(
        cols, r, n, spec.q, *t.kernel_tables(backend), r + 1, wmin, backend=backend
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


def goppa_distance(delta, alpha) -> int:
    """A one-point-code style distance estimate from the family prefix.

    Every kind but the chain is an integer telescopic head plus one free
    generator: delta_g over the prefix divided by its gcd, the planar last
    vector, or tau.  For j = 0, 1, ..., J copies of that generator, J the
    least number whose copies alone exceed alpha, let c_j count the head
    members whose member with j copies is <= alpha; the estimate is the
    least (c_j + 1 - gaps of the head) * (j + 1).  The chain kind counts the
    members below alpha in the stage prefix its representation uses.  The
    estimate can be negative, in which case it carries no information.
    """
    rep = represent(delta, alpha)

    if isinstance(delta, DeltaQ):
        # the stage the representation was taken in, from the engine's ladder
        stage = _engine(delta).covering_stage(alpha.value)
        s_last = max((i for i, a in enumerate(rep.exponents) if a), default=0)
        star = validate_n(denormalize(normalize(stage)[: max(s_last, 1) + 1]))
        value = sum(a * v for a, v in zip(rep.exponents, star.deltas))
        return telescopic_count(star, value) + 1 - gap_count_telescopic(star)

    if isinstance(delta, DeltaN):
        if delta.g < 1:
            raise DomainError("the estimate needs at least two generators")
        scale = delta.structure.d[delta.g - 1]
        head = validate_n(tuple(v // scale for v in delta.deltas[:-1]))
        a = int(alpha.value)
        copies, top = a // delta.deltas[-1] + 1, a // scale
    elif isinstance(delta, (DeltaZ2, DeltaR)):
        eng = _engine(delta)
        value = eng.lift(alpha)
        head, copies, top = eng.head, eng.copies(value), eng.top(value, 0)
    else:
        raise DomainError("unsupported sequence kind")
    # The minimum in closed form.  c_j >= 0 and c_J = 0 (no head member fits
    # below alpha minus J copies).  With xi >= 1 gaps every term is at least
    # (1 - xi)(j + 1) >= (1 - xi)(J + 1), the term at J.  With no gaps the
    # head is all of N, c_j = top_j + 1, and each term (top_j + 2)(j + 1)
    # with 0 < j < J is at least 2(j + 1) and above (t_j + 1)(j + 1), t_j the
    # real number of head units below alpha minus j copies: a concave
    # function of j that is t_0 + 1 >= top_0 + 1 at 0 and at least J at
    # J - 1.  So the least term is at j = 0, top_0 + 2, or at j = J, J + 1.
    # Either can be smaller: the integer family (4, 2, 3), whose head (2, 1)
    # has no gaps, gives 5 and 4 at alpha = 6.
    xi = gap_count_telescopic(head)
    if xi:
        return (1 - xi) * (copies + 1)
    return min(top + 2, copies + 1)


# --- scans and rendering ----------------------------------------------------


def scan_table(
    delta,
    fam: ApproximateFamily,
    ev: EvalMap,
    mode: str = "jumps",
    limit: int | None = None,
) -> Table:
    """Code parameters along the member chain below the rank bound.

    ``jumps`` keeps one row per strict step of the dual chain strictly
    between zero and the rank bound; ``full`` reports every member below the
    rank bound, zero included.  ``limit`` caps the number of rows; the
    table's ``dropped`` counts the rows it left out.
    """
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    scan = Scan(delta, fam, ev)
    if mode == "jumps":
        indices = [i for i in range(1, scan.omega_index) if scan.jump[i]]
    elif mode == "full":
        indices = list(range(scan.omega_index))
    else:
        raise DomainError(f"unknown mode: {mode!r}")
    dropped = 0
    if limit is not None:
        dropped = max(len(indices) - limit, 0)
        indices = indices[:limit]

    # The parity rows of a later row extend those of an earlier one, so its
    # dual code is a subcode and d never decreases: the search for a new rank
    # starts at the d of the previous one (never at d_ev or d_fr, which are
    # checked against d).
    distances: dict[int, int] = {}
    floor = 1
    out = Table((), dropped)
    for i in indices:
        rank = scan.rank_after[i]
        if rank == ev.n:
            d = None
        elif rank in distances:
            d = distances[rank]
        else:
            enc = scan._parity_rows(i)
            d = floor = _distance_of_rows(ev.spec, enc, ev.n, wmin=floor)
            distances[rank] = d
        out.append(
            TableRow(
                scan.members[i],
                scan.exponents[i],
                ev.n - rank,
                d,
                scan.suffix_jump[i + 1],
                scan.suffix_all[i + 1],
                scan.suffix_prod[i],
                goppa_distance(delta, scan.members[i]),
            )
        )
    return out


def render_ratio(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, without the slash when whole."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def render_value(value) -> str:
    """A compact single-token rendering of a semigroup value."""
    if isinstance(value, LexValue):
        return f"({value.x},{value.y})"
    if isinstance(value, RatValue):
        return render_ratio(value.value.numerator, value.value.denominator)
    if isinstance(value, QuadValue):
        return f"{render_ratio(value.r.numerator, value.r.denominator)} + {value.m}*tau"
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
