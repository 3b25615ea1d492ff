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
members in blocks of n - rank.  The kernel's ``multiply_rows`` forms each
block's rows in one flat array, each row an earlier member's row times one
approximant's values, and ``extend_echelon`` reduces them in place against
the echelon basis of the rows so far, which the scan keeps.  That is the one
Gaussian elimination here: at rank r the first r basis rows span the
evaluation space, the distance search reads them, and the dual code comes
from one more ``extend_echelon`` pass, over those rows reversed.  The pair
counts behind the order bounds come from ``semigroup``, which owns them.
"""

from __future__ import annotations

import csv
import io
from array import array
from itertools import islice
from math import gcd

from . import minweight
from ._value import Value
from .approximants import ApproximateFamily, _fit_exponents, build_approximates
from .deltaseq import DeltaN, gap_count_telescopic, telescopic_count, validate_n
from .errors import DomainError
from .genesis import DeltaQ, DeltaR, DeltaZ2
from .gf import FieldSpec
from .minweight import min_dependent_columns
from .semigroup import (
    LexValue,
    QuadValue,
    RatValue,
    _engine,
    _pair_counts,
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


class TableRow(Value):
    """One scan row: a bound with its code parameters and distance bounds."""

    __slots__ = _fields = (
        "alpha", "exponents", "k", "d", "d_ev", "d_fr", "fr_product_bound", "goppa"
    )


class Table(list):
    """The rows of a table scan, and ``dropped``, the number of rows that
    its limit left out."""

    __slots__ = ("dropped",)

    def __init__(self, rows, dropped: int) -> None:
        super().__init__(rows)
        self.dropped = dropped


# --- the rank scan ----------------------------------------------------------


def _approximant_rows(fam: ApproximateFamily, ev: EvalMap, mul, sub, backend) -> array:
    """The values of the approximants at the points, row i for q_i, in one
    array('i').

    Evaluation is a ring homomorphism, so q_0 = x and q_1 = y give the
    coordinates and q_{i+1} = q_i^{n_i} - prod q_j^{a_ij} follows from the
    rows before it: both products are chains of row products from a row of
    ones, made by one ``multiply_rows`` call.  The second chain is never
    empty, as n_i delta_i > 0 has a nonzero representation.
    """
    n, q, kernel = ev.n, ev.spec.q, minweight.kernel(backend)
    values = array("i", [int(v) for coords in zip(*ev.points) for v in coords])
    for i, step in enumerate(fam.expansion, start=1):
        lower = [j for j, a in enumerate(step.exponents) for _ in range(a)]
        factors = array("i", [i] * step.n + lower)
        parents = array("i", range(len(factors)))
        parents[step.n] = 0  # the product starts again from the ones
        work = array("i", [1]) * n + array("i", [0]) * (len(factors) * n)
        kernel.multiply_rows(work, 1, parents, factors, values, n, q, mul)
        lead, rest = work[step.n * n : (step.n + 1) * n], work[-n:]
        values += array("i", [sub[a * q + b] for a, b in zip(lead, rest)])
    return values


def _dual_basis(basis, rank: int, n: int, spec: FieldSpec, backend) -> tuple:
    """A basis of the vectors orthogonal to the first ``rank`` rows, of
    length n, of the normalized echelon basis ``basis``, as tuples of field
    elements: for each non-pivot column f of the rows' reduced row echelon
    form, ascending, 1 at f and minus the form's column f at the pivots.  One
    ``extend_echelon`` pass over the rows reversed gives the form and its
    pivots: each row is reduced only against later rows, which are zero at
    its pivot and at every pivot before it (see ``Scan.code_at``)."""
    t = spec._t
    by_val, reverse = t.by_val, array("i")
    for b in range(rank - 1, -1, -1):
        reverse += basis[b * n : (b + 1) * n]
    form, piv = array("i", [0]) * (rank * n), array("i", [0]) * rank
    minweight.kernel(backend).extend_echelon(
        reverse, rank, n, t.q, *t.kernel_tables(backend), form, piv, 0
    )
    minus = [by_val[v] for v in t.neg]
    out = []
    for f in sorted(set(range(n)).difference(piv)):
        vec = [by_val[0]] * n
        vec[f] = by_val[1]
        for c, v in zip(piv, form[f::n]):
            vec[c] = minus[v]
        out.append(tuple(vec))
    return tuple(out)


class Scan:
    """The chain of codes for a sequence's family of approximates, at
    ``depth`` (every generator when None), at one set of points, up to the
    rank bound Omega_n.

    The constructor builds the family (``build_approximates``), walks the
    members with each member's row and rank step, then takes the pair counts
    (``semigroup._pair_counts``) and the bounds built from them.  Members are walked in blocks of n - rank (at least
    one).  One kernel ``multiply_rows`` call forms a block's rows in the
    flat array('i') ``rows``, and one ``extend_echelon`` call reduces them,
    read in place, against the echelon basis kept in ``basis`` and
    ``pivots``: the rank can reach n only on the last row of a block, so the
    walk stops at the rank bound as a row-at-a-time walk would.  A row that
    does not raise the rank writes no basis row, so at rank r the first r
    rows span the evaluation space.  Hold one scan to ask it about many
    bounds; the library keeps no reference to it.

    A member's row is the row of its parent, the member with its first
    nonzero exponent lowered by one, times that approximant's values.
    Lowering an exponent keeps every bound of the representation, so the
    parent is the member minus a generator: a smaller member, which the
    walk passed before.  Only zero has no parent; its row is all ones.
    """

    def __init__(
        self,
        delta,
        ev: EvalMap,
        depth: int | None = None,
        horizon: int = DEFAULT_HORIZON,
        backend: str | None = None,
    ) -> None:
        fam = build_approximates(delta, ev.spec, depth)
        n = ev.n
        if n > horizon:
            # the rank cannot exceed the number of members walked
            raise DomainError(
                f"rank ceiling: rank {n} needs at least {n} members, above the"
                f" horizon of {horizon}"
            )
        kernel = minweight.kernel(backend)
        q, tables = ev.spec.q, ev.spec._t.kernel_tables(backend)
        values = _approximant_rows(fam, ev, tables[0], tables[1], backend)
        basis, pivots = array("i", [0]) * (n * n), array("i", [0]) * n

        walked = []  # (member, Representation) pairs
        exponents = []
        rows = array("i", [1]) * n  # the zero member's row: every point gives 1
        index = {}  # a member's index by its exponents
        jump = []
        rank_after = []
        rank = 0
        walker = walk(delta)
        # Only positive members can be the rank bound; the first is zero.
        while rank < n or len(walked) == 1:
            if len(walked) >= horizon:
                raise DomainError(
                    f"rank ceiling: rank {rank} of {n} after {horizon} members"
                )
            start, parents, factors = len(walked), array("i"), array("i")
            for pair in islice(walker, min(max(n - rank, 1), horizon - start)):
                exps = _fit_exponents(fam, pair[1].exponents)
                if walked:  # every member but zero has a parent
                    i = 0
                    while not exps[i]:
                        i += 1
                    parents.append(index[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]])
                    factors.append(i)
                index[exps] = len(walked)
                walked.append(pair)
                exponents.append(exps)
            rows += array("i", [0]) * (len(parents) * n)
            kernel.multiply_rows(
                rows, len(walked) - len(parents), parents, factors, values, n, q, tables[0]
            )
            flags = kernel.extend_echelon(
                memoryview(rows)[start * n :], len(walked) - start, n, q, *tables, basis,
                pivots, rank,
            )
            for flag in flags:
                rank += flag
                jump.append(flag == 1)
                rank_after.append(rank)

        members = [value for value, _ in walked]
        omega_index = len(members) - 1
        weights = _pair_counts(delta, [rep for _, rep in walked])

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
        self.backend = backend                 # the kernel backend, None for the default
        self.n = n
        self.members = tuple(members)          # ascending, members[0] = 0
        self.exponents = tuple(exponents)      # fitted representation per member
        self.rows = rows                       # encoded rows, member i's at [i * n:(i + 1) * n]
        self.basis = basis                     # echelon rows in rank-step order, n x n
        self.pivots = pivots                   # the pivot column of each basis row
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

    def code_at(self, alpha) -> CodePair:
        """The evaluation space and dual code at a semigroup member.

        ``gen_e`` holds the rows at rank steps up to alpha.  ``gen_c`` has one
        vector per non-pivot column of the reduced row echelon form of E_alpha
        (``_dual_basis``), from the scan's first rank basis rows, which span
        it.  That form is unique to E_alpha, so ``gen_c`` does not depend on
        the rows spanning it.
        """
        represent(self.delta, alpha)
        idx = self._index(alpha)
        i = self.omega_index if idx is None else idx
        rows, n, rank, by_val = self.rows, self.n, self.rank_after[i], self.spec._t.by_val
        steps = [j for j in range(i + 1) if self.jump[j]]
        gen_e = tuple(tuple(map(by_val.__getitem__, rows[j * n : (j + 1) * n])) for j in steps)
        gen_c = _dual_basis(self.basis, rank, n, self.spec, self.backend)
        return CodePair(alpha, gen_e, rank, gen_c, n - rank)

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


def _distance_of_rows(spec: FieldSpec, rows: array, r: int, n: int, backend=None, wmin=1) -> int:
    """Minimum distance of the dual of the code spanned by the first r rows,
    of length n, of the flat array('i') ``rows``; ``wmin`` must not exceed
    it (the search starts there)."""
    cols = array("i", [0]) * (r * n)
    for i in range(r):
        cols[i::r] = rows[i * n : (i + 1) * n]
    # the wrapper, which passes these arrays on as they are: perfbench's
    # probe times the search at this name in codes
    w = min_dependent_columns(
        cols, r, n, spec.q, *spec._t.kernel_tables(backend), r + 1, wmin, backend=backend
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
    rows = array("i", [int(v) for row in code.gen_e for v in row])
    return _distance_of_rows(spec, rows, len(code.gen_e), len(code.gen_e[0]), backend)


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
    return _goppa(delta)(alpha, rep.exponents)


def _goppa(delta):
    """``goppa_distance`` on one sequence, as a function of a member and its
    exponents.  What does not depend on the member is found once: the head
    and its gap count, and for the chain each prefix star.  A chain prefix of
    length k, divided by its gcd, is the same in every stage, as a stage is
    the one before it times z: the first ladder stage's prefix, validated,
    for k below that stage's length L, and the ladder stage of length k,
    already validated, from L on."""
    if isinstance(delta, DeltaQ):
        eng, stars = _engine(delta), {}
        base = eng.ladder[0]

        def estimate(alpha, exponents) -> int:
            k = max(max((i for i, a in enumerate(exponents) if a), default=0), 1) + 1
            if k not in stars:
                if k < len(base.deltas):
                    d = base.structure.d[k - 1]
                    star = validate_n(tuple(v // d for v in base.deltas[:k]))
                else:
                    star = eng.stage_of(k)
                stars[k] = star, 1 - gap_count_telescopic(star)
            star, offset = stars[k]
            value = sum(a * v for a, v in zip(exponents, star.deltas))
            return telescopic_count(star, value) + offset

        return estimate

    if isinstance(delta, DeltaN):
        if delta.g < 1:
            raise DomainError("the estimate needs at least two generators")
        scale, last = delta.structure.d[delta.g - 1], delta.deltas[-1]
        head = validate_n(tuple(v // scale for v in delta.deltas[:-1]))

        def place(alpha) -> tuple[int, int]:
            a = int(alpha.value)
            return a // last + 1, a // scale

    elif isinstance(delta, (DeltaZ2, DeltaR)):
        eng = _engine(delta)
        head = eng.head

        def place(alpha) -> tuple[int, int]:
            value = eng.lift(alpha)
            return eng.copies(value), eng.top(value, 0)

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

    def estimate(alpha, exponents) -> int:
        copies, top = place(alpha)
        return (1 - xi) * (copies + 1) if xi else min(top + 2, copies + 1)

    return estimate


# --- scans and rendering ----------------------------------------------------


def scan_table(
    delta,
    ev: EvalMap,
    mode: str = "jumps",
    limit: int | None = None,
    depth: int | None = None,
) -> Table:
    """Code parameters along the member chain below the rank bound.

    ``jumps`` keeps one row per strict step of the dual chain strictly
    between zero and the rank bound; ``full`` reports every member below the
    rank bound, zero included.  ``limit`` caps the number of rows; the
    table's ``dropped`` counts the rows it left out.  ``depth`` is the
    family's, as for ``Scan``.
    """
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if mode not in ("jumps", "full"):
        raise DomainError(f"unknown mode: {mode!r}")
    scan = Scan(delta, ev, depth)
    if mode == "jumps":
        indices = [i for i in range(1, scan.omega_index) if scan.jump[i]]
    else:
        indices = list(range(scan.omega_index))
    dropped = 0
    if limit is not None:
        dropped = max(len(indices) - limit, 0)
        indices = indices[:limit]

    # The parity rows of a later row extend those of an earlier one, so its
    # dual code is a subcode and d never decreases: the search for a new rank
    # starts at the d of the previous one (never at d_ev or d_fr, which are
    # checked against d).  d depends only on the span, as row operations
    # keep every column dependency, so the search reads the scan's basis.
    distances: dict[int, int] = {}
    floor = 1
    goppa = _goppa(delta) if indices else None
    out = Table((), dropped)
    for i in indices:
        rank = scan.rank_after[i]
        if rank == ev.n:
            d = None
        elif rank in distances:
            d = distances[rank]
        else:
            d = floor = _distance_of_rows(ev.spec, scan.basis, rank, ev.n, wmin=floor)
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
                goppa(scan.members[i], scan.exponents[i]),
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
