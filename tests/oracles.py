"""Reference implementations that only the tests use.

Each one is the plain, slow way to get what the library computes another
way: field arithmetic one named operation at a time, polynomial products,
a printed field element read back, the search for a default modulus, the rank and kernel of a matrix by
Gaussian elimination in pure Python, the minimum weight of a small dual code
by enumerating every codeword, basis elements as products of approximates,
evaluation rows by multiplying out each basis polynomial and evaluating it
term by term, the scan's evaluation rows as pointwise products of
approximant powers and its pair counts by set intersection over all earlier
members, the column search with every candidate reduced from scratch against
the whole basis, semigroup membership by a sieve over every integer up to
the bound, the approximants' exponent rows by validating each prefix of the
sequence again, a window of members by sorting every member found, a planar
or quadratic window merged across the copies of its free generator by one
sort of the whole window, the member walk with each window's values built
whole, a quadratic value in floating point, and the command line read by
``argparse``.  They live outside the package, so the library neither ships
nor imports them, and a test that compares the two compares independent
code.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import floor, gcd, isqrt, lcm
from operator import itemgetter

from deltacodes.approximants import (
    ApproximateFamily,
    BivarPoly,
    _fit_exponents,
    _product_of,
    expand_family,
)
from deltacodes.cli import COMMANDS
from deltacodes.codes import CodePair, EvalMap
from deltacodes.deltaseq import (
    DeltaN,
    _tails,
    telescopic_exponents,
    validate_n,
)
from deltacodes.errors import DomainError
from deltacodes.gf import (
    FieldElement,
    FieldSpec,
    _digits,
    _is_irreducible,
    _powers,
)
from deltacodes.genesis import DeltaQ, DeltaR, DeltaZ2
from deltacodes.quadratics import QuadExt
from deltacodes.semigroup import (
    LexValue,
    QuadValue,
    RatValue,
    Representation,
    _engine,
    represent,
)

from helpers import F7

# --- finite fields -----------------------------------------------------------


def poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The product of two little-endian coefficient tuples over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest (by encoded value) monic primitive polynomial of degree m,
    by search: the reference for the library's table of default moduli."""
    for code in range(1, p**m):
        mod = _digits(code, p, m) + (1,)
        # the irreducibility filter first: it is cheaper than the walk
        if _is_irreducible(mod, p) and len(_powers(p, p, mod)) == p**m - 1:
            return mod
    raise DomainError(f"no primitive polynomial of degree {m} over GF({p})")


def parse_element(spec: FieldSpec, text: str) -> tuple[int, ...]:
    """The little-endian coefficients of the element that ``text`` writes:
    an integer below p for a prime field; otherwise ``0`` or a sum of terms
    ``c``, ``g``, ``g^k``, ``cg`` or ``cg^k``, with 0 < c < p and g the class
    of x, each power x^k reduced by the modulus one degree at a time.
    ValueError for any other text."""
    p, m = spec.p, spec.m
    if m == 1:
        if not text.isdigit() or int(text) >= p:
            raise ValueError(f"not an element of GF({p}): {text!r}")
        return (int(text),)
    total = [0] * m
    if text == "0":
        return tuple(total)
    for term in text.split("+"):
        head, g, power = term.partition("g")
        if power and not (power.startswith("^") and power[1:].isdigit()):
            raise ValueError(f"bad power in {text!r}")
        if not (g or head) or not (head or "1").isdigit() or not 0 < int(head or 1) < p:
            raise ValueError(f"bad coefficient in {text!r}")
        x_k = [1] + [0] * (m - 1)
        for _ in range(int(power[1:]) if power else 1 if g else 0):
            lead, x_k = x_k[-1], [0] + x_k[:-1]
            x_k = [(a - lead * f) % p for a, f in zip(x_k, spec.modulus)]
        total = [(t + int(head or 1) * a) % p for t, a in zip(total, x_k)]
    return tuple(total)


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

    Operates on encoded values to keep the inner loops cheap.
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


# --- evaluation codes --------------------------------------------------------


def enumerated_min_weight(code: CodePair) -> int:
    """Smallest nonzero weight by enumerating the whole dual code over F_7."""
    rows = [[int(v) for v in row] for row in code.gen_c]
    n = len(rows[0])
    best = n + 1

    def rec(i: int, acc: list) -> None:
        nonlocal best
        if i == len(rows):
            weight = sum(1 for v in acc if v)
            if 0 < weight < best:
                best = weight
            return
        row = rows[i]
        for c in range(7):
            rec(i + 1, [(a + c * b) % 7 for a, b in zip(acc, row)])

    rec(0, [0] * n)
    return best


def random_dual_pair(rng: random.Random, n: int, dim_e: int) -> CodePair:
    """A random dual pair over F_7 with a full-rank dim_e x n evaluation side."""
    while True:
        ints = [[rng.randrange(7) for _ in range(n)] for _ in range(dim_e)]
        rank, kernel = rank_nullspace_ints([row[:] for row in ints], n, F7)
        if rank == dim_e:
            gen_e = tuple(tuple(F7.element(v) for v in row) for row in ints)
            gen_c = tuple(tuple(F7.element(v) for v in row) for row in kernel)
            return CodePair(None, gen_e, dim_e, gen_c, n - dim_e)


@dataclass(frozen=True)
class BasisElement:
    """A product of approximates: its exponents over the family and its
    semigroup weight; the family takes no part in equality or the repr."""

    exponents: tuple[int, ...]
    weight: object
    family: ApproximateFamily = field(compare=False, repr=False)

    @property
    def expanded(self) -> BivarPoly:
        """The product multiplied out, computed on each access."""
        fam = self.family
        return _product_of(fam.spec, expand_family(fam), self.exponents)


def basis_for(delta, fam: ApproximateFamily, alpha) -> tuple[BasisElement, ...]:
    """One basis element per semigroup member up to alpha, in semigroup order."""
    return tuple(
        BasisElement(_fit_exponents(fam, rep.exponents), value, fam)
        for value, rep in enumerate_upto(delta, alpha)
    )


def basis_element(delta, fam: ApproximateFamily, alpha) -> BasisElement:
    """The single basis element attached to one semigroup member."""
    return BasisElement(_fit_exponents(fam, represent(delta, alpha).exponents), alpha, fam)


def poly_eval(poly: BivarPoly, point) -> FieldElement:
    """A polynomial at a point given as a pair of field elements, term by term."""
    spec = poly.spec
    px, py = spec.element(point[0]), spec.element(point[1])
    total = spec.zero
    for (ex, ey), coeff in poly.terms:
        total = total + coeff * px**ex * py**ey
    return total


def deg_y(poly: BivarPoly) -> int:
    """The largest y-exponent of a polynomial, -1 for zero."""
    return max((ey for (_, ey), _ in poly.terms), default=-1)


def evaluation_matrix(ev: EvalMap, basis) -> tuple[tuple[FieldElement, ...], ...]:
    """Every basis element evaluated at every point, in basis order, by
    multiplying out its polynomial (the reference for the scan's rows).  The
    family is expanded once per call."""
    if not basis:
        return ()
    fam = basis[0].family
    if fam.spec != ev.spec:
        raise DomainError("field mismatch: the family and the points use different fields")
    polys = expand_family(fam)
    return tuple(
        tuple(poly_eval(_product_of(fam.spec, polys, element.exponents), pt) for pt in ev.points)
        for element in basis
    )


class PointwiseRows:
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


def pair_counts(members, at=None) -> list[int]:
    """omega of the members at the indices ``at`` (of every member when
    None): how many earlier-or-equal members each exceeds by a member.
    Members are compared on integer keys that add like the members: a
    rational value times the lcm L of the denominators, the pair (r * L, m)
    for r + m * tau, and the plane vector itself."""
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
    at = range(len(keys)) if at is None else at
    # keys are distinct, so are the differences from one key
    if isinstance(keys[0], int):
        return [len(seen.intersection([keys[i] - k for k in keys[: i + 1]])) for i in at]
    return [
        len(seen.intersection([(keys[i][0] - a, keys[i][1] - b) for a, b in keys[: i + 1]]))
        for i in at
    ]


# --- the column search -------------------------------------------------------


def min_dependent_columns_from_scratch(cols, r, n, q, mul, sub, inv, wmax, wmin=1):
    """The kernel's column search as it was before it kept each depth's
    column images: the same depth-first order, floor and pair level, but
    every candidate column is reduced from scratch against all the basis
    rows chosen so far.  Same arguments and result as
    ``min_dependent_columns``."""
    if wmin < 1:
        raise ValueError("wmin must be positive")
    if r == 0:  # every column is zero
        return wmin if wmin <= min(wmax, n) else 0
    basis: list[tuple[int, list[int]]] = []  # (pivot, normalized row)

    def reduced(j):
        v = list(cols[j * r : (j + 1) * r])
        for p, row in basis:
            f = v[p]
            if f:
                v = [sub[a * q + mul[f * q + b]] for a, b in zip(v, row)]
        return v

    def normalized(v):
        p = next(k for k, x in enumerate(v) if x)
        f = inv[v[p]]
        return p, [mul[f * q + x] for x in v]

    def pairs(start):
        seen = set()
        for j in range(start, n):
            v = reduced(j)
            if not any(v):
                return True
            image = tuple(normalized(v)[1])
            if image in seen:
                return True
            seen.add(image)
        return False

    def dfs(start, depth_left):
        if depth_left == 2:
            return pairs(start)
        for j in range(start, n - depth_left + 1):
            v = reduced(j)
            if not any(v):
                return True
            if depth_left == 1:
                continue
            basis.append(normalized(v))
            if dfs(j + 1, depth_left - 1):
                return True
            basis.pop()
        return False

    for w in range(wmin, min(wmax, n) + 1):
        if dfs(0, w):
            return w
    return 0


# --- numerical semigroups ----------------------------------------------------


def _sieve(gens, bound: int) -> bytearray:
    """reach[v] = 1 exactly for the members v <= bound (bound >= 0) of the
    semigroup of gens."""
    reach = bytearray(bound + 1)
    reach[0] = 1
    gs = sorted({int(v) for v in gens if v > 0})
    for v in range(1, bound + 1):
        for d in gs:
            if d > v:
                break
            if reach[v - d]:
                reach[v] = 1
                break
    return reach


def contains(gens, value: int) -> bool:
    """Whether value lies in the numerical semigroup generated by gens."""
    return value >= 0 and bool(_sieve(gens, value)[value])


def members_below(gens, bound: int) -> list[int]:
    """Sorted members of the semigroup of gens that are <= bound."""
    if bound < 0:
        return []
    reach = _sieve(gens, bound)
    return [v for v in range(bound + 1) if reach[v]]


def gaps(gens) -> list[int]:
    """All positive integers outside the semigroup of gens (gcd must be 1)."""
    gs = sorted({int(v) for v in gens if v > 0})
    if not gs:
        raise DomainError("gap computation needs positive generators")
    acc = 0
    for v in gs:
        acc = gcd(acc, v)
    if acc != 1:
        raise DomainError("gap set is infinite unless the gcd of generators is 1")
    bound = gs[0] * gs[-1] + 1
    reach = _sieve(gs, bound)
    return [v for v in range(1, bound + 1) if not reach[v]]


def enumerate_upto(delta, bound):
    """All members up to the bound in increasing order, with their
    representations: every window of the engine's listing, read whole."""
    eng = _engine(delta)
    _, windows = eng.upto(eng.lift(bound))
    return [pair for window in windows for pair in eng.values(window)]


def prefix_row(base: DeltaN, i: int) -> tuple[int, ...]:
    """Bounded exponents of n_i * delta_i over delta_0..delta_{i-1}, from the
    prefix divided by its gcd, validated as a sequence of its own."""
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


def telescopic_members_sorted(
    delta: DeltaN, lo: int, hi: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Members v with lo < v <= hi in increasing order as (v, exponents):
    every bounded tail completed by each multiple of delta_0 that lands in
    the window, all of them sorted by value (values are distinct)."""
    first = delta.deltas[0]
    out = [
        (s + c * first, (c,) + tail)
        for s, tail in _tails(delta, hi)
        for c in range(max(0, (lo - s) // first + 1), (hi - s) // first + 1)
    ]
    out.sort(key=itemgetter(0))
    return out


def head_window(delta, lo, hi):
    """The members in the window (lo, hi] (from zero on when lo is None) as
    (scale, rows), the rows as the library lists them: (x, y, c, tail, m)
    for a planar semigroup, (v, c, tail, m) for a quadratic one and (v, c,
    tail) for the integer and chain kinds, v over the scale of the stage
    that covers hi.  The head members come from ``telescopic_members_sorted``,
    one list for each copy m of the free generator, merged by one sort of
    the whole window: on the plane vector, or on the quadratic kind's integer
    key floor(value * 2**shift) with the shift taken from the window's
    largest head member and copy count."""
    eng = _engine(delta)
    eng.finite()
    if isinstance(delta, (DeltaN, DeltaQ)):
        stage, scale = eng.stage(hi)
        bottom = -1 if lo is None else floor(lo.value * scale)
        members = telescopic_members_sorted(stage, bottom, floor(hi.value * scale))
        return scale, [(v, exps[0], exps[1:]) for v, exps in members]
    runs = [
        (m, telescopic_members_sorted(
            eng.head, -1 if lo is None else eng.top(lo, m), eng.top(hi, m)
        ))
        for m in range(eng.copies(hi))
    ]
    if isinstance(delta, DeltaZ2):
        (ux, uy), (lx, ly) = eng.u, eng.last
        found = [
            (s * ux + m * lx, s * uy + m * ly, exps[0], exps[1:], m)
            for m, run in runs
            for s, exps in run
        ]
        found.sort(key=itemgetter(0, 1))
        return 1, found
    tau, scale, den, d = eng.tau, eng.scale, eng.den, eng.tau.d
    step, a_den, b_den = den // scale, int(tau.a * den), int(tau.b * den)
    top_m = len(runs) - 1
    top_v = max((run[-1][0] for _, run in runs if run), default=0)
    a_max = top_v * step + top_m * abs(a_den)
    b_max = top_m * abs(b_den)
    shift = (2 * den * (a_max + b_max * (isqrt(d) + 1))).bit_length()
    keyed = []
    for m, run in runs:
        irr = m * b_den
        root = isqrt(irr * irr * d << 2 * shift)
        base = (m * a_den << shift) + (root if irr >= 0 else -root - 1)
        keyed += [
            (((v * step << shift) + base) // den, v, exps[0], exps[1:], m) for v, exps in run
        ]
    keyed.sort(key=itemgetter(0))
    return scale, [row[1:] for row in keyed]


def window_listing(delta, lo, hi):
    """The (value, Representation) pairs of ``head_window``'s rows, a chain
    member's exponents as wide as the stage that covers hi."""
    eng = _engine(delta)
    scale, rows = head_window(delta, lo, hi)
    if isinstance(delta, (DeltaN, DeltaQ)):
        bounds = (None,) + tuple(eng.stage(hi)[0].structure.n)
        return [
            (RatValue(Fraction(v, scale)), Representation((c,) + tail, bounds))
            for v, c, tail in rows
        ]
    bounds = (None,) + tuple(eng.head.structure.n) + (None,)
    if isinstance(delta, DeltaZ2):
        return [
            (LexValue(x, y), Representation((c, *tail, m), bounds)) for x, y, c, tail, m in rows
        ]
    return [
        (QuadValue(Fraction(v, scale), m, delta.tail), Representation((c, *tail, m), bounds))
        for v, c, tail, m in rows
    ]


def walk_eager(delta):
    """The ordered member walk with each window built whole, its upper end
    doubled from the first generator on, and the (value, Representation)
    pair of every member in the window built before the first is yielded.
    A planar or quadratic window is ``window_listing``; an integer or chain
    window is the members of the sequence, or of the stage that covers the
    window's upper end, and each chain member's exponents are then cut to
    the width of the stage that covers the upper end of its own sub-window
    (k g_0, (k + 1) g_0], g_0 the first generator: the walk's width rule
    (the exponents cut off are zeros)."""
    eng = _engine(delta)
    g0 = eng.generators()[0]
    lo, hi = None, g0
    while True:
        if isinstance(delta, (DeltaZ2, DeltaR)):
            yield from window_listing(delta, lo, hi)
        else:
            chain = isinstance(delta, DeltaQ)
            stage = eng.covering_stage(hi.value) if chain else delta
            scale = stage.deltas[1] if chain else 1
            bottom = -1 if lo is None else floor(lo.value * scale)
            pairs = []
            for v, exps in telescopic_members_sorted(stage, bottom, floor(hi.value * scale)):
                value, own = Fraction(v, scale), stage
                if chain:
                    k = max(-(-value // g0.value) - 1, 0)
                    own = eng.covering_stage((k + 1) * g0.value)
                    if any(exps[len(own.deltas):]):
                        raise AssertionError(f"{value} needs more than its stage")
                    exps = exps[: len(own.deltas)]
                rep = Representation(exps, (None,) + tuple(own.structure.n))
                pairs.append((RatValue(value), rep))
            yield from pairs
        lo, hi = hi, eng.add(hi, hi)


# --- quadratic values --------------------------------------------------------


def approx(value: QuadExt) -> float:
    """a + b sqrt(d) in floating point, for tolerance checks against printed
    decimals; the library itself never leaves exact arithmetic."""
    return float(value.a) + float(value.b) * float(value.d) ** 0.5


# --- command line ------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltacodes",
        description="Build delta-sequences and evaluation codes from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "validate": "check the conditions on an integer sequence",
        "construct": "build the configured delta-sequence and print it",
        "approximates": "print the approximate polynomials and their weights",
        "semigroup": "list semigroup members up to the configured bound",
        "table": "emit the code table as CSV",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", help="write output to this file instead of stdout")
        if name == "table":
            cmd.add_argument(
                "--mode",
                choices=("jumps", "full"),
                help="row selection, overriding the config",
            )
    return parser
