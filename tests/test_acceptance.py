"""Acceptance suite: reference constructions, parameter tables, properties.

Every test re-derives one block of the reference data from scratch (fresh
evaluation maps, and a fresh scan per table) and compares cell by cell at
the stated tolerances.  One PASS/FAIL line per block is printed outside
the capture machinery so a full run reads as a checklist.

Reference cells that our recomputation contradicts are asserted faithfully
and left failing; each such failure message carries the independent evidence
(exhaustive dependent-subset searches re-run with self-contained field
arithmetic, or hand-tallied pair counts) that the reference cell is a
misprint.  Rows whose reference pair itself violates d_ev <= d are exempt
from cell matching; they are flagged on stderr and checked against the chain
d_fr <= d_ev <= d instead.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from deltacodes.approximants import build_approximates
from deltacodes.codes import (
    CodePair,
    EvalMap,
    Scan,
    min_distance,
    scan_table,
)
from deltacodes.deltaseq import gap_count_telescopic
from deltacodes.genesis import build_type_c, build_type_d, build_type_e
from deltacodes.gf import rank_nullspace_ints
from deltacodes.quadratics import QuadExt, sqrt_of
from deltacodes.semigroup import (
    LexValue,
    QuadValue,
    RatValue,
    enumerate_upto,
    generators,
    represent,
)

from helpers import (
    CH119,
    CH75,
    CH_BIG,
    DN119,
    DR119,
    DR75,
    DR_BIG_A,
    DR_BIG_B,
    DZ119,
    DZ2029,
    DZ427,
    DZ53,
    DZ75,
    DZ_BIG,
    EV7,
    EV32_A,
    EV32_B,
    F7,
    F32,
    PAIRS_F32_A,
    PAIRS_F32_B,
    POINTS_F7,
    xi_points,
)
from oracles import approx, basis_for, evaluation_matrix, gaps

# --- reference columns ------------------------------------------------------

# Planar {11,9} family over the twelve F_7 points: full reference rows.
REF_PLANAR_F7 = {
    "alpha": (
        (4, 1), (5, 1), (8, 2), (9, 2), (10, 2),
        (12, 3), (13, 3), (16, 4), (17, 4), (20, 5),
    ),
    "exp": (
        (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (0, 4), (1, 3), (0, 5),
    ),
    "k": tuple(range(10, 0, -1)),
    "d": (2, 3, 4, 4, 4, 5, 5, 6, 6, 10),
    "d_ev": (2, 3, 3, 3, 4, 5, 5, 6, 6, 10),
}

# Companion scans of the {11,9} family over the same points.
REF_MIXED_QUAD = {
    "k": tuple(range(10, 0, -1)),
    "d": (2, 3, 4, 4, 4, 4, 6, 6, 6, 6),
    "d_ev": (2, 2, 2, 3, 3, 4, 4, 4, 4, 5),
}
REF_MIXED_CHAIN = {
    "k": tuple(range(10, 0, -1)),
    "d": (2, 3, 4, 4, 4, 4, 5, 5, 7, 6),
    "d_ev": (2, 2, 2, 2, 2, 4, 4, 5, 4, 7),
}

# First extension-field scan: the {42,30,70,77} expansion over 31 points.
REF_EXT_FIRST = {
    "alpha": (
        (15, 0), (21, 0), (30, 0), (35, 0), (36, 0),
        (39, -1), (42, 0), (45, 0), (50, 0),
    ),
    "exp": (
        (0, 1, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0),
        (1, 1, 0, 0), (0, 0, 0, 1), (2, 0, 0, 0), (0, 3, 0, 0),
        (0, 1, 1, 0),
    ),
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 3, 4, 4, 4, 4, 5, 5),
    "d_ev": (2, 2, 2, 2, 2, 3, 3, 3, 3),
}

# Second extension-field scan: the {5,3} and {20,8,29} expansions.
REF_EXT_PAIR = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 3, 3, 4, 5, 5, 5, 6),
    "d_ev": (2, 3, 3, 3, 4, 5, 5, 5, 6),
}
REF_EXT_TRIPLE = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 2, 3, 3, 3, 5, 6, 6, 7),
    "d_ev": (2, 2, 2, 2, 2, 3, 3, 3, 3),
}

# Large-family scans: the three {36,24,8,18,13} expansions over 31 points.
REF_LARGE_PLANE = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 3, 4, 5, 5, 5, 7, 7),
    "d_ev": (2, 2, 2, 3, 3, 3, 3, 3, 3),
}
REF_LARGE_QUAD = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 3, 3, 3, 4, 6, 6, 7),
    "d_ev": (2, 2, 2, 2, 2, 2, 2, 4, 4),
}
REF_LARGE_CHAIN = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 3, 4, 5, 5, 5, 7, 7),
    "d_ev": (2, 2, 2, 2, 2, 2, 2, 2, 2),
}

# Small-family scans: the three {7,5} expansions over the second point set.
REF_SMALL_PLANE = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 4, 4, 4, 5, 5, 5, 6),
    "d_ev": (2, 3, 3, 3, 4, 4, 4, 4, 4),
}
REF_SMALL_QUAD = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 3, 4, 5, 5, 6, 6, 6),
    "d_ev": (2, 2, 3, 3, 3, 3, 3, 3, 4),
}
REF_SMALL_CHAIN = {
    "k": tuple(range(29, 20, -1)),
    "d": (2, 3, 3, 4, 4, 4, 5, 5, 5),
    "d_ev": (2, 2, 2, 2, 2, 2, 2, 2, 2),
}

# Evidence notes for cells where the recomputation contradicts the reference.
_DISPLACED = (
    "; re-verified by an exhaustive mod-7 column search with independently"
    " rebuilt basis polynomials -- the reference column equals ours"
    " displaced by one row"
)
NOTES_MIXED_CHAIN = {
    ("d", 8): _DISPLACED, ("d", 4): _DISPLACED, ("d", 2): _DISPLACED,
    ("d_ev", 5): _DISPLACED, ("d_ev", 3): _DISPLACED, ("d_ev", 2): _DISPLACED,
}
NOTES_EXT_PAIR = {
    ("d", 25): (
        "; the three evaluation columns at points sharing one y-coordinate"
        " span a 2-dim space, so a weight-3 word exists (verified with"
        " independent field arithmetic)"
    ),
    ("d_ev", 25): "; the pair count at the next member is 3, not 4",
    ("d", 22): (
        "; exhaustive search with independent field arithmetic: none of the"
        " 169,911 five-column subsets of the rank-9 space is dependent"
    ),
    ("d_ev", 22): "; no member above has pair count below 6",
}
NOTES_LARGE_CHAIN = {
    ("d", 25): (
        "; columns 1,14,24,26 of the rank-6 space are dependent and no three"
        " columns are (independent exhaustive search); the reference chain"
        " d column repeats the plane-vector column verbatim"
    ),
    ("d", 23): (
        "; exhaustive search with independent field arithmetic: no subset of"
        " size <= 5 of the rank-8 columns is dependent"
    ),
}
_NO_FIVE = (
    "; exhaustive search with independent field arithmetic: no subset of"
    " size <= 5 of the columns is dependent at this rank"
)
NOTES_SMALL_CHAIN = {("d", 23): _NO_FIVE, ("d", 22): _NO_FIVE, ("d", 21): _NO_FIVE}

_F32_TIMES: dict[str, float] = {}
EXPECTED_F32_SCANS = frozenset(
    {
        "first-extension plane-vector",
        "second-extension pair",
        "second-extension triple",
        "large plane-vector",
        "large quadratic",
        "large chain",
        "small plane-vector",
        "small quadratic",
        "small chain",
    }
)


# --- harness ----------------------------------------------------------------

_EMIT = print


@pytest.fixture(autouse=True)
def _live_checklist(capsys):
    """Route checklist lines around the capture so they always display."""
    global _EMIT

    def emit(line: str) -> None:
        with capsys.disabled():
            print(line)

    previous, _EMIT = _EMIT, emit
    yield
    _EMIT = previous


def verdict(label: str, failures: list[str]) -> None:
    """Print the one-line result on the live terminal, then assert."""
    status = "PASS" if not failures else f"FAIL - {len(failures)} check(s)"
    _EMIT(f"[acceptance] {label}: {status}")
    if failures:
        raise AssertionError(
            f"{label}: {len(failures)} check(s) failed:\n  - "
            + "\n  - ".join(failures)
        )


def run_scan(label: str, delta, spec, points, limit=None):
    """A scan over a fresh evaluation map, with its wall time recorded."""
    ev = EvalMap(spec, list(points))
    fam = build_approximates(delta, spec)
    start = time.perf_counter()
    rows = scan_table(delta, fam, ev, limit=limit)
    elapsed = time.perf_counter() - start
    if spec is F32:
        _F32_TIMES[label] = elapsed
    return rows, elapsed


def compare_scan(failures, label, rows, ref, exempt=(), notes=None):
    """Cell-by-cell comparison of one scan against its reference columns."""
    notes = notes or {}
    k_col = [row.k for row in rows]
    if k_col != list(ref["k"]):
        failures.append(f"{label}: k column {k_col} != {list(ref['k'])}")
        return
    if "alpha" in ref:
        for row, pair in zip(rows, ref["alpha"]):
            if (row.alpha.x, row.alpha.y) != pair:
                failures.append(
                    f"{label} alpha at k={row.k}:"
                    f" computed ({row.alpha.x},{row.alpha.y}), reference {pair}"
                )
    if "exp" in ref:
        for row, exp in zip(rows, ref["exp"]):
            if row.exponents != exp:
                failures.append(
                    f"{label} exponents at k={row.k}:"
                    f" computed {row.exponents}, reference {exp}"
                )
    for row, d_ref, dev_ref in zip(rows, ref["d"], ref["d_ev"]):
        if row.k in exempt:
            _EMIT(
                f"[acceptance] flagged cell: {label} k={row.k} -- reference"
                f" pair d={d_ref}, d_ev={dev_ref} violates d_ev <= d;"
                f" computed d_fr={row.d_fr} <= d_ev={row.d_ev} <= d={row.d}"
            )
            if not row.d_fr <= row.d_ev <= row.d:
                failures.append(
                    f"{label} flagged row k={row.k}: computed bounds"
                    f" d_fr={row.d_fr}, d_ev={row.d_ev}, d={row.d} are not"
                    " a chain"
                )
            continue
        for col, got, want in (("d", row.d, d_ref), ("d_ev", row.d_ev, dev_ref)):
            if got != want:
                failures.append(
                    f"{label} {col} at k={row.k}: computed {got},"
                    f" reference {want}{notes.get((col, row.k), '')}"
                )


# --- reference constructions ------------------------------------------------


class TestReferenceConstructions:
    def test_plane_vector_expansions_match_reference(self):
        failures = []
        cases = [
            ((11, 9), ((5, 1), (4, 1))),
            ((40, 12, 97), ((10, 10), (3, 3), (24, 25))),
            ((36, 24, 8, 18, 13), ((18, 0), (12, 0), (4, 0), (9, 0), (7, -1))),
        ]
        for under, expected in cases:
            got = build_type_c(under).deltas
            if got != expected:
                failures.append(f"expansion of {under}: {got} != {expected}")
        witness = build_type_c((40, 12, 97)).witness
        if witness.ab != (1, 1):
            failures.append(f"(A,B) for (40,12,97): {witness.ab} != (1, 1)")
        if witness.abp != (1, 0):
            failures.append(f"(A',B') for (40,12,97): {witness.abp} != (1, 0)")
        verdict("plane-vector expansions", failures)

    def test_quadratic_tail_constructions_match_reference(self):
        failures = []
        s3 = sqrt_of(3)
        closed_forms = [
            ("{11,9} tail", DR119, (19 - (s3 * 2 + 1) / (s3 * 3 + 1)) / 9),
            ("{36,...,13} tail", DR_BIG_A, (6 - (s3 * 2 + 1) / (s3 * 11 + 5)) / 24),
            ("{7,5} tail", DR75, (7 - (s3 + 1) / (s3 * 4 + 3)) / 5),
            ("{36,...,13} alternate tail", DR_BIG_B,
             (11 - (s3 + 1) / (s3 * 3 + 2)) / 24),
        ]
        for label, delta, expected in closed_forms:
            if delta.tail != expected:
                failures.append(f"{label}: {delta.tail} != exact {expected}")
        decimals = [
            ("{36,...,13} tail decimal", DR_BIG_A, 0.242266, 1e-6),
            ("{7,5} tail decimal", DR75, 1.344964, 1e-5),
        ]
        for label, delta, printed, tol in decimals:
            diff = abs(approx(delta.tail) - printed)
            if diff >= tol:
                failures.append(f"{label}: |{approx(delta.tail)} - {printed}|"
                                f" = {diff:.2e} not below {tol}")
        discrepancies = [
            ("{11,9} tail decimal", DR119, 2.031105),
            ("{36,...,13} alternate tail decimal", DR_BIG_B, 0.441666),
        ]
        for label, delta, printed in discrepancies:
            diff = abs(approx(delta.tail) - printed)
            if diff <= 1e-6:
                failures.append(
                    f"{label}: documented discrepancy vanished --"
                    f" |{approx(delta.tail)} - {printed}| = {diff:.2e}"
                )
        verdict("quadratic-tail constructions", failures)

    def test_chain_extensions_match_reference(self):
        failures = []
        explicit = build_type_e((3, 1), 2, [(2, 5), (2, 19)])
        stages = [stage.deltas for stage in explicit.stages]
        expected = [(3, 1), (6, 2, 5), (12, 4, 10, 19)]
        if stages != expected:
            failures.append(f"explicit chain stages {stages} != {expected}")
        prefix = CH119.generators()[:4]
        wanted = (Fraction(11, 9), Fraction(1), Fraction(3, 2), Fraction(9, 4))
        if prefix != wanted:
            failures.append(f"default chain prefix {prefix} != {wanted}")
        verdict("chain extensions", failures)


# --- reference tables -------------------------------------------------------


class TestReferenceTables:
    def test_planar_reference_scan(self):
        failures = []
        rows, elapsed = run_scan("planar", DZ119, F7, POINTS_F7)
        if elapsed >= 60:
            failures.append(f"scan took {elapsed:.1f} s, budget 60 s")
        compare_scan(failures, "planar scan", rows, REF_PLANAR_F7)
        verdict(f"planar reference scan ({elapsed:.2f} s of 60 s)", failures)

    def test_mixed_family_scans_over_f7(self):
        failures = []
        quad_rows, _ = run_scan("f7 quadratic", DR119, F7, POINTS_F7)
        chain_rows, _ = run_scan("f7 chain", CH119, F7, POINTS_F7)
        compare_scan(failures, "quadratic scan", quad_rows, REF_MIXED_QUAD)
        compare_scan(
            failures, "chain scan", chain_rows, REF_MIXED_CHAIN,
            exempt={1}, notes=NOTES_MIXED_CHAIN,
        )
        verdict("mixed-family scans over F7", failures)

    def test_first_extension_field_scan(self):
        failures = []
        rows, _ = run_scan(
            "first-extension plane-vector", DZ427, F32,
            xi_points(F32, PAIRS_F32_A), limit=9,
        )
        compare_scan(failures, "plane-vector scan", rows, REF_EXT_FIRST)
        verdict("first extension-field scan", failures)

    def test_second_extension_field_scan(self):
        failures = []
        pair_rows, _ = run_scan(
            "second-extension pair", DZ53, F32,
            xi_points(F32, PAIRS_F32_A), limit=9,
        )
        triple_rows, _ = run_scan(
            "second-extension triple", DZ2029, F32,
            xi_points(F32, PAIRS_F32_A), limit=9,
        )
        compare_scan(
            failures, "pair scan", pair_rows, REF_EXT_PAIR, notes=NOTES_EXT_PAIR
        )
        compare_scan(failures, "triple scan", triple_rows, REF_EXT_TRIPLE)
        verdict("second extension-field scan", failures)

    def test_large_family_extension_field_scan(self):
        failures = []
        plane_rows, _ = run_scan(
            "large plane-vector", DZ_BIG, F32, xi_points(F32, PAIRS_F32_A),
            limit=9,
        )
        quad_rows, _ = run_scan(
            "large quadratic", DR_BIG_A, F32, xi_points(F32, PAIRS_F32_A),
            limit=9,
        )
        chain_rows, _ = run_scan(
            "large chain", CH_BIG, F32, xi_points(F32, PAIRS_F32_A), limit=9
        )
        compare_scan(failures, "plane-vector scan", plane_rows, REF_LARGE_PLANE)
        compare_scan(failures, "quadratic scan", quad_rows, REF_LARGE_QUAD)
        compare_scan(
            failures, "chain scan", chain_rows, REF_LARGE_CHAIN,
            notes=NOTES_LARGE_CHAIN,
        )
        verdict("large-family extension-field scan", failures)

    def test_small_family_extension_field_scan(self):
        failures = []
        plane_rows, _ = run_scan(
            "small plane-vector", DZ75, F32, xi_points(F32, PAIRS_F32_B),
            limit=9,
        )
        quad_rows, _ = run_scan(
            "small quadratic", DR75, F32, xi_points(F32, PAIRS_F32_B), limit=9
        )
        chain_rows, _ = run_scan(
            "small chain", CH75, F32, xi_points(F32, PAIRS_F32_B), limit=9
        )
        compare_scan(failures, "plane-vector scan", plane_rows, REF_SMALL_PLANE)
        compare_scan(failures, "quadratic scan", quad_rows, REF_SMALL_QUAD)
        compare_scan(
            failures, "chain scan", chain_rows, REF_SMALL_CHAIN,
            notes=NOTES_SMALL_CHAIN,
        )
        verdict("small-family extension-field scan", failures)

    def test_extension_field_scans_fit_the_time_budget(self):
        failures = []
        missing = EXPECTED_F32_SCANS - set(_F32_TIMES)
        if missing:
            failures.append(f"scans never ran: {sorted(missing)}")
        total = sum(_F32_TIMES.values())
        if total >= 900:
            failures.append(f"extension-field scans took {total:.1f} s")
        verdict(
            f"extension-field scan time budget ({total:.1f} s of 900 s)",
            failures,
        )


# --- property suite ---------------------------------------------------------


def bounded_tuple_census(gens, bounds, zero, add, within):
    """How many in-bounds exponent tuples reach each value under the bound.

    The walk is exhaustive: generators are positive, so every tuple whose
    value stays under the bound has all its partial sums under the bound.
    """
    found: dict = {}

    def walk(i, acc):
        if i == len(gens):
            found[acc] = found.get(acc, 0) + 1
            return
        cap = bounds[i]
        count, value = 0, acc
        while cap is None or count < cap:
            if not within(value):
                break
            walk(i + 1, value)
            count += 1
            value = add(value, gens[i])

    walk(0, zero)
    return found


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
    """A random dual pair with a full-rank dim_e x n evaluation side."""
    while True:
        ints = [[rng.randrange(7) for _ in range(n)] for _ in range(dim_e)]
        rank, kernel = rank_nullspace_ints([row[:] for row in ints], n, F7)
        if rank == dim_e:
            gen_e = tuple(tuple(F7.element(v) for v in row) for row in ints)
            gen_c = tuple(tuple(F7.element(v) for v in row) for row in kernel)
            return CodePair(None, gen_e, dim_e, gen_c, n - dim_e)


class TestPropertySuite:
    def test_bounded_representations_are_unique(self):
        failures = []
        chain6 = build_type_e((11, 9), 6)
        top_quad = QuadExt(Fraction(14), Fraction(0), 0)
        plus = lambda a, b: a + b  # noqa: E731 - shared scalar addition
        cases = [
            (
                "integer", DN119, RatValue(Fraction(280)),
                lambda v: v.value, plus, lambda v: v <= Fraction(280),
            ),
            (
                "plane-vector", DZ119, LexValue(100, 25),
                lambda v: (v.x, v.y),
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
                lambda v: v <= (100, 25),
            ),
            (
                "quadratic", DR119,
                QuadValue(Fraction(14), 0, DR119.tail),
                lambda v: v.exact(), plus,
                lambda v: (top_quad - v).sign() >= 0,
            ),
            (
                "chain", chain6, RatValue(Fraction(14)),
                lambda v: v.value, plus, lambda v: v <= Fraction(14),
            ),
        ]
        for label, delta, bound, payload, add, within in cases:
            members = enumerate_upto(delta, bound)
            if len(members) < 201:
                failures.append(
                    f"{label}: bound covers only {len(members)} members"
                )
                continue
            pattern = members[-1][1].bounds
            if any(rep.bounds != pattern for _, rep in members):
                failures.append(f"{label}: bound pattern is not uniform")
                continue
            for value, rep in members:
                if represent(delta, value).exponents != rep.exponents:
                    failures.append(
                        f"{label}: representation of {value} does not"
                        " round-trip"
                    )
            zero = payload(members[0][0])
            census = bounded_tuple_census(
                [payload(g) for g in generators(delta)],
                pattern, zero, add, within,
            )
            expected = {payload(value): 1 for value, _ in members}
            if census != expected:
                extra = {v: c for v, c in census.items() if c != 1}
                missed = sorted(
                    str(v) for v in set(expected) - set(census)
                )
                failures.append(
                    f"{label}: tuple census disagrees"
                    f" (multiplicities {extra}, unreached {missed})"
                )
            else:
                _EMIT(
                    f"[acceptance]   {label}: {len(members)} members, each"
                    " reached by exactly one bounded tuple"
                )
        verdict("bounded representations are unique", failures)

    def test_dual_pairs_annihilate(self):
        failures = []
        combos = [
            ("f7 plane-vector", DZ119, F7, EV7),
            ("f7 quadratic", DR119, F7, EV7),
            ("f7 chain", CH119, F7, EV7),
            ("ext first plane-vector", DZ427, F32, EV32_A),
            ("ext pair", DZ53, F32, EV32_A),
            ("ext triple", DZ2029, F32, EV32_A),
            ("ext large plane-vector", DZ_BIG, F32, EV32_A),
            ("ext large quadratic", DR_BIG_A, F32, EV32_A),
            ("ext large chain", CH_BIG, F32, EV32_A),
            ("ext small plane-vector", DZ75, F32, EV32_B),
            ("ext small quadratic", DR75, F32, EV32_B),
            ("ext small chain", CH75, F32, EV32_B),
        ]
        produced = 0
        for label, delta, spec, ev in combos:
            scan = Scan(delta, build_approximates(delta, spec), ev)
            seen_dims: set[int] = set()
            for value, _ in enumerate_upto(delta, scan.omega_n):
                code = scan.code_at(value)
                if code.dim_e in seen_dims:
                    continue
                seen_dims.add(code.dim_e)
                produced += 1
                for erow in code.gen_e:
                    for crow in code.gen_c:
                        acc = spec.zero
                        for a, b in zip(erow, crow):
                            acc = acc + a * b
                        if acc != spec.zero:
                            failures.append(
                                f"{label} at {value}: a generator pair has"
                                f" product {acc}"
                            )
                            break
                    else:
                        continue
                    break
        _EMIT(
            f"[acceptance]   {produced} dual pairs checked across"
            f" {len(combos)} scans"
        )
        verdict("dual pairs annihilate", failures)

    def test_min_distance_matches_exhaustive_enumeration(self):
        failures = []
        rng = random.Random(75319)
        for index in range(20):
            dim_e = 6 + index % 3
            code = random_dual_pair(rng, 12, dim_e)
            got = min_distance(code)
            want = enumerated_min_weight(code)
            if got != want:
                failures.append(
                    f"random code {index} (k={code.k}): column search"
                    f" {got} != enumeration {want}"
                )
        verdict("minimum distance vs exhaustive enumeration", failures)

    def test_line_codes_are_generalized_reed_solomon(self):
        failures = []
        points = [(a, (a + 1) % 7) for a in range(6)]
        ev = EvalMap(F7, points)
        fam = build_approximates(DZ119, F7)
        for level in range(6):
            alpha = LexValue(4 * level, level)
            basis = basis_for(DZ119, fam, alpha)
            ours = [[int(v) for v in row] for row in evaluation_matrix(ev, basis)]
            vand = [[pow(a, j, 7) for a in range(6)] for j in range(level + 1)]
            r_ours, _ = rank_nullspace_ints([r[:] for r in ours], 6, F7)
            r_vand, _ = rank_nullspace_ints([r[:] for r in vand], 6, F7)
            r_both, _ = rank_nullspace_ints(
                [r[:] for r in ours] + [r[:] for r in vand], 6, F7
            )
            if not r_ours == r_vand == r_both == level + 1:
                failures.append(
                    f"level {level}: ranks ours={r_ours} vand={r_vand}"
                    f" joint={r_both} expected {level + 1}"
                )
        verdict("line codes match generalized Reed-Solomon spans", failures)

    def test_gap_count_of_the_integer_witness(self):
        failures = []
        seq = (11, 9)
        horizon = seq[0] * seq[1]
        reachable = [False] * (horizon + max(seq) + 1)
        reachable[0] = True
        for value in range(horizon + 1):
            if reachable[value]:
                for gen in seq:
                    reachable[value + gen] = True
        sieved = sum(1 for v in range(1, horizon) if not reachable[v])
        if sieved != 40:
            failures.append(f"sieved gap count {sieved} != 40")
        if len(gaps(seq)) != sieved:
            failures.append(f"oracle gap count {len(gaps(seq))} != {sieved}")
        if gap_count_telescopic(DN119) != sieved:
            failures.append(
                f"telescopic count {gap_count_telescopic(DN119)} != {sieved}"
            )
        quotient = seq[0] // math.gcd(*seq)
        weighted = (quotient - 1) * seq[1]
        printed_form = Fraction(1 + weighted, 2)
        corrected_form = Fraction(weighted - seq[0] + 1, 2)
        if printed_form != Fraction(91, 2):
            failures.append(f"printed closed form is {printed_form}, not 91/2")
        if printed_form == sieved:
            failures.append("printed closed form unexpectedly matches")
        if corrected_form != sieved:
            failures.append(
                f"corrected telescopic form {corrected_form} != {sieved}"
            )
        verdict("gap count of the integer witness", failures)
