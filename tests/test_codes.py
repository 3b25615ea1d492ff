"""Oracle tests for evaluation codes, dual distances, and parameter scans."""

from __future__ import annotations

import gc
import pathlib
import random
import time
import weakref
from array import array
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from deltacodes import codes
from deltacodes.approximants import _fit_exponents, build_approximates
from deltacodes.codes import (
    DEFAULT_HORIZON,
    CodePair,
    EvalMap,
    Scan,
    goppa_distance,
    min_distance,
    render_value,
    scan_table,
    table_csv,
)
from deltacodes.deltaseq import (
    DeltaN,
    denormalize,
    gap_count_telescopic,
    normalize,
    telescopic_count,
    validate_n,
)
from deltacodes.errors import DomainError
from deltacodes.genesis import DeltaQ, DeltaR, DeltaZ2, build_type_c, build_type_e
from deltacodes.gf import FieldSpec, rank_nullspace_ints
from deltacodes.minweight import available_backends
from deltacodes.quadratics import QuadExt
from deltacodes.semigroup import (
    LexValue,
    QuadValue,
    RatValue,
    _engine,
    _least_scalar_above,
    enumerate_upto,
    omega,
    represent,
    walk,
)

from helpers import (
    CH119, CH75, CH_BIG, DN119, DR119, DR75, DR_BIG_A, DR_BIG_B, DZ119, DZ2029, DZ427, DZ53,
    DZ75, DZ_BIG, EV32_B, EV32_SMALL, EV7, F7, F32, UNDER_2029, UNDER_BIG,
)
import oracles
from oracles import basis_element, basis_for, evaluation_matrix, gaps, members_below
from oracles import PointwiseRows as _PointwiseRows

FAM7 = build_approximates(DZ119, F7)
SCAN7 = Scan(DZ119, FAM7, EV7)

# Scan of the {11,9}-family codes over the 12 standard F_7 points: one entry
# per strict-inclusion step of the dual chain, smallest member first.
SCAN119 = {
    "alpha": [
        (4, 1), (5, 1), (8, 2), (9, 2), (10, 2),
        (12, 3), (13, 3), (16, 4), (17, 4), (20, 5),
    ],
    "exp": [
        (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (0, 4), (1, 3), (0, 5),
    ],
    "k": [10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
    "d": [2, 3, 4, 4, 4, 5, 5, 6, 6, 10],
    "d_ev": [2, 3, 3, 3, 4, 5, 5, 6, 6, 10],
    "d_fr": [2, 3, 3, 3, 4, 4, 4, 5, 5, 10],
    "fr_bound": [0, 0, 1, 1, 1, 2, 2, 3, 3, 4],
    "goppa": [2, 3, 3, 3, 4, 4, 4, 5, 5, 6],
}

# Every member of the {(5,1),(4,1)} ordering up to the rank bound (21,5).
MEMBERS119 = [
    (0, 0), (4, 1), (5, 1), (8, 2), (9, 2), (10, 2), (12, 3), (13, 3),
    (14, 3), (15, 3), (16, 4), (17, 4), (18, 4), (19, 4), (20, 4),
    (20, 5), (21, 5),
]


def lex(pair) -> LexValue:
    return LexValue(pair[0], pair[1])


class TestEvalMap:
    def test_points_are_coerced_and_kept_in_order(self):
        ev = EvalMap(F7, [(1, 2), (3, 4)])
        assert ev.points[0] == (F7.element(1), F7.element(2))
        assert ev.points[1] == (F7.element(3), F7.element(4))
        assert len(EV7.points) == 12

    def test_empty_point_list_is_rejected(self):
        with pytest.raises(DomainError, match="at least one point"):
            EvalMap(F7, [])

    def test_duplicate_points_are_rejected(self):
        with pytest.raises(DomainError, match="distinct"):
            EvalMap(F7, [(1, 1), (2, 3), (1, 1)])

    def test_a_point_as_values_and_as_elements_is_one_point(self):
        with pytest.raises(DomainError, match="evaluation points must be distinct"):
            EvalMap(F32, [(3, 5), (F32.element(3), F32.element(5))])


class TestEvaluationMatrix:
    def test_monomial_rows_over_the_standard_points(self):
        basis = basis_for(DZ119, FAM7, lex((4, 1)))
        rows = evaluation_matrix(EV7, basis)
        assert len(rows) == 2
        assert rows[0] == tuple(F7.one for _ in range(12))
        ys = (1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1)
        assert rows[1] == tuple(F7.element(v) for v in ys)

    def test_empty_basis_gives_no_rows(self):
        assert evaluation_matrix(EV7, ()) == ()

    def test_field_mismatch_is_rejected(self):
        basis = basis_for(DZ119, FAM7, lex((4, 1)))
        other = EvalMap(F32, [(1, 2)])
        with pytest.raises(DomainError, match="field mismatch"):
            evaluation_matrix(other, basis)


# One family per kind with a bound inside its generators (the chain's next
# appended generator is 243/32).
ROW_KINDS = {
    "integer": (DN119, RatValue(Fraction(60))),
    "planar": (DZ119, LexValue(25, 6)),
    "quadratic": (DR119, QuadValue(Fraction(5), 2, DR119.tail)),
    "chain": (CH119, RatValue(Fraction(7))),
}


class TestPointwiseRows:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ROW_KINDS)),
        spec=st.sampled_from([F7, F32]),
        data=st.data(),
    )
    def test_rows_equal_polynomial_evaluation(self, kind, spec, data):
        delta, bound = ROW_KINDS[kind]
        fam = build_approximates(delta, spec)
        cell = st.integers(0, spec.q - 1)
        pairs = st.lists(st.tuples(cell, cell), min_size=1, max_size=10, unique=True)
        points = data.draw(pairs)
        ev = EvalMap(spec, points)
        members = enumerate_upto(delta, bound)
        value, _ = members[data.draw(st.integers(0, len(members) - 1))]
        element = basis_element(delta, fam, value)
        expected = [int(v) for v in evaluation_matrix(ev, [element])[0]]
        assert _PointwiseRows(fam, ev).row(element.exponents) == expected

    @pytest.mark.parametrize(
        "delta,spec,ev",
        [(DZ119, F7, EV7), (DR119, F7, EV7), (CH119, F7, EV7), (DN119, F7, EV7),
         (DZ75, F32, EV32_B), (DR75, F32, EV32_B), (CH75, F32, EV32_B)],
    )
    def test_scan_rows_equal_the_evaluation_matrix(self, delta, spec, ev):
        fam = build_approximates(delta, spec)
        data = Scan(delta, fam, ev)
        basis = basis_for(delta, fam, data.members[-1])
        assert [b.weight for b in basis] == list(data.members)
        matrix = evaluation_matrix(ev, basis)
        n = ev.n
        rows = [tuple(data.rows[i * n : (i + 1) * n]) for i in range(len(data.members))]
        assert [tuple(int(v) for v in row) for row in matrix] == rows


class TestCodeAt:
    def test_dimensions_along_the_whole_scan(self):
        for pair, k in zip(SCAN119["alpha"], SCAN119["k"]):
            code = SCAN7.code_at(lex(pair))
            assert code.k == k
            assert code.dim_e == 12 - k
            assert len(code.gen_e) == code.dim_e
            assert len(code.gen_c) == code.k

    def test_zero_bound_gives_the_full_dual(self):
        code = SCAN7.code_at(LexValue(0, 0))
        assert code.dim_e == 1
        assert code.k == 11

    def test_generator_rows_are_independent(self):
        code = SCAN7.code_at(lex((9, 2)))
        ints = [[int(v) for v in row] for row in code.gen_e]
        rank, _ = rank_nullspace_ints(ints, 12, F7)
        assert rank == code.dim_e == 5

    def test_duality_of_the_two_generators(self):
        code = SCAN7.code_at(lex((13, 3)))
        for erow in code.gen_e:
            for crow in code.gen_c:
                acc = F7.zero
                for a, b in zip(erow, crow):
                    acc = acc + a * b
                assert acc == F7.zero

    def test_non_member_bound_is_rejected(self):
        with pytest.raises(DomainError, match="not a member"):
            SCAN7.code_at(LexValue(7, 2))

    def test_field_mismatch_is_rejected(self):
        ev32 = EvalMap(F32, [(1, 2), (3, 4)])
        with pytest.raises(DomainError, match="field mismatch"):
            Scan(DZ119, FAM7, ev32)


class TestOmegaBound:
    def test_rank_bound_for_the_twelve_points(self):
        assert SCAN7.omega_n == LexValue(21, 5)

    def test_single_point_bound_is_the_first_positive_member(self):
        ev = EvalMap(F7, [(1, 1)])
        assert Scan(DZ119, FAM7, ev).omega_n == LexValue(4, 1)

    def test_horizon_cap_raises(self):
        with pytest.raises(DomainError, match="rank ceiling"):
            Scan(DZ119, FAM7, EV7, horizon=3)

    def test_more_points_than_the_horizon_are_rejected_up_front(self):
        """4,100 points over F_256 can never reach rank 4,100 within the
        4,096 members of the default horizon: rejected before any member is
        walked or any table is built."""
        f256 = FieldSpec(2, 8)
        ev = EvalMap(f256, [(x, y) for x in range(256) for y in range(17)][:4100])
        fam = build_approximates(DZ119, f256)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="rank ceiling: rank 4100 needs at least 4100"):
            Scan(DZ119, fam, ev)
        assert time.perf_counter() - start < 0.1
        assert "_t" not in vars(f256)


class TestFengRao:
    def test_columns_along_the_whole_scan(self):
        for pair, d_fr, d_ev, bound in zip(
            SCAN119["alpha"], SCAN119["d_fr"], SCAN119["d_ev"], SCAN119["fr_bound"]
        ):
            assert SCAN7.feng_rao(lex(pair)) == (d_fr, d_ev, bound)

    def test_order_bound_at_an_interior_member(self):
        # Weights above (12,3): the minimum over the strict-inclusion steps
        # is attained at (16,4), not at the first candidate.
        assert SCAN7.feng_rao(lex((12, 3)))[1] == 5

    def test_literal_step_test_shifts_the_candidate_set(self):
        assert SCAN7.feng_rao(lex((17, 4)), literal=True) == (5, 5, 3)
        assert SCAN7.feng_rao(lex((17, 4))) == (5, 6, 3)

    def test_literal_step_test_can_run_dry(self):
        with pytest.raises(DomainError, match="no dual jump above alpha"):
            SCAN7.feng_rao(lex((20, 5)), literal=True)

    def test_zero_dual_is_rejected(self):
        with pytest.raises(DomainError, match="dual code is zero"):
            SCAN7.feng_rao(lex((21, 5)))


def brute_min_weight(code: CodePair) -> int:
    """Smallest nonzero weight by enumerating the whole dual code over F_7."""
    rows = [[int(v) for v in row] for row in code.gen_c]
    n = len(rows[0])
    best = n + 1

    def rec(i: int, acc: list) -> None:
        nonlocal best
        if i == len(rows):
            w = sum(1 for v in acc if v)
            if 0 < w < best:
                best = w
            return
        row = rows[i]
        for c in range(7):
            rec(i + 1, [(a + c * b) % 7 for a, b in zip(acc, row)])

    rec(0, [0] * n)
    return best


def random_code(rng: random.Random, n: int, dim_e: int) -> CodePair:
    """A random dual pair with a full-rank dim_e x n evaluation side."""
    while True:
        ints = [[rng.randrange(7) for _ in range(n)] for _ in range(dim_e)]
        rank, kernel = rank_nullspace_ints([row[:] for row in ints], n, F7)
        if rank == dim_e:
            gen_e = tuple(tuple(F7.element(v) for v in row) for row in ints)
            gen_c = tuple(tuple(F7.element(v) for v in row) for row in kernel)
            return CodePair(None, gen_e, dim_e, gen_c, n - dim_e)


class TestMinDistance:
    def test_distances_along_the_whole_scan(self):
        for pair, d in zip(SCAN119["alpha"], SCAN119["d"]):
            code = SCAN7.code_at(lex(pair))
            assert min_distance(code) == d

    def test_backends_agree_on_a_scan_member(self):
        code = SCAN7.code_at(lex((10, 2)))
        assert min_distance(code, backend="pure") == 4

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(20210 + 417)
        for dim_c in (4, 5, 6):
            code = random_code(rng, 12, 12 - dim_c)
            assert min_distance(code) == brute_min_weight(code)

    def test_zero_code_is_rejected(self):
        code = SCAN7.code_at(lex((21, 5)))
        assert code.k == 0
        with pytest.raises(DomainError, match="zero code"):
            min_distance(code)

    def test_empty_evaluation_side_means_weight_one(self):
        code = CodePair(None, (), 0, (), 12)
        assert min_distance(code) == 1

    def test_parity_rows_reach_the_search_column_major(self):
        rng = random.Random(5)
        r, n = 4, 9
        rows = [tuple(rng.randrange(32) for _ in range(n)) for _ in range(r)]
        with mock.patch.object(codes, "min_dependent_columns", return_value=3) as search:
            assert codes._distance_of_rows(F32, rows, n) == 3
        assert list(search.call_args.args[0]) == [rows[i][j] for j in range(n) for i in range(r)]


class TestGoppaDistance:
    def test_planar_values_along_the_whole_scan(self):
        for pair, g in zip(SCAN119["alpha"], SCAN119["goppa"]):
            assert goppa_distance(DZ119, lex(pair)) == g

    def test_planar_worked_value(self):
        assert goppa_distance(DZ119, LexValue(9, 2)) == 3
        assert goppa_distance(DZ119, LexValue(0, 0)) == 2

    def test_integer_family_value(self):
        assert goppa_distance(DN119, RatValue(Fraction(20))) == 3

    def test_chain_family_values(self):
        chain = build_type_e((3, 1), 0)
        assert chain.generators() == (Fraction(3), Fraction(1))
        assert goppa_distance(chain, RatValue(Fraction(2))) == 3
        assert goppa_distance(chain, RatValue(Fraction(3, 2))) == 2

    def test_quadratic_family_value_can_be_vacuous(self):
        assert goppa_distance(DR119, RatValue(Fraction(1))) == -78

    def test_non_member_bound_is_rejected(self):
        with pytest.raises(DomainError, match="not a member"):
            goppa_distance(DZ119, LexValue(7, 2))

    def test_gap_free_head_can_take_the_least_term_at_j_copies(self):
        """(4, 2, 3): the head (2, 1) has no gaps, and the generator 3 exceeds
        its unit 2, so the term at J = alpha // 3 + 1 copies can undercut the
        term at none, top_0 + 2 = alpha // 2 + 2."""
        delta = validate_n((4, 2, 3))
        assert gap_count_telescopic(validate_n((2, 1))) == 0
        values = [RatValue(Fraction(a)) for a in (0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12)]
        got = [goppa_distance(delta, v) for v in values]
        assert got == [2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6]
        assert got == [loop_goppa(delta, v) for v in values]
        assert got == [sieve_goppa(delta, v) for v in values]
        # at 5 and 6 the estimate is the term at J, J + 1, below top_0 + 2
        assert [(a // 3 + 2, a // 2 + 2) for a in (5, 6)] == [(3, 4), (4, 5)]

    def test_genus_zero_family_is_rejected(self):
        with pytest.raises(DomainError):
            goppa_distance(validate_n((1,)), RatValue(Fraction(3)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_closed_form_gap_count_equals_the_sieve(self, data):
        """Every star the estimate scales out of a family is telescopic, and
        its closed-form gap count equals the sieve's count of its gaps."""
        delta = data.draw(st.one_of(st.sampled_from(GOPPA_FAMILIES), built_families()))
        value, _ = next(islice(walk(delta), data.draw(st.integers(0, 30)), None))
        stars = []

        def spy(star):
            stars.append(star)
            return gap_count_telescopic(star)

        with mock.patch.object(codes, "gap_count_telescopic", side_effect=spy):
            goppa_distance(delta, value)
        assert len(stars) == 1
        star = stars[0].deltas
        # the sieve runs up to the product of the least and largest entries;
        # chain stages grow geometrically, so keep to the stars it can finish
        assume(min(star) * max(star) <= 10**5)
        assert gap_count_telescopic(stars[0]) == len(gaps(star))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_estimate_equals_the_sieve_version(self, data):
        delta = data.draw(st.one_of(st.sampled_from(GOPPA_FAMILIES), built_families()))
        value, _ = next(islice(walk(delta), data.draw(st.integers(0, 60)), None))
        assert goppa_outcome(goppa_distance, delta, value) == goppa_outcome(
            sieve_goppa, delta, value
        )

    def test_free_generator_on_the_y_axis(self):
        """{(1,1), (0,1)}: the copies of (0,1) below a bound with x > 0 never
        run out, which the estimate reports as the sieve version did."""
        plane = build_type_c((11, 1))
        assert plane.deltas == ((1, 1), (0, 1))
        for pair in [(1, 1), (2, 5)]:
            with pytest.raises(DomainError, match="no scalar multiple exceeds the bound"):
                goppa_distance(plane, lex(pair))
        assert goppa_distance(plane, LexValue(0, 0)) == 2
        assert goppa_distance(plane, LexValue(0, 3)) == 2

    def test_closed_form_equals_the_loop(self):
        """Along the first members of every fixture family and at random
        members up to about 10^4."""
        rng = random.Random(4242)
        for delta in GOPPA_FAMILIES:
            if isinstance(delta, DeltaQ):
                continue
            members = [v for v, _ in islice(walk(delta), 40)]
            members += [random_member(delta, rng, 10**4) for _ in range(3)]
            for value in members:
                assert goppa_distance(delta, value) == loop_goppa(delta, value), value

    @pytest.mark.parametrize(
        "delta, bound, estimate",
        [(DN119, 10**6, 90911), (DR119, 10**4, -192075), (validate_n(UNDER_BIG), 10**6, -846175)],
        ids=["11-9", "DR119", "36-24-8-18-13"],
    )
    def test_large_bounds_take_no_loop(self, delta, bound, estimate):
        """The loop over the copies took 0.09 s to 1.35 s on these calls."""
        value = RatValue(Fraction(bound))
        start = time.perf_counter()
        assert goppa_distance(delta, value) == estimate
        assert time.perf_counter() - start < 0.01


# Chains whose first 300 members use prefixes longer than the first ladder
# stage, two of them with choices of their own.
STAR_CHAINS = {
    "11-9": CH119,
    "7-5": CH75,
    "36-24-8-18-13": CH_BIG,
    "11-9-z64": build_type_e((11, 9), 1, [(64, 577)]),
    "3-1-z17": build_type_e((3, 1), 4, [(2, 5), (2, 19), (17, 324)]),
}


class TestChainStars:
    @pytest.mark.parametrize("name", sorted(STAR_CHAINS))
    def test_each_star_is_the_prefix_of_the_members_stage(self, name):
        """Over 300 walked members, each estimate equals the one from the
        prefix of the member's own covering stage divided by its gcd and
        validated, as the estimate once took it; the estimate validates only
        prefixes shorter than the first ladder stage."""
        chain = STAR_CHAINS[name]
        eng, walked = _engine(chain), list(islice(walk(chain), 300))
        with mock.patch.object(codes, "validate_n", side_effect=validate_n) as spy:
            estimate = codes._goppa(chain)
            got = [estimate(v, rep.exponents) for v, rep in walked]
        first = len(eng.ladder[0].deltas)
        assert all(len(call.args[0]) < first for call in spy.call_args_list)
        expected, longest = [], 0
        for v, rep in walked:
            stage = eng.covering_stage(v.value)
            k = max(max((i for i, a in enumerate(rep.exponents) if a), default=0), 1) + 1
            d = reduce(gcd, stage.deltas[:k])
            star = validate_n(tuple(x // d for x in stage.deltas[:k]))
            value = sum(a * x for a, x in zip(rep.exponents, star.deltas))
            expected.append(telescopic_count(star, value) + 1 - gap_count_telescopic(star))
            longest = max(longest, k)
        assert got == expected
        assert longest > first


# Families of all four kinds for the gap-count check; the quadratic kind needs
# tail digits fitted to its sequence, so it comes from the shared fixtures only.
GOPPA_FAMILIES = [
    DN119, validate_n(UNDER_BIG), validate_n(UNDER_2029), validate_n((4, 2, 3)), DZ119,
    DZ_BIG, DZ2029, DZ427, DR119, DR75, DR_BIG_A, DR_BIG_B, CH119, CH75, CH_BIG,
]


@st.composite
def built_families(draw):
    """An integer, planar or chain family over a random coprime pair a > b + 1
    (the planar expansion needs a slope)."""
    a = draw(st.integers(5, 12))
    b = draw(st.integers(2, a - 2).filter(lambda b: gcd(a, b) == 1))
    build = draw(st.sampled_from(["integer", "planar", "chain"]))
    if build == "integer":
        return validate_n((a, b))
    if build == "planar":
        return build_type_c((a, b))
    return build_type_e((a, b), 2)


def sieve_goppa(delta, alpha) -> int:
    """The estimate as first written: the quadratic kind's bounds through
    QuadExt arithmetic, and for every multiple j a fresh members_below sieve
    for the least member at or above the bound and for chi, the number of
    members below that member."""
    rep = represent(delta, alpha)

    def chi(star, value):
        return len(members_below(star, value)) - 1

    def least_member_at_least(star, w_min):
        if w_min <= 0:
            return 0
        return next(v for v in members_below(star, w_min + min(star)) if v >= w_min)

    def minimum(star, above, b_top):
        xi = gap_count_telescopic(validate_n(star))
        return min((chi(star, above(j)) + 1 - xi) * (j + 1) for j in range(b_top + 1))

    if isinstance(delta, DeltaN):
        if delta.g < 1:
            raise DomainError("the estimate needs at least two generators")
        scale = delta.structure.d[delta.g - 1]
        star = tuple(v // scale for v in delta.deltas[:-1])
        last, a = delta.deltas[-1], int(alpha.value)
        return minimum(
            star,
            lambda j: least_member_at_least(star, max((a - j * last) // scale + 1, 0)),
            a // last + 1,
        )
    if isinstance(delta, DeltaZ2):
        w, (lx, ly), (x, y) = delta.witness, delta.deltas[-1], (alpha.x, alpha.y)
        return minimum(
            w.head_c,
            lambda j: least_member_at_least(
                w.head_c, _least_scalar_above(w.u, (x - j * lx, y - j * ly))
            ),
            max(_least_scalar_above((lx, ly), (x, y)), 1),
        )
    if isinstance(delta, DeltaR):
        star, tau = delta.witness.dstar.deltas, delta.tail
        r, m = (alpha.value, 0) if isinstance(alpha, RatValue) else (alpha.r, alpha.m)
        rational = QuadExt(r, Fraction(0), tau.d)
        return minimum(
            star,
            lambda j: least_member_at_least(
                star, max(((rational + tau * (m - j)) * star[1]).floor() + 1, 0)
            ),
            m + (rational / tau).floor() + 1,
        )
    stage = _engine(delta).covering_stage(alpha.value)
    s_last = max((i for i, a in enumerate(rep.exponents) if a), default=0)
    star = denormalize(normalize(stage)[: max(s_last, 1) + 1])
    value = sum(a * v for a, v in zip(rep.exponents, star))
    return chi(star, value) + 1 - gap_count_telescopic(validate_n(star))


def loop_goppa(delta, alpha) -> int:
    """The estimate as a loop over j = 0, 1, ..., J copies of the free
    generator, the form it had before the closed form; not for chains."""
    represent(delta, alpha)
    if isinstance(delta, DeltaN):
        scale = delta.structure.d[delta.g - 1]
        head = validate_n(tuple(v // scale for v in delta.deltas[:-1]))
        last, a = delta.deltas[-1], int(alpha.value)
        tops = [(a - j * last) // scale for j in range(a // last + 2)]
    else:
        eng = _engine(delta)
        value, head, tops = eng.lift(alpha), eng.head, []
        while not tops or tops[-1] >= 0:
            tops.append(eng.top(value, len(tops)))
    xi = gap_count_telescopic(head)
    return min((telescopic_count(head, top + 1) + 1 - xi) * (j + 1) for j, top in enumerate(tops))


def random_member(delta, rng, bound):
    """A sum of random multiples of the generators, each multiple about
    bound / (number of generators) at most."""
    eng = _engine(delta)
    gens = eng.generators()
    value = eng.zero()
    for g in gens:
        if isinstance(g, LexValue):
            size = g.x
        elif isinstance(g, RatValue):
            size = g.value
        else:
            size = g.r + g.m * (float(g.tau.a) + float(g.tau.b) * g.tau.d**0.5)
        for _ in range(rng.randrange(int(bound / len(gens) / max(size, 1)) + 1)):
            value = eng.add(value, g)
    return value


def goppa_outcome(estimate, delta, alpha):
    """The estimate, or the DomainError text it raised."""
    try:
        return estimate(delta, alpha)
    except DomainError as exc:
        return str(exc)


# The families of the reference tables.
REFERENCE_FAMILIES = {
    "DZ119": DZ119, "DR119": DR119, "CH119": CH119, "DZ427": DZ427, "DZ53": DZ53,
    "DZ2029": DZ2029, "DZ_BIG": DZ_BIG, "DR_BIG_A": DR_BIG_A, "CH_BIG": CH_BIG,
    "DZ75": DZ75, "DR75": DR75, "CH75": CH75,
}


def without_the_sieve():
    """The membership sieve, patched to raise whenever it is called."""
    return mock.patch.object(
        oracles, "_sieve", side_effect=AssertionError("the membership sieve was called")
    )


class TestWithoutTheSieve:
    """The member walk, the scan and the Goppa estimate never call the
    membership sieve, and give the sieve version's results without it."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_FAMILIES))
    def test_reference_family_scans(self, name):
        delta = REFERENCE_FAMILIES[name]
        fam = build_approximates(delta, F7)
        with without_the_sieve():
            rows = scan_table(delta, fam, EV7, mode="full")
        assert len(rows) > 1
        assert [row.goppa for row in rows] == [sieve_goppa(delta, row.alpha) for row in rows]

    def test_golden_table(self):
        with without_the_sieve():
            text = table_csv(scan_table(DZ119, FAM7, EV7))
        assert text == (pathlib.Path(__file__).parent / "data" / "golden_table2.csv").read_text()

    def test_estimates_along_walks(self):
        """Chain stages grow geometrically: the sieve version spent seconds on
        the first 61 members of the (13, 6) chain, so that walk is only run."""
        chain = build_type_e((13, 6), 2)
        for delta in GOPPA_FAMILIES + [chain]:
            with without_the_sieve():
                members = [v for v, _ in islice(walk(delta), 61)]
                got = [goppa_distance(delta, v) for v in members]
            if delta is not chain:
                assert got == [sieve_goppa(delta, v) for v in members]


class TestScanTable:
    def test_strict_step_rows_match_the_frozen_scan(self):
        rows = scan_table(DZ119, FAM7, EV7)
        assert len(rows) == 10
        assert [(r.alpha.x, r.alpha.y) for r in rows] == SCAN119["alpha"]
        assert [r.exponents for r in rows] == SCAN119["exp"]
        assert [r.k for r in rows] == SCAN119["k"]
        assert [r.d for r in rows] == SCAN119["d"]
        assert [r.d_ev for r in rows] == SCAN119["d_ev"]
        assert [r.d_fr for r in rows] == SCAN119["d_fr"]
        assert [r.fr_product_bound for r in rows] == SCAN119["fr_bound"]
        assert [r.goppa for r in rows] == SCAN119["goppa"]

    def test_full_mode_covers_every_member_below_the_bound(self):
        rows = scan_table(DZ119, FAM7, EV7, mode="full")
        assert len(rows) == 16
        assert [(r.alpha.x, r.alpha.y) for r in rows] == MEMBERS119[:16]
        assert rows[0].k == 11 and rows[0].d == 2
        # A plateau member keeps the parameters of the last strict step.
        plateau = rows[8]
        assert (plateau.alpha.x, plateau.alpha.y) == (14, 3)
        assert plateau.exponents == (2, 1)
        assert plateau.k == 4 and plateau.d == 5

    def test_bounds_never_cross(self):
        for row in scan_table(DZ119, FAM7, EV7, mode="full"):
            assert row.d_fr <= row.d_ev <= row.d
            assert row.d <= 12 - row.k + 1

    def test_row_limit(self):
        rows = scan_table(DZ119, FAM7, EV7, limit=4)
        assert [r.k for r in rows] == [10, 9, 8, 7]
        assert rows.dropped == 6
        assert scan_table(DZ119, FAM7, EV7).dropped == 0
        assert scan_table(DZ119, FAM7, EV7, limit=10).dropped == 0

    def test_single_point_scan(self):
        ev = EvalMap(F7, [(1, 1)])
        assert scan_table(DZ119, FAM7, ev) == []
        rows = scan_table(DZ119, FAM7, ev, mode="full")
        assert len(rows) == 1
        assert rows[0].k == 0 and rows[0].d is None

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(DomainError, match="mode"):
            scan_table(DZ119, FAM7, EV7, mode="all")


class TestScanFloor:
    """Each scan row's d, found from the previous rank's d on, equals a
    search of the same code from 1."""

    @pytest.mark.parametrize("kind", sorted(ROW_KINDS))
    @pytest.mark.parametrize("ev", [EV7, EV32_SMALL], ids=["F7", "F32"])
    @pytest.mark.parametrize(
        "mode,limit", [("jumps", None), ("full", None), ("jumps", 4), ("full", 6)]
    )
    def test_scan_distances_equal_floor_free_search(self, kind, ev, mode, limit):
        delta = ROW_KINDS[kind][0]
        fam = build_approximates(delta, ev.spec)
        rows = scan_table(delta, fam, ev, mode=mode, limit=limit)
        assert rows and (limit is None or len(rows) == limit)
        scan = Scan(delta, fam, ev)
        for row in rows:
            code = scan.code_at(row.alpha)
            assert row.d == min_distance(code)


def row_at_a_time_scan(delta, fam, ev, horizon):
    """The scan as it was before the block walk: one member at a time,
    eliminated against a dict of pivot rows, with pair counts found by
    subtracting semigroup values."""
    n, q, t = ev.n, ev.spec.q, ev.spec._t
    evaluate = _PointwiseRows(fam, ev)
    members, exponents, rows, jump, rank_after = [], [], [], [], []
    pivots = {}
    for current, rep in walk(delta):
        if len(members) >= horizon:
            raise DomainError(f"rank ceiling: rank {len(pivots)} of {n} after {horizon} members")
        exps = _fit_exponents(fam, rep.exponents)
        row = tuple(evaluate.row(exps))
        members.append(current)
        exponents.append(exps)
        rows.append(row)
        reduced = list(row)
        for col, prow in pivots.items():
            c = reduced[col]
            if c:
                reduced = [t.sub[a * q + t.mul[c * q + b]] for a, b in zip(reduced, prow)]
        lead = next((j for j, v in enumerate(reduced) if v), None)
        if lead is not None:
            inv = t.inv[reduced[lead]]
            pivots[lead] = [t.mul[inv * q + v] for v in reduced]
        jump.append(lead is not None)
        rank_after.append(len(pivots))
        if len(pivots) == n and len(members) > 1:
            break

    def minus(a, b):
        if isinstance(a, LexValue):
            return LexValue(a.x - b.x, a.y - b.y)
        if isinstance(a, RatValue):
            return RatValue(a.value - b.value)
        return QuadValue(a.r - b.r, a.m - b.m, a.tau)

    seen = set(members)
    weights = [sum(minus(v, o) in seen for o in members[: i + 1]) for i, v in enumerate(members)]
    suffix_all, suffix_jump = [], []
    best, best_jump = weights[-1], weights[-1] if jump[-1] else None
    for w, j in zip(reversed(weights), reversed(jump)):
        best = min(best, w)
        if j:
            best_jump = w if best_jump is None else min(best_jump, w)
        suffix_all.append(best)
        suffix_jump.append(best_jump)
    omega_index = len(members) - 1
    suffix_prod = [0] * len(members)
    best_prod = None
    for i in range(omega_index - 1, -1, -1):
        prod = 1
        for a in exponents[i]:
            prod *= a + 1
        best_prod = prod - 2 if best_prod is None else min(best_prod, prod - 2)
        suffix_prod[i] = best_prod
    return SimpleNamespace(
        delta=delta, spec=ev.spec, n=n,
        members=tuple(members), exponents=tuple(exponents),
        rows=array("i", [v for row in rows for v in row]),
        jump=tuple(jump), rank_after=tuple(rank_after), omega_index=omega_index,
        weights=tuple(weights), suffix_all=tuple(suffix_all[::-1]),
        suffix_jump=tuple(suffix_jump[::-1]), suffix_prod=tuple(suffix_prod),
    )


def scan_outcome(build, *args):
    """The scan's attributes by name, or the DomainError text it raised."""
    try:
        return vars(build(*args))
    except DomainError as exc:
        return str(exc)


# The four kinds, plus a planar family whose members have negative second
# components; and a single point, where the rank is full at zero.
SCAN_KINDS = {**{kind: delta for kind, (delta, _) in ROW_KINDS.items()}, "planar-signed": DZ427}
EV1 = EvalMap(F7, [(1, 1)])


class TestBlockScan:
    """The scan walks members in blocks of n - rank rows, each reduced by one
    kernel call, and counts pairs on integer keys; it must give what the
    row-at-a-time scan gave, on both kernel backends."""

    # Over the 31 points of EV32_B the integer kind never reaches full rank
    # and stops at the horizon.
    @pytest.mark.parametrize("kind", sorted(SCAN_KINDS))
    @pytest.mark.parametrize(
        "ev", [EV7, EV32_SMALL, EV32_B, EV1], ids=["F7", "F32", "F32-31", "F7-1"]
    )
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_scan_data_equals_the_row_at_a_time_scan(self, kind, ev, backend):
        delta = SCAN_KINDS[kind]
        fam = build_approximates(delta, ev.spec)
        expected = scan_outcome(row_at_a_time_scan, delta, fam, ev, DEFAULT_HORIZON)
        data = scan_outcome(Scan, delta, fam, ev, DEFAULT_HORIZON, backend)
        if isinstance(expected, str):
            assert data == expected
            return
        assert data.keys() == expected.keys()
        for name, value in expected.items():
            assert data[name] == value, name

    @pytest.mark.parametrize("kind", sorted(SCAN_KINDS))
    @pytest.mark.parametrize("ev", [EV7, EV32_SMALL], ids=["F7", "F32"])
    def test_pair_counts_and_omega_equal_the_oracle(self, kind, ev):
        delta = SCAN_KINDS[kind]
        data = Scan(delta, build_approximates(delta, ev.spec), ev)
        expected = tuple(oracles.pair_counts(data.members))
        assert data.weights == expected
        assert tuple(omega(delta, m) for m in data.members) == expected

    @pytest.mark.parametrize("kind", sorted(SCAN_KINDS))
    @pytest.mark.parametrize("ev", [EV7, EV32_SMALL, EV1], ids=["F7", "F32", "F7-1"])
    def test_every_horizon_stops_where_the_row_at_a_time_scan_did(self, kind, ev):
        """Below n members the scan is rejected before it walks any."""
        delta = SCAN_KINDS[kind]
        fam = build_approximates(delta, ev.spec)
        top = len(Scan(delta, fam, ev).members)
        for horizon in range(top + 2):
            expected = scan_outcome(row_at_a_time_scan, delta, fam, ev, horizon)
            assert isinstance(expected, str) == (horizon < top)
            if horizon < ev.n:
                expected = (
                    f"rank ceiling: rank {ev.n} needs at least {ev.n} members,"
                    f" above the horizon of {horizon}"
                )
            for backend in available_backends():
                got = scan_outcome(Scan, delta, fam, ev, horizon, backend)
                assert got == expected, (horizon, backend)


class TestRendering:
    def test_value_rendering(self):
        assert render_value(LexValue(9, 2)) == "(9,2)"
        assert render_value(RatValue(Fraction(9, 4))) == "9/4"
        assert render_value(RatValue(Fraction(2))) == "2"
        quad = QuadValue(Fraction(11, 9), 2, DR119.tail)
        assert render_value(quad) == "11/9 + 2*tau"

    def test_csv_shape_and_corner_rows(self):
        text = table_csv(scan_table(DZ119, FAM7, EV7))
        lines = text.splitlines()
        assert lines[0] == "alpha,exp,k,d,d_ev,d_fr,fr_bound,goppa"
        assert lines[1] == '"(4,1)",01,10,2,2,2,0,2'
        assert lines[-1] == '"(20,5)",05,1,10,10,10,4,6'
        assert len(lines) == 11


class TestReedSolomonEquivalence:
    def test_line_points_give_generalized_reed_solomon_rows(self):
        points = [(a, (a + 1) % 7) for a in range(6)]
        ev = EvalMap(F7, points)
        for level in range(6):
            alpha = LexValue(4 * level, level)
            basis = basis_for(DZ119, FAM7, alpha)
            ours = [[int(v) for v in row] for row in evaluation_matrix(ev, basis)]
            vand = [[pow(a, j, 7) for a in range(6)] for j in range(level + 1)]
            r_ours, _ = rank_nullspace_ints([r[:] for r in ours], 6, F7)
            r_vand, _ = rank_nullspace_ints([r[:] for r in vand], 6, F7)
            r_both, _ = rank_nullspace_ints(
                [r[:] for r in ours] + [r[:] for r in vand], 6, F7
            )
            assert r_ours == r_vand == r_both == level + 1


class TestBoundedState:
    def test_no_evaluation_map_outlives_its_scans(self):
        """Neither scan_table nor a scan held while it answers queries keeps
        an evaluation map alive once the caller lets go of both."""
        rng = random.Random(1000)
        cells = [(x, y) for x in range(7) for y in range(7)]
        refs = []
        for _ in range(1000):
            ev = EvalMap(F7, rng.sample(cells, 5))
            scan_table(DZ119, FAM7, ev)
            scan = Scan(DZ119, FAM7, ev)
            scan.code_at(scan.omega_n)
            scan.feng_rao(scan.members[0])
            refs.append(weakref.ref(ev))
        del ev, scan
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0
