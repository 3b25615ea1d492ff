"""Well-ordered semigroups generated by the four delta-sequence kinds."""

from __future__ import annotations

import gc
import os
import pathlib
import random
import subprocess
import sys
import time
import weakref
from collections import deque
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from math import floor, isqrt, lcm
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import deltacodes
from deltacodes import semigroup as semigroup_module
from deltacodes.cli import _build_delta as cli_build_delta, parse_config, run
from deltacodes.codes import Scan, render_value
from deltacodes.deltaseq import DeltaN, gap_count_telescopic, telescopic_exponents, validate_n
from deltacodes.errors import DomainError
from deltacodes.genesis import (
    DeltaQ,
    DeltaR,
    DeltaZ2,
    build_type_c,
    build_type_d,
    build_type_e,
    extend_n,
)
from deltacodes.quadratics import QuadExt, floor_of
from deltacodes.semigroup import (
    LexValue,
    QuadValue,
    RatValue,
    Representation,
    _pair_counts,
    compare,
    generators,
    omega,
    represent,
    walk,
)

import helpers
import oracles
from oracles import enumerate_upto, members_below, pair_counts, walk_eager, window_listing
from test_deltaseq import VALID, near_telescopic

DZ2 = build_type_c((11, 9))
DZ2_BIG = build_type_c((36, 24, 8, 18, 13))
DR = build_type_d((11, 9), (80, 1, 2))
DQ31 = build_type_e((3, 1), steps=0)
DQ119 = build_type_e((11, 9), steps=0)
DN = validate_n((11, 9))
TAU = DR.tail


class TestCompare:
    def test_lex(self):
        assert compare(LexValue(13, 3), LexValue(14, 3)) == -1
        assert compare(LexValue(13, 3), LexValue(13, 2)) == 1
        assert compare(LexValue(13, 3), LexValue(13, 3)) == 0

    def test_rat(self):
        assert compare(RatValue(Fraction(3, 2)), RatValue(Fraction(9, 4))) == -1

    def test_cross_variant_mismatch(self):
        with pytest.raises(DomainError, match="order mismatch"):
            compare(LexValue(1, 1), RatValue(Fraction(1)))

    def test_quad_same_tail_required(self):
        other = build_type_d((7, 5), (28, 3, 1)).tail
        with pytest.raises(DomainError, match="order mismatch"):
            compare(QuadValue(Fraction(0), 1, TAU), QuadValue(Fraction(0), 1, other))

    def test_rat_vs_quad_allowed(self):
        tau = QuadValue(Fraction(0), 1, TAU)
        assert compare(RatValue(Fraction(2031059, 1000000)), tau) == -1
        assert compare(RatValue(Fraction(2031060, 1000000)), tau) == 1
        assert compare(tau, RatValue(Fraction(2))) == 1

    def test_quad_with_multiplicity_never_equals_rat(self):
        tau = QuadValue(Fraction(0), 1, TAU)
        for num in range(2031055, 2031065):
            assert compare(tau, RatValue(Fraction(num, 1000000))) != 0


class TestRepresent:
    def test_planar_pairs(self):
        rep = represent(DZ2, LexValue(13, 3))
        assert rep.exponents == (1, 2)
        assert rep.bounds == (None, None)
        assert represent(DZ2, LexValue(14, 3)).exponents == (2, 1)
        assert represent(DZ2, LexValue(0, 0)).exponents == (0, 0)

    def test_planar_longer(self):
        rep = represent(DZ2_BIG, LexValue(7, -1))
        assert rep.exponents == (0, 0, 0, 0, 1)
        assert rep.bounds == (None, 3, 3, 2, None)
        rep = represent(DZ2_BIG, LexValue(16, -1))
        # (16,-1) = (9,0) + (7,-1)
        assert rep.exponents == (0, 0, 0, 1, 1)

    def test_planar_errors(self):
        with pytest.raises(DomainError, match="not a member"):
            represent(DZ2, LexValue(7, 2))
        with pytest.raises(DomainError, match="below zero"):
            represent(DZ2, LexValue(-1, 5))

    def test_rational_chain(self):
        rep = represent(DQ31, RatValue(Fraction(9, 4)))
        assert rep.exponents[:4] == (0, 0, 0, 1)
        assert all(b is not None for b in rep.bounds[1:])
        with pytest.raises(DomainError, match="not a member"):
            represent(DQ31, RatValue(Fraction(7, 8)))

    def test_quadratic(self):
        rep = represent(DR, QuadValue(Fraction(11, 9), 2, TAU))
        assert rep.exponents == (1, 0, 2)
        assert rep.bounds == (None, 11, None)
        with pytest.raises(DomainError, match="not a member"):
            represent(DR, QuadValue(Fraction(1, 2), 0, TAU))

    def test_integer_sequence(self):
        rep = represent(DN, RatValue(Fraction(31)))
        assert rep.exponents == (2, 1)
        assert rep.bounds == (None, 11)


class TestEnumerate:
    def test_planar_11_9(self):
        out = enumerate_upto(DZ2, LexValue(12, 3))
        assert [v for v, _ in out] == [
            LexValue(0, 0),
            LexValue(4, 1),
            LexValue(5, 1),
            LexValue(8, 2),
            LexValue(9, 2),
            LexValue(10, 2),
            LexValue(12, 3),
        ]
        assert out[1][1].exponents == (0, 1)
        assert out[-1][1].exponents == (0, 3)

    def test_rational_chain_literal_list(self):
        out = enumerate_upto(DQ31, RatValue(Fraction(3)))
        assert [v.value for v, _ in out] == [
            Fraction(0),
            Fraction(1),
            Fraction(3, 2),
            Fraction(2),
            Fraction(9, 4),
            Fraction(5, 2),
            Fraction(3),
        ]

    def test_rational_chain_from_11_9(self):
        out = enumerate_upto(DQ119, RatValue(Fraction(3)))
        assert [v.value for v, _ in out] == [
            Fraction(0),
            Fraction(1),
            Fraction(11, 9),
            Fraction(3, 2),
            Fraction(2),
            Fraction(20, 9),
            Fraction(9, 4),
            Fraction(22, 9),
            Fraction(5, 2),
            Fraction(49, 18),
            Fraction(3),
        ]

    def test_quadratic_ordering_matches_high_precision(self):
        bound = QuadValue(Fraction(6), 0, TAU)
        out = enumerate_upto(DR, bound)
        assert len(out) > 10
        with mpmath.workdps(50):
            tau_f = (
                mpmath.mpf(TAU.a.numerator) / TAU.a.denominator
                + mpmath.mpf(TAU.b.numerator) / TAU.b.denominator * mpmath.sqrt(TAU.d)
            )
            floats = [
                mpmath.mpf(v.r.numerator) / v.r.denominator + v.m * tau_f for v, _ in out
            ]
        assert floats == sorted(floats)
        assert len(set(floats)) == len(floats)

    def test_planar_infinite_enumeration_rejected(self):
        ams = build_type_c((6, 3, 1))
        assert ams.deltas[-1] == (0, 1)
        with pytest.raises(DomainError, match="infinite"):
            enumerate_upto(ams, LexValue(3, 3))

    def test_values_unique_and_sorted(self):
        out = enumerate_upto(DZ2_BIG, LexValue(30, 0))
        vals = [v for v, _ in out]
        assert len(set(vals)) == len(vals)
        assert all(compare(a, b) == -1 for a, b in zip(vals, vals[1:]))


class TestOmega:
    def test_zero(self):
        assert omega(DZ2, LexValue(0, 0)) == 1

    def test_small(self):
        assert omega(DZ2, LexValue(9, 2)) == 4

    def test_larger(self):
        assert omega(DZ2, LexValue(21, 5)) == 10

    @pytest.mark.parametrize(
        "delta,below,outside",
        [
            (DN, RatValue(Fraction(-1)), RatValue(Fraction(10))),
            (DZ2, LexValue(0, -1), LexValue(7, 2)),
            (DR, QuadValue(Fraction(-3), 1, TAU), RatValue(Fraction(1, 7))),
            (DQ119, RatValue(Fraction(-1, 2)), RatValue(Fraction(1, 7))),
        ],
        ids=["integer", "planar", "quadratic", "chain"],
    )
    def test_zero_below_zero_and_off_the_semigroup(self, delta, below, outside):
        for value in (below, outside):
            with pytest.raises(DomainError, match="below zero|not a member"):
                represent(delta, value)
            assert omega(delta, value) == 0

    def test_a_kind_mismatch_raises(self):
        with pytest.raises(DomainError, match="kind mismatch"):
            omega(DN, LexValue(1, 1))
        with pytest.raises(DomainError, match="kind mismatch"):
            omega(DZ2, RatValue(Fraction(1)))

    def test_a_generator_on_the_y_axis_raises_from_zero_on(self):
        ams = build_type_c((6, 3, 1))
        assert omega(ams, LexValue(-1, 0)) == 0
        with pytest.raises(DomainError, match="infinite"):
            omega(ams, LexValue(0, 0))

    @pytest.mark.parametrize(
        "delta, value",
        [
            (DZ2_BIG, LexValue(1000, -5)),
            (helpers.DR_BIG_A, QuadValue(Fraction(30), 4, helpers.DR_BIG_A.tail)),
            (validate_n((36, 24, 8, 18, 13)), RatValue(Fraction(20000))),
        ],
        ids=["planar", "quadratic", "integer"],
    )
    def test_a_large_value_is_read_from_its_representation(self, delta, value):
        """omega of a member tens of thousands of members out takes no walk:
        well under 0.1 s, where enumerating up to the planar (2000, 0) took
        1.6 s and 137 MB.  The count is the oracle's over every member."""
        start = time.perf_counter()
        count = omega(delta, value)
        assert time.perf_counter() - start < 0.1
        members = [v for v, _ in enumerate_upto(delta, value)]
        assert members[-1] == value and len(members) > 10_000
        assert count == oracles.pair_counts(members, [len(members) - 1])[0]

    def test_symmetric_double_loop(self):
        out = enumerate_upto(DZ2, LexValue(21, 5))
        values = {v for v, _ in out}
        for v, _ in out[:12]:
            count = 0
            for w, _ in out:
                if compare(w, v) > 0:
                    break
                rest = LexValue(v.x - w.x, v.y - w.y)
                if rest in values:
                    count += 1
            assert omega(DZ2, v) == count


OMEGA_AT_160 = """
import time
from fractions import Fraction
from deltacodes.genesis import build_type_e
from deltacodes.semigroup import RatValue, omega
delta = build_type_e((11, 9), 6)
start = time.perf_counter()
count = omega(delta, RatValue(Fraction(160)))
seconds = time.perf_counter() - start
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(count, seconds, int(status.split()[0]) / 1024)
"""


class TestClosedFormPairCounts:
    """omega from ``semigroup._pair_counts``, (m + 1) * nu_H(s) for every
    kind, with nu_H read from the head's Apery set below 2c - 1, against
    counting pairs by set intersection."""

    @pytest.mark.parametrize("ev", ["EV7", "EV32_SMALL"])
    @pytest.mark.parametrize("name", sorted(helpers.SCAN_FAMILIES))
    def test_scan_weights_equal_the_oracle(self, name, ev):
        delta, ev = helpers.SCAN_FAMILIES[name], getattr(helpers, ev)
        scan = Scan(delta, ev)
        assert scan.weights == tuple(pair_counts(scan.members))

    # The member lists on which the closed form was first checked: the
    # 961-point scan of the planar (5, 3) family walks 2,086 members.  The
    # chains are walked as far: (7, 5) with 4 steps crosses four appended
    # generators, and (13, 6) with 2 steps is one block of its widest stage,
    # so its tails are about as many as its members.
    @pytest.mark.parametrize(
        "delta,count",
        [
            (build_type_c((5, 3)), 2086),
            (build_type_c((5, 3)), 10100),
            (helpers.DZ_BIG, 6118),
            (helpers.DR_BIG_A, 1225),
            (validate_n(helpers.UNDER_BIG), 571),
            (helpers.CH75, 4096),
            (build_type_e((11, 9), 6), 4096),
            (helpers.CH_BIG, 4096),
            (build_type_e((13, 6), 2), 4096),
        ],
        ids=[
            "planar-2086", "planar-10100", "planar-big-6118", "quadratic-1225",
            "integer-571", "chain-75-4096", "chain-119-6-4096", "chain-big-4096",
            "chain-13-6-4096",
        ],
    )
    def test_baseline_member_lists(self, delta, count):
        """Every member of the lists up to 2,086 members; of the longer ones,
        the first and last 100 and 200 drawn in between (the oracle's set work
        is quadratic)."""
        walked = list(islice(walk(delta), count))
        members = [value for value, _ in walked]
        counts = _pair_counts(delta, [rep for _, rep in walked])
        at = range(count)
        if count > 2086:
            inner = random.Random(count).sample(range(100, count - 100), 200)
            at = [*range(100), *sorted(inner), *range(count - 100, count)]
        assert [counts[i] for i in at] == pair_counts(members, at)

    @pytest.mark.parametrize(
        "delta",
        [helpers.CH75, helpers.CH_BIG, build_type_e(helpers.UNDER_119, 6)],
        ids=["CH75", "CH_BIG", "119-6"],
    )
    def test_chain_families(self, delta):
        """The first 400 members, whose walk reaches beyond the chain's own
        stages."""
        walked = list(islice(walk(delta), 400))
        counts = _pair_counts(delta, [rep for _, rep in walked])
        assert counts == pair_counts([value for value, _ in walked])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(VALID), near_telescopic()))
    def test_nu_equals_the_brute_force_count(self, seq):
        """nu_H(s) of an integer sequence, its own head, at every member s
        from zero to past 4g - 1, where the closed form takes over, against
        the pairs of sieved members that sum to s; a repeated s is counted
        once and read again."""
        try:
            delta = validate_n(seq)
        except DomainError:
            delta = validate_n(VALID[-1])
        top = 4 * gap_count_telescopic(delta) + 2 * delta.deltas[0]
        members = members_below(delta.deltas, top)
        assert members[-1] > 4 * gap_count_telescopic(delta) - 1
        present = set(members)
        expected = [len(present.intersection([s - h for h in members if h <= s])) for s in members]
        reps = [represent(delta, RatValue(Fraction(s))) for s in members]
        assert _pair_counts(delta, reps + reps[::-1]) == expected + expected[::-1]

    @pytest.mark.parametrize(
        "delta", [build_type_e((11, 9), 6), helpers.CH75], ids=["119-6", "CH75"]
    )
    @pytest.mark.parametrize("bound", [40, 80])
    def test_omega_on_chain_values_equals_the_oracle(self, delta, bound):
        """omega of the last five members up to the bound, and of the bound
        itself, against the oracle's count over every member up to it."""
        members = [v for v, _ in enumerate_upto(delta, RatValue(Fraction(bound)))]
        at = range(len(members) - 5, len(members))
        assert members[-1] == RatValue(Fraction(bound))
        assert [omega(delta, members[i]) for i in at] == pair_counts(members, at)

    @pytest.mark.parametrize("name", sorted(helpers.SCAN_FAMILIES))
    def test_omega_walks_nothing(self, name, monkeypatch):
        """omega reads the representation alone: it calls neither ``walk``
        nor the engine's ``upto``."""
        delta = helpers.SCAN_FAMILIES[name]
        value = list(islice(walk(delta), 300))[-1][0]
        expected = omega(delta, value)

        def refuse(*args, **kwargs):
            raise AssertionError("omega walked the members")

        for owner, attr in (
            (semigroup_module, "walk"),
            (semigroup_module._Engine, "upto"),
            (semigroup_module._Engine, "walk"),
            (semigroup_module._Engine, "_windows"),
            (semigroup_module._RationalEngine, "_windows"),
        ):
            monkeypatch.setattr(owner, attr, refuse)
        assert omega(delta, value) == expected

    def test_omega_of_a_far_chain_value_in_a_fresh_interpreter(self):
        """omega at 160 on the (11, 9) chain of 6 steps, which has 744,757
        members up to there, takes under 0.5 s and 50 MB: it walks none."""
        root = str(pathlib.Path(deltacodes.__file__).parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", OMEGA_AT_160],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        count, seconds, peak_mb = result.stdout.split()
        assert int(count) == 199377
        assert float(seconds) < 0.5
        assert float(peak_mb) < 50


class TestWeights:
    @staticmethod
    def weight_of(delta, dstar, value):
        rep = represent(delta, value)
        return sum(g * d for g, d in zip(rep.exponents, dstar))

    def test_planar_weights_are_additive(self):
        dstar = (36, 24, 8, 18, 13)
        out = enumerate_upto(DZ2_BIG, LexValue(30, 0))
        weight = {
            v: sum(g * d for g, d in zip(rep.exponents, dstar)) for v, rep in out
        }
        assert set(weight.values()) <= set(members_below(dstar, max(weight.values())))
        for v, _ in out[:12]:
            for w, _ in out[:12]:
                total = LexValue(v.x + w.x, v.y + w.y)
                assert self.weight_of(DZ2_BIG, dstar, total) == weight[v] + weight[w]

    def test_planar_weight_order_can_disagree_with_lex_order(self):
        dstar = (36, 24, 8, 18, 13)
        assert self.weight_of(DZ2_BIG, dstar, LexValue(20, 0)) == 40
        assert self.weight_of(DZ2_BIG, dstar, LexValue(21, -3)) == 39

    def test_planar_weight_map_not_injective(self):
        dstar = (36, 24, 8, 18, 13)
        assert self.weight_of(DZ2_BIG, dstar, LexValue(28, -1)) == 55
        assert self.weight_of(DZ2_BIG, dstar, LexValue(29, -3)) == 55

    def test_generators_represent_as_unit_vectors(self):
        gens = generators(DZ2_BIG)
        assert len(gens) == 5
        for i, gv in enumerate(gens):
            rep = represent(DZ2_BIG, gv)
            assert rep.exponents == tuple(int(j == i) for j in range(5))


class TestUniqueness:
    @staticmethod
    def count_planar_tuples(delta, target, bounds):
        gens = delta.deltas
        hits = 0
        caps = []
        for (gx, gy), b in zip(gens, bounds):
            cap = target.x // gx if gx else target.x + target.y
            caps.append(min(cap, b - 1) if b is not None else cap)

        def rec(i, x, y):
            nonlocal hits
            if i == len(gens):
                hits += x == target.x and y == target.y
                return
            gx, gy = gens[i]
            for c in range(caps[i] + 1):
                nx, ny = x + c * gx, y + c * gy
                if (nx, ny) > (target.x, target.y):
                    break
                rec(i + 1, nx, ny)

        rec(0, 0, 0)
        return hits

    def test_exhaustive_uniqueness_planar(self):
        out = enumerate_upto(DZ2, LexValue(21, 5))
        assert len(out) >= 17
        for v, rep in out:
            assert self.count_planar_tuples(DZ2, v, rep.bounds) == 1

    def test_closure_under_addition(self):
        out = enumerate_upto(DZ2, LexValue(12, 3))
        for v, _ in out:
            for w, _ in out:
                represent(DZ2, LexValue(v.x + w.x, v.y + w.y))


def test_representation_reproduces_value():
    rng = random.Random(5)
    out = enumerate_upto(DZ2_BIG, LexValue(36, 0))
    gens = DZ2_BIG.deltas
    for v, rep in rng.sample(out, min(25, len(out))):
        x = sum(g * vec[0] for g, vec in zip(rep.exponents, gens))
        y = sum(g * vec[1] for g, vec in zip(rep.exponents, gens))
        assert (x, y) == (v.x, v.y)


# --- the ordered walk against the enumerate-then-sort reference ----------------


def _exact_order(a, b):
    """Three-way order of two members through QuadExt arithmetic or tuples."""
    if isinstance(a, QuadValue):
        return (a.exact() - b.exact()).sign()
    if isinstance(a, LexValue):
        return ((a.x, a.y) > (b.x, b.y)) - ((a.x, a.y) < (b.x, b.y))
    return (a.value > b.value) - (a.value < b.value)


def reference_enumerate(delta, bound):
    """Every member up to the bound with its representation, found by a
    membership sieve or an exhaustive tuple walk and then sorted exactly."""
    out = []
    if isinstance(delta, DeltaN):
        bounds = (None,) + delta.structure.n
        for v in members_below(delta.deltas, floor(bound.value)):
            exps = telescopic_exponents(delta, v)
            out.append((RatValue(Fraction(v)), Representation(exps, bounds)))
    elif isinstance(delta, DeltaZ2):
        gens = delta.deltas
        bounds = (None,) + validate_n(delta.witness.head_c).structure.n + (None,)

        def visit(i, x, y, acc):
            if i == len(gens):
                out.append((LexValue(x, y), Representation(acc, bounds)))
                return
            c = 0
            while bounds[i] is None or c < bounds[i]:
                if (x + c * gens[i][0], y + c * gens[i][1]) > (bound.x, bound.y):
                    break
                visit(i + 1, x + c * gens[i][0], y + c * gens[i][1], acc + (c,))
                c += 1

        visit(0, 0, 0, ())
    elif isinstance(delta, DeltaR):
        dstar = delta.witness.dstar
        scale = dstar.deltas[1]
        bounds = (None,) + dstar.structure.n + (None,)
        m = 0
        while (bound.exact() - delta.tail * m).sign() >= 0:
            top = ((bound.exact() - delta.tail * m) * scale).floor()
            for v in members_below(dstar.deltas, top):
                value = QuadValue(Fraction(v, scale), m, delta.tail)
                exps = telescopic_exponents(dstar, v) + (m,)
                out.append((value, Representation(exps, bounds)))
            m += 1
    else:
        stage = delta.stages[-1]
        grown = extend_n(stage)
        while Fraction(grown.deltas[-1], grown.deltas[1]) <= bound.value:
            stage, grown = grown, extend_n(grown)
        scale = stage.deltas[1]
        bounds = (None,) + stage.structure.n
        for v in members_below(stage.deltas, floor(bound.value * scale)):
            exps = telescopic_exponents(stage, v)
            out.append((RatValue(Fraction(v, scale)), Representation(exps, bounds)))
    out.sort(key=cmp_to_key(lambda a, b: _exact_order(a[0], b[0])))
    return out


DR_BIG = build_type_d((36, 24, 8, 18, 13), (20, 5, 2))

# Each kind with a map from an integer to a bound (members and non-members,
# some below zero).
WALK_KINDS = {
    "integer": (validate_n((36, 24, 8, 18, 13)), lambda k: RatValue(Fraction(k))),
    "planar": (DZ2_BIG, lambda k: LexValue(k // 3, k % 7 - 3)),
    "quadratic": (DR_BIG, lambda k: QuadValue(Fraction(k, 20), k % 4, DR_BIG.tail)),
    "chain": (build_type_e((11, 9), 2), lambda k: RatValue(Fraction(k, 9))),
}


# Planar families of the reference tables; the one from (42, 30, 70, 77) has
# its last vector below the x axis.
PLANAR_FAMILIES = {
    "DZ119": DZ2,
    "DZ53": build_type_c((5, 3)),
    "DZ427": build_type_c((42, 30, 70, 77)),
    "DZ2029": build_type_c((20, 8, 29)),
}


# Every fixture family of the four kinds, the chain's among them: its walk
# carries trailing zero exponents of generators beyond a member's own stage.
FIXTURE_FAMILIES = {
    **{
        name: getattr(helpers, name)
        for name in dir(helpers)
        if name.startswith(("DN", "DZ", "DR", "CH"))
    },
    "DZ2": DZ2,
    "DZ2_BIG": DZ2_BIG,
    "DR": DR,
    "DR_BIG": DR_BIG,
    "DQ31": DQ31,
    "DQ119": DQ119,
    "DN": DN,
    "chain (11, 9), 2 steps": WALK_KINDS["chain"][0],
    "integer (36, 24, 8, 18, 13)": WALK_KINDS["integer"][0],
}


def _padded(exps, width):
    assert not any(exps[width:])
    return exps[:width] + (0,) * (width - len(exps))


class TestOrderedWalk:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(WALK_KINDS)), k=st.integers(-3, 100))
    def test_enumeration_equals_sorted_reference(self, kind, k):
        delta, make = WALK_KINDS[kind]
        assert enumerate_upto(delta, make(k)) == reference_enumerate(delta, make(k))

    @pytest.mark.parametrize("kind", sorted(WALK_KINDS))
    def test_unbounded_walk_prefix(self, kind):
        delta, make = WALK_KINDS[kind]
        ref = reference_enumerate(delta, make(100))
        got = list(islice(walk(delta), len(ref)))
        assert [v for v, _ in got] == [v for v, _ in ref]
        for (_, rep), (_, want) in zip(got, ref):
            if kind == "chain":
                # The walk may use a different stage than the bound's.
                assert _padded(rep.exponents, len(want.exponents)) == want.exponents
            else:
                assert rep == want

    @pytest.mark.parametrize("name", sorted(FIXTURE_FAMILIES))
    def test_lazy_walk_equals_the_eager_walk(self, name):
        """The first 300 members and their representations, trailing zeros
        and bounds included, as the walk that built each window whole."""
        delta = FIXTURE_FAMILIES[name]
        assert list(islice(walk(delta), 300)) == list(islice(walk_eager(delta), 300))

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLANAR_FAMILIES)),
        x=st.integers(-3, 90),
        y=st.integers(-40, 40),
    )
    def test_planar_walk_equals_the_tuple_walk(self, name, x, y):
        """Head members along u plus copies of the last vector, against an
        exhaustive walk over all bounded tuples of the generators."""
        delta = PLANAR_FAMILIES[name]
        bound = LexValue(x, y)
        assert enumerate_upto(delta, bound) == reference_enumerate(delta, bound)

    def test_chain_bound_decides_the_representation_length(self):
        chain = build_type_e((11, 9), 0)
        short = enumerate_upto(chain, RatValue(Fraction(1)))
        long = enumerate_upto(chain, RatValue(Fraction(3)))
        assert len(short[-1][1].exponents) < len(long[-1][1].exponents)
        assert long == reference_enumerate(chain, RatValue(Fraction(3)))

    def test_enumeration_is_a_list(self):
        assert isinstance(enumerate_upto(DZ2, LexValue(12, 3)), list)


# --- the CLI listing on integer rows against the value-object path ------------

CLI_DELTAS = {
    "integer": "type = N\nunder = 36 24 8 18 13\n",
    "planar": "type = C\nunder = 36 24 8 18 13\n",
    "quadratic": "type = D\nunder = 36 24 8 18 13\ndigits = 20 5 2\n",
    "chain": "type = E\nunder = 11 9\nsteps = 2\n",
}


def _bound_text(value):
    if isinstance(value, LexValue):
        return f"{value.x} {value.y}"
    if isinstance(value, QuadValue):
        return f"{value.r} {value.m}"
    return str(value.value)


def cli_listing(kind, bound):
    text = f"[field]\np = 7\n[delta]\n{CLI_DELTAS[kind]}[job]\nbound = {_bound_text(bound)}\n"
    return run(parse_config(text).replace(command="semigroup"))


def listed_rows(delta, bound):
    """``rows_upto`` with its windows joined as rows: (scale, rows), each
    entry (r, q, tail) of an integer or chain block (base, k, entries) the
    row (base + r, k - q, tail)."""
    scale, windows = semigroup_module.rows_upto(delta, bound)
    if isinstance(delta, (DeltaN, DeltaQ)):
        return scale, [
            (base + r, k - q, tail) for base, k, entries in windows for r, q, tail in entries
        ]
    return scale, [row for window in windows for row in window]


def object_listing(delta, bound):
    return "".join(
        f"{render_value(v)} : {' '.join(map(str, rep.exponents))}\n"
        for v, rep in enumerate_upto(delta, bound)
    )


def _times(value, c):
    if isinstance(value, LexValue):
        return LexValue(value.x * c, value.y * c)
    if isinstance(value, QuadValue):
        return QuadValue(value.r * c, value.m * c, value.tau)
    return RatValue(value.value * c)


def _appended(chain, count):
    """The generators the chain engine appends beyond the sequence's own."""
    stage, out = chain.stages[-1], []
    for _ in range(count):
        stage = extend_n(stage)
        out.append(Fraction(stage.deltas[-1], stage.deltas[1]))
    return out


@st.composite
def listing_bounds(draw):
    """A kind and a bound: anywhere (below zero too), a small multiple of a
    generator, or for the chain a point between two appended generators."""
    kind = draw(st.sampled_from(sorted(WALK_KINDS)))
    delta, make = WALK_KINDS[kind]
    where = draw(st.sampled_from(("any", "generator", "appended")))
    if where == "generator":
        return kind, _times(draw(st.sampled_from(generators(delta))), draw(st.integers(0, 3)))
    if where == "appended" and kind == "chain":
        appended = _appended(delta, 4)
        lo, hi = draw(st.sampled_from(list(zip(appended, appended[1:]))))
        return kind, RatValue(lo + (hi - lo) * Fraction(draw(st.integers(0, 16)), 16))
    return kind, make(draw(st.integers(-30, 100)))


class TestRowListing:
    def test_configs_build_the_walk_kinds(self):
        for kind, (delta, _) in WALK_KINDS.items():
            text = f"[field]\np = 7\n[delta]\n{CLI_DELTAS[kind]}"
            assert cli_build_delta(parse_config(text)) == delta

    @settings(max_examples=60, deadline=None)
    @given(case=listing_bounds())
    def test_cli_text_equals_the_value_object_path(self, case):
        kind, bound = case
        delta, _ = WALK_KINDS[kind]
        assert cli_listing(kind, bound) == object_listing(delta, bound)


# --- the quadratic order on an exact key, and engines owned by their sequence --

QUADRATIC_FAMILIES = {
    name: delta for name, delta in FIXTURE_FAMILIES.items() if isinstance(delta, DeltaR)
}


def quadratic_windows(delta, count):
    """The listing's sub-windows, one block each, up to the ``count``-th
    member: (bound, scale, blocks)."""
    bound = next(islice(walk(delta), count - 1, None))[0]
    scale, blocks = semigroup_module.rows_upto(delta, bound)
    return bound, scale, list(blocks)


def exact_keys(delta, scale, rows):
    """floor(den * value * 2**shift) of each row, computed in QuadExt
    arithmetic, with shift taken from the rows as the bound in
    ``_QuadraticEngine.sort`` states it: 2**shift > 2 max |B| (isqrt(d) +
    1), where den * value = A + B sqrt(d)."""
    tau = delta.tail
    den = lcm(scale, tau.a.denominator, tau.b.denominator)
    b_max = max(abs(m * tau.b * den) for _, _, _, m in rows)
    shift = int(2 * b_max * (isqrt(tau.d) + 1)).bit_length()
    return [
        ((tau * m + Fraction(v, scale)) * den * 2**shift).floor() for v, _, _, m in rows
    ]


# Quadratic families over five heads and three radicands.
FAR_QUADRATICS = [
    (under, digits, radicand)
    for under, digits in [
        ((11, 9), (80, 1, 2)),
        ((7, 5), (28, 3, 1)),
        ((5, 3), (6, 1, 1)),
        ((36, 24, 8, 18, 13), (15, 2, 1)),
        ((36, 24, 8, 18, 13), (20, 5, 2)),
    ]
    for radicand in (2, 5, 13)
]


class TestExactQuadraticKey:
    @pytest.mark.parametrize(
        "d,x,y", [(2, 17, 12), (2, 577, 408), (3, 26, 15), (3, 362, 209), (13, 649, 180)]
    )
    def test_pell_pairs_keep_their_order(self, d, x, y):
        """Two members come closest when dA^2 - dB^2 d = 1 (a Pell pair):
        then dA - dB sqrt(d) = 1 / (dA + dB sqrt(d)), the bound in ``sort``
        at its tightest.  With tau = sqrt(d), den * value = v + m sqrt(d): the
        rows (x, m) and (0, m + y) for m = 1..20, the larger one first, sort
        as one sub-window in strict order."""
        eng = SimpleNamespace(tau=QuadExt(Fraction(0), Fraction(1), d), den=1, scale=1)
        found = [[] for _ in range(y + 21)]
        for m in range(1, 21):
            found[m].append((x, 0, ()))
            found[m + y].insert(0, (0, 0, ()))
        # each run one sweep block at base 0, its entries (r, q, tail) = (v, 0, ())
        rows = semigroup_module._QuadraticEngine.sort(
            eng, [(m, iter([(0, 0, run)])) for m, run in enumerate(found)]
        )
        values = [QuadValue(Fraction(v), m, eng.tau) for v, _, _, m in rows]
        assert len(values) == 40
        assert all(compare(a, b) < 0 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "under,digits,radicand",
        FAR_QUADRATICS,
        ids=[f"{under}-{digits}-sqrt{d}" for under, digits, d in FAR_QUADRATICS],
    )
    def test_members_far_from_zero_are_in_strict_order(self, under, digits, radicand):
        """The shift has no term in the members' size.  The last three
        sub-windows of the listing up to 40 + 30 tau (thousands of members,
        up to 30 copies of tau), and one sort of rows near 10**12 with 30
        copies, each rise strictly under ``compare``."""
        delta = build_type_d(under, digits, radicand)
        eng = semigroup_module._engine(delta)
        _, blocks = semigroup_module.rows_upto(delta, QuadValue(Fraction(40), 30, delta.tail))
        far = list(deque(blocks, maxlen=3))
        assert sum(map(len, far)) > 100
        runs = []
        for m in range(30):
            # the head values v whose member with m copies lies near 10**12
            centre = ((QuadExt(Fraction(10**12), Fraction(0), radicand) - delta.tail * m)
                      * eng.scale).floor()
            runs.append((m, iter([(centre - 20, 0, [(r, 0, ()) for r in range(41)])])))
        far.append(eng.sort(runs))
        assert len(far[-1]) == 30 * 41
        for rows in far:
            values = [v for v, _ in eng.values(rows)]
            assert all(compare(a, b) < 0 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("name", sorted(QUADRATIC_FAMILIES))
    def test_window_keys_are_distinct_and_the_order_is_exact(self, name):
        """Over the listing's sub-windows holding the first 300 members, the
        keys the bound allows rise strictly along each sub-window, and the
        joined sub-windows list what the sorted reference lists."""
        delta = QUADRATIC_FAMILIES[name]
        bound, scale, blocks = quadratic_windows(delta, 300)
        listed = []
        for rows in blocks:
            keys = exact_keys(delta, scale, rows)
            assert all(a < b for a, b in zip(keys, keys[1:])), rows[0]
            listed += [(Fraction(v, scale), m, (c, *tail, m)) for v, c, tail, m in rows]
        expected = reference_enumerate(delta, bound)
        assert listed == [(v.r, v.m, rep.exponents) for v, rep in expected]

    @pytest.mark.parametrize(
        "bound",
        [QuadValue(Fraction(5), 0, DR_BIG.tail), QuadValue(Fraction(3, 4), 1, DR_BIG.tail)],
        ids=["790 members up to 5", "15 members up to 3/4 + tau"],
    )
    def test_listings_of_many_copies_of_tau_are_exact(self, bound):
        """The two windows that once needed the tie repair: up to 5 (790
        members with 6 integer parts) and up to 3/4 + tau, where a member
        with 4 copies of tau lies just below one with 1 copy."""
        scale, rows = listed_rows(DR_BIG, bound)
        keys = exact_keys(DR_BIG, scale, rows)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert enumerate_upto(DR_BIG, bound) == reference_enumerate(DR_BIG, bound)
        assert cli_listing("quadratic", bound) == object_listing(DR_BIG, bound)


# --- sub-windows against the whole-window merge ---------------------------------

# (11, 9) extended once with z = 64: the first stage (704, 576, 577), then
# stages of the default z; its first 400 members span five stages.
CH_WIDE_Z = build_type_e((11, 9), 1, [(64, 577)])

# Every planar and quadratic fixture family, integer sequences and chains
# (one with its own choices), with the config that builds each.
WINDOW_CONFIGS = {
    "DZ119": "type = C\nunder = 11 9\n",
    "DZ53": "type = C\nunder = 5 3\n",
    "DZ75": "type = C\nunder = 7 5\n",
    "DZ2029": "type = C\nunder = 20 8 29\n",
    "DZ427": "type = C\nunder = 42 30 70 77\n",
    "DZ_BIG": "type = C\nunder = 36 24 8 18 13\n",
    "DR119": "type = D\nunder = 11 9\ndigits = 80 1 2\n",
    "DR75": "type = D\nunder = 7 5\ndigits = 28 3 1\n",
    "DR_BIG_A": "type = D\nunder = 36 24 8 18 13\ndigits = 20 5 2\n",
    "DR_BIG_B": "type = D\nunder = 36 24 8 18 13\ndigits = 15 2 1\n",
    "DN_BIG": "type = N\nunder = 36 24 8 18 13\n",
    "DN32": "type = N\nunder = 3 2\n",
    "CH119_2": "type = E\nunder = 11 9\nsteps = 2\n",
    "CH119_6": "type = E\nunder = 11 9\nsteps = 6\n",
    "CH_WIDE_Z": "type = E\nunder = 11 9\nsteps = 1\nchoices = 64 577\n",
}
WINDOW_FAMILIES = {
    **{name: getattr(helpers, name) for name in WINDOW_CONFIGS if hasattr(helpers, name)},
    "DN_BIG": validate_n(helpers.UNDER_BIG),
    "DN32": validate_n((3, 2)),
    "CH119_2": build_type_e(helpers.UNDER_119, 2),
    "CH119_6": build_type_e(helpers.UNDER_119, 6),
    "CH_WIDE_Z": CH_WIDE_Z,
}
# The families with a free generator, whose sub-windows the engine sorts.
FREE_FAMILIES = sorted(
    name for name, delta in WINDOW_FAMILIES.items() if isinstance(delta, (DeltaZ2, DeltaR))
)
CHAIN_FAMILIES = sorted(
    name for name, delta in WINDOW_FAMILIES.items() if isinstance(delta, DeltaQ)
)


def _scaled(value, t: Fraction):
    """t times a value, t >= 0 rational; a planar value is rounded down to
    integer components."""
    if isinstance(value, LexValue):
        return LexValue(floor(value.x * t), floor(value.y * t))
    if isinstance(value, RatValue):
        return RatValue(value.value * t)
    return QuadValue(value.r * t, floor(value.m * t), value.tau)


def _nudged(value, step: int):
    """A value just above (step > 0) or below (step < 0) the given one."""
    if isinstance(value, LexValue):
        return LexValue(value.x, value.y + step)
    if isinstance(value, RatValue):
        return RatValue(value.value + Fraction(step, 10**6))
    return QuadValue(value.r + Fraction(step, 10**6), value.m, value.tau)


def _edge(delta, k: int):
    """The upper end of sub-window k - 1: k times the first generator."""
    return _scaled(generators(delta)[0], Fraction(k))


def window_bounds(name):
    """A bound anywhere from below zero to eight first generators out, with
    up to three copies of tau for the quadratic kind, and for a chain also
    between two of its first four appended generators."""
    delta = WINDOW_FAMILIES[name]
    g0 = generators(delta)[0]
    scale = st.fractions(-1, 8, max_denominator=40)
    if isinstance(g0, LexValue):
        return st.builds(
            lambda t, y: LexValue(floor(g0.x * t), y), scale, st.integers(-30, 30)
        )
    if isinstance(g0, QuadValue):
        return st.builds(lambda t, m: QuadValue(g0.r * t, m, g0.tau), scale, st.integers(0, 3))
    bounds = st.builds(lambda t: RatValue(g0.value * t), scale)
    if isinstance(delta, DeltaQ):
        appended = _appended(delta, 4)
        between = st.builds(
            lambda pair, t: RatValue(pair[0] + (pair[1] - pair[0]) * t),
            st.sampled_from(list(zip(appended, appended[1:]))),
            st.fractions(0, 1, max_denominator=16),
        )
        bounds = st.one_of(bounds, between)
    return bounds


def window_cli_listing(name, bound):
    text = f"[field]\np = 7\n[delta]\n{WINDOW_CONFIGS[name]}[job]\nbound = {_bound_text(bound)}\n"
    return run(parse_config(text).replace(command="semigroup"))


def rendered(pairs):
    return "".join(
        f"{render_value(v)} : {' '.join(map(str, rep.exponents))}\n" for v, rep in pairs
    )


def sub_window(delta, value) -> int:
    """The k whose sub-window (k g_0, (k + 1) g_0] holds the value, zero in
    sub-window 0."""
    k = 0
    while compare(value, _edge(delta, k + 1)) > 0:
        k += 1
    return k


def spy_sorts(monkeypatch, delta):
    """Every list of rows the engine's ``sort`` returns, as it returns it."""
    kind = type(semigroup_module._engine(delta))
    original, sorted_rows = kind.sort, []

    def sort(self, runs):
        rows = original(self, runs)
        sorted_rows.append(rows)
        return rows

    monkeypatch.setattr(kind, "sort", sort)
    return sorted_rows


class TestSubWindows:
    def test_configs_build_the_head_families(self):
        for name, text in WINDOW_CONFIGS.items():
            config = parse_config(f"[field]\np = 7\n[delta]\n{text}")
            assert cli_build_delta(config) == WINDOW_FAMILIES[name]

    @settings(max_examples=160, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(WINDOW_CONFIGS)))
    def test_listing_equals_the_whole_window(self, data, name):
        """``rows_upto``, ``enumerate_upto`` and the CLI text up to a bound
        anywhere, below zero too, as the window merged whole."""
        delta, bound = WINDOW_FAMILIES[name], data.draw(window_bounds(name))
        scale, rows = listed_rows(delta, bound)
        assert (scale, rows) == oracles.head_window(delta, None, bound)
        expected = window_listing(delta, None, bound)
        assert enumerate_upto(delta, bound) == expected
        assert window_cli_listing(name, bound) == rendered(expected)

    @pytest.mark.parametrize("name", sorted(WINDOW_CONFIGS))
    def test_bounds_on_and_beside_a_sub_window_edge(self, name):
        delta = WINDOW_FAMILIES[name]
        for k in range(6):
            edge = _edge(delta, k)
            for bound in (edge, _nudged(edge, 1), _nudged(edge, -1)):
                expected = window_listing(delta, None, bound)
                assert enumerate_upto(delta, bound) == expected, bound
                assert window_cli_listing(name, bound) == rendered(expected), bound

    @pytest.mark.parametrize("name", CHAIN_FAMILIES)
    def test_bounds_on_and_beside_an_appended_generator(self, name):
        """At each of the first three generators the chain appends, the
        listing moves to the next stage."""
        delta = WINDOW_FAMILIES[name]
        for generator in _appended(delta, 3):
            edge = RatValue(generator)
            for bound in (edge, _nudged(edge, 1), _nudged(edge, -1)):
                expected = window_listing(delta, None, bound)
                assert listed_rows(delta, bound) == oracles.head_window(delta, None, bound)
                assert enumerate_upto(delta, bound) == expected, bound
                assert window_cli_listing(name, bound) == rendered(expected), bound

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(WINDOW_CONFIGS)))
    def test_a_window_of_the_listing_equals_the_whole_window(self, data, name):
        """The members above lo of the listing up to hi, for random lo < hi,
        are the window (lo, hi] merged whole."""
        delta = WINDOW_FAMILIES[name]
        lo, hi = sorted(
            (data.draw(window_bounds(name)), data.draw(window_bounds(name))),
            key=cmp_to_key(compare),
        )
        listed = [pair for pair in enumerate_upto(delta, hi) if compare(pair[0], lo) > 0]
        assert listed == window_listing(delta, lo, hi)

    @pytest.mark.parametrize("name", sorted(WINDOW_CONFIGS))
    def test_walk_prefix_equals_the_eager_walk(self, name):
        delta = WINDOW_FAMILIES[name]
        assert list(islice(walk(delta), 2000)) == list(islice(walk_eager(delta), 2000))

    def test_negative_y_members_are_listed_in_order(self):
        """DZ427's last vector lies below the x axis, so many members do too."""
        delta = WINDOW_FAMILIES["DZ427"]
        bound = _edge(delta, 20)
        listed = enumerate_upto(delta, bound)
        assert sum(v.y < 0 for v, _ in listed) > 100
        assert listed == window_listing(delta, None, bound)
        assert listed == reference_enumerate(delta, bound)

    def test_a_generator_on_the_y_axis_raises_before_any_block(self):
        ams = build_type_c((6, 3, 1))
        with pytest.raises(DomainError, match="infinite"):
            semigroup_module.rows_upto(ams, LexValue(3, 3))
        with pytest.raises(DomainError, match="infinite"):
            next(walk(ams))

    @pytest.mark.parametrize("name", FREE_FAMILIES)
    def test_no_sort_spans_more_than_one_sub_window(self, name, monkeypatch):
        """Each list the engine sorts, in the listing and in the walk, holds
        members of one sub-window, one list per sub-window in turn."""
        delta = WINDOW_FAMILIES[name]
        eng = semigroup_module._engine(delta)
        sorted_rows = spy_sorts(monkeypatch, delta)
        enumerate_upto(delta, _nudged(_edge(delta, 7), -1))

        def windows():
            return [
                [sub_window(delta, v) for v, _ in eng.values(rows)]
                for rows in sorted_rows
            ]

        assert windows() == [[k] * len(w) for k, w in enumerate(windows())]
        assert len(sorted_rows) == 7
        sorted_rows.clear()
        list(islice(walk(delta), 500))
        assert windows() == [[k] * len(w) for k, w in enumerate(windows())]

    def test_the_walk_doubles_its_tail_table(self, monkeypatch):
        """DZ427's head (21, 15, 35) has 21 tails, the largest sum 160: a long
        walk builds its table up to 21 (the first sub-window's top), 42, 84
        and 168, then never again, where growing it one sub-window at a time
        would build it eight times."""
        extents, original = [], semigroup_module._tail_table

        def spy(head, hi, label=None):
            extents.append(hi)
            return original(head, hi, label)

        monkeypatch.setattr(semigroup_module, "_tail_table", spy)
        assert len(list(islice(walk(build_type_c(helpers.UNDER_427)), 3000))) == 3000
        assert extents == [21, 42, 84, 168]

    def test_a_walk_builds_no_row_past_the_sub_window_of_its_last_member(self, monkeypatch):
        """A 62-member walk of dr_big_a (the walk-wide job's rank bound)
        sorts the sub-windows up to the one that holds its 62nd member, and
        builds no row above that sub-window's upper end."""
        delta = build_type_d(helpers.UNDER_BIG, (20, 5, 2))
        eng = semigroup_module._engine(delta)
        sorted_rows = spy_sorts(monkeypatch, delta)
        last = list(islice(walk(delta), 62))[-1][0]
        upper = _edge(delta, sub_window(delta, last) + 1)
        built = [v for rows in sorted_rows for v, _ in eng.values(rows)]
        assert len(sorted_rows) == sub_window(delta, last) + 1
        assert all(compare(v, upper) <= 0 for v in built)


class TestChainWalk:
    def test_the_walk_equals_the_eager_walk_across_stages(self):
        """Each member's representation has the width of the stage that
        covers the upper end of its own sub-window."""
        walked = list(islice(walk(CH_WIDE_Z), 400))
        assert walked == list(islice(walk_eager(CH_WIDE_Z), 400))
        assert len({len(rep.exponents) for _, rep in walked}) > 3

    def test_the_walk_reads_a_value_only_where_it_enters_a_stage(self, monkeypatch):
        """The walk runs on integer tops: it asks for the stage that covers
        a sub-window's upper end once at the start and then only where that
        stage changes, so every stage it is given is a new one."""
        kind, given = semigroup_module._ChainEngine, []
        original = kind.stage

        def stage(self, value):
            found = original(self, value)
            given.append(found[0])
            return found

        monkeypatch.setattr(kind, "stage", stage)
        walked = list(islice(walk(build_type_e((11, 9), 1, [(64, 577)])), 400))
        assert len(given) == len(set(given)) > 3
        assert len(given) >= len({len(rep.exponents) for _, rep in walked})

    def test_tail_tables_stay_within_twice_the_top(self, monkeypatch):
        """Every table the walk builds is the head of the stage that covers
        the upper end of the sub-window it is built for, (k + 1) g_0, and
        reaches no further than twice that sub-window's top, (k + 1)
        delta_0: the bound the doubling walk kept."""
        calls, walked, original = [], [], semigroup_module._tail_table

        def spy(head, hi, label=None):
            calls.append((len(walked), head, hi))
            return original(head, hi, label)

        monkeypatch.setattr(semigroup_module, "_tail_table", spy)
        for pair in islice(walk(CH_WIDE_Z), 400):
            walked.append(pair)
        eng, g0 = semigroup_module._engine(CH_WIDE_Z), generators(CH_WIDE_Z)[0].value
        for i, head, hi in calls:
            k = max(-(-walked[i][0].value // g0) - 1, 0)  # the next member's sub-window
            assert head is eng.covering_stage((k + 1) * g0)
            assert 0 <= hi <= 2 * (k + 1) * head.deltas[0], (i, hi)
        assert len({head for _, head, _ in calls}) > 3


class TestQuadraticFloors:
    """The quadratic engine's top and copies, on integers precomputed once per
    engine, against the formulas in Fractions they replace."""

    @pytest.mark.parametrize("name", [*sorted(QUADRATIC_FAMILIES), "negative-norm"])
    def test_top_and_copies_equal_the_fraction_formulas(self, name):
        if name == "negative-norm":
            # tau = sqrt(2) - 1, whose conjugate is negative: no family here
            # has one, and the engine's arithmetic needs only tau itself
            delta = DeltaR(DR.head, QuadExt(Fraction(-1), Fraction(1), 2), DR.witness)
        else:
            delta = QUADRATIC_FAMILIES[name]
        eng = semigroup_module._engine(delta)
        tau, scale = eng.tau, eng.scale
        norm = tau.a * tau.a - tau.b * tau.b * tau.d
        rng = random.Random(2718)
        for _ in range(400):
            r = Fraction(rng.randrange(-5000, 5000), rng.choice([1, 2, 3, 7, scale, 97]))
            value = QuadValue(r, rng.randrange(-6, 7), tau)
            m = rng.randrange(-6, 7)  # k = value.m - m of either sign
            k = value.m - m
            top = floor_of((value.r + k * tau.a) * scale, k * tau.b * scale, tau.d)
            assert eng.top(value, m) == top, (value, m)
            copies = value.m + floor_of(r * tau.a / norm, -r * tau.b / norm, tau.d) + 1
            assert eng.copies(value) == copies, value


def _sequences():
    """A fresh sequence of each kind."""
    return {
        "integer": validate_n((11, 9)),
        "planar": build_type_c((11, 9)),
        "quadratic": build_type_d((11, 9), (80, 1, 2)),
        "chain": build_type_e((11, 9), 0),
    }


class TestEngineOwnership:
    @pytest.mark.parametrize("kind", ["integer", "planar", "quadratic", "chain"])
    def test_an_engine_is_freed_with_its_sequence(self, kind):
        """The engine lives in its sequence's slot, outside the value, and goes
        when the sequence goes; the chain's after its stage ladder grew."""
        delta = _sequences()[kind]
        members = list(islice(walk(delta), 300))
        engine = semigroup_module._engine(delta)
        assert delta._engine is engine and semigroup_module._engine(delta) is engine
        fresh = _sequences()[kind]
        assert fresh == delta and hash(fresh) == hash(delta) and repr(fresh) == repr(delta)
        assert not hasattr(fresh, "_engine")
        if kind == "chain":
            assert len(engine.ladder) > 1
        gone = weakref.ref(engine)
        del delta, engine, members
        gc.collect()
        assert gone() is None

    def test_an_unsupported_kind_is_rejected(self):
        with pytest.raises(DomainError, match="unsupported sequence kind"):
            generators((11, 9))
