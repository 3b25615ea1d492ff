"""Well-ordered semigroups generated by the four delta-sequence kinds."""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from math import floor, isqrt, lcm

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from deltacodes import semigroup as semigroup_module
from deltacodes.cli import _build_delta as cli_build_delta, parse_config, run
from deltacodes.codes import render_value
from deltacodes.deltaseq import DeltaN, telescopic_exponents, validate_n
from deltacodes.errors import DomainError
from deltacodes.genesis import (
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
    compare,
    enumerate_upto,
    generators,
    omega,
    represent,
    walk,
)

import helpers
from oracles import members_below, walk_eager

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
    """``rows_upto`` with its blocks joined: (scale, rows)."""
    scale, blocks = semigroup_module.rows_upto(delta, bound)
    return scale, [row for block in blocks for row in block]


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
    """The walk's windows (lo, hi] until they hold ``count`` members, each as
    (hi, scale, rows)."""
    lo, hi, total = None, generators(delta)[0], 0
    while total < count:
        scale, rows = listed_window(delta, lo, hi)
        yield hi, scale, rows
        total += len(rows)
        lo, hi = hi, QuadValue(hi.r * 2, hi.m * 2, hi.tau)


def listed_window(delta, lo, hi):
    scale, blocks = semigroup_module._engine(delta).blocks(lo, hi)
    return scale, [row for block in blocks for row in block]


def exact_keys(delta, scale, rows):
    """floor(value * 2**shift) of each row, computed in QuadExt arithmetic,
    with shift taken from the rows as the bound in ``_QuadraticEngine.blocks``
    states it: 2**shift > den * 2 (max |A| + max |B| (isqrt(d) + 1)), where
    den * value = A + B sqrt(d)."""
    tau = delta.tail
    den = lcm(scale, tau.a.denominator, tau.b.denominator)
    a_max = max(abs(v * (den // scale) + tail[-1] * tau.a * den) for v, _, tail in rows)
    b_max = max(abs(tail[-1] * tau.b * den) for _, _, tail in rows)
    shift = int(2 * den * (a_max + b_max * (isqrt(tau.d) + 1))).bit_length()
    return [((tau * tail[-1] + Fraction(v, scale)) * 2**shift).floor() for v, _, tail in rows]


class TestExactQuadraticKey:
    @pytest.mark.parametrize("name", sorted(QUADRATIC_FAMILIES))
    def test_window_keys_are_distinct_and_the_order_is_exact(self, name):
        """Over the walk's windows holding the first 300 members, the keys the
        bound allows rise strictly along each window, and the joined windows
        list what the sorted reference lists."""
        delta = QUADRATIC_FAMILIES[name]
        listed = []
        for hi, scale, rows in quadratic_windows(delta, 300):
            keys = exact_keys(delta, scale, rows)
            assert all(a < b for a, b in zip(keys, keys[1:])), hi
            listed += [
                (Fraction(v, scale), tail[-1], (c,) + tail) for v, c, tail in rows
            ]
        expected = reference_enumerate(delta, hi)
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
