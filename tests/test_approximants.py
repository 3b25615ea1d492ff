"""Sparse bivariate polynomials and the approximate families they form."""

from __future__ import annotations

from contextlib import ExitStack
from fractions import Fraction
from math import comb, prod
from unittest import mock

import pytest

import helpers
from deltacodes import approximants, codes, deltaseq, genesis, semigroup
from deltacodes.approximants import (
    MAX_EXPANSION_TERMS,
    BivarPoly,
    _base_sequence,
    build_approximates,
    expand_family,
    expansion_terms,
)
from deltacodes.deltaseq import validate_n
from deltacodes.errors import DomainError
from deltacodes.genesis import build_type_c, build_type_d, build_type_e
from deltacodes.gf import FieldSpec
from deltacodes.semigroup import LexValue, QuadValue, RatValue, generators
from oracles import basis_for, deg_y, enumerate_upto, poly_eval, prefix_row

F7 = FieldSpec(7)
F2 = FieldSpec(2)
F32 = FieldSpec(2, 5)


def poly(spec, mapping):
    return BivarPoly.from_coeffs(spec, mapping)


class TestBivarPoly:
    def test_zero_coefficients_dropped(self):
        p = poly(F7, {(1, 0): 1, (0, 1): 7, (2, 2): 0})
        assert dict(p.terms) == {(1, 0): F7.element(1)}

    def test_add_sub(self):
        x = poly(F7, {(1, 0): 1})
        y = poly(F7, {(0, 1): 1})
        s = x + y
        assert dict(s.terms) == {(1, 0): F7.element(1), (0, 1): F7.element(1)}
        assert not (s - s).terms

    def test_mul(self):
        p = poly(F7, {(1, 0): 2, (0, 1): 3})
        q = poly(F7, {(1, 0): 1, (0, 0): 5})
        r = p * q
        assert dict(r.terms) == {
            (2, 0): F7.element(2),
            (1, 0): F7.element(3),
            (1, 1): F7.element(3),
            (0, 1): F7.element(1),
        }

    def test_frobenius_in_characteristic_two(self):
        x_plus_y = poly(F2, {(1, 0): 1, (0, 1): 1})
        assert dict((x_plus_y**2).terms) == {
            (2, 0): F2.element(1),
            (0, 2): F2.element(1),
        }

    def test_pow_zero_is_one(self):
        p = poly(F7, {(1, 2): 3})
        assert dict((p**0).terms) == {(0, 0): F7.element(1)}

    def test_field_mismatch(self):
        with pytest.raises(DomainError, match="field mismatch"):
            poly(F7, {(1, 0): 1}) + poly(F2, {(1, 0): 1})

    def test_eval(self):
        q2 = poly(F7, {(0, 3): 1, (2, 0): -1})
        assert int(poly_eval(q2, (F7.element(2), F7.element(2)))) == 4
        one = poly(F7, {(0, 0): 1})
        for a in range(7):
            assert int(poly_eval(one, (F7.element(a), F7.element(a)))) == 1

    def test_eval_field_mismatch(self):
        p = poly(F7, {(1, 0): 1})
        with pytest.raises(DomainError, match="field mismatch"):
            poly_eval(p, (F2.element(1), F2.element(0)))

    def test_str_rendering(self):
        q2 = poly(F7, {(0, 3): 1, (2, 0): 6})
        assert str(q2) == "y^3 + 6*x^2"
        assert str(poly(F7, {(0, 0): 3})) == "3"
        assert str(poly(F7, {(1, 1): 1, (0, 0): 2})) == "x*y + 2"
        assert str(poly(F32, {(5, 0): 1, (0, 7): 1})) == "y^7 + x^5"
        assert str(poly(F7, {})) == "0"

    def test_hashable(self):
        a = poly(F7, {(1, 0): 1})
        b = poly(F7, {(1, 0): 1})
        assert a == b and hash(a) == hash(b)


class TestBuildApproximates:
    def test_integer_family_over_f7(self):
        fam = build_approximates(validate_n((36, 24, 8, 18, 13)), F7)
        polys = expand_family(fam)
        assert len(polys) == 5
        assert dict(polys[0].terms) == {(1, 0): F7.element(1)}
        assert dict(polys[1].terms) == {(0, 1): F7.element(1)}
        assert polys[2] == poly(F7, {(0, 3): 1, (2, 0): -1})
        assert polys[3] == poly(
            F7, {(0, 9): 1, (2, 6): -3, (4, 3): 3, (6, 0): -1, (0, 1): -1}
        )
        steps = fam.expansion
        assert [s.n for s in steps] == [3, 3, 2]
        assert steps[0].exponents == (2,)
        assert steps[1].exponents == (0, 1)
        assert steps[2].exponents == (1, 0, 0)
        assert fam.weights == tuple(
            RatValue(Fraction(v)) for v in (36, 24, 8, 18, 13)
        )

    def test_quadratic_family_gets_tail_poly(self):
        dr = build_type_d((36, 24, 8, 18, 13), (20, 5, 2))
        fam = build_approximates(dr, F7)
        polys = expand_family(fam)
        assert len(polys) == 6
        q2, q3, q4, q5 = polys[2:]
        assert q4 == q3**2 - polys[0]
        assert q5 == q4**2 - q2 * q3
        assert fam.expansion[-1].n == 2
        assert fam.expansion[-1].exponents == (0, 0, 1, 1)
        assert fam.weights[-1] == QuadValue(Fraction(0), 1, dr.tail)
        assert fam.weights[0] == QuadValue(Fraction(36, 24), 0, dr.tail)

    def test_quadratic_family_11_9(self):
        dr = build_type_d((11, 9), (80, 1, 2))
        fam = build_approximates(dr, F7)
        polys = expand_family(fam)
        assert len(polys) == 3
        assert polys[2] == poly(F7, {(0, 11): 1, (9, 0): -1})

    def test_chain_family_11_9(self):
        dq = build_type_e((11, 9), steps=3)
        fam = build_approximates(dq, F7)
        polys = expand_family(fam)
        assert len(polys) == 5
        q2, q3, q4 = polys[2:]
        assert q2 == poly(F7, {(0, 11): 1, (9, 0): -1})
        assert q3 == q2**2 - poly(F7, {(0, 3): 1})
        assert dict(q3.terms) == {
            (0, 22): F7.element(1),
            (9, 11): F7.element(5),
            (18, 0): F7.element(1),
            (0, 3): F7.element(6),
        }
        assert q4 == q3**2 - poly(F7, {(0, 3): 1}) * q2
        assert [s.exponents for s in fam.expansion] == [(9,), (0, 3), (0, 3, 1)]
        assert fam.weights == tuple(
            RatValue(Fraction(n, 72)) for n in (88, 72, 108, 162, 243)
        )

    def test_planar_family_over_f32(self):
        dz = build_type_c((42, 30, 70, 77))
        fam = build_approximates(dz, F32)
        polys = expand_family(fam)
        assert polys[2] == poly(F32, {(0, 7): 1, (5, 0): 1})
        assert dict(polys[3].terms) == {
            (0, 21): F32.element(1),
            (5, 14): F32.element(1),
            (10, 7): F32.element(1),
            (15, 0): F32.element(1),
            (5, 0): F32.element(1),
        }
        assert fam.weights[0] == LexValue(21, 0)
        assert fam.weights[3] == LexValue(39, -1)

    def test_y_degree_growth(self):
        for fam in (
            build_approximates(validate_n((36, 24, 8, 18, 13)), F7),
            build_approximates(build_type_e((11, 9), steps=3), F7),
            build_approximates(build_type_c((42, 30, 70, 77)), F32),
        ):
            polys = expand_family(fam)
            for step, (prev, new) in zip(
                fam.expansion, zip(polys[1:], polys[2:])
            ):
                assert new.terms
                assert deg_y(new) == step.n * deg_y(prev)

    def test_explicit_depth(self):
        fam = build_approximates(validate_n((36, 24, 8, 18, 13)), F7, depth=2)
        polys = expand_family(fam)
        assert len(polys) == 3
        with pytest.raises(DomainError, match="depth exceeds the generator count"):
            build_approximates(validate_n((36, 24, 8, 18, 13)), F7, depth=5)
        with pytest.raises(DomainError, match="depth must be at least 1"):
            build_approximates(validate_n((11, 9)), F7, depth=0)


# Every family the tests build: the fixture families, the ones built in this
# module and in the semigroup and command-line tests, and the chain (11, 9)
# with 6 steps that the benchmark lists.
FAMILIES = {
    **{
        name: getattr(helpers, name)
        for name in dir(helpers)
        if name.startswith(("DN", "DZ", "DR", "CH"))
    },
    "N big": validate_n((36, 24, 8, 18, 13)),
    "N 11 9": validate_n((11, 9)),
    "C big": build_type_c((36, 24, 8, 18, 13)),
    "C 42 30 70 77": build_type_c((42, 30, 70, 77)),
    "D big": build_type_d((36, 24, 8, 18, 13), (20, 5, 2)),
    "D 11 9": build_type_d((11, 9), (80, 1, 2)),
    "E 11 9, 0 steps": build_type_e((11, 9), steps=0),
    "E 11 9, 2 steps": build_type_e((11, 9), steps=2),
    "E 11 9, 3 steps": build_type_e((11, 9), steps=3),
    "E 11 9, 6 steps": build_type_e((11, 9), steps=6),
    "E 3 1, 0 steps": build_type_e((3, 1), steps=0),
    "E 3 1, chosen": build_type_e((3, 1), 2, ((2, 5), (2, 19))),
}


class TestExpansionRows:
    """``validate_n`` keeps the exponent rows that condition (2) found, and
    ``build_approximates`` reads them instead of validating each prefix
    again."""

    @staticmethod
    def prefix_rows(base):
        return tuple(prefix_row(base, i) for i in range(1, base.g + 1))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_structure_rows_equal_the_prefix_rows(self, name):
        base = _base_sequence(FAMILIES[name])
        assert base.structure.rows == self.prefix_rows(base)

    @pytest.mark.parametrize(
        "under", [(7, 5), (11, 9), (3, 1), (36, 24, 8, 18, 13)], ids=str
    )
    def test_150_step_chains(self, under):
        chain = build_type_e(under, 150)
        base = chain.stages[-1]
        assert base.structure.rows == self.prefix_rows(base)
        # the family ends at q_g, so the row of n_g * delta_g goes unused
        steps = build_approximates(chain, F7).expansion
        expected = list(zip(base.structure.n, base.structure.rows))[:-1]
        assert [(s.n, s.exponents) for s in steps] == expected

    def test_building_validates_nothing(self):
        """Once a sequence's engine is built (the planar one validates its
        head), building its family calls neither ``validate_n`` nor
        ``telescopic_exponents``, under any name they are imported by."""
        calls = []

        def spy(name):
            return lambda *args: calls.append(name)

        for delta in FAMILIES.values():
            generators(delta)
        with ExitStack() as stack:
            for module in (approximants, codes, deltaseq, genesis, semigroup):
                for name in ("validate_n", "telescopic_exponents", "_descend"):
                    if hasattr(module, name):
                        stack.enter_context(mock.patch.object(module, name, spy(name)))
            for delta in FAMILIES.values():
                for depth in range(1, len(generators(delta))):
                    build_approximates(delta, F7, depth)
        assert calls == []


def _total_degree(p):
    return max(ex + ey for (ex, ey), _ in p.terms)


class TestExpandFamily:
    @pytest.mark.parametrize("spec", [F7, F32], ids=["F7", "F32"])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_each_approximant_is_monic_in_y(self, name, spec):
        """q_i is monic in y of degree n_1 ... n_{i-1}, so no q_{i+1} is
        zero (the argument in ``build_approximates``)."""
        fam = build_approximates(FAMILIES[name], spec)
        polys = expand_family(fam)
        assert len(polys) == len(fam.weights)
        ns = [step.n for step in fam.expansion]
        for i, q in enumerate(polys[1:], start=1):
            degree = prod(ns[: i - 1])
            assert deg_y(q) == degree
            assert [key for key, _ in q.terms if key[1] == degree] == [(0, degree)]
            assert dict(q.terms)[(0, degree)] == spec.one

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_the_estimate_bounds_the_terms_and_stays_under_the_limit(self, name):
        """Each degree follows the recurrence's bound, each term count is at
        most C(D + 2, 2), and every family the tests expand is under the
        limit."""
        fam = build_approximates(FAMILIES[name], F32)
        polys = expand_family(fam)
        degrees = [1, 1]
        for i, step in enumerate(fam.expansion, start=1):
            product = sum(a * d for a, d in zip(step.exponents, degrees))
            degrees.append(max(step.n * degrees[i], product))
        for q, degree in zip(polys, degrees):
            assert _total_degree(q) <= degree
            assert len(q.terms) <= comb(degree + 2, 2)
        assert expansion_terms(fam) == sum(comb(d + 2, 2) for d in degrees)
        assert expansion_terms(fam) <= MAX_EXPANSION_TERMS

    def test_the_limit_falls_between_six_and_seven_chain_steps(self):
        """The chain (12, 8, 6, 9), the steepest measured: 0.17 s to expand
        at 6 steps, 3.1 s at 7."""
        six = build_approximates(build_type_e((12, 8, 6, 9), 6), F32)
        seven = build_approximates(build_type_e((12, 8, 6, 9), 7), F32)
        assert expansion_terms(six) == 99_464 <= MAX_EXPANSION_TERMS
        assert expansion_terms(seven) == 395_529 > MAX_EXPANSION_TERMS
        with pytest.raises(DomainError, match="an estimated 395529 terms exceed"):
            expand_family(seven)


class TestBasisFor:
    def test_planar_prefix(self):
        dz = build_type_c((11, 9))
        fam = build_approximates(dz, F7)
        basis = basis_for(dz, fam, LexValue(8, 2))
        assert [b.exponents for b in basis] == [(0, 0), (0, 1), (1, 0), (0, 2)]
        assert [b.weight for b in basis] == [
            LexValue(0, 0),
            LexValue(4, 1),
            LexValue(5, 1),
            LexValue(8, 2),
        ]
        assert basis[0].expanded == poly(F7, {(0, 0): 1})
        assert basis[2].expanded == poly(F7, {(1, 0): 1})

    def test_planar_through_13_3(self):
        dz = build_type_c((11, 9))
        fam = build_approximates(dz, F7)
        basis = basis_for(dz, fam, LexValue(13, 3))
        assert len(basis) == 8
        assert basis[0].exponents == (0, 0)
        assert basis[-1].exponents == (1, 2)
        nonzero = [b.exponents for b in basis[1:]]
        assert nonzero == [
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
            (0, 3),
            (1, 2),
        ]

    def test_zero_gives_constant(self):
        dz = build_type_c((11, 9))
        fam = build_approximates(dz, F7)
        basis = basis_for(dz, fam, LexValue(0, 0))
        assert len(basis) == 1
        assert basis[0].expanded == poly(F7, {(0, 0): 1})

    def test_counts_match_enumeration(self):
        dz = build_type_c((11, 9))
        fam = build_approximates(dz, F7)
        for bound in (LexValue(12, 3), LexValue(21, 5)):
            basis = basis_for(dz, fam, bound)
            assert len(basis) == len(enumerate_upto(dz, bound))
            weights = [b.weight for b in basis]
            assert len(set(weights)) == len(weights)

    def test_products_expand_correctly(self):
        dq = build_type_e((11, 9), steps=2)
        fam = build_approximates(dq, F7)
        polys = expand_family(fam)
        basis = basis_for(dq, fam, RatValue(Fraction(3)))
        by_exp = {b.exponents: b for b in basis}
        three_halves = by_exp[(0, 0, 1, 0)]
        assert three_halves.weight == RatValue(Fraction(3, 2))
        assert three_halves.expanded == polys[2]
        assert by_exp[(0, 0, 0, 1)].expanded == polys[3]
        mixed = by_exp[(1, 0, 1, 0)]
        assert mixed.weight == RatValue(Fraction(49, 18))
        assert mixed.expanded == polys[0] * polys[2]

    def test_chain_depth_insufficient(self):
        dq = build_type_e((11, 9), steps=0)
        fam = build_approximates(dq, F7)
        with pytest.raises(DomainError, match="extend prefix"):
            basis_for(dq, fam, RatValue(Fraction(3, 2)))

    def test_quadratic_basis(self):
        dr = build_type_d((11, 9), (80, 1, 2))
        fam = build_approximates(dr, F7)
        polys = expand_family(fam)
        bound = QuadValue(Fraction(0), 2, dr.tail)
        basis = basis_for(dr, fam, bound)
        exps = [b.exponents for b in basis]
        assert (0, 0, 1) in exps
        assert (0, 0, 2) in exps
        tau_elem = next(b for b in basis if b.exponents == (0, 0, 1))
        assert tau_elem.expanded == polys[2]
