"""Construction of planar, quadratic-irrational, and rational delta-sequences."""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from deltacodes import deltaseq, genesis
from deltacodes.deltaseq import DeltaN, validate_n
from deltacodes.errors import DomainError
from deltacodes.genesis import (
    DeltaQ,
    DeltaR,
    DeltaZ2,
    QuadExt,
    build_type_c,
    build_type_d,
    build_type_e,
    cf_eval,
    extend_n,
    sqrt_of,
)

import oracles

SQRT3 = sqrt_of(3)


def quad(a, b, d=3):
    return QuadExt(Fraction(a), Fraction(b), d)


class TestQuadExt:
    def test_arithmetic(self):
        one_plus = quad(1, 1)
        one_minus = quad(1, -1)
        assert one_plus * one_minus == quad(-2, 0)
        x = quad(1, 3)  # 1 + 3*sqrt(3)
        assert x * x.inverse() == quad(1, 0)
        assert x.inverse() == quad(Fraction(-1, 26), Fraction(3, 26))

    def test_documented_folds(self):
        assert (SQRT3 * 2 + 1) / (SQRT3 * 3 + 1) == quad(Fraction(17, 26), Fraction(1, 26))
        assert (SQRT3 * 2 + 1) / (SQRT3 * 11 + 5) == quad(Fraction(61, 338), Fraction(1, 338))
        assert (SQRT3 + 1) / (SQRT3 * 4 + 3) == quad(Fraction(9, 39), Fraction(1, 39))
        folded = (SQRT3 + 1) / (SQRT3 * 2 + 2)
        assert folded.is_rational and folded == quad(Fraction(1, 2), 0)

    def test_comparisons(self):
        assert Fraction(1732050, 1000000) < SQRT3 < Fraction(1732051, 1000000)
        assert quad(0, -1) < quad(Fraction(-17, 10), 0) < quad(2, -2)
        assert not SQRT3 < SQRT3
        assert SQRT3 <= SQRT3

    def test_sign_matches_high_precision(self):
        rng = random.Random(11)
        with mpmath.workdps(50):
            for _ in range(1000):
                a = Fraction(rng.randrange(-50, 51), rng.randrange(1, 30))
                b = Fraction(rng.randrange(-50, 51), rng.randrange(1, 30))
                d = rng.choice([2, 3, 5, 7, 11])
                v = QuadExt(a, b, d)
                approx = mpmath.mpf(a.numerator) / a.denominator + (
                    mpmath.mpf(b.numerator) / b.denominator
                ) * mpmath.sqrt(d)
                expected = 0 if approx == 0 else (1 if approx > 0 else -1)
                assert v.sign() == expected

    def test_validation(self):
        for bad in (4, 12, 1, 0, -3):
            with pytest.raises(DomainError):
                QuadExt(Fraction(1), Fraction(1), bad)
        with pytest.raises(DomainError):
            sqrt_of(2) + sqrt_of(5)

    def test_public_constructor_still_checks_the_radicand(self):
        with pytest.raises(DomainError, match="squarefree"):
            QuadExt(1, 1, 8)

    def test_arithmetic_results_equal_checked_values(self):
        x, y = quad(Fraction(3, 5), Fraction(-2, 7)), quad(Fraction(1, 4), 3)
        for got in (x + y, x - y, x * y, x / y, -x, x.inverse(), x + 1, 2 * y):
            checked = QuadExt(got.a, got.b, got.d)
            assert (got.a, got.b, got.d) == (checked.a, checked.b, checked.d)
            assert hash(got) == hash(checked)
        assert (SQRT3 * SQRT3).d == 0 and (SQRT3 * SQRT3).is_rational

    def test_rational_collapse(self):
        assert QuadExt(Fraction(1, 2), Fraction(0), 3) == QuadExt(Fraction(1, 2), Fraction(0), 5)
        assert quad(3, 0).is_rational
        assert not SQRT3.is_rational

    def test_float_and_str(self):
        assert abs(oracles.approx(SQRT3) - 3**0.5) < 1e-12
        assert str(quad(Fraction(53, 26), Fraction(-1, 234))) == "53/26 - 1/234*sqrt(3)"
        assert str(quad(2, 1)) == "2 + sqrt(3)"
        assert str(quad(0, 2, 5)) == "2*sqrt(5)"

    def test_floor(self):
        assert quad(Fraction(1, 2), Fraction(1, 3)).floor() == 1
        assert quad(Fraction(53, 26), Fraction(-1, 234)).floor() == 2
        assert quad(Fraction(-53, 26), Fraction(1, 234)).floor() == -3
        assert quad(Fraction(7, 2), Fraction(0)).floor() == 3
        assert quad(Fraction(-7, 2), Fraction(0)).floor() == -4
        assert quad(0, 1).floor() == 1
        assert quad(0, -1).floor() == -2
        for k in range(-40, 40):
            v = quad(Fraction(k, 6), Fraction(k, 7), 5)
            f = v.floor()
            assert v >= f and v < f + 1


class TestCfEval:
    def test_rational_fold(self):
        out = cf_eval((5, 1, 3))
        assert out.value == Fraction(23, 4)
        assert out.convergents == ((5, 1), (6, 1), (23, 4))

    def test_single_digit(self):
        assert cf_eval((7,)).value == Fraction(7)

    def test_quadratic_tail(self):
        out = cf_eval((80, 1, 2), tail=SQRT3)
        assert out.value == quad(Fraction(2097, 26), Fraction(1, 26))

    def test_bad_digits(self):
        with pytest.raises(DomainError):
            cf_eval(())
        with pytest.raises(DomainError):
            cf_eval((5, 0, 3))

    def test_rational_tail_rejected(self):
        with pytest.raises(DomainError, match="tail must be irrational"):
            cf_eval((5, 1), tail=quad(2, 0))


class TestExtendN:
    def test_explicit_choice(self):
        assert extend_n(validate_n((3, 1)), (2, 5)).deltas == (6, 2, 5)

    def test_default_rule(self):
        assert extend_n(validate_n((3, 1))).deltas == (6, 2, 3)
        assert extend_n(validate_n((11, 9))).deltas == (22, 18, 27)
        assert extend_n(validate_n((22, 18, 27))).deltas == (44, 36, 54, 81)
        assert extend_n(validate_n((36, 24, 8, 18, 13))).deltas == (72, 48, 16, 36, 26, 39)

    def test_default_skips_noncoprime_z(self):
        # last entry even, so the smallest usable z is 3
        assert extend_n(validate_n((5, 4))).deltas == (15, 12, 16)

    def test_invalid_choices(self):
        base = validate_n((3, 1))
        with pytest.raises(DomainError, match="normalized sequence not increasing"):
            extend_n(base, (2, 2))
        with pytest.raises(DomainError):
            extend_n(base, (1, 5))
        with pytest.raises(DomainError, match=r"condition \(3\)"):
            extend_n(base, (2, 7))
        with pytest.raises(DomainError, match=r"condition \(1\)"):
            extend_n(base, (2, 6))

    @given(st.integers(2, 80), st.integers(1, 79))
    def test_default_always_valid(self, a, b):
        if a <= b:
            a, b = b + 1, a
        if gcd(a, b) != 1:
            return
        base = validate_n((a, b))
        ext = extend_n(base)
        assert ext.deltas[-2] < ext.deltas[-1]
        assert ext.deltas[:-1] == tuple(v * (ext.deltas[0] // a) for v in (a, b))

    def test_a_step_equals_the_whole_validation(self):
        """Seeded: an extension, which checks only the entry it appends,
        gives the DeltaN that validating the whole extended sequence gives,
        or the same message, for the default choice and for random choices
        that fail each condition or none."""
        rng = random.Random(30)
        pool = []
        while len(pool) < 200:
            seq = tuple(rng.randint(1, 120) for _ in range(rng.randint(1, 5)))
            outcome = _outcome(validate_n, seq)
            if isinstance(outcome, DeltaN):
                pool.append(outcome)
        seen = set()
        for _ in range(2000):
            delta = rng.choice(pool)
            last = delta.deltas[-1]
            if rng.random() < 0.2:
                z, choice = 2, None
                while gcd(z, last) != 1:
                    z += 1
                new = (z + 1) * last
            else:
                z = rng.randint(2, 9)
                new = rng.randint(z * last + 1, 3 * z * last)
                choice = (z, new)
            ext = _outcome(extend_n, delta, choice)
            assert ext == _outcome(validate_n, tuple(z * v for v in delta.deltas) + (new,))
            if isinstance(ext, DeltaN):
                seen.add("valid")
                if len(ext.deltas) < 8:
                    pool.append(ext)
            else:
                seen.add(ext[: len("condition (1)")])
        assert seen == {"valid", "condition (1)", "condition (2)", "condition (3)"}

    def test_a_step_makes_one_descent(self):
        """One gcd descent per extension, and g per validation of g + 1
        entries, the extended sequences' included."""
        with mock.patch.object(deltaseq, "_descend", side_effect=deltaseq._descend) as spy:
            delta = validate_n((36, 24, 8, 18, 13))
            assert spy.call_count == 4
            for step in range(1, 41):
                delta = extend_n(delta)
                assert spy.call_count == 4 + step
            validate_n(delta.deltas)
            assert spy.call_count == 44 + delta.g


def _outcome(build, *args):
    """What ``build`` returns, or the message of the DomainError it raises."""
    try:
        return build(*args)
    except DomainError as err:
        return str(err)


class TestTypeC:
    def test_two_element_completion(self):
        out = build_type_c((11, 9))
        assert out.deltas == ((5, 1), (4, 1))

    def test_three_element_main(self):
        out = build_type_c((40, 12, 97))
        assert out.deltas == ((10, 10), (3, 3), (24, 25))
        assert out.witness.ab == (1, 1)
        assert out.witness.abp == (1, 0)

    def test_divisible_main(self):
        out = build_type_c((36, 24, 8, 18, 13))
        assert out.deltas == ((18, 0), (12, 0), (4, 0), (9, 0), (7, -1))

    def test_divisible_three_element_completion(self):
        out = build_type_c((6, 3, 1))
        assert out.deltas == ((2, 2), (1, 1), (0, 1))

    @pytest.mark.parametrize(
        "seq,expected",
        [
            ((7, 5), ((3, 1), (2, 1))),
            ((5, 3), ((2, 1), (1, 1))),
            ((20, 8, 29), ((5, 5), (2, 2), (7, 8))),
            ((42, 30, 70, 77), ((21, 0), (15, 0), (35, 0), (39, -1))),
        ],
    )
    def test_table_families(self, seq, expected):
        assert build_type_c(seq).deltas == expected

    def test_same_class_same_output(self):
        reference = build_type_c((40, 12, 97))
        assert build_type_c((50, 15, 121)).deltas == reference.deltas
        assert build_type_c((60, 18, 145)).deltas == reference.deltas

    def test_no_newton_data(self):
        with pytest.raises(DomainError, match="type C"):
            build_type_c((2, 1))
        with pytest.raises(DomainError, match="type C"):
            build_type_c((1,))

    @pytest.mark.parametrize(
        "seq", [(11, 9), (7, 5), (5, 3), (40, 12, 97), (20, 8, 29), (42, 30, 70, 77), (36, 24, 8, 18, 13), (6, 3, 1)]
    )
    def test_witness_shape_invariant(self, seq):
        out = build_type_c(seq)
        w = out.witness
        ux, uy = w.u
        for c, delta in zip(w.head_c, out.deltas):
            assert delta == (c * ux, c * uy)
        lx, ly = out.deltas[-1]
        assert (lx, ly) == (w.cg * ux - w.off[0], w.cg * uy - w.off[1])
        assert abs(ux * w.off[1] - uy * w.off[0]) == 1
        from math import gcd
        acc = 0
        for c in w.head_c:
            acc = gcd(acc, c)
        assert acc == 1

    def test_reproducible(self):
        assert build_type_c((40, 12, 97)) == build_type_c((40, 12, 97))


# The integer sequences and digits of the quadratic fixtures.
TYPE_D_FIXTURES = [
    ((11, 9), (80, 1, 2)),
    ((36, 24, 8, 18, 13), (20, 5, 2)),
    ((36, 24, 8, 18, 13), (15, 2, 1)),
    ((7, 5), (28, 3, 1)),
]
TYPE_D_SEQUENCES = [(11, 9), (7, 5), (5, 3), (36, 24, 8, 18, 13), (20, 8, 29)]


def type_d_outcome(seq, digits):
    """The tail built, or the DomainError text."""
    try:
        return build_type_d(seq, digits).tail
    except DomainError as exc:
        return str(exc)


class TestTypeD:
    def test_exact_tail_from_11_9(self):
        out = build_type_d((11, 9), (80, 1, 2))
        assert out.head == (Fraction(11, 9), Fraction(1))
        expected = (Fraction(19) - (SQRT3 * 2 + 1) / (SQRT3 * 3 + 1)) / 9
        assert out.tail == expected
        assert out.tail == quad(Fraction(53, 26), Fraction(-1, 234))

    def test_exact_tail_from_36_family(self):
        out = build_type_d((36, 24, 8, 18, 13), (20, 5, 2))
        expected = (Fraction(6) - (SQRT3 * 2 + 1) / (SQRT3 * 11 + 5)) / 24
        assert out.tail == expected
        assert abs(oracles.approx(out.tail) - 0.242266) < 1e-6

    def test_exact_tail_from_36_family_second(self):
        out = build_type_d((36, 24, 8, 18, 13), (15, 2, 1))
        assert out.tail == (Fraction(11) - quad(Fraction(7, 23), Fraction(1, 23))) / 24
        assert abs(oracles.approx(out.tail) - 0.4425141) < 1e-6

    def test_exact_tail_from_7_5(self):
        out = build_type_d((7, 5), (28, 3, 1))
        expected = (Fraction(7) - (SQRT3 + 1) / (SQRT3 * 4 + 3)) / 5
        assert out.tail == expected
        assert abs(oracles.approx(out.tail) - 1.344964) < 1e-5

    def test_membership_condition_rejected(self):
        with pytest.raises(DomainError, match="delta_bar"):
            build_type_d((11, 9), (80, 2, 1))

    def test_leading_digit_bound(self):
        with pytest.raises(DomainError, match="a_1"):
            build_type_d((11, 9), (98, 1, 2))
        # a smaller leading digit passing both membership conditions is fine
        build_type_d((11, 9), (69, 1, 2))

    def test_needs_three_digits(self):
        with pytest.raises(DomainError):
            build_type_d((11, 9), (80, 1))

    def test_rational_tail_rejected(self):
        with pytest.raises(DomainError, match="tail must be irrational"):
            build_type_d((11, 9), (80, 1, 2), b=quad(2, 0))

    def test_small_tail_digit_rejected(self):
        with pytest.raises(DomainError):
            build_type_d((11, 9), (80, 1, 2), b=quad(0, Fraction(1, 2)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_membership_by_gcd_descent_equals_the_sieve(self, data):
        """delta_bar^2 and delta_bar^3 are decided by gcd descent; deciding
        them with the contains sieve gives the same tail or the same error.
        The first digit stays below n_g * delta_g - 1, so the draws reach the
        membership checks, and small later digits leave gaps to hit."""
        seq = data.draw(st.sampled_from(TYPE_D_SEQUENCES))
        delta = validate_n(seq)
        first = data.draw(st.integers(1, delta.structure.n[-1] * seq[-1] - 2))
        digits = (first, *data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)))

        def sieve_membership(delta, value):
            return () if oracles.contains(delta.deltas, value) else None

        with mock.patch.object(genesis, "telescopic_exponents", side_effect=sieve_membership):
            want = type_d_outcome(seq, digits)
        assert type_d_outcome(seq, digits) == want

    def test_fixtures_build_without_the_sieve(self):
        built = [build_type_d(seq, digits) for seq, digits in TYPE_D_FIXTURES]
        with mock.patch.object(oracles, "_sieve", side_effect=AssertionError("sieve")):
            assert [build_type_d(seq, digits) for seq, digits in TYPE_D_FIXTURES] == built

    def test_huge_digit_needs_no_sieve_up_to_it(self):
        """The tail witnesses grow with the digits (here past 10**13); gcd
        descent decides their membership in O(g) steps."""
        out = build_type_d((7, 5), (28, 10**12, 1))
        assert out.witness.digits == (28, 10**12, 1)
        assert 1 < out.tail < Fraction(7)

    def test_longer_digit_lists_use_induction(self):
        out = build_type_d((11, 9), (80, 1, 2, 1))
        assert out.tail.sign() == 1

    def test_tail_in_range(self):
        for seq, digits in [
            ((11, 9), (80, 1, 2)),
            ((36, 24, 8, 18, 13), (20, 5, 2)),
            ((36, 24, 8, 18, 13), (15, 2, 1)),
            ((7, 5), (28, 3, 1)),
        ]:
            delta = validate_n(seq)
            out = build_type_d(seq, digits)
            upper = Fraction(delta.structure.n[-1] * seq[-1], seq[1])
            assert out.tail.sign() == 1 and out.tail < upper

    def test_decimal_discrepancy_documented(self):
        tail = build_type_d((11, 9), (80, 1, 2)).tail
        assert abs(oracles.approx(tail) - 2.031105) > 1e-6
        assert Fraction(2031059, 1000000) < tail < Fraction(2031060, 1000000)


CHAIN_AT_THE_LIMIT = """
import time
from deltacodes.genesis import MAX_CHAIN_STEPS, build_type_e
start = time.perf_counter()
chain = build_type_e((7, 5), MAX_CHAIN_STEPS)
print(len(chain.choices), time.perf_counter() - start)
"""


class TestTypeE:
    def test_default_chain_from_11_9(self):
        out = build_type_e((11, 9), steps=3)
        assert [s.deltas for s in out.stages] == [
            (11, 9),
            (22, 18, 27),
            (44, 36, 54, 81),
            (88, 72, 108, 162, 243),
        ]
        assert out.generators() == (
            Fraction(11, 9),
            Fraction(1),
            Fraction(3, 2),
            Fraction(9, 4),
            Fraction(27, 8),
        )

    def test_explicit_choices(self):
        out = build_type_e((3, 1), steps=2, choices=[(2, 5), (2, 19)])
        assert [s.deltas for s in out.stages] == [(3, 1), (6, 2, 5), (12, 4, 10, 19)]
        assert out.generators() == (Fraction(3), Fraction(1), Fraction(5, 2), Fraction(19, 4))

    def test_generators_strictly_increase_after_start(self):
        out = build_type_e((36, 24, 8, 18, 13), steps=4)
        gens = out.generators()
        appended = gens[5:]
        assert all(a < b for a, b in zip(appended, appended[1:]))
        assert appended[0] > gens[4]

    def test_bad_choice_message(self):
        with pytest.raises(DomainError, match="normalized sequence not increasing"):
            build_type_e((3, 1), steps=1, choices=[(2, 1)])

    @pytest.fixture
    def no_sequence_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sequence was built")

        monkeypatch.setattr(genesis, "extend_n", refuse)
        monkeypatch.setattr(genesis, "validate_n", refuse)

    @pytest.mark.parametrize("choices", [None, [(2, 3)], [(3, 2)]])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_a_one_entry_start_is_rejected_before_any_extension(
        self, monkeypatch, steps, choices
    ):
        def refuse(*args):
            raise AssertionError("an extension was tried")

        monkeypatch.setattr(genesis, "extend_n", refuse)
        with pytest.raises(DomainError, match="^type E chain: a one-entry start has no extension$"):
            build_type_e((1,), steps, choices)

    def test_a_one_entry_start_takes_zero_steps(self):
        out = build_type_e((1,), 0)
        assert [s.deltas for s in out.stages] == [(1,)]

    def test_steps_over_the_limit_are_rejected_before_any_extension(self, no_sequence_built):
        limit = genesis.MAX_CHAIN_STEPS
        with pytest.raises(DomainError, match=f"^type E chain: {limit + 1} steps exceed"):
            build_type_e((7, 5), limit + 1)

    @pytest.mark.parametrize("steps", [-1, -2])
    def test_a_negative_step_count_is_rejected_before_any_sequence(
        self, no_sequence_built, steps
    ):
        with pytest.raises(DomainError, match=rf"^type E chain: steps must be >= 0, got {steps}$"):
            build_type_e((7, 5), steps)

    def test_the_step_limit_keeps_its_time_budget(self):
        """In a fresh interpreter, the chain (7, 5) at the step limit builds
        in under 0.25 s: about 0.02 s on a 2-vCPU VM, where validating each
        whole stage took 0.42 to 0.61 s."""
        root = str(pathlib.Path(genesis.__file__).parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", CHAIN_AT_THE_LIMIT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        steps, seconds = result.stdout.split()
        assert int(steps) == genesis.MAX_CHAIN_STEPS
        assert float(seconds) < 0.25

    def test_extension_returns_new_value(self):
        base = build_type_e((11, 9), steps=0)
        ext = base.extended()
        assert len(base.stages) == 1 and len(ext.stages) == 2
        assert ext.stages[0] == base.stages[0]
