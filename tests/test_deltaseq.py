"""Validation and structure of increasing-gcd integer delta-sequences."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from deltacodes.deltaseq import (
    DeltaN,
    _sweep,
    _tail_table,
    canonical_cf,
    cf_of,
    denormalize,
    gap_count_telescopic,
    normalize,
    structure_of,
    telescopic_count,
    telescopic_exponents,
    telescopic_members,
    validate_n,
)
from deltacodes.errors import DomainError
from deltacodes.genesis import build_type_e
from deltacodes.semigroup import _engine

from oracles import contains, gaps, members_below, telescopic_members_sorted

VALID = [
    (1,),
    (2, 1),
    (3, 1),
    (5, 3),
    (7, 5),
    (11, 9),
    (6, 3, 1),
    (20, 8, 29),
    (40, 12, 97),
    (42, 30, 70, 77),
    (36, 24, 8, 18, 13),
]


@pytest.mark.parametrize("seq", VALID)
def test_valid_sequences_accepted(seq):
    delta = validate_n(seq)
    assert isinstance(delta, DeltaN)
    assert delta.deltas == seq


@pytest.mark.parametrize(
    "seq,cond",
    [
        ((9, 11), "condition (3)"),
        ((6, 4), "condition (1)"),
        ((5,), "condition (1)"),
        ((10, 4, 3), "condition (2)"),
        ((12, 4, 25), "condition (3)"),
        ((6, 3, 2, 5), "condition (1)"),
    ],
)
def test_condition_violations_named(seq, cond):
    with pytest.raises(DomainError, match=r"condition \(%s\)" % cond[-2]):
        validate_n(seq)


def test_nonpositive_entries_rejected():
    with pytest.raises(DomainError):
        validate_n(())
    with pytest.raises(DomainError):
        validate_n((4, 0))
    with pytest.raises(DomainError):
        validate_n((4, -2))


def test_structure_of_two_generator_case():
    s = structure_of((11, 9))
    assert s.d == (11, 1)
    assert s.n == (11,)
    assert s.newton == ((2, 11),)
    assert s.cf == (5, 2)
    assert not s.divisible


def test_structure_of_three_generator_case():
    s = structure_of((40, 12, 97))
    assert s.d == (40, 4, 1)
    assert s.n == (10, 4)
    assert s.newton == ((28, 40), (4, 23))
    assert s.cf == (5, 1, 3)
    assert not s.divisible


def test_structure_of_divisible_case():
    s = structure_of((36, 24, 8, 18, 13))
    assert s.d == (36, 12, 4, 2, 1)
    assert s.n == (3, 3, 2, 2)
    assert s.divisible
    assert s.newton == ((12, 100), (4, 6), (2, 23))
    assert s.cf == (11, 2)


def test_structure_of_divisible_three_elements():
    s = structure_of((6, 3, 1))
    assert s.d == (6, 3, 1)
    assert s.n == (2, 3)
    assert s.divisible
    assert s.newton == ((3, 11),)
    assert s.cf == (3, 1, 2)


def test_structure_of_trivial_cases():
    s = structure_of((2, 1))
    assert s.divisible and s.newton == () and s.cf is None
    s = structure_of((1,))
    assert s.d == (1,) and s.n == () and s.cf is None


def test_last_quotient_always_in_lowest_terms_with_big_denominator():
    for seq in VALID:
        s = structure_of(seq)
        if s.cf is None:
            continue
        e, m = s.newton[-1]
        assert gcd(e, m) == 1 and e >= 2
        assert s.cf[-1] >= 2 and len(s.cf) >= 2


def test_normalize_divides_by_second_entry():
    assert normalize(validate_n((11, 9))) == (Fraction(11, 9), Fraction(1))
    assert normalize(validate_n((36, 24, 8, 18, 13))) == (
        Fraction(3, 2),
        Fraction(1),
        Fraction(1, 3),
        Fraction(3, 4),
        Fraction(13, 24),
    )


@pytest.mark.parametrize("seq", [s for s in VALID if len(s) > 1])
def test_normalize_roundtrip(seq):
    assert denormalize(normalize(validate_n(seq))) == seq


def test_membership():
    gens = (11, 9)
    assert contains(gens, 0)
    assert contains(gens, 20)
    assert not contains(gens, 21)
    assert not contains(gens, 79)
    assert contains(gens, 80)
    assert members_below(gens, 30) == [0, 9, 11, 18, 20, 22, 27, 29]


GAP_COUNTS = {
    (11, 9): 40,
    (36, 24, 8, 18, 13): 30,
    (40, 12, 97): 180,
    (7, 5): 12,
    (42, 30, 70, 77): 178,
    (20, 8, 29): 50,
    (5, 3): 4,
}


@pytest.mark.parametrize("seq,count", sorted(GAP_COUNTS.items()))
def test_gap_counts_brute_force_vs_closed_form(seq, count):
    assert len(gaps(seq)) == count
    assert gap_count_telescopic(validate_n(seq)) == count


def test_conductor_of_11_9():
    assert gaps((11, 9))[-1] == 79


def test_telescopic_exponents_unique_and_bounded():
    delta = validate_n((11, 9))
    assert telescopic_exponents(delta, 31) == (2, 1)
    assert telescopic_exponents(delta, 7) is None
    assert telescopic_exponents(delta, 0) == (0, 0)
    for v in range(130):
        solutions = [
            (a, b)
            for a in range(v // 11 + 1)
            for b in range(11)
            if 11 * a + 9 * b == v
        ]
        exps = telescopic_exponents(delta, v)
        assert len(solutions) <= 1
        assert (exps is not None) == bool(solutions)
        if solutions:
            assert exps == solutions[0]


def test_telescopic_exponents_longer_sequence():
    delta = validate_n((36, 24, 8, 18, 13))
    struct = delta.structure
    for v in list(range(80)) + [97, 113, 200]:
        exps = telescopic_exponents(delta, v)
        assert (exps is None) == (not contains(delta.deltas, v))
        if exps is not None:
            assert sum(e * d for e, d in zip(exps, delta.deltas)) == v
            assert all(0 <= exps[i] < struct.n[i - 1] for i in range(1, len(exps)))


def test_canonical_cf():
    assert canonical_cf((5, 1, 3)) == (5, 1, 3)
    assert canonical_cf((5, 1, 2, 1)) == (5, 1, 3)
    assert canonical_cf((1, 1)) == (2,)
    with pytest.raises(DomainError):
        canonical_cf(())
    with pytest.raises(DomainError):
        canonical_cf((5, 0, 2))
    with pytest.raises(DomainError):
        canonical_cf((5, -1))


def test_cf_of_fraction():
    assert cf_of(Fraction(23, 4)) == (5, 1, 3)
    assert cf_of(Fraction(11, 2)) == (5, 2)
    assert cf_of(Fraction(23, 2)) == (11, 2)
    assert cf_of(Fraction(7)) == (7,)
    assert cf_of(Fraction(11, 3)) == (3, 1, 2)


@given(st.integers(2, 200), st.integers(1, 199))
def test_coprime_pairs_are_exactly_the_valid_pairs(a, b):
    if a <= b:
        a, b = b + 1, a
    if gcd(a, b) == 1:
        assert validate_n((a, b)).deltas == (a, b)
    else:
        with pytest.raises(DomainError):
            validate_n((a, b))


def sieve_validate(deltas):
    """validate_n with condition (2) decided by the contains sieve: the
    message of the first violated condition, or None when valid."""
    seq = tuple(deltas)
    if any(v <= 0 for v in seq):
        return "sequence entries must be positive integers"
    d = []
    for v in seq:
        d.append(gcd(d[-1] if d else 0, v))
    if d[-1] != 1:
        return f"condition (1): gcd chain must end at 1, got d = {d[-1]}"
    n = [d[i] // d[i + 1] for i in range(len(seq) - 1)]
    if 1 in n:
        return "condition (1): every n_i must exceed 1"
    for i in range(1, len(seq)):
        if not contains(seq[:i], n[i - 1] * seq[i]):
            return (
                f"condition (2): n_{i} * delta_{i} = {n[i - 1] * seq[i]} is not in "
                f"the semigroup of the first {i} entries"
            )
    if len(seq) > 1 and seq[0] <= seq[1]:
        return "condition (3): delta_0 must exceed delta_1"
    for i in range(2, len(seq)):
        if seq[i] >= seq[i - 1] * n[i - 2]:
            return f"condition (3): delta_{i} must be below delta_{i - 1} * n_{i - 1}"
    return None


@st.composite
def near_telescopic(draw):
    """A sequence with the gcd chain of given quotients n_i, where each
    n_i * delta_i may or may not lie in the prefix semigroup, optionally
    with one entry nudged by one."""
    quotients = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    d = [1]
    for q in reversed(quotients):
        d.insert(0, d[0] * q)
    seq = [d[0]]
    for i, q in enumerate(quotients):
        w = draw(st.integers(1, 40).filter(lambda w, q=q: gcd(w, q) == 1))
        seq.append(d[i + 1] * w)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(seq) - 1))
        seq[i] = max(1, seq[i] + draw(st.sampled_from((-1, 1))))
    return tuple(seq)


def _outcome(seq):
    try:
        return validate_n(seq).deltas
    except DomainError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(near_telescopic(), st.lists(st.integers(1, 120), min_size=1, max_size=5))
)
def test_gcd_descent_decides_condition_2_like_the_sieve(seq):
    seq = tuple(seq)
    message = sieve_validate(seq)
    assert _outcome(seq) == (seq if message is None else message)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_telescopic_count_equals_the_sieve(data):
    """The number of members below w, from the bounded tails, equals the
    sieve's count of members <= w - 1, for w at or below zero too; the
    window listing over the same tails agrees with the sieve as well."""
    seq = data.draw(st.one_of(st.sampled_from(VALID), near_telescopic()))
    try:
        delta = validate_n(seq)
    except DomainError:
        delta = validate_n(VALID[-1])
    w = data.draw(st.integers(-20, 2 * delta.deltas[0] * delta.deltas[-1]))
    assert telescopic_count(delta, w) == len(members_below(delta.deltas, w - 1))
    lo = data.draw(st.integers(-20, w))
    assert [v for block in telescopic_members(delta, lo, w) for v, _, _ in block] == [
        v for v in members_below(delta.deltas, w) if v > lo
    ]


def _chain_stages():
    """The stages that the chain engine's covering_stage picks for a few
    chains and bounds."""
    out = []
    chains = (((3, 1), 2, (1, 4, 9)), ((7, 5), 1, (2, 5)), ((11, 9), 6, (1, 40)))
    for under, steps, bounds in chains:
        engine = _engine(build_type_e(under, steps))
        out += [engine.covering_stage(Fraction(b)) for b in bounds]
    return out


CHAIN_STAGES = _chain_stages()


@st.composite
def sweep_windows(draw):
    """A sequence (valid, near-telescopic or a chain's covering stage) and a
    window (lo, hi] of one of five shapes, in units of delta_0."""
    seq = draw(st.one_of(st.sampled_from(VALID), near_telescopic()))
    try:
        delta = validate_n(seq)
    except DomainError:
        delta = validate_n(VALID[-2])
    delta = draw(st.one_of(st.just(delta), st.sampled_from(CHAIN_STAGES)))
    first = delta.deltas[0]
    shapes = ["hi below zero", "empty", "one block", "many blocks", "from zero"]
    shape = draw(st.sampled_from(shapes))
    if shape == "hi below zero":
        hi = draw(st.integers(-3 * first, -1))
        lo = draw(st.integers(hi - 2 * first, hi + 2 * first))
    elif shape == "empty":
        lo = draw(st.integers(-1, 4 * first))
        hi = draw(st.integers(lo - first, lo))
    elif shape == "one block":
        k = draw(st.integers(0, 4))
        lo = draw(st.integers(k * first - 1, (k + 1) * first - 1))
        hi = draw(st.integers(lo, (k + 1) * first - 1))
    elif shape == "many blocks":
        lo = draw(st.integers(-2 * first, 2 * first))
        hi = lo + draw(st.integers(2 * first, 6 * first))
    else:
        lo, hi = -1, draw(st.integers(0, 4 * first))
    return delta, lo, hi


@settings(max_examples=300, deadline=None)
@given(sweep_windows())
def test_residue_sweep_equals_the_sorted_listing(case):
    """The sweep lists the same members with the same exponents as sorting
    every member found, one block of delta_0 values per list, and each tail
    is one object shared by the rows that carry it, each entry of a block
    one of the table's own; the tail table labels each exponent once, and a
    labelled tail is the text of its exponents' labels."""
    delta, lo, hi = case
    first = delta.deltas[0]
    labelled = []

    def label(c):
        labelled.append(c)
        return f" {c}"

    _, order = _tail_table(delta, hi, label)
    residues, plain = _tail_table(delta, hi)
    assert labelled == [c for n_i in reversed(delta.structure.n) for c in range(n_i)]
    assert [text for _, _, text in order] == [" %d" * len(tail) % tail for _, _, tail in plain]
    blocks = list(telescopic_members(delta, lo, hi))
    rows = [(v, (c,) + tail) for block in blocks for v, c, tail in block]
    assert rows == telescopic_members_sorted(delta, lo, hi)
    assert all(len({v // first for v, _, _ in block}) == 1 for block in blocks if block)
    tails = [tail for block in blocks for _, _, tail in block]
    assert len({id(tail) for tail in tails}) == len(set(tails))
    swept = list(_sweep(first, residues, plain, max(lo + 1, 0), hi))
    assert [
        [(base + r, k - q, tail) for r, q, tail in entries] for base, k, entries in swept
    ] == blocks
    owned = {id(entry) for entry in plain}
    assert all(id(entry) in owned for _, _, entries in swept for entry in entries)


def test_telescopic_count_ignores_the_size_of_w():
    """Past the conductor every integer is a member, and the count needs no
    sieve up to w: at most delta_0 tails are summed."""
    delta = validate_n((36, 24, 8, 18, 13))
    w = 10**15
    assert telescopic_count(delta, w) == w - gap_count_telescopic(delta)
    assert telescopic_count(delta, 0) == 0
    assert telescopic_count(delta, 1) == 1
