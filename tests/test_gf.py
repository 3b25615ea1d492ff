"""Exact finite-field arithmetic and linear algebra."""

from __future__ import annotations

import gc
import os
import pathlib
import random
import subprocess
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import deltacodes
from deltacodes import cli, minweight
from deltacodes.errors import DomainError
from deltacodes.gf import (
    _DEFAULT_MODULI,
    MAX_FIELD_SIZE,
    FieldElement,
    FieldSpec,
    _is_prime,
    _poly_rem,
    _Tables,
)
from oracles import Matrix, default_modulus, field_arith, mat_rank_kernel, poly_mul

F7 = FieldSpec(7)
F32 = FieldSpec(2, 5)
F16 = FieldSpec(2, 4)


def test_prime_field_mul():
    assert field_arith(F7, "mul", [3, 5]) == F7.element(1)


def test_default_quintic_modulus_is_x5_x2_1():
    assert F32.modulus == (1, 0, 1, 0, 0, 1)


def test_generator_fifth_power_reduces():
    xi = F32.element((0, 1, 0, 0, 0))
    assert field_arith(F32, "pow", [xi, 5]).coeffs == (1, 0, 1, 0, 0)


def test_inverse_roundtrip_hundred_random():
    rng = random.Random(7)
    for spec in (F7, F32):
        for _ in range(100):
            a = spec.element(rng.randrange(1, spec.q))
            assert field_arith(spec, "inv", [a]) * a == spec.one


def test_division_by_zero_message():
    with pytest.raises(DomainError, match="division by zero"):
        field_arith(F7, "inv", [0])
    with pytest.raises(DomainError, match="division by zero"):
        F32.one / F32.zero


def test_field_mismatch_message():
    with pytest.raises(DomainError, match="field mismatch"):
        field_arith(F7, "add", [F7.one, F32.one])
    with pytest.raises(DomainError, match="field mismatch"):
        F7.one * F32.one


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_axioms_gf32(a, b, c):
    x, y, z = F32.element(a), F32.element(b), F32.element(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + F32.zero == x
    assert x * F32.one == x
    assert x + (-x) == F32.zero


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_axioms_gf7(a, b, c):
    x, y, z = F7.element(a), F7.element(b), F7.element(c)
    assert (x + y) * z == x * z + y * z
    assert x - y == x + (-y)


def test_generator_powers_distinct_in_primitive_field():
    xi = F32.element((0, 1, 0, 0, 0))
    powers = {field_arith(F32, "pow", [xi, k]) for k in range(31)}
    assert len(powers) == 31
    assert F32.is_primitive


def test_nonprimitive_irreducible_modulus_detected():
    spec = FieldSpec(2, 4, (1, 1, 1, 1, 1))
    assert not spec.is_primitive
    assert F16.is_primitive


def test_is_primitive_builds_no_tables():
    with mock.patch.object(_Tables, "__init__", side_effect=AssertionError("tables built")):
        assert FieldSpec(2, 10).is_primitive
        assert FieldSpec(31, 2).is_primitive
        assert not FieldSpec(2, 4, (1, 1, 1, 1, 1)).is_primitive
        assert not FieldSpec(7).is_primitive


# The smallest monic primitive polynomial of each extension field with
# q <= 1024, little-endian: a field's encoding depends on its modulus, so
# neither the library's table nor the search may change.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 3, 0, 1),
    (5, 4): (2, 2, 1, 0, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 3, 0, 1),
    (11, 2): (7, 1, 1),
    (13, 2): (2, 1, 1),
    (17, 2): (3, 1, 1),
    (19, 2): (2, 1, 1),
    (23, 2): (7, 1, 1),
    (29, 2): (3, 1, 1),
    (31, 2): (12, 1, 1),
}


def test_default_moduli_of_every_extension_field():
    extensions = {
        (p, m) for p in range(2, MAX_FIELD_SIZE) if _is_prime(p)
        for m in range(2, MAX_FIELD_SIZE.bit_length()) if p**m <= MAX_FIELD_SIZE
    }
    assert set(DEFAULT_MODULI) == extensions
    assert {(p, m): default_modulus(p, m) for p, m in DEFAULT_MODULI} == DEFAULT_MODULI
    assert _DEFAULT_MODULI == DEFAULT_MODULI
    assert {(p, m): FieldSpec(p, m).modulus for p, m in DEFAULT_MODULI} == DEFAULT_MODULI


def test_a_default_modulus_is_looked_up_not_searched():
    searched = AssertionError("a polynomial was tested")
    with mock.patch("deltacodes.gf._is_irreducible", side_effect=searched), mock.patch(
        "deltacodes.gf._powers", side_effect=searched
    ):
        for p, m in DEFAULT_MODULI:
            assert FieldSpec(p, m).modulus == DEFAULT_MODULI[p, m]


SMALL_FIELDS = [
    FieldSpec(p, m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for m in range(1, 7)
    if p**m <= 64
] + [FieldSpec(2, 4, (1, 1, 1, 1, 1))]  # irreducible, but g has order 5


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=lambda s: f"{s.p}^{s.m}:{s.modulus}")
def test_tables_match_polynomial_arithmetic(spec):
    t = _Tables(spec)
    p, q = spec.p, spec.q
    coeffs = [spec.element(v).coeffs for v in range(q)]
    for a in range(q):
        ca = coeffs[a]
        assert t.neg[a] == int(spec.element(tuple(-c % p for c in ca)))
        assert a == 0 or t.mul[a * q + t.inv[a]] == 1
        for b in range(q):
            cb = coeffs[b]
            if spec.m == 1:
                product = (ca[0] * cb[0] % p,)
            else:
                product = _poly_rem(poly_mul(ca, cb, p), spec.modulus, p)
            total = tuple((x + y) % p for x, y in zip(ca, cb))
            difference = tuple((x - y) % p for x, y in zip(ca, cb))
            assert t.mul[a * q + b] == int(spec.element(product))
            assert t.add[a * q + b] == int(spec.element(total))
            assert t.sub[a * q + b] == int(spec.element(difference))


def test_gf256_add_and_sub_tables_every_entry():
    # in characteristic 2 one table is built and serves as both
    spec = FieldSpec(2, 8)
    t = _Tables(spec)
    q = spec.q
    coeffs = [spec.element(v).coeffs for v in range(q)]
    for a in range(q):
        ca = coeffs[a]
        for b in range(q):
            difference = tuple((x - y) % 2 for x, y in zip(ca, coeffs[b]))
            assert t.sub[a * q + b] == int(spec.element(difference))
    assert t.sub is t.add
    assert t.neg == list(range(q))


def test_bad_specs_rejected():
    with pytest.raises(DomainError):
        FieldSpec(6)
    with pytest.raises(DomainError):
        FieldSpec(2, 5, (1, 1, 0, 0, 0, 1))  # x^5+x+1 factors
    with pytest.raises(DomainError):
        FieldSpec(2, 5, (1, 0, 1, 0, 0))  # wrong length
    with pytest.raises(DomainError):
        FieldSpec(2, 5, (1, 0, 1, 0, 0, 0))  # not monic
    with pytest.raises(DomainError):
        F7.element(9)


def test_pow_negative_and_zero():
    a = F7.element(3)
    assert field_arith(F7, "pow", [a, -1]) == field_arith(F7, "inv", [a])
    assert field_arith(F7, "pow", [a, 0]) == F7.one
    assert field_arith(F7, "pow", [F7.zero, 0]) == F7.one


def test_int_encoding_roundtrip():
    for spec in (F7, F32):
        for v in range(spec.q):
            assert int(spec.element(v)) == v


def test_stored_encoding_leaves_identity_unchanged():
    for spec in (F7, F32):
        for v in range(spec.q):
            e = spec.element(v)
            assert e.encoded == v
            assert e == FieldElement(spec, e.coeffs)
            assert hash(e) == hash((spec, e.coeffs))
            assert repr(e) == f"FieldElement(field={spec!r}, coeffs={e.coeffs!r})"



def test_spec_owns_its_tables_without_changing_identity():
    twin = FieldSpec(2, 5)
    assert twin is not F32
    assert twin == F32
    assert hash(twin) == hash(F32) == hash((2, 5, F32.modulus))
    assert repr(twin) == f"FieldSpec(p=2, m=5, modulus={F32.modulus!r})"
    # elements of equal specs combine through the left operand's tables
    assert (twin.element(3) * F32.element(5)).encoded == F32._t.mul[3 * 32 + 5]


def test_tables_are_freed_with_their_spec():
    spec = FieldSpec(2, 6)
    assert spec.element(5) * spec.element(9) == spec.element(9) * spec.element(5)
    tables = weakref.ref(spec._t)
    del spec
    gc.collect()
    assert tables() is None


def test_field_size_limit():
    with pytest.raises(DomainError, match=r"field size 2\^11 exceeds 1024"):
        FieldSpec(2, 11)
    with pytest.raises(DomainError, match=r"field size 1031\^1 exceeds 1024"):
        FieldSpec(1031)


def test_field_size_is_checked_before_trial_division():
    """A prime far above the bound (2^61 - 1) and an exponent far above it
    are rejected without trial division or building p**m."""
    tried = []

    def spy(n):
        tried.append(n)
        return _is_prime(n)

    with mock.patch("deltacodes.gf._is_prime", spy):
        for p, m in ((2**61 - 1, 1), (2, 100_000_000)):
            with pytest.raises(DomainError, match=rf"field size {p}\^{m} exceeds 1024"):
                FieldSpec(p, m)
    assert tried == [2]


def test_encoded_modulus_is_its_base_p_digits():
    assert FieldSpec(2, 5, 0x25) == F32
    assert FieldSpec(2, 8, 0x11D) == FieldSpec(2, 8)
    assert FieldSpec(3, 2, 2 + 1 * 3 + 1 * 9).modulus == (2, 1, 1)
    for bad in (-0x25, 0x45, 2**6 + 0x25):
        with pytest.raises(DomainError, match="not a polynomial of degree <= 5"):
            FieldSpec(2, 5, bad)


BUILD = """
import sys, time
from deltacodes.gf import FieldSpec
spec = FieldSpec(*map(int, sys.argv[1:]))
start = time.perf_counter()
spec._t.kernel_tables()
seconds = time.perf_counter() - start
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(seconds, int(status.split()[0]) / 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("args", [(1021,), (2, 10)], ids=["1021", "2^10"])
def test_largest_fields_build_within_the_budget(args):
    """The largest accepted fields build their tables, in the form the
    selected kernel reads, within 5 s and 160 MB peak resident in a fresh
    interpreter.  On a 2-vCPU VM, p = 1021 takes about 0.02 s and 26 MB with
    the compiled kernel and 0.6 s and 62 MB with the pure one (whose lists
    set the bound), and 2^10 0.01 s and 22 MB, or 0.2 s and 62 MB."""
    root = str(pathlib.Path(deltacodes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", BUILD, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    seconds, peak_mb = map(float, result.stdout.split())
    assert seconds < 5 and peak_mb < 160, (seconds, peak_mb)

def test_kernel_tables_are_made_once_per_field(capsys):
    """A compiled scan reads the tables' own arrays and makes no q*q list;
    the pure kernel gets lists, made once."""
    made = []
    init = _Tables.__init__

    def keep(self, spec):
        init(self, spec)
        made.append(self)

    config = str(pathlib.Path(__file__).parent / "data" / "planar119.cfg")
    for backend in ("compiled", "pure"):
        if backend not in minweight.available_backends():
            continue
        with mock.patch.object(_Tables, "__init__", keep), mock.patch.object(
            minweight, "BACKEND", backend
        ):
            assert cli.main(["table", "--config", config]) == 0
        t = made.pop()
        table = t.kernel_tables(backend)
        assert t.kernel_tables(backend) is table
        if backend == "compiled":
            assert table[0] is t.mul and table[1] is t.sub
            assert table[2].typecode == "i" and list(table[2]) == t.inv
            squares = [v for v in vars(t).values() if isinstance(v, list) and len(v) == t.q**2]
            assert squares == [] and "_lists" not in vars(t)
        else:
            assert table == (t.mul.tolist(), t.sub.tolist(), t.inv)
            assert all(type(v) is list for v in table)
    assert capsys.readouterr().err == ""


def test_rendering():
    assert str(F7.element(5)) == "5"
    assert str(F32.zero) == "0"
    assert str(F32.one) == "1"
    xi = F32.element((0, 1, 0, 0, 0))
    assert str(xi) == "g"
    assert str(xi * xi) == "g^2"


def test_rank_kernel_identity():
    m = Matrix(3, 3, [F7.one if i == j else F7.zero for i in range(3) for j in range(3)])
    rank, kernel = mat_rank_kernel(m)
    assert rank == 3 and kernel == []


def test_rank_kernel_zero_matrix():
    m = Matrix(2, 3, [F7.zero] * 6)
    rank, kernel = mat_rank_kernel(m)
    assert rank == 0 and len(kernel) == 3


def test_rank_kernel_random_invariants():
    rng = random.Random(17)
    for spec in (F7, F32):
        for _ in range(20):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            m = Matrix(
                rows, cols, [spec.element(rng.randrange(spec.q)) for _ in range(rows * cols)]
            )
            rank, kernel = mat_rank_kernel(m)
            assert rank + len(kernel) == cols
            for vec in kernel:
                assert any(x != spec.zero for x in vec)
                for i in range(rows):
                    acc = spec.zero
                    for j in range(cols):
                        acc = acc + m.entries[i * cols + j] * vec[j]
                    assert acc == spec.zero


def test_rank_kernel_known_dependency():
    # third column = first + second
    entries = [1, 2, 3, 4, 5, 2, 2, 6, 1]
    m = Matrix(3, 3, [F7.element(v) for v in entries])
    rank, kernel = mat_rank_kernel(m)
    assert rank == 2 and len(kernel) == 1
    v = kernel[0]
    scale = next(x for x in v if x != F7.zero) ** -1
    assert [int(x * scale) for x in v] == [1, 1, 6]


def test_matrix_shape_validated():
    with pytest.raises(DomainError):
        Matrix(2, 2, [F7.zero] * 3)
