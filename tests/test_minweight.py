"""Both column-search backends agree with each other and with brute force."""

import functools
import itertools
import os
import random
import subprocess
import sys
from array import array

import pytest

from deltacodes.gf import FieldSpec, _tables
from deltacodes.minweight import _int_array, available_backends, min_dependent_columns

F2 = FieldSpec(2)
F5 = FieldSpec(5)
F32 = FieldSpec(2, 5)
F256 = FieldSpec(2, 8)


def kernel_args(spec, rows, n=None):
    """Column-major matrix plus the flat tables the kernel wants; ``n`` is
    read from the rows when there are any."""
    r, n = len(rows), len(rows[0]) if rows else n
    cols = [0] * (r * n)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            cols[j * r + i] = v
    t = _tables(spec)
    return cols, r, n, spec.q, t.mul, t.sub, t.inv


def random_rows(rng, q, r, n):
    return [[rng.randrange(q) for _ in range(n)] for _ in range(r)]


class SlowField:
    """GF(p^m) on encoded ints (base-p digits, little-endian) from p and the
    modulus alone, by polynomial arithmetic: kept independent of the
    library's tables."""

    def __init__(self, spec):
        self.p, self.m, self.modulus = spec.p, spec.m, spec.modulus
        self.products = {}

    def digits(self, v):
        return [v // self.p**i % self.p for i in range(self.m)]

    def encode(self, digits):
        return sum(c * self.p**i for i, c in enumerate(digits))

    def sub(self, a, b):
        pairs = zip(self.digits(a), self.digits(b))
        return self.encode([(x - y) % self.p for x, y in pairs])

    def mul(self, a, b):
        if (a, b) in self.products:
            return self.products[a, b]
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * m - 2, m - 1, -1):  # reduce by the monic modulus
            c = prod[i]
            for j, coeff in enumerate(self.modulus if c else ()):
                prod[i - m + j] = (prod[i - m + j] - c * coeff) % p
        self.products[a, b] = self.encode(prod[:m])
        return self.products[a, b]

    def inv(self, a):
        return next(b for b in range(1, self.p**self.m) if self.mul(a, b) == 1)

    def rank(self, rows):
        """Row rank by plain elimination."""
        work = [list(row) for row in rows]
        rank = 0
        for col in range(len(work[0]) if work else 0):
            pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            inv = self.inv(work[rank][col])
            work[rank] = [self.mul(inv, v) for v in work[rank]]
            for i in range(len(work)):
                if i != rank and work[i][col]:
                    f = work[i][col]
                    work[i] = [self.sub(a, self.mul(f, b)) for a, b in zip(work[i], work[rank])]
            rank += 1
        return rank


@functools.lru_cache(maxsize=None)
def slow_field(spec):
    return SlowField(spec)


def brute_least_dependent(rows, spec, n):
    """Smallest dependent column-subset size by exhaustive search, 0 when
    the n columns are independent."""
    field = slow_field(spec)
    for w in range(1, n + 1):
        for subset in itertools.combinations(range(n), w):
            if field.rank([[row[j] for row in rows] for j in subset]) < w:
                return w
    return 0


def floored(least, wmin, wmax, n):
    """What the search returns for least dependent size ``least`` (0 for
    none): max(least, wmin) when that is at most wmax and n, else 0."""
    w = max(least, wmin)
    return w if least and w <= min(wmax, n) else 0


def columns_to_rows(columns):
    return [list(row) for row in zip(*columns)]


def child_backend(env):
    """BACKEND as chosen by a fresh interpreter started with ``env``."""
    result = subprocess.run(
        [sys.executable, "-c", "import deltacodes.minweight as m; print(m.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestBackends:
    def test_compiled_backend_is_built_and_default(self):
        assert set(available_backends()) == {"pure", "compiled"}
        env = {k: v for k, v in os.environ.items() if k != "DELTACODES_PURE"}
        assert child_backend(env) == "compiled"

    def test_environment_forces_pure(self):
        assert child_backend({**os.environ, "DELTACODES_PURE": "1"}) == "pure"

    def test_backends_agree_on_random_instances(self):
        rng = random.Random(414243)
        for spec in (F2, F5, F32, F256):
            # (r, n, wmax): r = 0, n = 0, wmax = 0 and wmax > n, then random
            shapes = [(0, 4, 2), (0, 0, 1), (3, 0, 2), (3, 5, 0), (2, 3, 6)]
            for _ in range(30):
                r = rng.randrange(1, 6)
                shapes.append((r, rng.randrange(1, 10), rng.randrange(1, r + 2)))
            for r, n, wmax in shapes:
                args = kernel_args(spec, random_rows(rng, spec.q, r, n), n)
                got = [
                    min_dependent_columns(*args, wmax, backend=name)
                    for name in ("pure", "compiled")
                ]
                assert got[0] == got[1]

    def test_matches_brute_force_over_prime_fields(self):
        rng = random.Random(515253)
        for spec in (F2, F5):
            for _ in range(25):
                r = rng.randrange(1, 5)
                n = rng.randrange(1, 8)
                rows = random_rows(rng, spec.q, r, n)
                wmax = r + 1
                expected = floored(brute_least_dependent(rows, spec, n), 1, wmax, n)
                args = kernel_args(spec, rows)
                for name in ("pure", "compiled"):
                    assert min_dependent_columns(*args, wmax, backend=name) == expected

    def test_int_arrays_are_passed_without_a_copy(self):
        ints = array("i", [1, 2])
        assert _int_array(ints) is ints
        for other in ([1, 2], array("l", [1, 2])):
            copy = _int_array(other)
            assert copy.typecode == "i" and list(copy) == [1, 2]

    def test_compiled_rejects_bad_input(self):
        """The C entry point checks its buffers and sizes before it reads."""
        compiled = available_backends().get("compiled")
        if compiled is None:
            pytest.skip("the compiled kernel is not built")
        cols, r, n, q, mul, sub, inv = kernel_args(F5, [[1, 2, 3], [4, 0, 1]])
        good = [array("i", cols), r, n, q, array("i", mul), array("i", sub),
                array("i", inv), 3, 1]
        assert compiled(*good) == 3
        assert compiled(*good[:-1]) == 3  # wmin defaults to 1
        bad = [
            (0, array("b", bytes(4 * len(cols)))),  # item size 1
            (0, array("i", cols[:-1])),  # shorter than r * n
            (4, array("i", mul[:-1])),  # shorter than q * q
            (5, array("i", sub[:-1])),
            (6, array("i", inv[:-1])),  # shorter than q
            (0, array("i", [5] + cols[1:])),  # entry outside [0, q)
            (1, -1), (2, -1), (3, -1), (7, -1),  # negative r, n, q, wmax
            (8, 0), (8, -1),  # wmin below 1
        ]
        for index, value in bad:
            args = list(good)
            args[index] = value
            with pytest.raises(ValueError):
                compiled(*args)


class TestFloorAndPairs:
    """The floor wmin and the pair level, which closes the last two columns
    of a subset by hashing their reduced, normalized images."""

    def expect(self, spec, rows, n, wmax, wmin, expected):
        args = kernel_args(spec, rows, n)
        for name in available_backends():
            got = min_dependent_columns(*args, wmax, wmin, backend=name)
            assert got == expected, (name, wmin, wmax)

    def test_floor_matches_brute_force(self):
        rng = random.Random(616263)
        for spec in (F2, F5, F32, F256):
            # (r, n, wmax): r = 0, n = 0, wmax = 0 and wmax > n, then random
            shapes = [(0, 4, 2), (0, 0, 1), (3, 0, 2), (3, 5, 0), (2, 3, 6)]
            for _ in range(12 if spec is F256 else 25):
                r = rng.randrange(1, 6)
                shapes.append((r, rng.randrange(1, 9), rng.randrange(1, r + 3)))
            for r, n, wmax in shapes:
                rows = random_rows(rng, spec.q, r, n)
                least = brute_least_dependent(rows, spec, n)
                for wmin in {1, rng.randrange(1, r + 4), rng.randrange(1, n + 3)}:
                    self.expect(spec, rows, n, wmax, wmin, floored(least, wmin, wmax, n))

    def test_floor_below_one_is_rejected(self):
        args = kernel_args(F5, [[1, 2, 3]])
        for name in available_backends():
            with pytest.raises(ValueError):
                min_dependent_columns(*args, 2, 0, backend=name)

    def test_repeated_columns_behind_a_basis(self):
        # columns 1 and 4 are equal; the floor makes the pair level find
        # them with one and then two columns in the basis
        columns = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (0, 1, 0)]
        rows = columns_to_rows(columns)
        assert brute_least_dependent(rows, F5, 5) == 2
        for wmin, expected in [(1, 2), (2, 2), (3, 3), (4, 4), (5, 5), (6, 0)]:
            self.expect(F5, rows, 5, 5, wmin, expected)

    @pytest.mark.parametrize("spec", [F5, F32, F256], ids=lambda s: str(s.q))
    def test_scalar_multiple_columns(self, spec):
        rng = random.Random(spec.q)
        field = slow_field(spec)
        u = [rng.randrange(1, spec.q) for _ in range(4)]
        c = rng.randrange(2, spec.q)
        columns = [(1, 0, 0, 0), (0, 1, 0, 0), u, (0, 0, 1, 0),
                   [field.mul(c, x) for x in u]]
        rows = columns_to_rows(columns)
        assert brute_least_dependent(rows, spec, 5) == 2
        for wmin in range(1, 7):
            self.expect(spec, rows, 5, 5, wmin, floored(2, wmin, 5, 5))

    @pytest.mark.parametrize("spec", [F5, F32, F256], ids=lambda s: str(s.q))
    @pytest.mark.parametrize("extra", [1, 2])
    def test_columns_parallel_only_modulo_the_basis(self, spec, extra):
        # a = c * b + (a combination of `extra` basis columns): no two
        # columns are parallel, but a and b are parallel modulo the basis,
        # so the least dependent set has 2 + extra columns
        rng = random.Random(10 * spec.q + extra)
        field = slow_field(spec)
        r = 5
        while True:
            independent = random_rows(rng, spec.q, 1 + extra, r)
            if field.rank(independent) == 1 + extra:
                break
        b, *basis = independent
        c = rng.randrange(2, spec.q)
        a = [field.mul(c, x) for x in b]
        for x in basis:
            f = rng.randrange(1, spec.q)
            a = [field.sub(y, field.mul(f, z)) for y, z in zip(a, x)]
        filler = random_rows(rng, spec.q, 2, r)
        columns = basis + filler[:1] + [b] + filler[1:] + [a]
        n = len(columns)
        rows = columns_to_rows(columns)
        least = brute_least_dependent(rows, spec, n)
        assert least == 2 + extra
        for wmin in range(1, n + 2):
            self.expect(spec, rows, n, n, wmin, floored(least, wmin, n, n))


class TestKnownInstances:
    def test_identity_has_no_dependency(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        args = kernel_args(F5, rows)
        assert min_dependent_columns(*args, 4) == 0

    def test_full_support_column_forces_size_four(self):
        rows = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
        args = kernel_args(F5, rows)
        assert min_dependent_columns(*args, 3) == 0
        assert min_dependent_columns(*args, 4) == 4

    def test_zero_column(self):
        rows = [[1, 0], [2, 0]]
        args = kernel_args(F5, rows)
        assert min_dependent_columns(*args, 3) == 1

    def test_repeated_column(self):
        rows = [[1, 3, 1], [2, 4, 2]]
        args = kernel_args(F5, rows)
        assert min_dependent_columns(*args, 4) == 2

    def test_zero_rows(self):
        assert min_dependent_columns([], 0, 3, 5, [], [], [], 2) == 1
