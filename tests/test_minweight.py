"""Both column-search backends agree with each other, with the search that
reduces every column from scratch, and with brute force."""

import functools
import inspect
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
import types
from array import array
from unittest import mock

import pytest

from deltacodes import _minweight_py, codes, minweight
from deltacodes.approximants import _fit_exponents, build_approximates
from deltacodes.codes import EvalMap, Scan, scan_table
from deltacodes.genesis import build_type_c
from deltacodes.gf import (
    MAX_FIELD_SIZE,
    FieldSpec,
    _is_prime,
    _primitive_powers,
)
from deltacodes.minweight import available_backends, min_dependent_columns
from deltacodes.semigroup import walk

import helpers
from oracles import (
    PointwiseRows,
    min_dependent_columns_from_scratch,
    rank_nullspace_ints,
)

F2 = FieldSpec(2)
F5 = FieldSpec(5)
F32 = FieldSpec(2, 5)
F256 = FieldSpec(2, 8)
ENTRY_POINTS = ("min_dependent_columns", "extend_echelon", "field_tables", "multiply_rows")


def built_kernel(backend):
    """The kernel module of a backend; the test is skipped when it is not
    built."""
    if backend not in available_backends():
        pytest.skip("the compiled kernel is not built")
    return minweight.kernel(backend)


def kernel_args(spec, rows, n=None):
    """Column-major matrix plus the flat tables the kernel wants; ``n`` is
    read from the rows when there are any."""
    r, n = len(rows), len(rows[0]) if rows else n
    cols = [0] * (r * n)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            cols[j * r + i] = v
    t = spec._t
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

    def add(self, a, b):
        pairs = zip(self.digits(a), self.digits(b))
        return self.encode([(x + y) % self.p for x, y in pairs])

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
        """The wrapper hands the compiled kernel an array('i') as it is, and
        a copy of anything else as one."""
        seen = []
        spy = types.SimpleNamespace(min_dependent_columns=lambda *args: seen.append(args) or 0)
        cols, r, n, q, mul, sub, inv = kernel_args(F5, [[1, 2]])
        ints = array("i", cols)
        with mock.patch.dict(minweight._BACKENDS, {"compiled": spy}):
            for given in (ints, cols, array("l", cols)):
                min_dependent_columns(given, r, n, q, mul, sub, inv, 2, backend="compiled")
        assert seen[0][0] is ints
        for args in seen:
            assert all(isinstance(a, array) and a.typecode == "i" for a in args[:1] + args[4:7])
            assert list(args[0]) == cols and list(args[6]) == inv

    def test_both_backends_keep_one_signature(self):
        """Each compiled entry point's text signature is its twin's, so the
        twin's docstrings state the compiled contract too."""
        compiled = built_kernel("compiled")
        for name in ENTRY_POINTS:
            twin = inspect.signature(getattr(_minweight_py, name))
            assert inspect.signature(getattr(compiled, name)) == twin, name
            assert getattr(compiled, name).__doc__ == f"See _minweight_py.{name}."

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_bad_sizes_and_columns_are_rejected(self, backend):
        """Both backends reject a size out of range, or a column entry
        outside [0, q), with one message."""
        search = built_kernel(backend).min_dependent_columns
        cols, r, n, q = kernel_args(F5, [[1, 2, 3], [4, 0, 1]])[:4]
        mul, sub, inv = F5._t.kernel_tables(backend)
        good = [array("i", cols), r, n, q, mul, sub, inv, 3, 1]
        assert search(*good) == 3
        sizes = "r, n, q and wmax must be non-negative, wmin positive and q at most 46340"
        bad = [
            (0, array("i", cols[:-1]), "cols holds 5 entries, needs 6"),
            (0, array("i", [5] + cols[1:]), "cols[0] = 5 is not in [0, 5)"),
            (0, array("i", cols[:3] + [-1] + cols[4:]), "cols[3] = -1 is not in [0, 5)"),
            (1, -1, sizes), (2, -1, sizes), (3, -1, sizes), (3, 46341, sizes),
            (7, -1, sizes), (8, 0, sizes), (8, -1, sizes),
        ]
        for index, value, message in bad:
            args = list(good)
            args[index] = value
            with pytest.raises(ValueError) as error:
                search(*args)
            assert str(error.value) == message, (index, value)
        # three rows of two columns: unchecked, a -1 would index a table from
        # its end and a 7 past the end of one
        for entry in (-1, 7):
            with pytest.raises(ValueError) as error:
                search(array("i", [entry, 2, 3, 4, 0, 1]), 3, 2, 5, mul, sub, inv, 3)
            assert str(error.value) == f"cols[0] = {entry} is not in [0, 5)"

    def test_compiled_rejects_bad_input(self):
        """The C entry point checks the item size of its buffers and its
        tables before it reads; the sizes and the columns are checked on
        both backends (test_bad_sizes_and_columns_are_rejected)."""
        compiled = built_kernel("compiled").min_dependent_columns
        cols, r, n, q, mul, sub, inv = kernel_args(F5, [[1, 2, 3], [4, 0, 1]])
        good = [array("i", cols), r, n, q, array("i", mul), array("i", sub),
                array("i", inv), 3, 1]
        assert compiled(*good) == 3
        assert compiled(*good[:-1]) == 3  # wmin defaults to 1
        bad = [
            (0, array("b", bytes(4 * len(cols)))),  # item size 1
            (4, array("i", mul[:-1])),  # shorter than q * q
            (5, array("i", sub[:-1])),
            (6, array("i", inv[:-1])),  # shorter than q
            (4, array("i", [5]) + mul[1:]),  # table entry outside [0, q)
        ]
        for index, value in bad:
            args = list(good)
            args[index] = value
            with pytest.raises(ValueError):
                compiled(*args)


    @staticmethod
    def extend_case(backend):
        """The echelon extension of a backend, arguments that pass, and a
        copy of them with a fresh basis and pivots."""
        basis, pivots = array("i", [0, 1, 2] + [0] * 6), array("i", [1, 0, 0])
        rows = array("i", [0, 2, 4, 1, 1, 1])  # twice the basis row, then a new row
        good = [rows, 2, 3, 5, *F5._t.kernel_tables(backend), basis, pivots, 1]

        def fresh(index=None, value=None):
            # the basis and pivots as a call sees them, unchanged by others
            args = list(good)
            args[7], args[8] = array("i", basis), array("i", pivots)
            if index is not None:
                args[index] = value
            return args

        extend = built_kernel(backend).extend_echelon
        assert extend(*fresh()) == b"\x00\x01"
        return extend, good, fresh

    def test_compiled_extend_echelon_rejects_bad_input(self):
        """The C echelon extension checks the item size of its inputs and
        its tables before it reads; the sizes, the rows and the caller's
        basis are checked on both backends
        (test_extend_echelon_rejects_bad_sizes_rows_and_basis)."""
        extend, good, fresh = self.extend_case("compiled")
        rows, mul, sub, inv = good[0], *good[4:7]
        bad = [
            (0, array("b", bytes(4 * len(rows)))),  # item size 1
            (4, array("i", mul[:-1])),  # shorter than q * q
            (5, array("i", sub[:-1])),
            (6, array("i", inv[:-1])),  # shorter than q
            (6, array("i", [0, 1, 3, 2, 5])),  # table entry outside [0, q)
        ]
        for index, value in bad:
            with pytest.raises(ValueError):
                extend(*fresh(index, value))

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_extend_echelon_rejects_bad_sizes_rows_and_basis(self, backend):
        """Both backends check these with the same message before they
        write."""
        extend, good, fresh = self.extend_case(backend)
        rows, basis, pivots = good[0].tolist(), good[7], good[8]
        sizes = "m, n and q must be non-negative, rank in [0, n] and q at most 46340"
        bad = [
            (0, array("i", rows[:-1]), "rows holds 5 entries, needs 6"),
            (0, array("i", [5] + rows[1:]), "rows[0] = 5 is not in [0, 5)"),
            (0, array("i", rows[:4] + [-1, 1]), "rows[4] = -1 is not in [0, 5)"),
            (7, array("i", basis[:-1]), "basis holds 8 entries, needs 9"),
            (8, array("i", pivots[:-1]), "pivots holds 2 entries, needs 3"),
            (7, memoryview(array("i", basis)).toreadonly(), "basis must be writable"),
            (8, memoryview(array("i", pivots)).toreadonly(), "pivots must be writable"),
            (7, array("l", basis), "basis must be an array('i')"),
            (7, array("i", [0, 1, 5] + [0] * 6), "basis[2] = 5 is not in [0, 5)"),
            (7, array("i", [0, -1, 2] + [0] * 6), "basis[1] = -1 is not in [0, 5)"),
            (8, array("i", [3, 0, 0]), "pivots[0] = 3 is not in [0, 3)"),
            (8, array("i", [-1, 0, 0]), "pivots[0] = -1 is not in [0, 3)"),
            (1, -1, sizes), (2, -1, sizes), (3, -1, sizes), (3, 46341, sizes),
        ]
        for index, value, message in bad:
            with pytest.raises(ValueError) as error:
                extend(*fresh(index, value))
            assert str(error.value) == message, (index, value)
        # room for the rows the call can write, min(rank + m, n) rows and as
        # many pivots: one row short is rejected, the exact room accepted
        for m, room in ((0, 1), (1, 2), (2, 3), (3, 3)):
            for kept, message in (
                ((room, room), None),
                ((room - 1, room), f"basis holds {room * 3 - 3} entries, needs {room * 3}"),
                ((room, room - 1), f"pivots holds {room - 1} entries, needs {room}"),
            ):
                args = fresh(1, m)
                args[0] = array("i", rows + [1, 2, 3])
                args[7], args[8] = array("i", basis[: kept[0] * 3]), array("i", pivots[: kept[1]])
                if message is None:
                    assert len(extend(*args)) == m
                    continue
                with pytest.raises(ValueError) as error:
                    extend(*args)
                assert str(error.value) == message, m
        # rank outside [0, n], with buffers that would pass for that rank
        for rank in (-1, 4):
            args = fresh(9, rank)
            args[7] = array("i", [0, 1, 2] * 4 + [0] * 3)
            args[8] = array("i", [1] * 4)
            with pytest.raises(ValueError) as error:
                extend(*args)
            assert str(error.value) == sizes


def mixed_rows(spec, rng, n, count):
    """Random rows with every kind of dependency on the rows before them."""
    t, q = spec._t, spec.q
    rows = []
    for _ in range(count):
        kind = rng.randrange(5) if rows else 4
        if kind == 0:  # zero row
            row = [0] * n
        elif kind == 1:  # repeated row
            row = list(rng.choice(rows))
        elif kind == 2:  # scalar multiple
            c = rng.randrange(1, q)
            row = [t.mul[c * q + v] for v in rng.choice(rows)]
        elif kind == 3:  # a combination of earlier rows
            row = [0] * n
            for other in rng.sample(rows, min(3, len(rows))):
                c = rng.randrange(q)
                row = [t.sub[a * q + t.mul[c * q + b]] for a, b in zip(row, other)]
        else:
            row = [rng.randrange(q) for _ in range(n)]
        rows.append(row)
    return rows


class EchelonCase:
    """Rows of length n over one field, and the flags their prefix ranks
    give: flag i is rank(rows[:i + 1]) - rank(rows[:i])."""

    def __init__(self, spec, n, rows):
        self.spec, self.n, self.rows = spec, n, rows
        ranks = [rank_nullspace_ints(rows[:i], n, spec)[0] for i in range(len(rows) + 1)]
        self.expected = [b - a for a, b in zip(ranks, ranks[1:])]

    def run(self, sizes, backend, guard=7):
        """Flags, basis rows and pivots after feeding the rows in blocks of
        the given sizes.  Each call gets the room it may write, min(rank +
        m, n) rows and as many pivots, and then ``guard`` entries, which
        must stay untouched."""
        spec, n = self.spec, self.n
        extend, tables = minweight.kernel(backend).extend_echelon, spec._t.kernel_tables(backend)
        basis, pivots = array("i"), array("i")
        flags, rank, at = [], 0, 0
        for m in sizes:
            room = min(rank + m, n)
            basis = basis[: rank * n] + array("i", [0] * ((room - rank) * n) + [guard] * n)
            pivots = pivots[:rank] + array("i", [0] * (room - rank) + [guard])
            block = array("i", [v for row in self.rows[at : at + m] for v in row])
            got = extend(block, m, n, spec.q, *tables, basis, pivots, rank)
            assert isinstance(got, bytes) and len(got) == m
            assert list(basis[room * n :]) == [guard] * n and pivots[room] == guard
            flags += got
            rank += sum(got)
            at += m
        assert at == len(self.rows)
        return flags, list(basis[: rank * n]), list(pivots[:rank])


def random_split(rng, count):
    """Block sizes summing to count, empty blocks included."""
    sizes = []
    while count:
        m = rng.randrange(0, count + 1)
        sizes.append(m)
        count -= m
    return sizes + [0] * rng.randrange(2)


class TestExtendEchelon:
    """The scan's rank step: a block of rows reduced against an echelon
    basis the caller keeps."""

    @pytest.mark.parametrize("spec", [F2, F5, F32, F256], ids=lambda s: str(s.q))
    def test_flags_are_prefix_rank_steps_on_every_split(self, spec):
        rng = random.Random(717273 + spec.q)
        for _ in range(20):
            n = rng.randrange(1, 8)
            case = EchelonCase(spec, n, mixed_rows(spec, rng, n, rng.randrange(0, n + 5)))
            whole = None
            count = len(case.rows)
            for sizes in ([count], [1] * count, random_split(rng, count)):
                for name in available_backends():
                    got = case.run(sizes, name)
                    assert got[0] == case.expected, (name, sizes)
                    whole = whole or got
                    assert got == whole, (name, sizes)  # same basis on both backends

    @pytest.mark.parametrize("spec", [F2, F5, F32, F256], ids=lambda s: str(s.q))
    def test_blocks_that_reach_rank_n(self, spec):
        rng = random.Random(818283 + spec.q)
        n = 4
        while True:
            rows = random_rows(rng, spec.q, n, n)
            if rank_nullspace_ints(rows, n, spec)[0] == n:
                break
        case = EchelonCase(spec, n, rows + [rows[0], [0] * n] + random_rows(rng, spec.q, 2, n))
        assert case.expected == [1] * n + [0] * 4
        for sizes in ([n, 4], [n + 4], [2, n - 2, 0, 1, 3]):
            for name in available_backends():
                flags, basis, pivots = case.run(sizes, name)
                assert flags == case.expected
                assert len(pivots) == n and sorted(pivots) == list(range(n))
                for b, p in enumerate(pivots):  # normalized: leading 1 at the pivot
                    row = basis[b * n : (b + 1) * n]
                    assert row[:p] == [0] * p and row[p] == 1

    def test_empty_blocks_and_zero_rows(self):
        for name in available_backends():
            for spec in (F2, F5):
                assert EchelonCase(spec, 3, [[0] * 3] * 2).run([0, 2, 0], name)[0] == [0, 0]
                assert EchelonCase(spec, 3, []).run([0], name) == ([], [], [])


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
    @pytest.mark.parametrize("extra", [1, 2, 4, 5])
    def test_columns_parallel_only_modulo_the_basis(self, spec, extra):
        # a = c * b + (a combination of `extra` basis columns): no two
        # columns are parallel, but a and b are parallel modulo the basis,
        # so the least dependent set has 2 + extra columns, found with a
        # basis of depth `extra`
        rng = random.Random(10 * spec.q + extra)
        field = slow_field(spec)
        r = max(5, extra + 4)
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


def planted_columns(spec, rng, r, n):
    """n columns of length r, shuffled: random ones, and one or two that are
    combinations of two to five of the random ones, so dependent sets of up
    to six columns."""
    field = slow_field(spec)
    planted = rng.randrange(1, 3)
    columns = random_rows(rng, spec.q, n - planted, r)
    for _ in range(planted):
        column = [0] * r
        size = rng.randrange(2, min(6, n - planted + 1))
        for other in rng.sample(columns[: n - planted], size):
            c = rng.randrange(1, spec.q)
            column = [field.add(a, field.mul(c, b)) for a, b in zip(column, other)]
        columns.append(column)
    rng.shuffle(columns)
    return columns


class TestDepthImages:
    """The search keeps each depth's column images, each made from the depth
    above by one row operation: it answers as the search that reduces every
    column from scratch, and allocates only for the depths it reaches."""

    def expect_every_floor(self, spec, columns, brute=True):
        """Both backends agree with the search from scratch, and with brute
        force, at every floor from 1 to d + 2, under two ceilings."""
        rows = columns_to_rows(columns)
        n = len(columns)
        args = kernel_args(spec, rows, n)
        least = min_dependent_columns_from_scratch(*args, n)
        if brute:
            assert brute_least_dependent(rows, spec, n) == least
        for wmin in range(1, (least or n) + 3):
            for wmax in {n, least}:
                expected = min_dependent_columns_from_scratch(*args, wmax, wmin)
                assert expected == floored(least, wmin, wmax, n)
                for name in available_backends():
                    got = min_dependent_columns(*args, wmax, wmin, backend=name)
                    assert got == expected, (name, wmin, wmax)
        return least

    @pytest.mark.parametrize("spec", [F2, F5, F32, F256], ids=lambda s: str(s.q))
    def test_planted_dependencies_at_every_floor(self, spec):
        rng = random.Random(919293 + spec.q)
        for _ in range(10):
            r = rng.randrange(4, 8)
            columns = planted_columns(spec, rng, r, rng.randrange(6, 10))
            self.expect_every_floor(spec, columns)

    @pytest.mark.parametrize("spec", [F2, F32], ids=lambda s: str(s.q))
    def test_wide_random_matrices(self, spec):
        # too many columns for brute force, deep enough for several levels
        rng = random.Random(939495 + spec.q)
        for r, n in [(6, 14), (7, 11)]:
            columns = [[rng.randrange(spec.q) for _ in range(r)] for _ in range(n)]
            self.expect_every_floor(spec, columns, brute=False)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_memory_follows_the_depth_reached(self, backend):
        """A search that stops at d = 3 allocates as much with wmax = n as
        with wmax = 3: nothing is allocated for the depths it never reaches,
        where w - 2 levels of n x r ints would take 72 KB at wmax = n."""
        if backend not in available_backends():
            pytest.skip("the compiled kernel is not built")
        rng = random.Random(31)
        r, n = 20, 31
        columns = random_rows(rng, F32.q, n - 1, r)
        field = slow_field(F32)
        columns.append([field.add(a, b) for a, b in zip(columns[3], columns[17])])
        args = kernel_args(F32, columns_to_rows(columns), n)
        args = (array("i", args[0]), *args[1:4], *map(array, "iii", args[4:]))
        assert min_dependent_columns_from_scratch(*args, n) == 3

        def peak(wmax):
            tracemalloc.start()
            try:
                assert min_dependent_columns(*args, wmax, backend=backend) == 3
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(n)  # a first call, so that nothing made once is counted
        assert peak(n) <= peak(3) + n * r * 4 // 2


# The jumps-mode scan of build_type_c((5, 3)) over 24 distinct points
# (g^a, g^b) of F_32 squared drawn by random.Random(0): d at ranks 13 to 21,
# the ranks whose searches take seconds when every column is reduced from
# scratch.
SCAN_24_D = {13: 10, 14: 12, 15: 13, 16: 14, 17: 14, 18: 15, 19: 17, 20: 18, 21: 20}


def test_the_24_point_scan_keeps_its_distances(monkeypatch):
    if "compiled" not in available_backends():
        pytest.skip("the compiled kernel is not built")
    monkeypatch.setattr(minweight, "BACKEND", "compiled")
    spec = FieldSpec(2, 5)
    gpow = spec._t.gpow
    cells = random.Random(0).sample(range(31 * 31), 24)
    points = [(gpow[a], gpow[b]) for a, b in (divmod(c, 31) for c in cells)]
    delta = build_type_c((5, 3))
    rows = scan_table(delta, EvalMap(spec, points))
    d = {24 - row.k: row.d for row in rows}
    assert {rank: d[rank] for rank in SCAN_24_D} == SCAN_24_D


# Every field FieldSpec accepts, with its default modulus, and three
# irreducible moduli whose g is not primitive.
EVERY_FIELD = [
    FieldSpec(p, m)
    for p in range(2, MAX_FIELD_SIZE + 1) if _is_prime(p)
    for m in range(1, MAX_FIELD_SIZE.bit_length()) if p**m <= MAX_FIELD_SIZE
] + [
    FieldSpec(2, 4, (1, 1, 1, 1, 1)),
    FieldSpec(3, 2, (1, 0, 1)),
    FieldSpec(2, 6, (1, 0, 0, 1, 0, 0, 1)),
]


def filled_tables(spec, powers, backend):
    """``sub`` and ``mul`` of the spec as one backend fills them, from the
    given powers."""
    q = spec.q
    sub, mul = array("i", [0]) * (q * q), array("i", [0]) * (q * q)
    minweight.kernel(backend).field_tables(array("i", powers), spec.p, spec.m, sub, mul)
    return sub, mul


class TestFieldTables:
    """The third kernel entry point: a field's q*q subtraction and
    multiplication tables."""

    def test_backends_agree_on_every_field(self):
        if "compiled" not in available_backends():
            pytest.skip("the compiled kernel is not built")
        assert len(EVERY_FIELD) == 198 + 3
        for spec in EVERY_FIELD:
            powers = _primitive_powers(spec)[1]
            pure = filled_tables(spec, powers, "pure")
            assert filled_tables(spec, powers, "compiled") == pure, spec

    @pytest.mark.parametrize(
        "spec", [F5, FieldSpec(3, 2), FieldSpec(3, 2, (1, 0, 1)), F32], ids=str
    )
    def test_tables_are_the_field_operations(self, spec):
        field = slow_field(spec)
        powers = _primitive_powers(spec)[1]
        q = spec.q
        for backend in available_backends():
            sub, mul = filled_tables(spec, powers, backend)
            for a in range(q):
                for b in range(q):
                    assert sub[a * q + b] == field.sub(a, b)
                    assert mul[a * q + b] == field.mul(a, b)
                    # a sum is a difference with the negation, row 0 of sub
                    assert sub[a * q + sub[b]] == field.add(a, b)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_bad_input_is_rejected(self, backend):
        if backend not in available_backends():
            pytest.skip("the compiled kernel is not built")
        spec = FieldSpec(3, 2)
        q, powers = spec.q, _primitive_powers(spec)[1]
        fill = minweight.kernel(backend).field_tables

        def out(size=q * q):
            return array("i", [0]) * size

        good = [array("i", powers), 3, 2, out(), out()]
        fill(*good)
        bad = [
            (0, powers[:-1]),  # short
            (0, powers + [powers[0]]),  # long
            (0, powers[:-1] + [powers[0]]),  # a power repeated
            (0, [0] + powers[1:]),  # zero
            (0, powers[:-1] + [q]),  # outside [1, q)
            (0, powers[:-1] + [-1]),
            (1, 46349),  # q above MAX_Q, with every other argument as for p = 3
            (1, 1),
            (1, -50000),  # p below 2, whose square would overflow an int
            (2, 0),
            (2, 16),  # 3^16 is above MAX_Q
            (3, out(q * q - 1)),  # short outputs
            (4, out(q * q - 1)),
            (3, memoryview(out()).toreadonly()),  # read-only outputs
            (4, memoryview(out()).toreadonly()),
            (3, array("b", bytes(4 * q * q))),  # item size 1
        ]
        for index, value in bad:
            args = list(good)
            args[index] = array("i", value) if index == 0 else value
            with pytest.raises(ValueError):
                fill(*args)

    def test_a_backend_that_is_not_built_is_rejected(self):
        with pytest.raises(ValueError, match="is not built"):
            minweight.kernel("missing")


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


# --- the scan's rows and pair counts -----------------------------------------

SCAN_FAMILIES = helpers.SCAN_FAMILIES
# Over the 31 points of EV32_B the integer kind never reaches full rank.
SCAN_CASES = [
    (name, ev)
    for name in SCAN_FAMILIES
    for ev in ("EV7", "EV32_B")
    if (name, ev) != ("DN119", "EV32_B")
]


def scan_rows_by_rule(delta, fam, ev, count, backend):
    """The rows of the first ``count`` members, each formed as the scan forms
    it: the row of the member with the first nonzero exponent lowered by one,
    times that approximant's values, in one ``multiply_rows`` call."""
    n, q, t = ev.n, ev.spec.q, ev.spec._t
    mul, sub, _ = t.kernel_tables(backend)
    values = codes._approximant_rows(fam, ev, mul, sub, backend)
    index, parents, factors = {}, [], []
    for k, (_, rep) in enumerate(itertools.islice(walk(delta), count)):
        exps = _fit_exponents(fam, rep.exponents)
        if k:
            i = next(i for i, a in enumerate(exps) if a)
            parents.append(index[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]])
            factors.append(i)
        index[exps] = k
    rows = array("i", [1] * n + [0] * (len(parents) * n))
    minweight.kernel(backend).multiply_rows(
        rows, 1, array("i", parents), array("i", factors), values, n, q, mul
    )
    return list(index), rows


class TestMultiplyRows:
    """The scan's rows, each an earlier member's row times one approximant
    row, against the pointwise products of approximant powers."""

    @pytest.mark.parametrize("name,ev", SCAN_CASES)
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_scan_rows_equal_pointwise_products(self, name, ev, backend):
        delta, ev = SCAN_FAMILIES[name], getattr(helpers, ev)
        fam = build_approximates(delta, ev.spec)
        scan = Scan(delta, ev, backend=backend)
        oracle = PointwiseRows(fam, ev)
        expected = array("i", [v for exps in scan.exponents for v in oracle.row(exps)])
        assert scan.rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["DN119", "DZ_BIG", "DR75", "CH75"])
    def test_random_point_sets_up_to_2048_points(self, name):
        delta, rng = SCAN_FAMILIES[name], random.Random(2048 + len(name))
        fam = build_approximates(delta, F256)
        for n in (1, 2, rng.randrange(3, 300), 2048):
            cells = rng.sample(range(F256.q * F256.q), n)
            ev = EvalMap(F256, [divmod(c, F256.q) for c in cells])
            oracle = PointwiseRows(fam, ev)
            for backend in available_backends():
                exponents, rows = scan_rows_by_rule(delta, fam, ev, 60, backend)
                expected = array("i", [v for exps in exponents for v in oracle.row(exps)])
                assert rows.tobytes() == expected.tobytes(), (n, backend)

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_bad_input_is_rejected(self, backend):
        n, q, mul = 3, 5, F5._t.kernel_tables(backend)[0]
        values = array("i", [1, 2, 3, 4, 0, 1])  # two rows of values
        multiply_rows = minweight.kernel(backend).multiply_rows

        def call(rows=None, parents=(0, 1), factors=(0, 1)):
            rows = array("i", [1] * n + [0] * (2 * n)) if rows is None else rows
            multiply_rows(rows, 1, array("i", parents), array("i", factors), values, n, q, mul)
            return rows

        assert list(call()) == [1, 1, 1, 1, 2, 3, 4, 0, 3]
        bad = [
            {"parents": (1, 1)},  # a parent at its own row
            {"parents": (0, 3)},  # a parent after its row
            {"parents": (-1, 0)},
            {"factors": (0, 2)},  # no third row of values
            {"factors": (-1, 0)},
            {"factors": (0,)},  # shorter than the parents
            {"rows": array("l", [1] * (3 * n))},  # item size 8
            {"rows": array("h", [1] * (3 * n))},  # item size 2
            {"rows": memoryview(array("i", [1] * (3 * n))).toreadonly()},
            {"rows": array("i", [1] * (3 * n - 1))},  # no room for the rows made
        ]
        for case in bad:
            with pytest.raises(ValueError):
                call(**case)
        with pytest.raises(ValueError):
            multiply_rows(array("i", [1] * 9), -1, array("i", [0]), array("i", [0]), values, n, q,
                          mul)

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_entries_out_of_range_are_rejected_with_one_message(self, backend):
        """A value entry, or an entry of a parent row, outside [0, q) would
        index ``mul`` outside its row; a parent or a factor outside the rows
        would read past them.  Both backends reject each with one message."""
        multiply_rows = minweight.kernel(backend).multiply_rows
        mul = F5._t.kernel_tables(backend)[0]
        for row, parent, factor, values, message in (
            ([1, 1, 1], 0, 0, [4, 0, -1], "values[2] = -1 is not in [0, 5)"),
            ([1, 9, 1], 0, 0, [4, 0, 1], "rows[1] = 9 is not in [0, 5)"),
            ([1, 1, 1], -1, 0, [4, 0, 1], "parents[0] = -1 is not in [0, 2)"),
            ([1, 1, 1], 2, 0, [4, 0, 1], "parents[0] = 2 is not in [0, 2)"),
            ([1, 1, 1], 1, 0, [4, 0, 1], "parents[0] = 1 is not before row 1"),
            ([1, 1, 1], 0, 1, [4, 0, 1], "factors[0] = 1 is not in [0, 1)"),
        ):
            rows = array("i", row + [0, 0, 0])
            with pytest.raises(ValueError) as error:
                multiply_rows(rows, 1, array("i", [parent]), array("i", [factor]),
                              array("i", values), 3, 5, mul)
            assert str(error.value) == message

    def test_compiled_checks_every_buffer(self):
        """The C entry point, called directly, checks the item size of each
        input and the entries it reads."""
        compiled = pytest.importorskip("deltacodes._minweight").multiply_rows
        mul = array("i", F5._t.kernel_tables("compiled")[0])
        good = [array("i", [1, 1, 1, 0, 0, 0]), 1, array("i", [0]), array("i", [1]),
                array("i", [1, 2, 3, 4, 0, 1]), 3, 5, mul]
        compiled(*good)
        assert list(good[0]) == [1, 1, 1, 4, 0, 1]
        bad = [
            (2, array("b", [0] * 4)),  # item size 1
            (3, array("h", [1, 0])),  # item size 2
            (4, array("b", bytes(24))),
            (7, array("i", mul[:-1])),  # shorter than q * q
            (0, array("i", [1, 7, 1, 0, 0, 0])),  # a parent entry outside [0, q)
            (4, array("i", [1, 2, 3, 4, 0, 5])),  # a value outside [0, q)
            (5, 0), (6, 0),  # n and q below 1
        ]
        for index, value in bad:
            args = list(good)
            args[0] = array("i", [1, 1, 1, 0, 0, 0]) if index else value
            args[index] = value
            with pytest.raises(ValueError):
                compiled(*args)

    def test_the_scan_hands_the_kernel_its_arrays_uncopied(self):
        """The compiled entry points receive the scan's own objects: its
        flat rows, each block of them as a memoryview slice of those rows,
        the field's table arrays, and the search's columns as an
        array('i')."""
        compiled = built_kernel("compiled")
        calls = []

        def spying(name):
            def call(*args):
                # a memoryview is recorded by the array it shows, so that
                # the scan can grow its rows after the call
                calls.append((name, [(type(a), getattr(a, "obj", a)) for a in args]))
                return getattr(compiled, name)(*args)

            return call

        spy = types.SimpleNamespace(**{name: spying(name) for name in ENTRY_POINTS})
        spec = helpers.EV32_B.spec
        t = spec._t
        tables = t.kernel_tables("compiled")
        assert tables[0] is t.mul and tables[1] is t.sub
        with mock.patch.dict(minweight._BACKENDS, {"compiled": spy}):
            scan = Scan(helpers.DZ75, helpers.EV32_B, backend="compiled")
            code = scan.code_at(scan.members[scan.rank_after.index(3)])
            d = codes.min_distance(code, backend="compiled")
        assert d == codes.min_distance(code, backend="pure") == 3
        walk_calls = [args for name, args in calls if name in ("multiply_rows", "extend_echelon")]
        assert {name for name, _ in calls} == {*ENTRY_POINTS} - {"field_tables"}
        for name, args in calls:
            buffers = [(kind, obj) for kind, obj in args if kind in (array, memoryview)]
            assert all(isinstance(obj, array) and obj.typecode == "i" for _, obj in buffers)
            given = args[7:] if name == "multiply_rows" else args[4:7]
            assert all(obj is want for (_, obj), want in zip(given, tables)), name
        scan_rows = [args for args in walk_calls if args[0][1] is scan.rows]
        kinds = {(len(args), args[0][0]) for args in scan_rows}
        assert kinds == {(8, array), (10, memoryview)}  # row products, then rank steps
        assert len(scan_rows) >= 2 * 3
        (search,) = [args for name, args in calls if name == "min_dependent_columns"]
        assert search[0][0] is array
