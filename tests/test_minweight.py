"""Both column-search backends agree with each other and with brute force."""

import itertools
import os
import random
import subprocess
import sys
from array import array

import pytest

from deltacodes.gf import FieldSpec, _tables
from deltacodes.minweight import available_backends, min_dependent_columns

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


def rank_mod_p(rows, p):
    """Row rank over a prime field by plain elimination, kept independent of
    the library's arithmetic."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] % p), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] % p:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def brute_min_dependent(rows, p, wmax):
    """Smallest dependent column-subset size by exhaustive search."""
    r, n = len(rows), len(rows[0])
    for w in range(1, wmax + 1):
        for subset in itertools.combinations(range(n), w):
            sub_rows = [[row[j] for j in subset] for row in rows]
            if rank_mod_p(list(zip(*sub_rows)), p) < w:
                return w
    return 0


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
                expected = brute_min_dependent(rows, spec.p, wmax)
                args = kernel_args(spec, rows)
                for name in ("pure", "compiled"):
                    assert min_dependent_columns(*args, wmax, backend=name) == expected

    def test_compiled_rejects_bad_input(self):
        """The C entry point checks its buffers and sizes before it reads."""
        compiled = available_backends().get("compiled")
        if compiled is None:
            pytest.skip("the compiled kernel is not built")
        cols, r, n, q, mul, sub, inv = kernel_args(F5, [[1, 2, 3], [4, 0, 1]])
        good = [array("i", cols), r, n, q, array("i", mul), array("i", sub),
                array("i", inv), 3]
        assert compiled(*good) == 3
        bad = [
            (0, array("b", bytes(4 * len(cols)))),  # item size 1
            (0, array("i", cols[:-1])),  # shorter than r * n
            (4, array("i", mul[:-1])),  # shorter than q * q
            (5, array("i", sub[:-1])),
            (6, array("i", inv[:-1])),  # shorter than q
            (0, array("i", [5] + cols[1:])),  # entry outside [0, q)
            (1, -1), (2, -1), (3, -1), (7, -1),  # negative r, n, q, wmax
        ]
        for index, value in bad:
            args = list(good)
            args[index] = value
            with pytest.raises(ValueError):
                compiled(*args)


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
