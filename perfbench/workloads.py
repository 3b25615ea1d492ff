"""Job lists for the three benchmark workloads, generated from a seed.

A job is a dict that ``worker.py`` can run in a fresh interpreter:

- ``{"name", "kind": "cli", "argv", "config"}`` runs ``deltacodes.cli.main``
  on a generated config file and keeps the output file;
- ``{"name", "kind": "represent", "under", "steps", "values"}`` calls
  ``deltacodes.semigroup.represent`` on chain members;
- ``{"name", "kind": "kernel", "seed"}`` times the column-search kernel alone.

The program only ever sees the generated configs; the seed never reaches it.
Sequences and point sets are those of the reference scans.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from math import gcd

WORKLOADS = ("ref-f32", "walk-wide", "semigroup-queries")

# Twelve affine points over F_7 (the planar reference scan).
POINTS_F7 = [
    (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1),
]
# Exponent pairs (a, b) of the points (g^a, g^b) of the two 31-point sets.
PAIRS_F32_A = (
    [(1, j) for j in range(1, 15)]
    + [(2, j) for j in range(1, 15)]
    + [(3, 3), (4, 4), (5, 5)]
)
PAIRS_F32_B = (
    [(1, j) for j in range(1, 15)]
    + [(6, j) for j in range(1, 11)]
    + [(2, j) for j in range(11, 15)]
    + [(20, 20), (21, 21), (28, 28)]
)

# [delta] sections of the families, keyed as in the reference scans.
FAMILIES = {
    "dz119": "type = C\nunder = 11 9\n",
    "dz427": "type = C\nunder = 42 30 70 77\n",
    "dz53": "type = C\nunder = 5 3\n",
    "dz75": "type = C\nunder = 7 5\n",
    "dz_big": "type = C\nunder = 36 24 8 18 13\n",
    "dr75": "type = D\nunder = 7 5\ndigits = 28 3 1\n",
    "dr_big_a": "type = D\nunder = 36 24 8 18 13\ndigits = 20 5 2\n",
    "ch75": "type = E\nunder = 7 5\nsteps = 4\n",
    "ch_big": "type = E\nunder = 36 24 8 18 13\nsteps = 3\n",
    "ch119_6": "type = E\nunder = 11 9\nsteps = 6\n",
}

F7 = "p = 7\n"
F32 = "p = 2\nm = 5\n"
F256 = "p = 2\nm = 8\n"

WIDE_POINTS = 62
CHAIN_BOUND = 40


def _config(field: str, family: str, points: list[str], job: str = "") -> str:
    text = f"[field]\n{field}\n[delta]\n{FAMILIES[family]}\n[points]\n"
    text += "".join(f"{p}\n" for p in points)
    if job:
        text += f"\n[job]\n{job}"
    return text


def _power_points(pairs) -> list[str]:
    return [f"g^{a} g^{b}" for a, b in pairs]


def _table(name: str, field: str, family: str, points, job: str = "") -> dict:
    return {
        "name": name,
        "kind": "cli",
        "argv": ["table"],
        "config": _config(field, family, points, job),
    }


def _frobenius(pairs, rng: random.Random):
    """The points (g^a, g^b) under a seed-chosen power of x -> x^2 on F_32.

    The approximants have coefficients in F_2, so the twist maps every
    evaluation row entrywise by a field automorphism: the same column subsets
    stay dependent, and the output and the search's path are unchanged.  A
    permutation of the points would keep the output too, but moves the
    search's cost (one pass took 17 s under one order, 33 s under another).
    """
    k = 2 ** rng.randrange(5)
    return [(a * k % 31, b * k % 31) for a, b in pairs]


def ref_f32(rng: random.Random) -> list[dict]:
    """The extension-field reference tables plus the F_7 planar table; every
    output is seed-independent."""
    nine = "limit = 9\n"
    jobs = [
        _table(name, F32, name, _power_points(_frobenius(pairs, rng)), nine)
        for name, pairs in (
            ("dz427", PAIRS_F32_A),
            ("dz53", PAIRS_F32_A),
            ("dz75", PAIRS_F32_B),
            ("dr75", PAIRS_F32_B),
            ("ch75", PAIRS_F32_B),
        )
    ]
    planar = [f"{x} {y}" for x, y in POINTS_F7]
    rng.shuffle(planar)
    jobs.append(_table("plane119", F7, "dz119", planar))
    return jobs


def _distinct_pairs(rng: random.Random, count: int, order: int) -> list[tuple[int, int]]:
    """``count`` distinct exponent pairs, so distinct points (g^a, g^b)."""
    cells = rng.sample(range(order * order), count)
    return [divmod(c, order) for c in cells]


def walk_wide(rng: random.Random) -> list[dict]:
    """Two-row tables over 62 seed-chosen points: the searches stop at d <= 3,
    so the member walk up to the rank bound dominates."""
    two = "limit = 2\n"
    wide = _power_points(_distinct_pairs(rng, WIDE_POINTS, 31))
    jobs = [
        _table(family, F32, family, wide, two)
        for family in ("dr_big_a", "ch_big", "dr75", "dz_big", "ch75")
    ]
    wide256 = _power_points(_distinct_pairs(rng, WIDE_POINTS, 255))
    jobs.append(_table("ch75_f256", F256, "ch75", wide256, two))
    return jobs


def chain_generators(under, steps: int) -> list[Fraction]:
    """Normalized generators of the default chain extension, recomputed here
    independently of the library: scale by the least z >= 2 coprime to the
    last entry and append (z + 1) * last."""
    deltas = list(under)
    for _ in range(steps):
        last = deltas[-1]
        z = 2
        while gcd(z, last) != 1:
            z += 1
        deltas = [z * v for v in deltas] + [(z + 1) * last]
    return [Fraction(v, deltas[1]) for v in deltas]


def chain_generators_upto(under, bound: int) -> list[Fraction]:
    """The chain's generators that do not exceed ``bound``."""
    steps = 0
    while chain_generators(under, steps)[-1] <= bound:
        steps += 1
    return chain_generators(under, steps)[:-1]


def semigroup_queries(rng: random.Random, chain_members: list[Fraction]) -> list[dict]:
    """One large enumeration per kind, then point queries on chain members.

    A query's cost is set by how many generators the chain must append to
    cover the value, so one value is drawn from each interval between
    consecutive appended generators up to the bound (ten of them): every
    seed asks different values at the same cost.
    """
    jobs = [
        {
            "name": "chain119",
            "kind": "cli",
            "argv": ["semigroup"],
            "config": _config(F7, "ch119_6", [], f"bound = {CHAIN_BOUND}\n"),
        },
        {
            "name": "dr_big_a",
            "kind": "cli",
            "argv": ["semigroup"],
            "config": _config(F7, "dr_big_a", [], "bound = 10\n"),
        },
    ]
    under = (11, 9)
    appended = chain_generators_upto(under, CHAIN_BOUND)[len(under):]
    edges = [0] + [bisect_left(chain_members, g) for g in appended] + [len(chain_members)]
    values = [str(rng.choice(chain_members[lo:hi])) for lo, hi in zip(edges, edges[1:])]
    jobs.append(
        {
            "name": "represent",
            "kind": "represent",
            "under": list(under),
            "steps": 6,
            "values": values,
        }
    )
    return jobs


def jobs_for(workload: str, seed: int, chain_members: list[Fraction]) -> list[dict]:
    """The jobs of one workload pass; ``chain_members`` are the members of the
    chain semigroup up to ``CHAIN_BOUND``, in increasing order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ref-f32":
        return ref_f32(rng)
    if workload == "walk-wide":
        return walk_wide(rng)
    if workload == "semigroup-queries":
        return semigroup_queries(rng, chain_members)
    raise ValueError(f"unknown workload {workload!r}")
