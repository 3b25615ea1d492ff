"""Output checks for the benchmark jobs.

Each check returns a list of problems; an empty list means the job's output
is correct.  ``ref-f32`` outputs are compared byte for byte with tables
recorded at the seed commit (and the planar table with the repository's
golden CSV); ``walk-wide`` outputs are held to the invariants of a dual-code
scan; ``semigroup-queries`` outputs are compared with recorded digests and an
independent recomputation of the chain semigroup.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import pathlib
from fractions import Fraction
from math import lcm

import workloads

BENCH = pathlib.Path(__file__).resolve().parent
EXPECTED = BENCH / "expected"
GOLDEN_PLANAR = BENCH.parent / "tests" / "data" / "golden_table2.csv"
DEFAULT_SEED = 1
HEADER = ["alpha", "exp", "k", "d", "d_ev", "d_fr", "fr_bound", "goppa"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _recorded(name: str) -> dict:
    return json.loads((EXPECTED / name).read_text())


def check_ref(job: dict, out: bytes) -> list[str]:
    """Byte-identical to the table recorded for this scan."""
    if job["name"] == "plane119":
        want = GOLDEN_PLANAR.read_bytes()
    else:
        want = (EXPECTED / "ref-f32" / f"{job['name']}.csv").read_bytes()
    return [] if out == want else [f"{job['name']}: table differs from the recorded one"]


# --- walk-wide ---------------------------------------------------------------


def _exponents(text: str) -> list[int]:
    return [int(v) for v in text.split(".")] if "." in text else [int(v) for v in text]


def _recombine(exps, gens) -> str:
    """sum exps[i] * gens[i], rendered the way the CSV renders values."""
    from deltacodes.codes import render_value
    from deltacodes.semigroup import LexValue, QuadValue, RatValue

    first = gens[0]
    if isinstance(first, LexValue):
        x = sum(a * g.x for a, g in zip(exps, gens))
        y = sum(a * g.y for a, g in zip(exps, gens))
        return render_value(LexValue(x, y))
    if isinstance(first, RatValue):
        return render_value(RatValue(sum((a * g.value for a, g in zip(exps, gens)), Fraction(0))))
    r = sum((a * g.r for a, g in zip(exps, gens)), Fraction(0))
    m = sum(a * g.m for a, g in zip(exps, gens))
    return render_value(QuadValue(r, m, first.tau))


def _generators(config_text: str):
    from deltacodes.cli import parse_config
    from deltacodes.genesis import build_type_c, build_type_d, build_type_e
    from deltacodes.semigroup import generators

    cfg = parse_config(config_text)
    if cfg.delta_type == "C":
        delta = build_type_c(cfg.under)
    elif cfg.delta_type == "D":
        delta = build_type_d(cfg.under, cfg.digits, cfg.radicand)
    else:
        delta = build_type_e(cfg.under, cfg.steps, cfg.choices)
    return generators(delta), len(cfg.points)


def check_walk(job: dict, out: bytes, seed: int, rows_wanted: int = 2) -> list[str]:
    """Scan invariants: k strictly decreases, d_fr <= d_ev <= d <= n - k + 1,
    and each row's exponents recombine to its alpha.  The default seed's
    tables must also match their recorded digests."""
    name = job["name"]
    gens, n = _generators(job["config"])
    rows = list(csv.reader(io.StringIO(out.decode())))
    problems = []
    if not rows or rows[0] != HEADER:
        return [f"{name}: bad header"]
    body = rows[1:]
    if len(body) != rows_wanted:
        problems.append(f"{name}: {len(body)} rows, expected {rows_wanted}")
    last_k = None
    for alpha, exp, k, d, d_ev, d_fr, _, _ in body:
        if not (d and d_ev):
            problems.append(f"{name} {alpha}: missing d or d_ev")
            continue
        k, d, d_ev, d_fr = int(k), int(d), int(d_ev), int(d_fr)
        if last_k is not None and k >= last_k:
            problems.append(f"{name} {alpha}: k does not decrease")
        last_k = k
        if not d_fr <= d_ev <= d <= n - k + 1:
            problems.append(f"{name} {alpha}: d_fr <= d_ev <= d <= n - k + 1 fails")
        if _recombine(_exponents(exp), gens) != alpha:
            problems.append(f"{name} {alpha}: exponents {exp} do not give alpha")
    if seed == DEFAULT_SEED:
        if digest(out) != _recorded("walk-wide-seed1.json")[name]:
            problems.append(f"{name}: differs from the table recorded for seed {seed}")
    return problems


# --- semigroup-queries -------------------------------------------------------


def chain_members(under, bound: int) -> list[Fraction]:
    """Members up to ``bound`` of the default chain over ``under``, by a sieve
    over every chain generator up to the bound."""
    gens = workloads.chain_generators_upto(under, bound)
    scale = lcm(*(g.denominator for g in gens))
    ints = sorted({int(g * scale) for g in gens})
    top = bound * scale
    reach = bytearray(top + 1)
    reach[0] = 1
    for v in range(1, top + 1):
        for g in ints:
            if g > v:
                break
            if reach[v - g]:
                reach[v] = 1
                break
    return [Fraction(v, scale) for v in range(top + 1) if reach[v]]


def check_enumeration(job: dict, out: bytes, members: list[Fraction]) -> list[str]:
    """Recorded bytes, and for the chain the member list of the sieve."""
    name = job["name"]
    problems = []
    if digest(out) != _recorded("semigroup.json")[name]:
        problems.append(f"{name}: enumeration differs from the recorded one")
    if name == "chain119":
        got = [Fraction(line.split(" : ")[0]) for line in out.decode().splitlines()]
        if got != members:
            problems.append(f"{name}: member list differs from the sieve")
    return problems


def check_represent(job: dict, answers: list[dict]) -> list[str]:
    """Each answer satisfies sum a_i * g_i = value within its bounds."""
    problems = []
    if len(answers) != len(job["values"]):
        return [f"represent: {len(answers)} answers for {len(job['values'])} queries"]
    for value, rep in zip(job["values"], answers):
        exps, bounds = rep["exponents"], rep["bounds"]
        gens = workloads.chain_generators(job["under"], len(exps) - len(job["under"]))
        total = sum((a * g for a, g in zip(exps, gens)), Fraction(0))
        in_bounds = len(bounds) == len(exps) and all(
            a >= 0 and (b is None or a < b) for a, b in zip(exps, bounds)
        )
        if total != Fraction(value) or not in_bounds:
            problems.append(f"represent {value}: exponents {exps} bounds {bounds} fail")
    return problems


def flipped(result: dict) -> dict:
    """A copy of a job result with one deliberate error: the first row's d
    cell of a table set below its d_ev, the first exponent of the first
    ``represent`` answer raised by one, or the last member of an enumeration
    dropped.  The oracles must reject it."""
    bad = dict(result)
    if "answers" in result:
        first = dict(result["answers"][0])
        first["exponents"] = [first["exponents"][0] + 1] + first["exponents"][1:]
        bad["answers"] = [first] + result["answers"][1:]
        return bad
    lines = result["output"].decode().splitlines(keepends=True)
    if lines[0].rstrip("\n").split(",") == HEADER:
        rows = list(csv.reader(lines[1:2]))
        rows[0][3] = str(int(rows[0][4]) - 1)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        lines[1] = buf.getvalue()
    else:
        lines = lines[:-1]
    bad["output"] = "".join(lines).encode()
    return bad
