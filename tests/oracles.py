"""Reference implementations that only the tests use.

Each one is the plain, slow way to get what the library computes another way:
field arithmetic one named operation at a time, the rank and kernel of a
matrix of field elements, evaluation rows by multiplying out each basis
polynomial, semigroup membership by a sieve over every integer up to the
bound, and the command line read by ``argparse``.  They live outside the
package, so the library neither ships nor imports them, and a test that
compares the two compares independent code.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from math import gcd

from deltacodes.cli import COMMANDS
from deltacodes.codes import EvalMap
from deltacodes.errors import DomainError
from deltacodes.gf import FieldElement, FieldSpec, rank_nullspace_ints

# --- finite fields -----------------------------------------------------------


@dataclass
class Matrix:
    """Row-major matrix of field elements."""

    rows: int
    cols: int
    entries: list[FieldElement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise DomainError(
                f"matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        specs = {e.field for e in self.entries}
        if len(specs) > 1:
            raise DomainError("field mismatch")

    def at(self, i: int, j: int) -> FieldElement:
        return self.entries[i * self.cols + j]


def field_arith(
    spec: FieldSpec, op: str, operands: list[FieldElement | int | tuple[int, ...]]
) -> FieldElement:
    """Apply add/sub/mul/inv/pow to operands coerced into the field."""
    if op == "pow":
        if len(operands) != 2 or not isinstance(operands[1], int):
            raise DomainError("pow needs a field element and an integer exponent")
        return spec.element(operands[0]) ** operands[1]
    args = [spec.element(v) for v in operands]
    if op == "inv":
        if len(args) != 1:
            raise DomainError("inv takes one operand")
        return args[0].inverse()
    if len(args) != 2:
        raise DomainError(f"{op} takes two operands")
    a, b = args
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise DomainError(f"unknown operation {op!r}")


def mat_rank_kernel(matrix: Matrix) -> tuple[int, list[list[FieldElement]]]:
    """Rank and a basis of the right kernel; rank + len(kernel) == cols."""
    if not matrix.entries:
        raise DomainError("matrix has no entries")
    spec = matrix.entries[0].field
    int_rows = [
        [int(matrix.at(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)
    ]
    rank, basis = rank_nullspace_ints(int_rows, matrix.cols, spec)
    t = spec._t
    return rank, [[t.by_val[v] for v in vec] for vec in basis]


# --- evaluation codes --------------------------------------------------------


def evaluation_matrix(ev: EvalMap, basis) -> tuple[tuple[FieldElement, ...], ...]:
    """Every basis element evaluated at every point, in basis order, by
    multiplying out its polynomial (the reference for the scan's rows)."""
    by_val = ev.spec._t.by_val
    return tuple(
        tuple(by_val[v] for v in ev.row(element)) for element in basis
    )


# --- numerical semigroups ----------------------------------------------------


def _sieve(gens, bound: int) -> bytearray:
    """reach[v] = 1 exactly for the members v <= bound (bound >= 0) of the
    semigroup of gens."""
    reach = bytearray(bound + 1)
    reach[0] = 1
    gs = sorted({int(v) for v in gens if v > 0})
    for v in range(1, bound + 1):
        for d in gs:
            if d > v:
                break
            if reach[v - d]:
                reach[v] = 1
                break
    return reach


def contains(gens, value: int) -> bool:
    """Whether value lies in the numerical semigroup generated by gens."""
    return value >= 0 and bool(_sieve(gens, value)[value])


def members_below(gens, bound: int) -> list[int]:
    """Sorted members of the semigroup of gens that are <= bound."""
    if bound < 0:
        return []
    reach = _sieve(gens, bound)
    return [v for v in range(bound + 1) if reach[v]]


def gaps(gens) -> list[int]:
    """All positive integers outside the semigroup of gens (gcd must be 1)."""
    gs = sorted({int(v) for v in gens if v > 0})
    if not gs:
        raise DomainError("gap computation needs positive generators")
    acc = 0
    for v in gs:
        acc = gcd(acc, v)
    if acc != 1:
        raise DomainError("gap set is infinite unless the gcd of generators is 1")
    bound = gs[0] * gs[-1] + 1
    reach = _sieve(gs, bound)
    return [v for v in range(1, bound + 1) if not reach[v]]


# --- command line ------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltacodes",
        description="Build delta-sequences and evaluation codes from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "validate": "check the conditions on an integer sequence",
        "construct": "build the configured delta-sequence and print it",
        "approximates": "print the approximate polynomials and their weights",
        "semigroup": "list semigroup members up to the configured bound",
        "table": "emit the code table as CSV",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", help="write output to this file instead of stdout")
        if name == "table":
            cmd.add_argument(
                "--mode",
                choices=("jumps", "full"),
                help="row selection, overriding the config",
            )
    return parser
