"""Pure-Python twin of the compiled kernel.

Same algorithms and call signatures as the C kernel ``_minweight.c``, and the
reference the tests compare it against.  ``min_dependent_columns`` is an
iterative-deepening DFS over column subsets in increasing index order, from a
floor ``wmin`` on, with the chosen columns kept as a normalized echelon basis.
Each depth keeps the images of the later columns modulo the basis so far, so
going one depth down costs one row operation per column, and the last two
columns of a subset are closed by hashing their normalized images.
``extend_echelon`` is the rank step of a scan: it reduces a block of rows
against an echelon basis the caller keeps.  Both share one normalization.
``field_tables`` fills a field's q*q arithmetic tables, and ``multiply_rows``
forms a scan's evaluation rows, each an earlier row times a row of values.
"""

from __future__ import annotations

import struct
from array import array
from operator import itemgetter

__all__ = ["MAX_Q", "extend_echelon", "field_tables", "min_dependent_columns", "multiply_rows"]

# Largest q whose flat q*q table indices fit in a C int, as in the C kernel.
MAX_Q = 46340


def _reduce(v, tails, pivots, q, mul, sub):
    """Reduce the list v in place against normalized echelon rows: ``tails[b]``
    is row b from its pivot column ``pivots[b]`` on, the entries before it
    being zero, so only that part of v changes."""
    for tail, p in zip(tails, pivots):
        f = v[p]
        if f:
            fq = f * q
            for k, b in enumerate(tail, p):
                v[k] = sub[v[k] * q + mul[fq + b]]


def _lead_one(v, q, mul, inv):
    """Scale the nonzero list v in place so its first nonzero entry is 1; the
    index of that entry."""
    for p, x in enumerate(v):
        if x:
            break
    fq = inv[x] * q
    v[p:] = [mul[fq + y] for y in v[p:]]
    return p


def _step(u, tail, p, q, mul, sub):
    """The image u one level below: u minus its entry at the pivot p times
    the basis row whose part from p on is ``tail``; u itself when that entry
    is zero.  Neither input is changed."""
    f = u[p]
    if not f:
        return u
    fq = f * q
    return u[:p] + [sub[a * q + mul[fq + b]] for a, b in zip(u[p:], tail)]


def min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax, wmin=1):
    """Smallest w with wmin <= w <= wmax such that some w columns are
    linearly dependent, or 0 when there is none.

    That is max(d, wmin) for the least dependent size d, because a superset
    of a dependent set is dependent; so a known lower bound on d as ``wmin``
    skips the depths below it.  ``cols`` is column-major (entry (i, j) at
    ``cols[j * r + i]``); ``mul`` and ``sub`` are flat q*q tables, ``inv`` a
    length-q table.

    The search keeps, for each depth L, the images of the later columns
    modulo the L columns chosen so far.  The column chosen at depth L gives
    its image, scaled to a leading 1 at its pivot p, as basis row L, and a
    later column's image at depth L + 1 is its image at depth L minus its
    entry at p times that row: one row operation per column and depth.  Basis
    rows are zero at the pivots before their own, so each image is the
    unique representative of the column modulo the basis that is zero at the
    pivots.  With w - 2 columns in the basis, the pair level makes every
    later column's image and scales it to a leading 1, so a zero image, or
    an image seen before, closes a dependent set of size at most w: about
    C(n, w - 1) images at that depth, not C(n, w).
    """
    if wmin < 1:
        raise ValueError("wmin must be positive")
    if r == 0:  # every column is zero
        return wmin if wmin <= min(wmax, n) else 0

    tails: list[list[int]] = []  # the basis rows from their pivots on
    pivots: list[int] = []

    def pairs(images, start):
        seen = set()
        for j in range(start, n):
            v = images[j]
            if tails:
                v = _step(v, tails[-1], pivots[-1], q, mul, sub)
            if not any(v):
                return True
            fq = inv[next(filter(None, v))] * q
            image = tuple([mul[fq + y] for y in v])
            if image in seen:
                return True
            seen.add(image)
        return False

    def dfs(images, start, depth_left):
        if depth_left == 2:
            return pairs(images, start)
        if tails:  # the images one level below, from start on
            tail, p = tails[-1], pivots[-1]
            images = [None] * start + [_step(u, tail, p, q, mul, sub) for u in images[start:]]
        for j in range(start, n - depth_left + 1):
            v = images[j]
            if not any(v):
                return True
            if depth_left == 1:
                continue
            row = list(v)
            p = _lead_one(row, q, mul, inv)
            tails.append(row[p:])
            pivots.append(p)
            if dfs(images, j + 1, depth_left - 1):
                return True
            tails.pop()
            pivots.pop()
        return False

    columns = [list(cols[j * r : (j + 1) * r]) for j in range(n)]
    for w in range(wmin, min(wmax, n) + 1):
        if dfs(columns, 0, w):
            return w
    return 0


def extend_echelon(rows, m, n, q, mul, sub, inv, basis, pivots, rank):
    """Reduce each of the m rows of length n in turn against a normalized
    echelon basis, and append each independent one, scaled to a leading 1;
    one flag per row as bytes, 1 when the row was independent of the rows
    before it.

    ``rows`` is row-major; ``mul`` and ``sub`` are flat q*q tables, ``inv`` a
    length-q table.  The caller keeps the basis across calls: its first
    ``rank`` rows in ``basis`` (room for n*n entries) and their pivot columns
    in ``pivots`` (room for n), both updated in place.  The new rank is
    ``rank`` plus the number of flags set.
    """
    tails = [list(basis[b * n + p : (b + 1) * n]) for b, p in enumerate(pivots[:rank])]
    piv = list(pivots[:rank])
    flags = bytearray(m)
    for i in range(m):
        if rank == n:  # a full basis spans every row
            break
        v = list(rows[i * n : (i + 1) * n])
        _reduce(v, tails, piv, q, mul, sub)
        if any(v):
            p = _lead_one(v, q, mul, inv)
            for k, x in enumerate(v, start=rank * n):
                basis[k] = x
            pivots[rank] = p
            tails.append(v[p:])
            piv.append(p)
            flags[i] = 1
            rank += 1
    return bytes(flags)


def _digitwise(p, m, sign):
    """Flat array('i') of a + sign * b digit by digit mod p on encoded values,
    grown one base-p digit at a time: for a = a_low + P * a_top (a_low < P)
    the entry at (a, b) is the entry at (a_low, b_low) plus
    P * ((a_top + sign * b_top) mod p).  So the grown row of (a_low, a_top)
    is the row of (a_low, 0) rotated by sign * a_top blocks of P, and each
    row is copied in two slices."""
    table, size = array("i", [0]), 1
    for _ in range(m):
        rows = [
            array("i", [v + sign * k % p * size for k in range(p) for v in table[a : a + size]])
            for a in range(0, size * size, size)
        ]
        grown = array("i")
        for a_top in range(p):
            cut = sign * a_top % p * size
            for row in rows:
                grown += row[cut:]
                grown += row[:cut]
        table, size = grown, size * p
    return table


def _out(buf, room, name):
    """A writable memoryview of the array('i') ``buf``, which must hold at
    least ``room`` ints; ValueError otherwise."""
    view = memoryview(buf)
    if view.readonly:
        raise ValueError(f"{name} must be writable")
    if view.format != "i" or view.ndim != 1:
        raise ValueError(f"{name} must be an array('i')")
    if len(view) < room:
        raise ValueError(f"{name} holds {len(view)} entries, needs {room}")
    return view


def field_tables(powers, p, m, add, sub, mul):
    """Fill the flat q*q addition, subtraction and multiplication tables of
    GF(p^m), q = p^m, on encoded values (base-p digits, little-endian).

    ``powers`` holds the q - 1 distinct encoded powers g^0, g^1, ... of a
    primitive element g; ``mul`` goes through their logarithms.  ``add`` and
    ``sub`` work digit by digit mod p and need no powers.  The outputs are
    writable array('i') with room for q*q ints; when p = 2, ``sub`` may be
    ``add`` itself, which is then filled once.
    """
    if p < 2 or m < 1 or p > MAX_Q or m >= MAX_Q.bit_length() or p**m > MAX_Q:
        raise ValueError(f"p must be at least 2, m at least 1 and p^m at most {MAX_Q}")
    q, order = p**m, p**m - 1
    if len(powers) != order:
        raise ValueError(f"powers must hold q - 1 = {order} ints")
    same = sub is add
    if same and p != 2:
        raise ValueError("sub may be add only when p = 2")
    if not all(0 < v < q for v in powers) or len(set(powers)) != order:
        raise ValueError("powers must be distinct and in [1, q)")
    add, sub, mul = (_out(add, q * q, "add"), _out(sub, q * q, "sub"), _out(mul, q * q, "mul"))
    add[: q * q] = _digitwise(p, m, 1)
    if not same:
        sub[: q * q] = _digitwise(p, m, -1)
    # Row a > 0 reads the powers from g^(log a) on at the logarithms of
    # 1, ..., q - 1, after a 0 for column 0, which is put at the end.
    powers, log = list(powers), [0] * q
    for k, v in enumerate(powers):
        log[v] = k
    pick, row = itemgetter(order, *log[1:]), struct.Struct(f"{q}i")
    row.pack_into(mul, 0, *[0] * q)
    for a in range(1, q):
        la = log[a]
        row.pack_into(mul, a * row.size, *pick(powers[la:] + powers[:la] + [0]))


def multiply_rows(rows, start, parents, factors, values, n, q, mul):
    """Form rows start, start + 1, ... of ``rows`` (row-major, rows of length
    n): row start + i is row parents[i] of ``rows`` times row factors[i] of
    ``values``, entry by entry through the flat q*q table ``mul``.  A parent
    must come before the row it makes, so a row made by the call can be the
    parent of a later one.  ``rows`` is a writable array('i') with room for
    the rows made; ``parents`` and ``factors`` have one length, and
    ``values`` holds whole rows of length n.  ValueError otherwise, with the
    rows before a bad parent or factor written.  Unlike the compiled kernel
    it does not check that the entries it reads lie in [0, q).
    """
    if start < 0 or n < 1 or not 1 <= q <= MAX_Q:
        raise ValueError(f"start must be non-negative, n positive and q in [1, {MAX_Q}]")
    if len(parents) != len(factors):
        raise ValueError("parents and factors must have one length")
    out, width = _out(rows, (start + len(parents)) * n, "rows"), len(values) // n
    for i, (p, f) in enumerate(zip(parents, factors)):
        if not 0 <= p < start + i:
            raise ValueError(f"parents[{i}] = {p} is not before row {start + i}")
        if not 0 <= f < width:
            raise ValueError(f"factors[{i}] = {f} is not in [0, {width})")
        row, value = out[p * n : (p + 1) * n], values[f * n : (f + 1) * n]
        out[(start + i) * n : (start + i + 1) * n] = array(
            "i", [mul[a * q + b] for a, b in zip(row, value)]
        )
