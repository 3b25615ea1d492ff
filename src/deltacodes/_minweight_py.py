"""Pure-Python twin of the compiled kernel.

Same algorithms and call signatures as the C kernel ``_minweight.c``, and the
reference the tests compare it against.  ``min_dependent_columns`` is an
iterative-deepening DFS over column subsets in increasing index order, from a
floor ``wmin`` on, with the chosen columns kept as a normalized incremental
echelon basis, and the last two columns of a subset closed by hashing their
reduced, normalized images.  ``extend_echelon`` is the rank step of a scan:
it reduces a block of rows against an echelon basis the caller keeps.  Both
share one reduction and one normalization.
"""

from __future__ import annotations

__all__ = ["extend_echelon", "min_dependent_columns"]


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


def min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax, wmin=1):
    """Smallest w with wmin <= w <= wmax such that some w columns are
    linearly dependent, or 0 when there is none.

    That is max(d, wmin) for the least dependent size d, because a superset
    of a dependent set is dependent; so a known lower bound on d as ``wmin``
    skips the depths below it.  ``cols`` is column-major (entry (i, j) at
    ``cols[j * r + i]``); ``mul`` and ``sub`` are flat q*q tables, ``inv`` a
    length-q table.

    With w - 2 columns in the basis, every later column is reduced once and
    scaled to a leading 1.  The reduction is linear and its result is the
    unique representative of the column modulo the basis that is zero at the
    pivots, so a zero image, or an image seen before, closes a dependent set
    of size at most w: about C(n, w - 1) reductions at that depth, not C(n, w).
    """
    if wmin < 1:
        raise ValueError("wmin must be positive")
    if r == 0:  # every column is zero
        return wmin if wmin <= min(wmax, n) else 0

    tails: list[list[int]] = []  # the basis rows from their pivots on
    pivots: list[int] = []

    def reduce_col(j):
        v = list(cols[j * r : (j + 1) * r])
        _reduce(v, tails, pivots, q, mul, sub)
        return v

    def pairs(start):
        seen = set()
        for j in range(start, n):
            v = reduce_col(j)
            if not any(v):
                return True
            _lead_one(v, q, mul, inv)
            image = tuple(v)
            if image in seen:
                return True
            seen.add(image)
        return False

    def dfs(start, depth_left):
        if depth_left == 2:
            return pairs(start)
        for j in range(start, n - depth_left + 1):
            v = reduce_col(j)
            if not any(v):
                return True
            if depth_left == 1:
                continue
            p = _lead_one(v, q, mul, inv)
            tails.append(v[p:])
            pivots.append(p)
            if dfs(j + 1, depth_left - 1):
                return True
            tails.pop()
            pivots.pop()
        return False

    for w in range(wmin, min(wmax, n) + 1):
        if dfs(0, w):
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
