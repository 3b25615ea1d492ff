"""Pure-Python twin of the compiled column-search kernel.

Same algorithm and call signature as the C kernel ``_minweight.c``, and the
reference the tests compare it against: iterative-deepening DFS over column
subsets in increasing index order, from a floor ``wmin`` on, with the chosen
columns kept as a normalized incremental echelon basis, and the last two
columns of a subset closed by hashing their reduced, normalized images.
"""

from __future__ import annotations

__all__ = ["min_dependent_columns"]


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

    basis: list[list[int]] = []
    pivots: list[int] = []

    def reduce_col(j):
        v = list(cols[j * r : (j + 1) * r])
        for b, p in zip(basis, pivots):
            f = v[p]
            if f:
                fq = f * q
                for k in range(p, r):
                    v[k] = sub[v[k] * q + mul[fq + b[k]]]
        return v

    def lead_one(v):
        p = next(k for k, x in enumerate(v) if x)
        fq = inv[v[p]] * q
        return p, [mul[fq + x] for x in v]

    def pairs(start):
        seen = set()
        for j in range(start, n):
            v = reduce_col(j)
            if not any(v):
                return True
            image = tuple(lead_one(v)[1])
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
            p, row = lead_one(v)
            basis.append(row)
            pivots.append(p)
            if dfs(j + 1, depth_left - 1):
                return True
            basis.pop()
            pivots.pop()
        return False

    for w in range(wmin, min(wmax, n) + 1):
        if dfs(0, w):
            return w
    return 0
