"""Pure-Python twin of the compiled column-search kernel.

Same algorithm and call signature as the C kernel ``_minweight.c``, and the
reference the tests compare it against: iterative-deepening DFS over column
subsets in increasing index order, with the chosen columns kept as a
normalized incremental echelon basis.
"""

from __future__ import annotations

__all__ = ["min_dependent_columns"]


def min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax):
    """Smallest w such that some w columns are linearly dependent, or 0.

    ``cols`` is column-major (entry (i, j) at ``cols[j * r + i]``); ``mul`` and
    ``sub`` are flat q*q tables, ``inv`` a length-q table.  Returns 0 when no
    dependency of size <= wmax exists.
    """
    if r == 0:
        return 1 if n >= 1 else 0

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

    def dfs(start, depth_left):
        for j in range(start, n - depth_left + 1):
            v = reduce_col(j)
            if not any(v):
                return True
            if depth_left == 1:
                continue
            p = next(k for k, x in enumerate(v) if x)
            fq = inv[v[p]] * q
            basis.append([mul[fq + x] for x in v])
            pivots.append(p)
            if dfs(j + 1, depth_left - 1):
                return True
            basis.pop()
            pivots.pop()
        return False

    for w in range(1, min(wmax, n) + 1):
        if dfs(0, w):
            return w
    return 0
