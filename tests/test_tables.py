"""Regression scans for the {36,24,8,18,13} family over the twelve F_7 points.

The same point set is paired with three expansions of the same integer
sequence: the plane-vector expansion, the quadratic-irrational tail with
digits (15, 2, 1), and the default rational chain extended three times.
The columns are locked by full recomputation plus hand-checked spot values:
the rank-3 dual code really holds a weight-2 word (the evaluation columns at
(6,6) and (1,3) coincide), and (14,-2) = 2*(7,-1) is a rank-step member of
the plane-vector semigroup with weight 3.
"""

from __future__ import annotations

from deltacodes.codes import scan_table

from helpers import CH_BIG, DR_BIG_B, DZ_BIG, EV7, F7


def check_scan(delta, d_col, d_ev_col):
    rows = scan_table(delta, EV7)
    assert [r.k for r in rows] == list(range(10, 0, -1))
    assert [r.d for r in rows] == d_col
    assert [r.d_ev for r in rows] == d_ev_col
    for row in rows:
        assert row.d_fr <= row.d_ev <= row.d


class TestBigFamilyScans:
    def test_plane_vector_expansion(self):
        check_scan(
            DZ_BIG,
            [2, 2, 2, 4, 4, 4, 4, 7, 7, 11],
            [2, 2, 2, 3, 3, 3, 3, 4, 4, 5],
        )

    def test_quadratic_tail(self):
        check_scan(
            DR_BIG_B,
            [2, 2, 3, 4, 5, 5, 6, 7, 9, 12],
            [2, 2, 2, 2, 3, 3, 3, 4, 4, 5],
        )

    def test_rational_chain(self):
        check_scan(
            CH_BIG,
            [2, 2, 2, 4, 5, 5, 5, 7, 8, 11],
            [2, 2, 2, 2, 4, 4, 4, 4, 4, 4],
        )
