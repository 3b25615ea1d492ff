"""Shared fixtures for the evaluation-code test modules.

Field specs, the standard point sets, the delta-sequences behind the published
parameter scans, and the evaluation maps built from them.  Everything here is
a module-level singleton, shared by every test module that imports it.
"""

from __future__ import annotations

from deltacodes.codes import EvalMap
from deltacodes.deltaseq import validate_n
from deltacodes.genesis import build_type_c, build_type_d, build_type_e
from deltacodes.gf import FieldSpec

F7 = FieldSpec(7)
F32 = FieldSpec(2, 5)

# Twelve affine points over F_7: the diagonal, the x = 1 column, and (2, 1).
POINTS_F7 = [
    (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1),
]


def xi_points(spec: FieldSpec, pairs) -> list:
    """Points (xi^a, xi^b) for the generator class xi of an extension field."""
    xi = spec.element(2)
    return [(xi**a, xi**b) for a, b in pairs]


# 31 points over F_32: two full columns above xi and xi^2, plus a diagonal tail.
PAIRS_F32_A = (
    [(1, j) for j in range(1, 15)]
    + [(2, j) for j in range(1, 15)]
    + [(3, 3), (4, 4), (5, 5)]
)

# 31 points over F_32: column above xi, partial columns, and diagonal points.
PAIRS_F32_B = (
    [(1, j) for j in range(1, 15)]
    + [(6, j) for j in range(1, 11)]
    + [(2, j) for j in range(11, 15)]
    + [(20, 20), (21, 21), (28, 28)]
)

# Integer sequences underlying every published scan.
UNDER_119 = (11, 9)
UNDER_BIG = (36, 24, 8, 18, 13)
UNDER_75 = (7, 5)
UNDER_53 = (5, 3)
UNDER_2029 = (20, 8, 29)
UNDER_427 = (42, 30, 70, 77)

DN119 = validate_n(UNDER_119)
DZ119 = build_type_c(UNDER_119)          # {(5,1), (4,1)}
DZ_BIG = build_type_c(UNDER_BIG)         # {(18,0), (12,0), (4,0), (9,0), (7,-1)}
DZ75 = build_type_c(UNDER_75)            # {(3,1), (2,1)}
DZ53 = build_type_c(UNDER_53)            # {(2,1), (1,1)}
DZ2029 = build_type_c(UNDER_2029)        # {(5,5), (2,2), (7,8)}
DZ427 = build_type_c(UNDER_427)          # {(21,0), (15,0), (35,0), (39,-1)}

DR119 = build_type_d(UNDER_119, (80, 1, 2))       # tail (477 - sqrt3)/234
DR_BIG_A = build_type_d(UNDER_BIG, (20, 5, 2))    # tail (1967 - sqrt3)/8112
DR_BIG_B = build_type_d(UNDER_BIG, (15, 2, 1))    # tail (246 - sqrt3)/552
DR75 = build_type_d(UNDER_75, (28, 3, 1))         # tail (264 - sqrt3)/195

CH119 = build_type_e(UNDER_119, 4)
CH_BIG = build_type_e(UNDER_BIG, 3)
CH75 = build_type_e(UNDER_75, 4)

EV7 = EvalMap(F7, POINTS_F7)
EV32_A = EvalMap(F32, xi_points(F32, PAIRS_F32_A))
EV32_B = EvalMap(F32, xi_points(F32, PAIRS_F32_B))
