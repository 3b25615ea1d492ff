"""Backend selection for the minimum-dependent-columns search.

The compiled kernel (the C extension ``_minweight``) is preferred when it is
built; setting the environment variable ``DELTACODES_PURE=1`` forces the
pure-Python fallback.  Both backends implement the identical algorithm and
signature.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Callable, Sequence

from . import _minweight_py

__all__ = ["BACKEND", "available_backends", "min_dependent_columns"]

_BACKENDS: dict[str, Callable] = {"pure": _minweight_py.min_dependent_columns}
try:
    from . import _minweight  # type: ignore[attr-defined]

    _BACKENDS["compiled"] = _minweight.min_dependent_columns
except ImportError:  # pragma: no cover - depends on build environment
    pass

if os.environ.get("DELTACODES_PURE") or "compiled" not in _BACKENDS:
    BACKEND = "pure"
else:
    BACKEND = "compiled"


def available_backends() -> dict[str, Callable]:
    """Callable per built backend, keyed by name ('pure', 'compiled')."""
    return dict(_BACKENDS)


def min_dependent_columns(
    cols: Sequence[int],
    r: int,
    n: int,
    q: int,
    mul: Sequence[int],
    sub: Sequence[int],
    inv: Sequence[int],
    wmax: int,
    wmin: int = 1,
    backend: str | None = None,
) -> int:
    """Smallest w with wmin <= w <= wmax such that some w columns are
    linearly dependent, or 0 when there is none.

    That is max(d, wmin) for the least dependent size d, because a superset
    of a dependent set is dependent: a caller that knows a lower bound on d
    passes it as ``wmin`` and the search skips the depths below it.  Both
    backends close the last two columns of a subset by hashing the reduced,
    normalized columns instead of trying every pair.

    ``cols`` holds an r x n matrix column-major; ``mul``/``sub`` are flat q*q
    arithmetic tables and ``inv`` a length-q inverse table.  The compiled
    backend takes them as array('i'); an argument that is already one is
    passed as it is, anything else is copied.  Raises ``ValueError`` when
    ``backend`` names a backend that is not built, or when ``wmin`` < 1.
    """
    name = backend or BACKEND
    fn = _BACKENDS.get(name)
    if fn is None:
        raise ValueError(
            f"backend {name!r} is not built (built: {', '.join(sorted(_BACKENDS))}); "
            "`python setup.py build_ext --inplace` builds the compiled kernel"
        )
    if fn is not _BACKENDS["pure"]:
        cols, mul, sub, inv = map(_int_array, (cols, mul, sub, inv))
    return fn(cols, r, n, q, mul, sub, inv, wmax, wmin)


def _int_array(values: Sequence[int]) -> array:
    """``values`` as an array('i'), copied only when it is not one already."""
    if isinstance(values, array) and values.typecode == "i":
        return values
    return array("i", values)
