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
    backend: str | None = None,
) -> int:
    """Smallest w such that some w columns are linearly dependent, or 0.

    ``cols`` holds an r x n matrix column-major; ``mul``/``sub`` are flat q*q
    arithmetic tables and ``inv`` a length-q inverse table.  Raises
    ``ValueError`` when ``backend`` names a backend that is not built.
    """
    name = backend or BACKEND
    fn = _BACKENDS.get(name)
    if fn is None:
        raise ValueError(
            f"backend {name!r} is not built (built: {', '.join(sorted(_BACKENDS))}); "
            "`python setup.py build_ext --inplace` builds the compiled kernel"
        )
    if fn is not _BACKENDS["pure"]:
        cols = array("i", cols)
        mul = array("i", mul)
        sub = array("i", sub)
        inv = array("i", inv)
    return fn(cols, r, n, q, mul, sub, inv, wmax)
