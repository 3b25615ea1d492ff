"""Backend selection for the kernel: the minimum-dependent-columns search,
the echelon extension behind the scan's rank step, the fill of a field's
q*q arithmetic tables, and the row products that form a scan's rows.

The compiled kernel (the C extension ``_minweight``) is preferred when it is
built; setting the environment variable ``DELTACODES_PURE=1`` forces the
pure-Python fallback.  Both backends implement the identical algorithms and
signatures, whose contracts are written once, in the pure twin
``_minweight_py``.  The library calls ``kernel(backend).<entry>(...)`` on
arrays it owns; ``min_dependent_columns`` is the one wrapper, for callers
that hold plain sequences.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Callable, Sequence
from types import ModuleType

from . import _minweight_py

__all__ = ["BACKEND", "available_backends", "kernel", "min_dependent_columns"]

_BACKENDS: dict[str, ModuleType] = {"pure": _minweight_py}
try:
    from . import _minweight  # type: ignore[attr-defined]

    _BACKENDS["compiled"] = _minweight
except ImportError:  # pragma: no cover - depends on build environment
    pass

if os.environ.get("DELTACODES_PURE") or "compiled" not in _BACKENDS:
    BACKEND = "pure"
else:
    BACKEND = "compiled"


def available_backends() -> dict[str, Callable]:
    """The column search of each built backend, keyed by name ('pure',
    'compiled')."""
    return {name: mod.min_dependent_columns for name, mod in _BACKENDS.items()}


def kernel(backend: str | None = None) -> ModuleType:
    """The kernel module of the named backend (``BACKEND`` for None), with
    the four entry points of ``_minweight_py``; ValueError when it is not
    built.  The compiled one takes every sequence as an array('i') or a
    memoryview of one."""
    name = backend or BACKEND
    if name not in _BACKENDS:
        raise ValueError(
            f"backend {name!r} is not built (built: {', '.join(sorted(_BACKENDS))}); "
            "`python setup.py build_ext --inplace` builds the compiled kernel"
        )
    return _BACKENDS[name]


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
    """``_minweight_py.min_dependent_columns`` on the named backend, with
    any sequence that is not an array('i') copied into one for the compiled
    kernel."""
    mod = kernel(backend)
    if mod is not _minweight_py:
        cols, mul, sub, inv = (
            x if isinstance(x, array) and x.typecode == "i" else array("i", x)
            for x in (cols, mul, sub, inv)
        )
    return mod.min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax, wmin)
