"""Backend selection for the kernel: the minimum-dependent-columns search,
the echelon extension behind the scan's rank step, the fill of a field's
q*q arithmetic tables, and the row products that form a scan's rows.

The compiled kernel (the C extension ``_minweight``) is preferred when it is
built; setting the environment variable ``DELTACODES_PURE=1`` forces the
pure-Python fallback.  Both backends implement the identical algorithms and
signatures.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Callable, MutableSequence, Sequence
from types import ModuleType

from . import _minweight_py

__all__ = [
    "BACKEND",
    "available_backends",
    "extend_echelon",
    "field_tables",
    "min_dependent_columns",
    "multiply_rows",
]

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
    backends run the same depth-first search over column subsets: each depth
    keeps the images of the later columns modulo the columns chosen so far,
    made from the depth above by one row operation each, and the last two
    columns of a subset are closed by hashing the normalized images instead
    of trying every pair.  The images take w - 2 levels of n x r entries at
    the depth w the search reaches, whatever ``wmax`` is.

    ``cols`` holds an r x n matrix column-major; ``mul``/``sub`` are flat q*q
    arithmetic tables and ``inv`` a length-q inverse table.  The compiled
    backend takes them as array('i'); an argument that is already one is
    passed as it is, anything else is copied.  Raises ``ValueError`` when
    ``backend`` names a backend that is not built, or when ``wmin`` < 1.
    """
    kernel = _built(backend)
    if kernel is not _minweight_py:
        cols, mul, sub, inv = map(_int_array, (cols, mul, sub, inv))
    return kernel.min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax, wmin)


def extend_echelon(
    rows: Sequence[int],
    m: int,
    n: int,
    q: int,
    mul: Sequence[int],
    sub: Sequence[int],
    inv: Sequence[int],
    basis: MutableSequence[int],
    pivots: MutableSequence[int],
    rank: int,
    backend: str | None = None,
) -> bytes:
    """Reduce each of the m rows of length n in turn against a normalized
    echelon basis, and append each independent one, scaled to a leading 1;
    one flag per row, 1 when the row was independent of the rows before it.

    The caller keeps the basis across calls: its first ``rank`` rows in
    ``basis`` (row-major, room for n*n entries) and their pivot columns in
    ``pivots`` (room for n); both are updated in place, and the new rank is
    ``rank`` plus the number of flags set.  A scan walks its members in
    blocks of n - rank rows: only the last row of such a block can bring the
    rank to n, so no block goes past the rank bound.

    ``rows`` is row-major; ``mul``/``sub`` are flat q*q arithmetic tables and
    ``inv`` a length-q inverse table.  The compiled backend takes everything
    as array('i'): ``rows`` and the tables are copied when they are neither
    one nor a memoryview of one (a scan passes a slice of its rows), while
    ``basis`` and ``pivots`` must be writable array('i')
    (``ValueError`` otherwise), since the caller reads them back.  Raises
    ``ValueError`` when ``backend`` names a backend that is not built.
    """
    kernel = _built(backend)
    if kernel is not _minweight_py:
        rows, mul, sub, inv = map(_int_array, (rows, mul, sub, inv))
    return kernel.extend_echelon(rows, m, n, q, mul, sub, inv, basis, pivots, rank)


def field_tables(
    powers: Sequence[int],
    p: int,
    m: int,
    add: MutableSequence[int],
    sub: MutableSequence[int],
    mul: MutableSequence[int],
    backend: str | None = None,
) -> None:
    """Fill the flat q*q addition, subtraction and multiplication tables of
    GF(p^m), q = p^m, on encoded values (base-p digits, little-endian).

    ``powers`` holds the q - 1 distinct encoded powers g^0, g^1, ... of a
    primitive element g, and ``mul`` goes through their logarithms; ``add``
    and ``sub`` work digit by digit mod p.  The caller allocates the outputs
    as writable array('i') with room for q*q entries; when p = 2, ``sub`` may
    be ``add`` itself, which is then filled once.  Both backends raise
    ``ValueError`` when q exceeds the kernel's bound, the powers are not
    q - 1 distinct values in [1, q), or an output is read-only or too short;
    also when ``backend`` names a backend that is not built.
    """
    kernel = _built(backend)
    if kernel is not _minweight_py:
        powers = _int_array(powers)
    kernel.field_tables(powers, p, m, add, sub, mul)


def multiply_rows(
    rows: MutableSequence[int],
    start: int,
    parents: Sequence[int],
    factors: Sequence[int],
    values: Sequence[int],
    n: int,
    q: int,
    mul: Sequence[int],
    backend: str | None = None,
) -> None:
    """Form rows start, start + 1, ... of ``rows`` (row-major, rows of length
    n): row start + i is row parents[i] of ``rows`` times row factors[i] of
    ``values``, entry by entry through the flat q*q table ``mul``.

    A parent must come before the row it makes, so a row made by the call can
    be the parent of a later one.  ``rows`` must be a writable array('i')
    with room for the rows made; ``parents`` and ``factors`` have one length,
    and ``values`` holds whole rows of length n.  The compiled backend copies
    the inputs that are not array('i') already.  Both backends raise
    ``ValueError`` on a parent at or after its row, a factor outside
    ``values``, or ``rows`` of another item size or read-only; also when
    ``backend`` names a backend that is not built.
    """
    kernel = _built(backend)
    if kernel is not _minweight_py:
        parents, factors, values, mul = map(_int_array, (parents, factors, values, mul))
    kernel.multiply_rows(rows, start, parents, factors, values, n, q, mul)


def _built(backend: str | None) -> ModuleType:
    """The kernel module of the named backend (``BACKEND`` for None);
    ValueError when it is not built."""
    name = backend or BACKEND
    if name not in _BACKENDS:
        raise ValueError(
            f"backend {name!r} is not built (built: {', '.join(sorted(_BACKENDS))}); "
            "`python setup.py build_ext --inplace` builds the compiled kernel"
        )
    return _BACKENDS[name]


def _int_array(values: Sequence[int]) -> array | memoryview:
    """``values`` as an array('i'), copied only when it is not one already or
    a memoryview of one."""
    if isinstance(values, array) and values.typecode == "i":
        return values
    if isinstance(values, memoryview) and values.format == "i":
        return values
    return array("i", values)
