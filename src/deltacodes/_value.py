"""The base of the library's immutable value classes.

A subclass names the fields that make up its value in ``_fields``.  The
one constructor here takes their values positionally, in that order; a
subclass whose constructor computes something (a validation, a coercion, a
derived attribute) defines its own and sets every attribute once through
``_set``.  Equality, hashing and the repr use exactly the fields: two values
are equal only when they are of the same class, and the hash is the hash of
the tuple of the fields.  Attributes outside ``_fields`` (a cache, a back
reference) take no part.  The methods are written out once here rather than
generated per class, so importing the library compiles no code at run time.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(self._fields)} values, "
                f"got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
