"""The one value protocol behind GF, Matrix, RingElement, FqCode and RCode.

A value is immutable once built and compares and hashes by its key
fields, so equal objects describe the same mathematical object: a field
by (p, e, modulus), with q and its tables left out.
"""

from __future__ import annotations

from typing import Any, Callable


class Value:
    """Immutable ``__slots__`` object compared and hashed by ``_key``.

    A subclass fills its slots with ``object.__setattr__`` in ``__init__``
    and sets ``_key = operator.attrgetter(...)`` to the fields that make
    up its identity; a slot left out, such as a cache, takes no part in
    equality or hashing.  Objects of different classes never compare equal.
    """

    __slots__ = ()
    _key: Callable[[Any], tuple]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))
