"""Arithmetic in R = F_q + uF_q + vF_q + uvF_q.

With u^2 = u, v^2 = v and uv = vu an element is a function on the points
(u, v) in {0, 1}^2, so R splits into one copy of F_q per point.  Slot i
holds the value at ``POINTS[i]``, and the orthogonal idempotent that is 1
there alone is g1 = 1 - u - v + uv, g2 = uv, g3 = u - uv or g4 = v - uv.
Every element is g1*r1 + ... + g4*r4 for a unique tuple of slot values,
and ring operations act slotwise on it.  ``POINTS`` is the one description
of the split and ``SLOTS`` the slot count every module reads.  The slot
tuple is the canonical representation; the (1, u, v, uv) basis appears
only at serialization boundaries, through ``u_to_gamma`` and ``gamma_to_u``.

The expansion map sends a length-n vector to the length-4n field vector
obtained by writing out each entry's slots in place, so position 4*j + i
holds slot i of entry j.  It is an F_q-linear bijection and turns Lee
distance into Hamming distance.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Sequence

from .errors import MismatchError, NotAUnitError
from .gf import GF
from .value import Value

POINTS = ((0, 0), (1, 1), (1, 0), (0, 1))  # (u, v) at the slots of g1..g4
SLOTS = len(POINTS)
_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))  # 1, u, v, uv as (i, j) of u^i v^j
_AT_POINTS = itemgetter(*map(_MONOMIALS.index, POINTS))
_AT_MONOMIALS = itemgetter(*map(POINTS.index, _MONOMIALS))


def _coords(field: GF, g: Sequence[int]) -> tuple[int, ...]:
    """g as a tuple, if it holds ``SLOTS`` field values: the one check of a ring element's coordinates."""
    g = field.check_row(g)
    if len(g) != SLOTS:
        raise ValueError(f"ring elements carry exactly {SLOTS} coordinates")
    return g


def u_to_gamma(field: GF, quad: Sequence[int]) -> tuple[int, ...]:
    """The slots of a1 + a2*u + a3*v + a4*uv, its values at ``POINTS``: each sums the coefficients of
    the monomials u^i v^j that do not vanish there (i <= u, j <= v), which a subset-sum transform
    forms with one addition per step up in u, then in v."""
    one, u, v, uv = _coords(field, quad)
    add = field.add
    u, uv = add(one, u), add(v, uv)
    v, uv = add(one, v), add(u, uv)
    return _AT_POINTS((one, u, v, uv))


def gamma_to_u(field: GF, quad: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`u_to_gamma`: the Moebius transform, one subtraction per step down in v, then in u."""
    one, u, v, uv = _AT_MONOMIALS(_coords(field, quad))
    sub = field.sub
    v, uv = sub(v, one), sub(uv, u)
    u, uv = sub(u, one), sub(uv, v)
    return (one, u, v, uv)


class RingElement(Value):
    """An element of R in idempotent coordinates (g1, g2, g3, g4 slots)."""

    __slots__ = ("field", "g")
    _key = attrgetter("field", "g")
    field: GF
    g: tuple[int, ...]

    def __init__(self, field: GF, g: Sequence[int]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "g", _coords(field, g))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: GF) -> "RingElement":
        return cls(field, (0,) * SLOTS)

    @classmethod
    def one(cls, field: GF) -> "RingElement":
        return cls(field, (1,) * SLOTS)

    @classmethod
    def scalar(cls, field: GF, c: int) -> "RingElement":
        """The field element c embedded as c * (g1 + g2 + g3 + g4)."""
        return cls(field, (c,) * SLOTS)

    @classmethod
    def idempotent(cls, field: GF, i: int) -> "RingElement":
        """g1..g4 for i in 0..3."""
        if type(i) is not int or not 0 <= i < SLOTS:
            raise MismatchError(f"idempotent slot {i!r} outside 0..{SLOTS - 1}")
        return cls(field, tuple(int(s == i) for s in range(SLOTS)))

    @classmethod
    def from_u(cls, field: GF, quad: Sequence[int]) -> "RingElement":
        return cls(field, u_to_gamma(field, quad))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.g)

    @property
    def is_unit(self) -> bool:
        return all(self.g)

    @property
    def lee_weight(self) -> int:
        return sum(1 for v in self.g if v)

    # -- arithmetic ---------------------------------------------------------

    def _same(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement) or other.field != self.field:
            raise MismatchError("ring operands live in different rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._same(other)
        add = self.field.add
        return RingElement(self.field, tuple(add(a, b) for a, b in zip(self.g, other.g)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._same(other)
        sub = self.field.sub
        return RingElement(self.field, tuple(sub(a, b) for a, b in zip(self.g, other.g)))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._same(other)
        mul = self.field.mul
        return RingElement(self.field, tuple(mul(a, b) for a, b in zip(self.g, other.g)))

    def __neg__(self) -> "RingElement":
        neg = self.field.neg
        return RingElement(self.field, tuple(neg(a) for a in self.g))

    def inverse(self) -> "RingElement":
        if not self.is_unit:
            raise NotAUnitError(f"{self} has a zero coordinate")
        inv = self.field.inv
        return RingElement(self.field, tuple(inv(a) for a in self.g))

    def frobenius(self, l: int = 1) -> "RingElement":
        frob = self.field.frobenius
        return RingElement(self.field, tuple(frob(a, l) for a in self.g))

    def __repr__(self) -> str:
        return f"RingElement({self.field!r}, {self.g})"


def gray(entries: Sequence[RingElement]) -> tuple[int, ...]:
    """Flatten a ring vector into its length-4n coordinate expansion."""
    return tuple(v for x in entries for v in x.g)


def lee_weight(entries: Sequence[RingElement]) -> int:
    """Number of nonzero coordinates across the expansion."""
    return sum(x.lee_weight for x in entries)


def lee_distance(s: Sequence[RingElement], t: Sequence[RingElement]) -> int:
    if len(s) != len(t):
        raise MismatchError("vectors differ in length")
    return sum((a - b).lee_weight for a, b in zip(s, t))


def galois_inner(s: Sequence[RingElement], t: Sequence[RingElement], l: int) -> RingElement:
    """Sum of s_i * F^l(t_i), where F is the coordinatewise p-th power."""
    if len(s) != len(t):
        raise MismatchError("vectors differ in length")
    if not s:
        raise MismatchError("inner product of empty vectors")
    field = s[0].field
    field.check_twist(l)
    add, mul, frob = field.add, field.mul, field.frobenius
    acc = [0] * SLOTS
    for a, b in zip(s, t):
        if a.field != field or b.field != field:
            raise MismatchError("mixed fields in inner product")
        acc = [add(c, mul(x, frob(y, l))) for c, x, y in zip(acc, a.g, b.g)]
    return RingElement(field, tuple(acc))
