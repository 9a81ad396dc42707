"""Arithmetic in R = F_q + uF_q + vF_q + uvF_q.

With u^2 = u, v^2 = v and uv = vu the ring splits through the orthogonal
idempotents

    g1 = 1 - u - v + uv,   g2 = uv,   g3 = u - uv,   g4 = v - uv,

which sum to 1, square to themselves and annihilate each other.  Every
element is g1*r1 + g2*r2 + g3*r3 + g4*r4 for a unique quadruple of field
elements, and all ring operations act coordinatewise on that quadruple.
The quadruple is the canonical representation here; the (1, u, v, uv)
basis appears only at serialization boundaries.

The expansion map sends a length-n vector to the length-4n field vector
obtained by writing out each entry's quadruple in place, so position
4*j + i holds coordinate i of entry j.  It is an F_q-linear bijection and
turns Lee distance into Hamming distance.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from .errors import MismatchError, NotAUnitError
from .gf import GF
from .value import Value


def u_to_gamma(field: GF, quad: Sequence[int]) -> tuple[int, int, int, int]:
    """Convert (a1, a2, a3, a4) of a1 + a2*u + a3*v + a4*uv to idempotent coordinates."""
    a1, a2, a3, a4 = map(field.check, quad)
    add = field.add
    r1 = a1
    r3 = add(a1, a2)
    r4 = add(a1, a3)
    r2 = add(add(a1, a2), add(a3, a4))
    return (r1, r2, r3, r4)


def gamma_to_u(field: GF, quad: Sequence[int]) -> tuple[int, int, int, int]:
    """Inverse of :func:`u_to_gamma`."""
    r1, r2, r3, r4 = map(field.check, quad)
    add, sub = field.add, field.sub
    a1 = r1
    a2 = sub(r3, r1)
    a3 = sub(r4, r1)
    a4 = sub(add(r1, r2), add(r3, r4))
    return (a1, a2, a3, a4)


class RingElement(Value):
    """An element of R in idempotent coordinates (g1, g2, g3, g4 slots)."""

    __slots__ = ("field", "g")
    _key = attrgetter("field", "g")
    field: GF
    g: tuple[int, int, int, int]

    def __init__(self, field: GF, g: Sequence[int]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "g", tuple(g))
        if len(self.g) != 4:
            raise ValueError("ring elements carry exactly 4 coordinates")
        q = self.field.q
        for v in self.g:
            if type(v) is not int or not 0 <= v < q:
                raise ValueError(f"coordinate {v!r} is not an element of {self.field!r}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: GF) -> "RingElement":
        return cls(field, (0, 0, 0, 0))

    @classmethod
    def one(cls, field: GF) -> "RingElement":
        return cls(field, (1, 1, 1, 1))

    @classmethod
    def scalar(cls, field: GF, c: int) -> "RingElement":
        """The field element c embedded as c * (g1 + g2 + g3 + g4)."""
        field.check(c)
        return cls(field, (c, c, c, c))

    @classmethod
    def idempotent(cls, field: GF, i: int) -> "RingElement":
        """g1..g4 for i in 0..3."""
        if type(i) is not int or not 0 <= i <= 3:
            raise MismatchError(f"idempotent slot {i!r} outside 0..3")
        coords = [0, 0, 0, 0]
        coords[i] = 1
        return cls(field, tuple(coords))

    @classmethod
    def from_u(cls, field: GF, quad: Sequence[int]) -> "RingElement":
        return cls(field, u_to_gamma(field, quad))

    def to_u(self) -> tuple[int, int, int, int]:
        return gamma_to_u(self.field, self.g)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.g == (0, 0, 0, 0)

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
    out: list[int] = []
    for x in entries:
        out.extend(x.g)
    return tuple(out)


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
    acc = [0, 0, 0, 0]
    for a, b in zip(s, t):
        if a.field != field or b.field != field:
            raise MismatchError("mixed fields in inner product")
        for i in range(4):
            acc[i] = add(acc[i], mul(a.g[i], frob(b.g[i], l)))
    return RingElement(field, tuple(acc))
