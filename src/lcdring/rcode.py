"""Linear codes over R as four component codes.

A linear code over R decomposes as g1*C1 + g2*C2 + g3*C3 + g4*C4 where
the C_i are linear codes over F_q; an ``RCode`` is that quadruple, and
its field and length are the components'.  Duals, complementary-dual
checks, self-orthogonality, the Singleton test and unit scaling all act
componentwise, and the generator matrix over R is just a view rebuilt
on demand.  d_Lee is ``fqcode.least_distance`` of the four components, so
this module reads no distance internal of a component.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError, MismatchError, NotAUnitError
from .fqcode import DEFAULT_ENUM_CAP, FqCode, least_distance
from .gf import GF
from .ring import SLOTS, RingElement
from .value import Value


class RCodeParams(NamedTuple):
    n: int
    k: int
    d_lee: int | None
    components: tuple[tuple[int, int, int | None], ...]


class RCode(Value):
    """A linear code over R: its four component codes over one GF(q) and one length n."""

    __slots__ = ("comps",)
    _key = attrgetter("comps")
    comps: tuple[FqCode, ...]

    def __init__(self, comps: Iterable[FqCode]) -> None:
        object.__setattr__(self, "comps", tuple(comps))
        if len(self.comps) != SLOTS:
            raise MismatchError("exactly four component codes required")
        field, n = self.field, self.n
        for c in self.comps:
            if c.field != field or c.n != n:
                raise MismatchError("component codes disagree on field or length")

    @classmethod
    def from_generators(
        cls, field: GF, n: int, rows: Sequence[Sequence[RingElement]]
    ) -> "RCode":
        """Span of ring-vector generators, split into coordinate slots.

        R-scalars reach each idempotent slot independently, so the i-th
        component is simply the F_q-span of the slot-i coordinate rows.
        Each ``RingElement`` checked its coordinates, so the slot rows go
        to ``FqCode._span`` without checking them again.
        """
        if type(n) is not int or n < 0:
            raise ValueError(f"column count {n!r} is not a non-negative int")
        for row in rows:
            if len(row) != n:
                raise MismatchError(f"generator of width {len(row)} in a length-{n} code")
            for x in row:
                if x.field != field:
                    raise MismatchError("generator entry from a different field")
        return cls(
            FqCode._span(field, n, [[x.g[i] for x in row] for row in rows]) for i in range(SLOTS)
        )

    # -- basic data ---------------------------------------------------------

    @property
    def field(self) -> GF:
        return self.comps[0].field

    @property
    def n(self) -> int:
        return self.comps[0].n

    @property
    def k(self) -> int:
        return sum(c.k for c in self.comps)

    @property
    def size(self) -> int:
        return self.field.q**self.k

    def generator_rows(self) -> list[tuple[RingElement, ...]]:
        """Generators over R: each component row embedded in its slot."""
        f = self.field
        return [tuple(RingElement(f, tuple(v if s == i else 0 for s in range(SLOTS))) for v in row)
                for i, comp in enumerate(self.comps) for row in comp.rows]

    def __repr__(self) -> str:
        ks = ",".join(str(c.k) for c in self.comps)
        return f"RCode(n={self.n}, k={self.k} ({ks}), field={self.field!r})"

    # -- duality and predicates ------------------------------------------------

    def galois_dual(self, l: int = 0) -> "RCode":
        return RCode(c.galois_dual(l) for c in self.comps)

    def lcd_status(self, l: int = 0) -> tuple[bool, tuple[int, ...]]:
        """(flag, per-component twisted Gram determinants)."""
        pairs = [c.lcd_status(l) for c in self.comps]
        return (all(flag for flag, _ in pairs), tuple(d for _, d in pairs))

    def is_lcd(self, l: int = 0) -> bool:
        return self.lcd_status(l)[0]

    def is_self_orthogonal(self, l: int = 0) -> bool:
        return all(c.is_self_orthogonal(l) for c in self.comps)

    def is_self_dual(self) -> bool:
        return all(c.is_self_dual() for c in self.comps)

    # -- metrics ---------------------------------------------------------------

    def lee_min_dist(self, cap: int = DEFAULT_ENUM_CAP) -> int:
        """Minimum Lee weight d_Lee = min_i d_i over the nonzero components: ``least_distance`` of the four."""
        return least_distance(self.comps, cap)

    def params(self, cap: int = DEFAULT_ENUM_CAP) -> RCodeParams:
        """Aggregate parameters; distances degrade to None past the cap."""
        comp_params = []
        dists: list[int | None] = []
        for c in self.comps:
            if c.k == 0:
                comp_params.append((c.n, 0, None))
                continue
            try:
                d = c.min_dist(cap)
            except CapExceededError:
                d = None
            comp_params.append((c.n, c.k, d))
            dists.append(d)
        d_lee = min(dists) if dists and all(d is not None for d in dists) else None
        return RCodeParams(self.n, self.k, d_lee, tuple(comp_params))

    def is_mds(self, cap: int = DEFAULT_ENUM_CAP) -> bool:
        """Whether the Lee distance attains n - k/4 + 1 exactly.

        d_Lee <= n - max k_i + 1, which is below n - k/4 + 1 unless all
        four k_i are equal, so unequal dimensions decide "no" with no
        distance computed.  The zero code's are equal, and ``lee_min_dist``
        refuses it.
        """
        if len({c.k for c in self.comps}) > 1:
            return False
        d = self.lee_min_dist(cap)
        return SLOTS * d == SLOTS * self.n - self.k + SLOTS

    # -- maps ---------------------------------------------------------------

    def gray_image(self) -> FqCode:
        """The length-4n field code spanned by expanded generators.

        Component i lands on the positions congruent to i mod 4, so the
        image dimension is the sum of the component dimensions and its
        Hamming distance is the Lee distance of the source.  A row of
        component i is written straight into positions 4j + i, which is
        what ``ring.gray`` makes of that row embedded in slot i.  Components
        share no position, so sorted by pivot (4c + i) the rows are in RREF,
        and those keys are the image's pivots.
        """
        width, keyed = SLOTS * self.n, []
        for i, comp in enumerate(self.comps):
            for c, gen_row in zip(comp.pivots, comp.rows):
                row = [0] * width
                row[i::SLOTS] = gen_row
                keyed.append((SLOTS * c + i, row))
        keyed.sort()
        pivots, rows = zip(*keyed) if keyed else ((), ())
        return FqCode._derived(self.field, width, rows, pivots)

    def scale(self, alpha: Sequence[RingElement]) -> "RCode":
        """Entrywise multiplication by a vector of units."""
        if len(alpha) != self.n:
            raise MismatchError("one scaling unit per coordinate required")
        for j, a in enumerate(alpha):
            if a.field != self.field:
                raise MismatchError("scaling vector from a different ring")
            if not a.is_unit:
                raise NotAUnitError(f"alpha[{j}] = {a.g} has a zero coordinate")
        return RCode(comp.scale([a.g[i] for a in alpha]) for i, comp in enumerate(self.comps))
