"""Linear codes over R as four component codes.

A linear code over R decomposes as g1*C1 + g2*C2 + g3*C3 + g4*C4 where
the C_i are linear codes over F_q; an ``RCode`` is that quadruple, and
its field and length are the components'.  Duals, complementary-dual
checks, self-orthogonality, the Singleton test and unit scaling all act
componentwise, and the generator matrix over R is just a view rebuilt
on demand.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError, MismatchError, NotAUnitError, ZeroCodeError
from .fqcode import DEFAULT_ENUM_CAP, FqCode
from .gf import GF
from .linalg import Matrix
from .ring import RingElement
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
    comps: tuple[FqCode, FqCode, FqCode, FqCode]

    def __init__(self, comps: Iterable[FqCode]) -> None:
        object.__setattr__(self, "comps", tuple(comps))
        if len(self.comps) != 4:
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
        Each ``RingElement`` checked its coordinates, so the slot matrices
        are stored without checking them again.
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
            FqCode.from_rows(field, n, Matrix._derived(field, n, [[x.g[i] for x in row] for row in rows]))
            for i in range(4)
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
        f, out = self.field, []
        for i, comp in enumerate(self.comps):
            for row in comp.gen.rows:
                out.append(
                    tuple(RingElement(f, tuple(v if s == i else 0 for s in range(4))) for v in row)
                )
        return out

    def __repr__(self) -> str:
        ks = ",".join(str(c.k) for c in self.comps)
        return f"RCode(n={self.n}, k={self.k} ({ks}), field={self.field!r})"

    # -- duality and predicates ------------------------------------------------

    def galois_dual(self, l: int = 0) -> "RCode":
        return RCode(c.galois_dual(l) for c in self.comps)

    def lcd_status(self, l: int = 0) -> tuple[bool, tuple[int, int, int, int]]:
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
        """Minimum Lee weight d_Lee = min_i d_i over the nonzero components.

        First the cap: each component without a memoized distance is
        checked in slot order, counting all its q^k messages, so the same
        inputs are refused, with the same message, as by one ``min_dist``
        per component.  Then the floor: the lightest generator row over all
        components is d_Lee when it weighs 1 or 2, since a weight-1 word of
        a component is a multiple of one of its RREF rows, so without such
        a row every d_i >= 2.  Otherwise the components are walked in
        ascending q^k until the running minimum reaches 2.
        """
        if self.k == 0:
            raise ZeroCodeError("the zero code has no minimum distance")
        live = [c for c in self.comps if c.k > 0]
        for c in live:
            if c._dist is None:
                c._check_cap(cap)
        best = min(c._row_floor() for c in live)
        for c in sorted(live, key=attrgetter("k")):
            if best <= 2:
                break
            best = min(best, c.min_dist(cap))
        return best

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
        distance computed.
        """
        if self.k == 0:
            raise ZeroCodeError("the zero code has no minimum distance")
        if len({c.k for c in self.comps}) > 1:
            return False
        d = self.lee_min_dist(cap)
        return 4 * d == 4 * self.n - self.k + 4

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
        width, keyed = 4 * self.n, []
        for i, comp in enumerate(self.comps):
            for c, gen_row in zip(comp.pivots, comp.gen.rows):
                row = [0] * width
                row[i::4] = gen_row
                keyed.append((4 * c + i, row))
        keyed.sort()
        pivots, rows = zip(*keyed) if keyed else ((), ())
        return FqCode._derived(Matrix._derived(self.field, width, rows), pivots)

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
