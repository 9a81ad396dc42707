"""Linear codes over F_q.

A code is its field, its length and the rows of its unique reduced row
echelon generator, a tuple of int tuples, so two objects describe the
same code exactly when they compare equal.  No ``Matrix`` lives inside a
code: one is built only at the boundary, where ``from_rows`` checks
outside rows, where ``FqCode(gen)`` unpacks a checked generator, and in
``gen``, a view built and checked on each access for callers outside
the package.
Every code spanned by rows (``from_rows`` after checking its matrix,
the kernel in ``galois_dual``, ``RCode.from_generators``) goes through
``_span``: ``linalg._reduced`` takes rows that pass ``linalg.rref_scan``,
the one test of the form, as they are and eliminates the rest.  So a
component already in RREF, or a kernel whose rows happen to be reduced,
costs no elimination.  The public constructor ``FqCode(gen)`` runs the
same scan, refuses a generator that fails it and records the pivot
columns.  A code derived from RREF rows is written straight into RREF
and built by ``FqCode._derived`` without the scan, from pivots the
derivation already knows: ``_reduced``'s own pivots in ``_span``, the
dual's pivots for its Frobenius images (F fixes 0 and 1), G's pivots for
a column scaling whose rows are divided by their pivot factors, and
4c + i for a Gray image.
Each code object computes one kernel, its Euclidean dual, memoized: one
row e_f - sum_i G[i][f] * e_(p_i) per free column f, written from the
generator and its pivots p_i and reduced by ``_span``.  The l-dual is
that dual's entrywise (p^(e-l))-power, since y lies in the l-dual iff
F^l(y) lies in the Euclidean dual, and F maps RREF onto RREF.  An RREF
row reads 0 or 1 at every pivot and F fixes both, so the power is taken
on the dual's free columns alone.
Hull predicates never build the dual: they read the k-by-k twisted Gram
matrix P = G * F^(e-l)(G)^T, since u*G lies in the l-dual iff u*P = 0.
G is [I | A] on its pivot and free columns, so P = I + A * F^(e-l)(A)^T
is built from the list rows of the free columns by one Gram kernel call,
which takes only half of it as dot products when 2(e - l) is a multiple
of e (``GF._gram_rows``).  The mate twist l' = (e - l) mod e has
P = F^(l')(P')^T, so each code object builds one P and runs one
elimination per twist orbit {l, e - l}, memoized, and reads the mate's
rank and determinant off it: rank P and det P answer every hull and LCD
predicate.  Every P comes from that one build (``_build_gram``); the
mate's is built only when the LCD construction asks for it (``_gram``).
Every distance has one route, ``least_distance`` over one or more codes:
the cap, then the lightest RREF row, then ``_lane_walk``, the Gray walk
of one code, which memoizes its d.  ``min_dist`` is that route on one
code and ``RCode.lee_min_dist`` on the four components.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceededError,
    ConsistencyError,
    MismatchError,
    ZeroCodeError,
    ZeroScaleError,
)
from .gf import GF
from .linalg import Matrix, _reduced, rref_scan
from .value import Value

DEFAULT_ENUM_CAP = 1_000_000


def count_text(q: int, k: int) -> str:
    """q^k for a message: decimal while Python's int-to-str digit limit allows, else "q^k"."""
    try:
        return str(q**k)
    except ValueError:
        return f"{q}^{k}"


# Largest number of entries in the p-ary ruler block _projective_steps builds.
RULER_BLOCK = 1 << 16


def _projective_steps(p: int, e: int, k: int) -> Iterator[int]:
    """F_p-digit indices j * e + t of the projective Gray walk over GF(p^e)^k.

    Starting from the zero message, each yielded index says "add x^t to
    message digit j".  For each top digit j in turn, one step sets digit j
    to 1, then the p-ary modular Gray code over the j * e F_p digits below
    it runs once: step s adds 1 to digit v_p(s).  The s-th state is the
    start plus the s-th Gray codeword, so from wherever the previous walk
    left the lower digits every lower choice is met exactly once.  Digits
    above j stay 0, so each message whose highest nonzero digit is 1 is
    visited exactly once.

    The ruler v_p(1), ..., v_p(p^m - 1) of the m lowest digits is built
    once as ``bytes`` (R_(m+1) = (R_m + [m]) * (p - 1) + R_m, so R_i is a
    prefix of R_m), with p^m - 1 <= ``RULER_BLOCK`` and m <= (k - 1) * e.
    Higher digits step through v_p once per block, so memory stays
    bounded whatever q^k is.  The indices come out of ``chain``, which
    reads each block from C rather than resuming a generator per step.
    """
    block, m = b"", 0
    while m < (k - 1) * e and p ** (m + 1) - 1 <= RULER_BLOCK:
        block = (block + bytes([m])) * (p - 1) + block
        m += 1

    def chunks() -> Iterator[Sequence[int]]:
        for top in range(k):
            low = top * e
            yield (low,)
            if low <= m:
                yield block[: p**low - 1]
                continue
            yield block
            for s in range(1, p ** (low - m)):
                i = m
                while not s % p:
                    s //= p
                    i += 1
                yield (i,)
                yield block

    return chain.from_iterable(chunks())


class FqCode(Value):
    """An [n, k] linear code over GF(q): its field, its length n and its RREF generator ``rows``.

    ``rows`` is a tuple of int tuples, one per dimension, so k is their
    count.  ``pivots`` holds their pivot columns, found by the
    constructor's ``rref_scan`` or handed over by the derivation that built
    the code (``_derived``).  ``_dist`` caches the minimum distance,
    ``_dual`` the Euclidean dual and ``_grams`` maps each twist l to
    (P, rank P, det P), P as rows or None (see ``_gram_facts``).
    ``_free``, the columns that are not pivots, stays unset until
    ``_free_columns`` first needs it.  None of these but the field, n and
    the rows takes part in equality, hashing or the repr.
    """

    __slots__ = ("field", "n", "rows", "pivots", "_dist", "_dual", "_grams", "_free")
    _key = attrgetter("field", "n", "rows")
    field: GF
    n: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    _dist: int | None
    _dual: "FqCode | None"
    _grams: dict[int, tuple[tuple[tuple[int, ...], ...] | None, int, int]]
    _free: tuple[int, ...]

    def __init__(self, gen: Matrix) -> None:
        pivots, bad = rref_scan(gen.rows)
        if bad is not None:
            raise MismatchError(f"generator row {bad} breaks reduced row echelon form")
        self._fill(gen.field, gen.ncols, gen.rows, pivots)

    def _fill(self, field: GF, n: int, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_dist", None)
        object.__setattr__(self, "_dual", None)
        object.__setattr__(self, "_grams", {})

    @classmethod
    def _derived(
        cls, field: GF, n: int, rows: Sequence[Sequence[int]], pivots: tuple[int, ...]
    ) -> "FqCode":
        """The code of RREF rows a derivation built, with the pivots it already knows.

        Only a derivation inside the package calls this, on ``n``-wide rows
        over ``field`` in RREF whose row r leads at ``pivots[r]``; the
        constructor's scan would find the same pivots.  The rows are copied
        into tuples, so the caller may go on to overwrite its lists.
        """
        c = object.__new__(cls)
        c._fill(field, n, tuple(map(tuple, rows)), pivots)
        return c

    @classmethod
    def from_rows(cls, field: GF, n: int, rows: Sequence[Sequence[int]] | Matrix) -> "FqCode":
        """The span of ``rows``, lists or a built ``Matrix`` of ``n`` columns over ``field``; zero and
        redundant rows are dropped."""
        m = rows if isinstance(rows, Matrix) else Matrix.from_rows(field, rows, ncols=n)
        if m.field != field or m.ncols != n:
            raise MismatchError(f"a {m.ncols}-column matrix over {m.field!r} for a length-{n} code over {field!r}")
        return FqCode._span(field, n, m.rows)

    @classmethod
    def _span(cls, field: GF, n: int, rows: Sequence[Sequence[int]]) -> "FqCode":
        """The span of rows already known to be ``n`` wide over ``field``: one ``_reduced`` call."""
        reduced, pivots = _reduced(field, rows)
        return FqCode._derived(field, n, reduced[: len(pivots)], pivots)

    @classmethod
    def zero(cls, field: GF, n: int) -> "FqCode":
        return cls(Matrix.zero(field, 0, n))

    # -- basic data ---------------------------------------------------------

    @property
    def gen(self) -> Matrix:
        """The RREF generator as a ``Matrix``: a checked view built on each access, for callers outside the package."""
        return Matrix(self.field, self.n, self.rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        return self.field.q**self.k

    def __repr__(self) -> str:
        return f"FqCode(n={self.n}, k={self.k}, field={self.field!r})"

    # -- duality ---------------------------------------------------------------

    def _free_columns(self) -> tuple[int, ...]:
        """The columns that are not pivots, ascending, computed on first use."""
        try:
            return self._free
        except AttributeError:
            pivots = set(self.pivots)
            free = tuple(c for c in range(self.n) if c not in pivots)
            object.__setattr__(self, "_free", free)
            return free

    def _build_gram(self, m: int) -> list[list[int]]:
        """P = I + A * F^m(A)^T as list rows, A the block of the free columns: one ``GF._gram_rows``
        call, half of it dot products when 2m is a multiple of e, plus 1 on the diagonal."""
        f, free = self.field, self._free_columns()
        rows = f._gram_rows([[row[c] for c in free] for row in self.rows], m)
        for i, row in enumerate(rows):
            row[i] = f.add(row[i], 1)
        return rows

    def _gram_facts(self, l: int) -> tuple[tuple[tuple[int, ...], ...] | None, int, int]:
        """(P, rank P, det P) for the twisted Gram matrix P = G * F^m(G)^T, m = e - l.

        P comes from ``_build_gram``, stored as rows and then eliminated in
        place.  The mate twist l' = m mod e has P = F^(l')(P')^T, so
        rank P = rank P' and det P = F^(l')(det P'): once the mate is
        memoized, l costs no product and no elimination, and its entry holds
        None for P until ``_gram`` asks for it.  l is checked before any memo
        read (True and 1.0 would find the entry of 1).
        """
        f, m = self.field, self.field._gram_power(l)[0]
        facts = self._grams.get(l)
        if facts is None:
            mate = self._grams.get(m % f.e)
            if mate is None:
                rows = self._build_gram(m)
                p = tuple(map(tuple, rows))
                pivots, d = f._gauss(rows)
                facts = (p, len(pivots), d)
            else:
                facts = (None, mate[1], f.frobenius(mate[2], m))
            self._grams[l] = facts
        return facts

    def _gram(self, l: int) -> tuple[tuple[int, ...], ...]:
        """P at twist l as rows: the memo's, built by ``_build_gram`` and stored if the entry was read off its mate."""
        p, r, d = self._gram_facts(l)
        if p is None:
            p = tuple(map(tuple, self._build_gram(self.field._gram_power(l)[0])))
            self._grams[l] = (p, r, d)
        return p

    def galois_dual(self, l: int = 0) -> "FqCode":
        """All words pairing to zero with the code under sum(t_i * s_i^(p^l))."""
        f, n = self.field, self.n
        m = f._gram_power(l)[0]
        dual = self._dual
        if dual is None:
            # one kernel row e_c - sum_i G[i][c] * e_(p_i) per free column c
            pivots, neg = self.pivots, f.neg
            cols = list(zip(*self.rows)) or [()] * n  # one transpose, not a col() per column
            rows = []
            for c in self._free_columns():
                v = [0] * n
                v[c] = 1
                for p, x in zip(pivots, cols[c]):
                    v[p] = neg(x)
                rows.append(v)
            dual = FqCode._span(f, n, rows)
            # free-column rows are independent, so no rank can be lost
            if dual.k != len(rows):
                raise ConsistencyError(f"kernel basis of {len(rows)} vectors has rank {dual.k}")
            object.__setattr__(self, "_dual", dual)
        if m == f.e:
            return dual
        free, rows = dual._free_columns(), dual.rows
        if free:
            rows = [list(row) for row in rows]
            for row in rows:
                for c, v in zip(free, f.frobenius_row([row[c] for c in free], m)):
                    row[c] = v
        return FqCode._derived(f, n, rows, dual.pivots)

    def hull_dim(self, l: int = 0) -> int:
        """dim Hull_l = k - rank(P): the hull is {u*G : u*P = 0}."""
        return self.k - self._gram_facts(l)[1]

    def lcd_status(self, l: int = 0) -> tuple[bool, int]:
        """(flag, determinant) for the twisted Gram criterion.

        The zero code has an empty Gram matrix with determinant 1, so it
        counts as complementary-dual by convention.
        """
        d = self._gram_facts(l)[2]
        return (d != 0, d)

    def is_lcd(self, l: int = 0) -> bool:
        return self.lcd_status(l)[0]

    def is_self_orthogonal(self, l: int = 0) -> bool:
        """Contained in its own l-dual exactly when P = 0, that is rank P = 0."""
        return self._gram_facts(l)[1] == 0

    def is_self_dual(self) -> bool:
        """Equal to its Euclidean dual exactly when P = 0 for l = 0 and 2k = n."""
        return 2 * self.k == self.n and self.is_self_orthogonal(0)

    # -- metrics ---------------------------------------------------------------

    def min_dist(self, cap: int = DEFAULT_ENUM_CAP) -> int:
        """Exact minimum Hamming weight: ``least_distance`` of this code alone, memoized; a memoized d skips the cap."""
        if self._dist is None:
            object.__setattr__(self, "_dist", least_distance((self,), cap))
        return self._dist

    def _lane_walk(self) -> int:
        """The minimum distance by a projective Gray-order scan from the lightest row, memoized.

        ``least_distance`` calls this only when no row of any code it reads
        weighs 1 or 2.  The scan stops at the first word of weight 2, since
        no word is lighter, and a one-row code is its row's multiples.

        Scalar multiples share a weight, so only the (q^k - 1)/(q - 1)
        messages whose highest nonzero digit is 1 are visited.  Below that
        digit the message walks its F_p coordinates in p-ary Gray order
        (``_projective_steps``), so each codeword is the previous one plus
        a precomputed multiple x^t * row_j.  A word of GF(p^e)^n is one int
        holding its n * e F_p digits in lanes of b = p.bit_length() + 1
        bits, plane-major: lane t * n + i holds digit t of coordinate i.
        The walk carries w + K, where K holds 2^(b-1) - p in every lane, so
        after adding a step's lanes, bit b - 1 of a lane is set exactly
        when its digit sum reached p, and subtracting p there reduces every
        lane at once.  Digit w_i is nonzero exactly when bit b - 1 of
        w_i + 2^(b-1) - 1 is set; OR-ing these flags over the e planes onto
        plane 0 and counting its bits gives the weight.  No lane sum
        reaches 2^b, so one kernel serves every field.
        """
        if self._dist is not None:
            return self._dist
        f, n, rows = self.field, self.n, self.rows
        best = min(n - row.count(0) for row in rows)
        if self.k > 1:
            p, e = f.p, f.e
            b = p.bit_length() + 1
            msb = b - 1  # the top bit of a lane
            plane = n * b
            one = ((1 << (plane * e)) - 1) // ((1 << b) - 1)  # 1 in every lane
            high = one << msb
            # deltas[j * e + t] packs x^t * row j
            deltas = []
            for row in rows:
                for t in range(e):
                    xt = p**t  # the encoding of x^t
                    d = 0
                    for i, v in enumerate(row):
                        for u, digit in enumerate(f.coeffs(f.mul(xt, v))):
                            d |= digit << (u * plane + i * b)
                    deltas.append(d)
            folds = []  # OR planes t .. t + 2h - 1 onto plane t, doubling h
            h = 1
            while h < e:
                folds.append(h * plane)
                h *= 2
            plane0 = high & ((1 << plane) - 1)
            nonzero = one * (p - 1)  # w + K + (p - 1) = w + 2^(b-1) - 1 in each lane
            word = one * ((1 << msb) - p)  # the zero word plus K
            for d in map(deltas.__getitem__, _projective_steps(p, e, self.k)):
                s = word + d
                word = s - ((s & high) >> msb) * p
                flags = (word + nonzero) & high
                for shift in folds:
                    flags |= flags >> shift
                w = (flags & plane0).bit_count()
                if w < best:
                    best = w
                    if best == 2:
                        break
        object.__setattr__(self, "_dist", best)
        return best

    # -- equivalence ---------------------------------------------------------

    def scale(self, factors: Iterable[int]) -> "FqCode":
        """The monomially equivalent code with column j scaled by factors[j].

        Each row of G * diag(factors), divided by its pivot's factor, is an RREF row.
        """
        f = self.field
        factors = f.check_row(factors)
        if len(factors) != self.n:
            raise MismatchError("one scaling factor per coordinate required")
        if 0 in factors:
            raise ZeroScaleError(f"factor at position {factors.index(0)} is zero")
        mul, rows = f.mul, []
        for row, c in zip(self.rows, self.pivots):
            s = f.inv(factors[c])
            rows.append([mul(mul(v, a), s) if v else 0 for v, a in zip(row, factors)])
        return FqCode._derived(f, self.n, rows, self.pivots)


def least_distance(codes: Sequence[FqCode], cap: int) -> int:
    """The least minimum distance over ``codes``, their zero codes skipped: the one distance rule.

    One code gives its d (``FqCode.min_dist``), the four components of a
    ring code give d_Lee (``RCode.lee_min_dist``).  First the cap: each
    code without a memoized distance is checked in order, counting all its
    q^k messages, so a code is refused whichever step would decide it.
    Then the floor: a word sum_i m_i * row_i reads m_i at pivot p_i, so a
    word of weight 1 is a multiple of one RREF row, and without such a row
    every d >= 2, which any word of weight 2, a row among them, attains.
    So the lightest row over all codes is the answer when it weighs 1 or
    2.  Otherwise the codes are walked (``FqCode._lane_walk``) in ascending
    k until the running minimum reaches 2.
    """
    live = [c for c in codes if c.k]
    if not live:
        raise ZeroCodeError("the zero code has no minimum distance")
    for c in live:
        q, k = c.field.q, c.k
        if c._dist is None and q**k > cap:
            raise CapExceededError(f"{count_text(q, k)} codewords exceed the cap of {cap}")
    best = min(c.n - row.count(0) for c in live for row in c.rows)
    for c in sorted(live, key=attrgetter("k")):
        if best <= 2:
            break
        best = min(best, c._lane_walk())
    return best
