"""Linear codes over F_q.

A code is its unique reduced row echelon generator matrix, which also
gives its field and length, so two objects describe the same code
exactly when they compare equal.
Only ``from_rows`` eliminates; a code derived from an RREF generator is
written straight into RREF.  The public constructor ``FqCode(gen)``
checks that form and records the pivot columns.  A code the package
derives is built by ``FqCode._derived`` from pivots the derivation
already knows, without that scan: ``rref``'s own pivots in
``from_rows``, the dual's pivots for its Frobenius images (F fixes 0 and
1), G's pivots for a column scaling whose rows are divided by their pivot
factors, and 4c + i for a Gray image.
Each code object computes one kernel, its Euclidean dual, memoized: one
row e_f - sum_i G[i][f] * e_(p_i) per free column f, written from the
generator and its pivots p_i and reduced by ``from_rows``.  The l-dual is that dual's entrywise (p^(e-l))-power, since
y lies in the l-dual iff F^l(y) lies in the Euclidean dual, and F maps
RREF onto RREF.
Hull predicates never build the dual: they read the k-by-k twisted Gram
matrix P = G * F^(e-l)(G)^T, since u*G lies in the l-dual iff u*P = 0.
G is [I | A] on its pivot and free columns, so P = I + A * F^(e-l)(A)^T
is built from the free columns only, and only half of it when 2(e - l) is
a multiple of e (``gram``).  The mate twist l' = (e - l) mod e has
P = F^(l')(P')^T, so each code object builds one P and runs one
elimination per twist orbit {l, e - l}, memoized, and reads the mate off
it: rank P and det P answer every hull and LCD predicate.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterator, Sequence

from .errors import (
    CapExceededError,
    ConsistencyError,
    MismatchError,
    ZeroCodeError,
    ZeroScaleError,
)
from .gf import GF
from .linalg import Matrix, _eliminate, gram, rref
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
    """An [n, k] linear code over GF(q): its RREF generator ``gen``.

    The field and the length n are the generator's.  ``pivots`` holds its
    pivot columns, found by the constructor's RREF check or handed over by
    the derivation that built the code (``_derived``).  ``_dist``
    caches the minimum distance, ``_dual`` the Euclidean dual and
    ``_grams`` maps each twist l to (P, rank P, det P).  None of these
    takes part in equality, hashing or the repr.
    """

    __slots__ = ("gen", "pivots", "_dist", "_dual", "_grams")
    _key = attrgetter("gen")
    gen: Matrix
    pivots: tuple[int, ...]
    _dist: int | None
    _dual: "FqCode | None"
    _grams: dict[int, tuple[Matrix, int, int]]

    def __init__(self, gen: Matrix) -> None:
        pivots, last = [], -1
        for r, row in enumerate(gen.rows):
            c = next((c for c, v in enumerate(row) if v), None)
            if c is None or c <= last or row[c] != 1:
                raise MismatchError(f"generator row {r} breaks reduced row echelon form")
            pivots.append(c)
            last = c
        # every row reads 0 at the other rows' pivots
        if len(pivots) > 1:
            at_pivots, k = itemgetter(*pivots), len(pivots)
            for r, row in enumerate(gen.rows):
                if at_pivots(row).count(0) != k - 1:
                    raise MismatchError(f"generator row {r} breaks reduced row echelon form")
        self._fill(gen, tuple(pivots))

    def _fill(self, gen: Matrix, pivots: tuple[int, ...]) -> None:
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_dist", None)
        object.__setattr__(self, "_dual", None)
        object.__setattr__(self, "_grams", {})

    @classmethod
    def _derived(cls, gen: Matrix, pivots: tuple[int, ...]) -> "FqCode":
        """The code of an RREF generator a derivation built, with the pivots it already knows.

        Only a derivation inside the package calls this, on a generator in
        RREF whose row r leads at ``pivots[r]``; the constructor's scan
        would find the same pivots.
        """
        c = object.__new__(cls)
        c._fill(gen, pivots)
        return c

    @classmethod
    def from_rows(cls, field: GF, n: int, rows: Sequence[Sequence[int]] | Matrix) -> "FqCode":
        """The span of ``rows``, lists or a built ``Matrix`` of ``n`` columns over ``field``; zero and
        redundant rows are dropped."""
        m = rows if isinstance(rows, Matrix) else Matrix.from_rows(field, rows, ncols=n)
        if m.field != field or m.ncols != n:
            raise MismatchError(f"a {m.ncols}-column matrix over {m.field!r} for a length-{n} code over {field!r}")
        reduced, rk, pivots = rref(m)
        return FqCode._derived(Matrix._derived(field, n, reduced.rows[:rk]), pivots)

    @classmethod
    def zero(cls, field: GF, n: int) -> "FqCode":
        return cls(Matrix.zero(field, 0, n))

    # -- basic data ---------------------------------------------------------

    @property
    def field(self) -> GF:
        return self.gen.field

    @property
    def n(self) -> int:
        return self.gen.ncols

    @property
    def k(self) -> int:
        return self.gen.nrows

    @property
    def size(self) -> int:
        return self.field.q**self.k

    def __repr__(self) -> str:
        return f"FqCode(n={self.n}, k={self.k}, field={self.field!r})"

    # -- duality ---------------------------------------------------------------

    def _twist(self, l: int) -> int:
        """Frobenius power m = e - l: the l-pairing with G is the Euclidean one with F^m(G)."""
        return self.field.e - self.field.check_twist(l)

    def _gram_facts(self, l: int) -> tuple[Matrix, int, int]:
        """(P, rank P, det P) for the twisted Gram matrix P = G * F^m(G)^T, m = e - l.

        G reads I on its pivot columns, so P = I + A * F^m(A)^T for the
        block A of its free columns: one ``gram`` of A, half of it dot
        products when 2m is a multiple of e, plus 1 on the diagonal.  The
        mate twist l' = m mod e has P = F^(l')(P')^T, so rank P = rank P'
        and det P = F^(l')(det P'): once the mate is memoized, l costs no
        product and no elimination.  l is checked before any memo read
        (True and 1.0 would find the entry of 1).
        """
        f, m = self.field, self._twist(l)
        facts = self._grams.get(l)
        if facts is None:
            mate = self._grams.get(m % f.e)
            if mate is None:
                free = sorted(set(range(self.n)) - set(self.pivots))
                a = Matrix._derived(f, len(free), [[row[c] for c in free] for row in self.gen.rows])
                rows = gram(a, m).to_rows()
                for i, row in enumerate(rows):
                    row[i] = f.add(row[i], 1)
                p = Matrix._derived(f, self.k, rows)
                pivots, d = _eliminate(f, rows)
                facts = (p, len(pivots), d)
            else:
                p, r, d = mate
                pt = Matrix._derived(f, p.nrows, [f.frobenius_row(c, m) for c in zip(*p.rows)])
                facts = (pt, r, f.frobenius(d, m))
            self._grams[l] = facts
        return facts

    def _gram(self, l: int) -> Matrix:
        """The twisted Gram matrix P behind every hull predicate."""
        return self._gram_facts(l)[0]

    def galois_dual(self, l: int = 0) -> "FqCode":
        """All words pairing to zero with the code under sum(t_i * s_i^(p^l))."""
        f, n = self.field, self.n
        m = self._twist(l)
        dual = self._dual
        if dual is None:
            # one kernel row e_c - sum_i G[i][c] * e_(p_i) per free column c
            pivots, neg = self.pivots, f.neg
            cols = list(zip(*self.gen.rows)) or [()] * n  # one transpose, not a col() per column
            rows = []
            for c in sorted(set(range(n)) - set(pivots)):
                v = [0] * n
                v[c] = 1
                for p, x in zip(pivots, cols[c]):
                    v[p] = neg(x)
                rows.append(v)
            dual = FqCode.from_rows(f, n, Matrix._derived(f, n, rows))
            # free-column rows are independent, so no rank can be lost
            if dual.k != len(rows):
                raise ConsistencyError(f"kernel basis of {len(rows)} vectors has rank {dual.k}")
            object.__setattr__(self, "_dual", dual)
        if m == f.e:
            return dual
        return FqCode._derived(Matrix._derived(f, n, [f.frobenius_row(row, m) for row in dual.gen.rows]), dual.pivots)

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

    def _check_cap(self, cap: int) -> None:
        """Refuse a distance whose q^k messages exceed ``cap``; the cap counts all of them."""
        q, k = self.field.q, self.k
        if q**k > cap:
            raise CapExceededError(f"{count_text(q, k)} codewords exceed the cap of {cap}")

    def _row_floor(self) -> int:
        """The least weight of a generator row: the minimum distance when it is 1 or 2.

        A word sum_i m_i * row_i reads m_i at pivot p_i, so a word of weight 1
        is a multiple of one row: d = 1 exactly when some row has weight 1.
        Otherwise d >= 2, and any word of weight 2, a row among them, is minimal.
        """
        n = self.n
        return min(n - row.count(0) for row in self.gen.rows)

    def min_dist(self, cap: int = DEFAULT_ENUM_CAP) -> int:
        """Exact minimum Hamming weight: the RREF rows' floor, else a projective Gray-order scan.

        A generator row of weight 1 or 2 is the answer (``_row_floor``), read
        without a walk.  Otherwise the scan runs and stops at the first word
        of weight 2, since no word is lighter.

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
        reaches 2^b, so one kernel serves every field.  A memoized distance
        is returned before the cap is read; otherwise the cap still counts
        all q^k messages, even when the floor decides, so the same inputs
        are refused as by a full scan.
        """
        if self.k == 0:
            raise ZeroCodeError("the zero code has no minimum distance")
        if self._dist is not None:
            return self._dist
        self._check_cap(cap)
        best = self._row_floor()
        if best > 2 and self.k > 1:
            f, n = self.field, self.n
            rows = self.gen.rows
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

    def is_mds(self, cap: int = DEFAULT_ENUM_CAP) -> bool:
        return self.min_dist(cap) == self.n - self.k + 1

    # -- equivalence ---------------------------------------------------------

    def scale(self, factors: Sequence[int]) -> "FqCode":
        """The monomially equivalent code with column j scaled by factors[j].

        Each row of G * diag(factors), divided by its pivot's factor, is an RREF row.
        """
        if len(factors) != self.n:
            raise MismatchError("one scaling factor per coordinate required")
        for j, a in enumerate(factors):
            if a == 0:
                raise ZeroScaleError(f"factor at position {j} is zero")
        f = self.field
        for a in factors:
            f.check(a)
        mul, rows = f.mul, []
        for row, c in zip(self.gen.rows, self.pivots):
            s = f.inv(factors[c])
            rows.append([mul(mul(v, a), s) for v, a in zip(row, factors)])
        return FqCode._derived(Matrix._derived(f, self.n, rows), self.pivots)
