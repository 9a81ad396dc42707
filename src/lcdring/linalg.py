"""Dense exact linear algebra over GF(q).

Matrices are immutable, row major, and carry their field.  Everything here
is classical Gauss elimination; the field is exact so no pivoting strategy
beyond "first nonzero" is needed.  The reduced row echelon form is unique,
which is what makes it usable as a canonical form for code equality.

The per-entry work lives in two row kernels that ``GF`` owns: every Gram
entry is one ``dot`` of two rows, and every elimination step is one
``sub_scaled`` row update.  One forward elimination (``_eliminate``) is
the only Gauss loop: it gives pivot columns and the determinant together,
and ``rref`` is that pass plus a back-substitution.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from .errors import MismatchError, NotSquareError
from .gf import GF
from .value import Value


def _index(i: int, bound: int, what: str) -> int:
    """``i`` itself when it is a plain int in [0, bound), else a ``MismatchError``."""
    if type(i) is not int or not 0 <= i < bound:
        raise MismatchError(f"{what} index {i!r} outside [0, {bound})")
    return i


class Matrix(Value):
    """A rows-by-cols matrix over a finite field, entries row major."""

    __slots__ = ("field", "nrows", "ncols", "entries")
    _key = attrgetter("field", "nrows", "ncols", "entries")
    field: GF
    nrows: int
    ncols: int
    entries: tuple[int, ...]

    def __init__(self, field: GF, nrows: int, ncols: int, entries: tuple[int, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __repr__(self) -> str:
        return (
            f"Matrix(field={self.field!r}, nrows={self.nrows!r}, "
            f"ncols={self.ncols!r}, entries={self.entries!r})"
        )

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.nrows * self.ncols:
            raise ValueError(
                f"expected {self.nrows * self.ncols} entries, got {len(self.entries)}"
            )
        q = self.field.q
        for v in self.entries:
            if type(v) is not int or not 0 <= v < q:
                raise ValueError(f"entry {v!r} is not an element of {self.field!r}")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]], ncols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise MismatchError("ragged rows")
            if ncols is not None and width != ncols:
                raise MismatchError(f"rows have width {width}, expected {ncols}")
        else:
            width = 0 if ncols is None else ncols
        flat = tuple(v for r in rows for v in r)
        return cls(field, len(rows), width, flat)

    @classmethod
    def zero(cls, field: GF, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, (0,) * (nrows * ncols))

    # -- access ---------------------------------------------------------------

    def entry(self, r: int, c: int) -> int:
        return self.entries[_index(r, self.nrows, "row") * self.ncols + _index(c, self.ncols, "column")]

    def row(self, r: int) -> tuple[int, ...]:
        start = _index(r, self.nrows, "row") * self.ncols
        return self.entries[start : start + self.ncols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.nrows)]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- rearrangement ----------------------------------------------------------

    def col(self, c: int) -> tuple[int, ...]:
        return self.entries[_index(c, self.ncols, "column") :: self.ncols]


def _eliminate(f: GF, rows: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """(pivot columns, determinant) of a list of rows by forward elimination.

    The rows are overwritten with a row echelon form: row r is zero left
    of pivot column r and every row below it is zero in that column.  The
    determinant is 0 unless the rows form a square matrix of full rank; no
    rows at all give ((), 1), the empty matrix's determinant.  This is the
    one Gauss loop of the package.
    """
    sub_scaled, mul, inv = f.sub_scaled, f.mul, f.inv
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    swaps = 0
    acc = 1
    for c in range(ncols):
        if r == n:
            break
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        # rows r.. are zero left of column c, so every update starts there
        pivot = rows[r][c]
        acc = mul(acc, pivot)
        pivot_inv = inv(pivot)
        tail = rows[r][c:]
        for i in range(r + 1, n):
            row = rows[i]
            if row[c]:
                row[c:] = sub_scaled(row[c:], mul(row[c], pivot_inv), tail)
        pivots.append(c)
        r += 1
    if r < n or r < ncols:
        return tuple(pivots), 0
    return tuple(pivots), f.neg(acc) if swaps % 2 else acc


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Unique reduced row echelon form, with rank and pivot columns.

    Forward elimination, then back-substitution from the last pivot up:
    each pivot row, already clear in every later pivot column, is scaled
    to a leading 1 and cleared from the rows above it.
    """
    f = m.field
    sub_scaled, mul, inv = f.sub_scaled, f.mul, f.inv
    rows = m.to_rows()
    pivots, _ = _eliminate(f, rows)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        pivot_inv = inv(rows[r][c])
        if pivot_inv != 1:
            rows[r][c:] = [mul(pivot_inv, v) for v in rows[r][c:]]
        tail = rows[r][c:]
        for i in range(r):
            row = rows[i]
            if row[c]:
                row[c:] = sub_scaled(row[c:], row[c], tail)
    flat = tuple(v for row in rows for v in row)
    return Matrix(f, m.nrows, m.ncols, flat), len(pivots), pivots


def rank(m: Matrix) -> int:
    return len(_eliminate(m.field, m.to_rows())[0])


def det(m: Matrix) -> int:
    """Determinant by exact elimination; the empty matrix has determinant 1."""
    if not m.is_square:
        raise NotSquareError(f"determinant of a {m.nrows}x{m.ncols} matrix")
    return _eliminate(m.field, m.to_rows())[1]


def gram(g: Matrix, m: int) -> Matrix:
    """g times the transpose of the entrywise (p^m)-power of g.

    Entry (i, j) is the dot product of row i of g with row j of the
    twisted g, so neither a transpose nor a matrix product is built.
    """
    f = g.field
    rows = [g.row(r) for r in range(g.nrows)]
    twisted = [f.frobenius_row(row, m) for row in rows]
    dot = f.dot
    return Matrix(f, g.nrows, g.nrows, tuple(dot(a, b) for a in rows for b in twisted))


def minor_det(p: Matrix, drop: Iterable[int]) -> int:
    """Determinant after deleting the rows and columns listed in ``drop``.

    Dropping everything leaves the empty matrix, whose determinant is 1;
    dropping nothing gives det(p).  Every index in ``drop`` must be an int
    in [0, p.nrows); repeats count once.  The kept entries are read straight
    from p, without building the submatrix.
    """
    if not p.is_square:
        raise NotSquareError("row/column deletion needs a square matrix")
    m = p.nrows
    dropset = set()
    for i in drop:
        if type(i) is not int:
            raise MismatchError(f"deletion index {i!r} is not an int")
        dropset.add(i)
    if dropset and (min(dropset) < 0 or max(dropset) >= m):
        raise MismatchError(f"deletion indices {sorted(dropset)} outside [0, {m})")
    keep = [i for i in range(m) if i not in dropset]
    return _eliminate(p.field, [[row[c] for c in keep] for row in map(p.row, keep)])[1]
