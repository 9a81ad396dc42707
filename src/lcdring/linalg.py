"""Dense exact linear algebra over GF(q).

A matrix is an immutable tuple of rows, each a tuple of field
encodings, and carries its field and width.  Everything here is
classical Gauss elimination; the field is exact so no pivoting strategy
beyond "first nonzero" is needed.  The reduced row echelon form is unique,
which is what makes it usable as a canonical form for code equality.

The per-entry work lives in two row kernels that ``GF`` owns: every Gram
entry is one ``dot`` of two rows, and every elimination step is one
``sub_scaled`` row update.  One forward elimination (``_eliminate``) is
the only Gauss loop: it gives pivot columns and the determinant together,
and ``rref`` is that pass plus a back-substitution.

A matrix built from outside data, through ``Matrix(...)``,
``Matrix.from_rows`` or ``Matrix.zero``, has its width and every entry
checked.  A matrix computed here from valid ones (``rref``'s reduced
form, ``gram``'s product) is stored by ``Matrix._derived`` without the
checks: field operations on field elements give field elements, and each
derivation writes rows of the width it states.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from .errors import MismatchError, NotSquareError
from .gf import GF
from .value import Value


def _index(i: int, bound: int, what: str) -> int:
    """``i`` itself when it is a plain int in [0, bound), else a ``MismatchError``."""
    if type(i) is not int or not 0 <= i < bound:
        raise MismatchError(f"{what} index {i!r} outside [0, {bound})")
    return i


class Matrix(Value):
    """A matrix over a finite field: its width ``ncols`` and a tuple of rows, each ``ncols`` entries.

    The constructor checks the width and each entry (``__post_init__``);
    ``_derived`` stores a matrix computed from valid ones without them.
    """

    __slots__ = ("field", "ncols", "rows")
    _key = attrgetter("field", "ncols", "rows")
    field: GF
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, field: GF, ncols: int, rows: Iterable[Iterable[int]]) -> None:
        self._fill(field, ncols, rows)
        self.__post_init__()

    def _fill(self, field: GF, ncols: int, rows: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    @classmethod
    def _derived(cls, field: GF, ncols: int, rows: Iterable[Iterable[int]]) -> "Matrix":
        """The matrix of ``rows`` computed from valid matrices, stored without the entry checks.

        Only a derivation inside the package calls this: its rows are
        ``ncols`` wide and hold results of ``field``'s operations on its
        elements, so they would pass every check.  The rows are copied into
        tuples like the constructor's, so the caller may go on to overwrite
        its lists.
        """
        m = object.__new__(cls)
        m._fill(field, ncols, rows)
        return m

    def __repr__(self) -> str:
        return f"Matrix(field={self.field!r}, ncols={self.ncols!r}, rows={self.rows!r})"

    def __post_init__(self) -> None:
        ncols, q = self.ncols, self.field.q
        if type(ncols) is not int or ncols < 0:
            raise ValueError(f"column count {ncols!r} is not a non-negative int")
        for r, row in enumerate(self.rows):
            if len(row) != ncols:
                raise MismatchError(f"row {r} has width {len(row)}, expected {ncols}")
            for v in row:
                if type(v) is not int or not 0 <= v < q:
                    raise ValueError(f"entry {v!r} is not an element of {self.field!r}")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, field: GF, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "Matrix":
        """The matrix of ``rows``, as wide as its first row unless ``ncols`` says otherwise."""
        rows = tuple(map(tuple, rows))
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls(field, ncols, rows)

    @classmethod
    def zero(cls, field: GF, nrows: int, ncols: int) -> "Matrix":
        if type(nrows) is not int or nrows < 0:
            raise ValueError(f"row count {nrows!r} is not a non-negative int")
        return cls(field, ncols, ((0,) * ncols,) * nrows)

    # -- access ---------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> int:
        return self.rows[_index(r, self.nrows, "row")][_index(c, self.ncols, "column")]

    def row(self, r: int) -> tuple[int, ...]:
        return self.rows[_index(r, self.nrows, "row")]

    def col(self, c: int) -> tuple[int, ...]:
        c = _index(c, self.ncols, "column")
        return tuple(row[c] for row in self.rows)

    def to_rows(self) -> list[list[int]]:
        """A fresh list of list rows, for elimination to overwrite."""
        return [list(row) for row in self.rows]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols


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
    return Matrix._derived(f, m.ncols, rows), len(pivots), pivots


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
    When 2m is a multiple of e, F^(2m) is the identity, so entry (j, i) is
    the (p^m)-power of entry (i, j): only entries with j >= i are dot
    products, and the rest are read from them.
    """
    f = g.field
    twisted = [f.frobenius_row(row, m) for row in g.rows]
    dot = f.dot
    if 2 * m % f.e:
        return Matrix._derived(f, g.nrows, [[dot(a, b) for b in twisted] for a in g.rows])
    upper = [[dot(a, b) for b in twisted[i:]] for i, a in enumerate(g.rows)]
    lower = [f.frobenius_row(u, m) for u in upper]  # lower[j][i - j] is entry (i, j)
    return Matrix._derived(
        f, g.nrows, [[c[i - j] for j, c in enumerate(lower[:i])] + u for i, u in enumerate(upper)]
    )


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
    rows = p.rows
    return _eliminate(p.field, [[rows[r][c] for c in keep] for r in keep])[1]
