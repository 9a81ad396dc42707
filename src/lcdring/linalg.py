"""Dense exact linear algebra over GF(q): the checked boundary type and the one RREF route.

A matrix is an immutable tuple of rows, each a tuple of field
encodings, and carries its field and width.  Everything here is
classical Gauss elimination; the field is exact so no pivoting strategy
beyond "first nonzero" is needed.  The reduced row echelon form is unique,
which is what makes it usable as a canonical form for code equality.

The per-entry work lives in one elimination kernel and one Gram kernel
that ``GF`` owns, each reading rows through views of their nonzero
entries built in the call.  ``GF._gauss`` is the package's one Gauss
loop: forward elimination gives pivot columns and the determinant
together, and ``_reduced`` asks the same call to go on back to the
reduced form.  Every elimination here and in the code modules calls it
directly.  ``_reduced`` is the package's one route into reduced row
echelon form, and it works on rows: it eliminates only rows that
``rref_scan``, the one test of the form, turns down.  The form is
unique, so rows that pass are their own, and a systematic generator
[I | A] costs one O(k * n) read.  Code objects call ``_reduced`` and the
Gram kernel on list rows directly and keep the results as rows, with no
``Matrix`` around them; ``rref`` and ``gram`` give the same results as
matrices.  So the package builds a ``Matrix`` only at its boundary: to
check outside rows, for a code's ``gen`` view, and for the Gram matrix
the LCD construction hands to ``minor_search`` and ``lemma_det_check``.

There is one way to build a matrix, ``Matrix(...)`` (``from_rows`` and
``zero`` go through it), and it checks the width and every entry, so a
matrix a derivation computes is checked like one from outside data.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .errors import MismatchError, NotSquareError
from .gf import GF
from .value import Value


class Matrix(Value):
    """A matrix over a finite field: its width ``ncols`` and a tuple of rows, each ``ncols`` entries.

    The constructor, the one way to build a matrix, copies the rows into
    tuples, so a caller may go on to overwrite its lists, and checks the
    width and each entry (``__post_init__``).
    """

    __slots__ = ("field", "ncols", "rows")
    _key = attrgetter("field", "ncols", "rows")
    field: GF
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, field: GF, ncols: int, rows: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        self.__post_init__()

    def __repr__(self) -> str:
        return f"Matrix(field={self.field!r}, ncols={self.ncols!r}, rows={self.rows!r})"

    def __post_init__(self) -> None:
        ncols, field = self.ncols, self.field
        if type(ncols) is not int or ncols < 0:
            raise ValueError(f"column count {ncols!r} is not a non-negative int")
        for r, row in enumerate(self.rows):
            if len(row) != ncols:
                raise MismatchError(f"row {r} has width {len(row)}, expected {ncols}")
            field.check_row(row)

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

    def row(self, r: int) -> tuple[int, ...]:
        if type(r) is not int or not 0 <= r < self.nrows:
            raise MismatchError(f"row index {r!r} outside [0, {self.nrows})")
        return self.rows[r]

    def to_rows(self) -> list[list[int]]:
        """A fresh list of list rows, for elimination to overwrite."""
        return [list(row) for row in self.rows]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols


def rref_scan(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int | None]:
    """(pivot columns, None) when ``rows`` are already in reduced row echelon form, else ((), r).

    Reduced means: no row is zero, each row's first nonzero entry is a 1,
    these leading columns strictly increase, and every row reads 0 at the
    other rows' pivots.  r is the first row whose leading entry is not a 1
    right of the row above's, or if every row's is, the first row with a
    nonzero entry at another row's pivot.  The scan reads each row up to
    its leading 1 and then at the pivots, O(k * n) with no field
    arithmetic.  It is the one test of the form, behind ``_reduced`` and
    ``FqCode(gen)``.
    """
    pivots, last = [], -1
    for r, row in enumerate(rows):
        try:
            c = row.index(1)
        except ValueError:
            return (), r
        if c <= last or any(row[:c]):
            return (), r
        pivots.append(c)
        last = c
    if len(pivots) > 1:
        at_pivots, k = itemgetter(*pivots), len(pivots)
        for r, row in enumerate(rows):
            if at_pivots(row).count(0) != k - 1:
                return (), r
    return tuple(pivots), None


def _reduced(f: GF, rows: Sequence[Sequence[int]]) -> tuple[Sequence[Sequence[int]], tuple[int, ...]]:
    """(reduced rows, pivot columns): the unique reduced row echelon form of ``rows`` over f.

    The package's one route into the form.  Rows that ``rref_scan`` finds
    reduced are their own form, returned as the same object with no
    elimination: the form is unique.  Any others are copied into lists and
    go through one elimination kernel call, forward and back; the zero
    rows end up last, one per unit of rank lost.
    """
    pivots, bad = rref_scan(rows)
    if bad is None:
        return rows, pivots
    rows = [list(row) for row in rows]
    pivots, _ = f._gauss(rows, True)
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Unique reduced row echelon form, with rank and pivot columns.

    A matrix already in the form is returned as it is (``_reduced``).
    """
    rows, pivots = _reduced(m.field, m.rows)
    if rows is not m.rows:
        m = Matrix(m.field, m.ncols, rows)
    return m, len(pivots), pivots


def rank(m: Matrix) -> int:
    return len(m.field._gauss(m.to_rows())[0])


def det(m: Matrix) -> int:
    """Determinant by exact elimination; the empty matrix has determinant 1."""
    if not m.is_square:
        raise NotSquareError(f"determinant of a {m.nrows}x{m.ncols} matrix")
    return m.field._gauss(m.to_rows())[1]


def gram(g: Matrix, m: int) -> Matrix:
    """g times the transpose of the entrywise (p^m)-power of g.

    Entry (i, j) is the dot product of row i of g with row j of the
    twisted g, so neither a transpose nor a matrix product is built; the
    Gram kernel reads the entries below the diagonal from those above it
    when F^(2m) is the identity.
    """
    return Matrix(g.field, g.nrows, g.field._gram_rows(g.rows, m))


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
    return p.field._gauss([[rows[r][c] for c in keep] for r in keep])[1]
