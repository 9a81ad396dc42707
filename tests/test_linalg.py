"""Exact linear algebra over small fields."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, Matrix, fqcode
from lcdring.errors import ConsistencyError, MismatchError, NotSquareError
from lcdring.linalg import det, gram, minor_det, rank, rref

from support import KernelWork, gauss_jordan, identity, kernel_work, matmul

F5 = GF(5)
F9 = GF(3, 2, [1, 0, 1])
F1021 = GF(1021)
F243 = GF(3, 5)


def m(field, rows, ncols=None):
    return Matrix.from_rows(field, rows, ncols=ncols)


@pytest.mark.parametrize("entry", [True, 2.0, 5])
def test_from_rows_checks_entries(entry):
    with pytest.raises(ValueError, match="is not an element encoding of"):
        m(F5, [[entry, 2]])


@pytest.mark.parametrize("entry", [True, False, 2.0, 0.0, -1, 5])
def test_constructor_checks_entries(entry):
    with pytest.raises(ValueError, match="is not an element encoding of"):
        Matrix(F5, 2, [(entry, 2)])


def test_list_rows_become_tuples():
    rows = [[1, 2], [3, 4]]
    a = Matrix(F5, 2, rows)
    rows[0][0] = 0
    twin = Matrix(F5, 2, ((1, 2), (3, 4)))
    assert a.rows == ((1, 2), (3, 4)) and a == twin and hash(a) == hash(twin)


def test_from_rows_copies_list_rows():
    """``from_rows`` copies the rows into tuples once, and the copy does not follow later edits of the lists."""
    rows = [[1, 2], [3, 4]]
    a = m(F5, rows)
    rows[0][0] = 0
    rows.append([1, 1])
    assert a.rows == ((1, 2), (3, 4)) and a == Matrix(F5, 2, ((1, 2), (3, 4)))


def test_from_rows_reads_one_shot_rows():
    """``from_rows`` takes its width from the first row after copying, so iterators of iterators work."""
    a = m(F5, (iter(r) for r in [[1, 2, 3], [4, 0, 1]]))
    assert a.ncols == 3 and a.rows == ((1, 2, 3), (4, 0, 1))
    assert m(F5, iter([])).ncols == 0


@pytest.mark.parametrize("ncols, rows", [(True, [[1]]), (2.0, [[1, 2]]), (-1, [])])
def test_constructor_checks_the_column_count(ncols, rows):
    with pytest.raises(ValueError, match="column count"):
        Matrix(F5, ncols, rows)


@pytest.mark.parametrize("nrows", [True, 1.0, -1])
def test_zero_checks_the_row_count(nrows):
    with pytest.raises(ValueError, match="row count"):
        Matrix.zero(F5, nrows, 2)


@pytest.mark.parametrize("build", [lambda rows: Matrix(F5, 2, rows), lambda rows: m(F5, rows, ncols=2)])
@pytest.mark.parametrize("rows, r, width", [([[1, 2], [3]], 1, 1), ([[1, 2, 3]], 0, 3)])
def test_rows_of_another_width_are_refused(build, rows, r, width):
    with pytest.raises(MismatchError, match=f"row {r} has width {width}, expected 2"):
        build(rows)


@pytest.mark.parametrize("field, factor", [(F5, 7), (F5, -3), (F5, True), (F5, 2.0),
                                           (GF(2, 2), -1), (GF(2, 2), 9)])
def test_scale_cols_checks_factors(field, factor):
    # FqCode.scale is the one route that scales columns
    with pytest.raises(ValueError, match="not an element encoding"):
        FqCode(m(field, [[1, 2]])).scale([1, factor])


class TestAccessBounds:
    @pytest.mark.parametrize("r", [-1, 2, True, 1.0])
    def test_row_refused(self, r):
        with pytest.raises(MismatchError, match="row index"):
            m(F5, [[1, 2], [3, 4]]).row(r)

    def test_empty_shapes(self):
        assert Matrix.zero(F5, 2, 0).row(1) == () and Matrix.zero(F5, 0, 2).to_rows() == []
        with pytest.raises(MismatchError):
            Matrix.zero(F5, 0, 2).row(0)


class TestRref:
    def test_scales_single_row(self):
        r, rank, pivots = rref(m(F5, [[2, 4]]))
        assert r.to_rows() == [[1, 2]]
        assert rank == 1 and pivots == (0,)

    def test_identity_fixed(self):
        eye = identity(F5, 3)
        r, rank, _ = rref(eye)
        assert r == eye and rank == 3

    def test_zero_matrix(self):
        z = Matrix.zero(F5, 2, 3)
        r, rank, pivots = rref(z)
        assert r == z and rank == 0 and pivots == ()

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            a = m(F9, [[rng.randrange(9) for _ in range(4)] for _ in range(3)])
            r, _, _ = rref(a)
            assert rref(r)[0] == r


class TestDet:
    def test_upper_triangular(self):
        assert det(m(F5, [[2, 2], [0, 1]])) == 2

    def test_singular(self):
        assert det(m(F5, [[1, 2], [2, 4]])) == 0

    def test_empty_matrix_is_one(self):
        assert det(Matrix.zero(F5, 0, 0)) == 1

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            det(m(F5, [[1, 2]]))

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(40):
            a = m(F5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
            b = m(F5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
            assert det(matmul(a, b)) == F5.mul(det(a), det(b))

    def test_swap_tracks_sign(self):
        # rows swapped from the identity: determinant must be -1
        a = m(F5, [[0, 1], [1, 0]])
        assert det(a) == 4


def nullspace_basis(a):
    """The right kernel of ``a``: the Euclidean dual of its row space, as FqCode builds it."""
    return FqCode.from_rows(a.field, a.ncols, a.to_rows()).galois_dual(0).gen


class TestNullspace:
    def test_line_in_plane(self):
        ns = nullspace_basis(m(F5, [[1, 2]]))
        assert ns.to_rows() == [[1, 2]]  # (3,1) scaled monic is (1,2)

    def test_identity_has_trivial_kernel(self):
        ns = nullspace_basis(identity(F5, 3))
        assert ns.nrows == 0 and ns.ncols == 3

    def test_zero_map_has_full_kernel(self):
        ns = nullspace_basis(Matrix.zero(F5, 1, 4))
        assert ns == identity(F5, 4)

    def test_rank_nullity_and_membership(self):
        rng = random.Random(11)
        for _ in range(30):
            a = m(F9, [[rng.randrange(9) for _ in range(5)] for _ in range(rng.randint(1, 4))])
            _, rank, _ = rref(a)
            ns = nullspace_basis(a)
            assert rank + ns.nrows == a.ncols
            prod = matmul(a, m(F9, zip(*ns.rows), ncols=ns.nrows))
            assert all(v == 0 for row in prod.rows for v in row)


    def test_lost_rank_raises_consistency_error(self, monkeypatch):
        # raised, not asserted, so the check also runs under python -O
        real = fqcode._reduced

        def reduction_reporting_one_rank_too_few(f, rows):
            reduced, pivots = real(f, rows)
            return reduced, pivots[:-1]

        line = FqCode(m(F5, [[1, 2]]))
        monkeypatch.setattr(fqcode, "_reduced", reduction_reporting_one_rank_too_few)
        with pytest.raises(ConsistencyError, match="kernel basis of 1 vectors has rank 0"):
            line.galois_dual(0)


def leibniz_det(field, rows):
    """sum over permutations s of sign(s) * prod_i rows[i][s(i)]."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = 1
        for i, c in enumerate(perm):
            term = field.mul(term, rows[i][c])
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


@st.composite
def row_lists(draw):
    """(field, ncols, rows) up to 6 x 8, rows random, zero, repeated or combinations of earlier ones."""
    f = draw(st.sampled_from([GF(2), GF(2, 2), F5, GF(2, 3), F9, GF(2, 4), GF(5, 2), F1021, F243]))
    ncols = draw(st.integers(0, 8))
    elem = st.integers(0, f.q - 1)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"] if rows else ["random", "zero"]))
        if kind == "random":
            row = draw(st.lists(elem, min_size=ncols, max_size=ncols))
        elif kind == "zero":
            row = [0] * ncols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            row = [0] * ncols
            for a, prev in zip(draw(st.lists(elem, min_size=len(rows), max_size=len(rows))), rows):
                row = [f.add(v, f.mul(a, w)) for v, w in zip(row, prev)]
        rows.append(row)
    return f, ncols, rows


NEAR_MISSES = ("leading entry not 1", "pivots out of order", "nonzero at another pivot",
               "zero row between rows", "trailing zero row")


@st.composite
def reduced_or_near_miss(draw):
    """(field, ncols, rows): a random RREF with no zero row, as it is or broken by one near miss."""
    f = draw(st.sampled_from([GF(2), GF(2, 2), F5, GF(2, 3), F9]))
    ncols = draw(st.integers(1, 8))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=min(ncols, 5))))
    rows = []
    for pc in pivots:
        row = [int(c == pc) for c in range(ncols)]
        for c in range(pc + 1, ncols):
            if c not in pivots:
                row[c] = draw(st.integers(0, f.q - 1))
        rows.append(row)
    miss = draw(st.sampled_from((None, *NEAR_MISSES)))
    if miss == "leading entry not 1" and rows and f.q > 2:
        r = draw(st.integers(0, len(rows) - 1))
        a = draw(st.integers(2, f.q - 1))
        rows[r] = [f.mul(a, v) for v in rows[r]]
    elif miss == "pivots out of order" and len(rows) > 1:
        r = draw(st.integers(0, len(rows) - 2))
        rows[r], rows[r + 1] = rows[r + 1], rows[r]
    elif miss == "nonzero at another pivot" and len(rows) > 1:
        r, s = draw(st.permutations(range(len(rows))))[:2]
        rows[r] = [f.add(v, w) for v, w in zip(rows[r], rows[s])]
    elif miss == "zero row between rows" and len(rows) > 1:
        rows.insert(draw(st.integers(1, len(rows) - 1)), [0] * ncols)
    elif miss == "trailing zero row":
        rows += [[0] * ncols] * draw(st.integers(1, 2))
    return f, ncols, rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(row_lists(), reduced_or_near_miss()))
@example((F5, 4, [[1, 0, 2, 0], [0, 1, 3, 0], [0, 0, 0, 1]]))  # reduced
@example((F5, 4, [[1, 0, 2, 0], [0, 3, 4, 0]]))  # leading entry not 1
@example((F5, 4, [[0, 1, 3, 0], [1, 0, 2, 0]]))  # pivots out of order
@example((F5, 4, [[1, 1, 0, 0], [0, 1, 3, 0]]))  # nonzero at another pivot
@example((F5, 4, [[1, 0, 2, 0], [0, 0, 0, 0], [0, 1, 3, 0]]))  # zero row between rows
@example((F5, 4, [[1, 0, 2, 0], [0, 1, 3, 0], [0, 0, 0, 0]]))  # trailing zero row
@example((F5, 4, []))  # no rows: reduced
def test_rref_matches_textbook_gauss_jordan(case):
    f, ncols, rows = case
    want, want_pivots = gauss_jordan(f, rows)
    given_m = m(f, rows, ncols=ncols)
    with pytest.MonkeyPatch.context() as patch:
        work = KernelWork(patch)
        reduced, rk, pivots = rref(given_m)
    assert reduced.to_rows() == want
    assert (rk, pivots) == (len(want_pivots), want_pivots)
    # rows Gauss-Jordan leaves as they are, none of them zero, are taken without an elimination
    already = want == rows and rk == len(rows)
    assert len(work.gauss) == (0 if already else 1)
    assert (reduced is given_m) == already
    echelon = [list(row) for row in rows]
    assert f._gauss(echelon)[0] == pivots
    # the forward pass leaves true zeros left of each pivot, below it, and past the rank
    for r, c in enumerate(pivots):
        assert echelon[r][c] and not any(echelon[r][:c])
        assert not any(echelon[i][c] for i in range(r + 1, len(rows)))
    assert not any(v for row in echelon[rk:] for v in row)


def scalar_eliminate(f, rows):
    """(echelon rows, pivot columns, determinant): Gauss elimination entry by entry with add, mul,
    sub and inv, taking the first nonzero entry of each column as its pivot."""
    rows = [list(row) for row in rows]
    n, ncols = len(rows), len(rows[0]) if rows else 0
    pivots, d = [], 1
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, n) if rows[i][c]]
        if not below:
            continue
        if below[0] != r:
            rows[r], rows[below[0]] = rows[below[0]], rows[r]
            d = f.neg(d)
        d = f.mul(d, rows[r][c])
        for i in range(r + 1, n):
            factor = f.mul(rows[i][c], f.inv(rows[r][c]))
            rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    if len(pivots) < max(n, ncols):
        d = 0
    return rows, tuple(pivots), d


def scalar_reduce(f, rows, pivots):
    """The reduced form of echelon rows with these pivots: Gauss-Jordan's back pass entry by entry,
    each pivot row scaled to a leading 1 with inv and mul, then cleared from every row above it."""
    rows = [list(row) for row in rows]
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        s = f.inv(rows[r][c])
        rows[r] = [f.mul(s, y) for y in rows[r]]
        for i in range(r):
            factor = rows[i][c]
            rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
    return rows


@settings(max_examples=400, deadline=None)
@given(row_lists())
@example((GF(2), 3, [[0, 1, 1], [1, 1, 0], [1, 0, 0]]))  # row swap, nonsingular
@example((F5, 3, [[0, 1, 1], [0, 0, 2], [3, 1, 0]]))  # two swaps, nonsingular
@example((F5, 3, [[0, 1, 2], [1, 2, 3], [1, 3, 0]]))  # a swap, then rank 2: singular
@example((F1021, 3, [[0, 7, 1000], [5, 0, 3], [0, 0, 0]]))  # a zero row
@example((GF(2, 2), 2, [[0, 2], [3, 1]]))  # row swap, nonsingular
@example((GF(2, 3), 3, [[2, 4, 6], [4, 3, 7], [6, 7, 1]]))  # row 3 = row 1 + row 2: singular
@example((F9, 3, [[0, 0, 5], [0, 4, 2], [7, 3, 8]]))  # row swap, nonsingular
@example((F243, 3, [[0, 200, 17], [242, 0, 1], [0, 0, 0]]))  # row swap and a zero row
@example((F243, 2, [[0, 0], [0, 0]]))  # no pivot at all
@example((F5, 0, [[], []]))
@example((F9, 3, []))
def test_eliminate_matches_a_scalar_gauss_loop(case):
    """The kernel's forward pass leaves the scalar loop's echelon rows, pivots and determinant, and
    asked to reduce, the same pivots and determinant over the scalar Gauss-Jordan rows."""
    f, ncols, rows = case
    want_rows, want_pivots, want_det = scalar_eliminate(f, rows)
    got = [list(row) for row in rows]
    assert f._gauss(got) == (want_pivots, want_det)
    assert got == want_rows
    reduced = [list(row) for row in rows]
    assert f._gauss(reduced, True) == (want_pivots, want_det)
    assert reduced == scalar_reduce(f, want_rows, want_pivots)


@pytest.mark.parametrize("field", [GF(2), F5, GF(2, 3), F243], ids=str)
def test_one_rref_is_one_kernel_call(field, kernel_work):
    """rref of a matrix that is not in reduced form runs the whole Gauss loop, forward and back,
    in one elimination kernel call, and no separate forward elimination."""
    rows = [[0, 1, 1], [1, 1, 0], [1, 0, 1]]
    reduced, rk, pivots = rref(m(field, rows))
    assert kernel_work.gauss == [("_reduced", True)]
    assert (reduced.to_rows(), pivots) == gauss_jordan(field, rows)


class TestRankDet:
    @pytest.mark.parametrize("field", [GF(2), GF(2, 2), GF(2, 3), F5, F9, GF(5, 2), GF(3, 3)],
                             ids=lambda f: f"GF({f.q})")
    def test_one_elimination_matches_rref_and_leibniz(self, field):
        rng = random.Random(field.q + 17)
        singular = 0
        for _ in range(120):
            k = rng.randint(0, 5)
            # a product of k x r and r x k factors has rank at most r
            r = rng.choice([k, k, rng.randint(0, k)])
            a = m(field, [[rng.randrange(field.q) for _ in range(r)] for _ in range(k)], ncols=r)
            b = m(field, [[rng.randrange(field.q) for _ in range(k)] for _ in range(r)], ncols=k)
            p = matmul(a, b) if r < k else m(field, [[rng.randrange(field.q) for _ in range(k)] for _ in range(k)], ncols=k)
            rows = p.to_rows()
            pivots, d = field._gauss(p.to_rows())
            assert pivots == rref(p)[2] and len(pivots) == rank(p)
            assert d == leibniz_det(field, rows) == det(p)
            assert (d != 0) == (len(pivots) == k)
            singular += d == 0
            if d and k >= 2:  # swapping two rows negates the determinant
                rows[0], rows[1] = rows[1], rows[0]
                assert field._gauss(rows)[1] == field.neg(d)
        assert 10 <= singular <= 110

    def test_wide_and_tall_rows_have_rank_and_no_determinant(self):
        assert F5._gauss([[1, 2, 3], [2, 4, 2]]) == ((0, 2), 0)
        assert F5._gauss([[1, 2, 3], [2, 4, 1]]) == ((0,), 0)
        assert F5._gauss([[1], [2], [0]]) == ((0,), 0)
        assert F5._gauss([]) == ((), 1)


class TestGram:
    def test_self_orthogonal_line(self):
        assert gram(m(F5, [[1, 2]]), 0).to_rows() == [[0]]

    def test_twisted_gram_over_gf9(self):
        assert gram(m(F9, [[1, 4]]), 1).to_rows() == [[0]]

    def test_identity(self):
        eye = identity(F9, 3)
        for twist in range(3):
            assert gram(eye, twist) == eye

    def test_entries_recomputed_independently(self):
        # every twist 0..e, half-filled (2 * twist a multiple of e) or not, on
        # rows that are not in RREF and on rows of width 0
        rng = random.Random(13)
        for f in (F5, F9, GF(2, 3), GF(2, 4), GF(3, 3)):
            for nrows, ncols in ((3, 4), (4, 2), (3, 0), (0, 3)):
                g = Matrix(f, ncols, [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(nrows)])
                for twist in range(f.e + 1):
                    gm = gram(g, twist)
                    assert (gm.nrows, gm.ncols) == (nrows, nrows)
                    for r in range(nrows):
                        for s in range(nrows):
                            acc = 0
                            for j in range(ncols):
                                acc = f.add(acc, f.mul(g.rows[r][j], f.frobenius(g.rows[s][j], twist)))
                            assert gm.rows[r][s] == acc


class TestMinorDet:
    def test_full_deletion_is_one(self):
        assert minor_det(m(F5, [[0]]), {0}) == 1

    def test_empty_deletion_is_det(self):
        assert minor_det(m(F5, [[0]]), set()) == 0

    def test_partial_deletion(self):
        p = m(F5, [[1, 0], [0, 3]])
        assert minor_det(p, {0}) == 3

    def test_requires_square(self):
        with pytest.raises(NotSquareError):
            minor_det(m(F5, [[1, 2]]), set())

    @pytest.mark.parametrize("drop", [{5}, [-1], (0, 2), [1, 1, 2]])
    def test_out_of_range_index_refused(self, drop):
        p = m(F5, [[1, 2], [3, 0]])
        assert det(p) == 4
        with pytest.raises(MismatchError):
            minor_det(p, drop)

    @pytest.mark.parametrize("drop", [[1.5], [True], {False}, [0, 1.0], [1, True], (0, 0.0)])
    def test_non_int_index_refused(self, drop):
        with pytest.raises(MismatchError, match="is not an int"):
            minor_det(m(F5, [[1, 2], [3, 0]]), drop)

    @pytest.mark.parametrize("field", [GF(2, 2), F5, F9], ids=lambda f: f"GF({f.q})")
    def test_matches_det_of_built_submatrix(self, field):
        rng = random.Random(field.q)
        for _ in range(40):
            n = rng.randint(1, 5)
            p = m(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])
            drop = [rng.randrange(n) for _ in range(rng.randint(0, n + 1))]
            keep = [i for i in range(n) if i not in drop]
            want = det(m(field, [[p.rows[r][c] for c in keep] for r in keep]))
            for form in (list, set, tuple, sorted, lambda d: reversed(sorted(d))):
                assert minor_det(p, form(drop)) == want
            assert minor_det(p, (i for i in drop)) == want
