"""Field codes: duals, hulls, LCD and MDS predicates, scaling."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, Matrix, RCode, RingElement, fqcode, oracle
from lcdring.errors import (
    BadLError,
    CapExceededError,
    MismatchError,
    ZeroCodeError,
    ZeroScaleError,
)
from lcdring.fqcode import _projective_steps, count_text
from lcdring.linalg import gram, rank, rref

from support import cyclic, identity, kernel_work, matmul, nullspace_basis, random_fqcode

F5 = GF(5)
F9 = GF(3, 2, [1, 0, 1])


def code(field, n, rows):
    return FqCode.from_rows(field, n, rows)


class TestConstruction:
    def test_canonicalizes(self):
        c = code(F5, 2, [[2, 4]])
        assert c.gen.to_rows() == [[1, 2]] and c.k == 1

    def test_span_collapse(self):
        assert code(F5, 2, [[1, 1], [1, 1]]).k == 1

    def test_empty_rows_give_zero_code(self):
        c = code(F5, 3, [])
        assert c.k == 0 and c == FqCode.zero(F5, 3)

    def test_width_mismatch(self):
        with pytest.raises(MismatchError):
            code(F5, 3, [[1, 2]])

    @pytest.mark.parametrize(
        "n, built",
        [
            (2, Matrix.from_rows(GF(7), [[2, 1]])),  # another field
            (4, Matrix.from_rows(F5, [[1, 2], [3, 1]])),  # another width
        ],
    )
    def test_built_matrix_of_another_space_is_refused(self, n, built, monkeypatch):
        monkeypatch.setattr(fqcode, "_reduced", lambda f, rows: pytest.fail("reduced before the check"))
        with pytest.raises(MismatchError, match=f"for a length-{n} code over GF\\(5\\)"):
            code(F5, n, built)

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 4]],  # pivot not 1
            [[1, 1], [0, 1]],  # pivot column not cleared
            [[0, 1], [1, 0]],  # pivots not increasing
            [[1, 0], [1, 0]],  # repeated pivot
            [[1, 2], [0, 0]],  # zero row
        ],
    )
    def test_direct_generator_must_be_rref(self, rows, kernel_work):
        with pytest.raises(MismatchError, match="reduced row echelon"):
            FqCode(Matrix.from_rows(F5, rows))
        # the constructor's near miss is one for rref too, which eliminates it ...
        c = code(F5, 2, rows)
        assert len(kernel_work.gauss) == 1
        assert FqCode(c.gen) == c
        # ... and takes the reduced generator as it is
        assert rref(c.gen) == (c.gen, c.k, c.pivots) and len(kernel_work.gauss) == 1


class TestGaloisDual:
    def test_self_dual_line(self):
        c = code(F5, 2, [[1, 2]])
        assert c.galois_dual(0) == c

    def test_twists_read_only_the_free_columns(self, monkeypatch):
        """F fixes the 0s and 1s an RREF row holds at its pivots, so an l-dual twists only the
        dual's free columns: one Frobenius row of k entries per dual row, and none at all for the
        zero code, whose dual is an identity."""
        f = GF(2, 4)
        c = code(f, 6, [[1, 0, 3, 0, 5, 7], [0, 1, 6, 0, 7, 9], [0, 0, 0, 1, 2, 0]])
        dual = c.galois_dual(0)
        want = {l: code(f, 6, [[f.frobenius(x, f.e - l) for x in row] for row in dual.gen.rows]) for l in range(f.e)}
        zero, eye = FqCode.zero(f, 6), FqCode(identity(f, 6))
        seen = []
        real_row, real_one = GF.frobenius_row, GF.frobenius
        monkeypatch.setattr(GF, "frobenius_row", lambda self, xs, m: seen.append(len(xs)) or real_row(self, xs, m))
        monkeypatch.setattr(GF, "frobenius", lambda self, x, l=1: seen.append(1) or real_one(self, x, l))
        for l in range(f.e):
            assert zero.galois_dual(l) == eye
        assert seen == []
        assert len(dual._free_columns()) == c.k == 3
        for l in range(1, f.e):
            assert c.galois_dual(l) == want[l]
        assert seen == [c.k] * dual.k * (f.e - 1)

    def test_twisted_dual_pairs_to_zero(self):
        c = code(F9, 2, [[1, 4]])
        d = c.galois_dual(1)
        assert d.k == 1
        for t in c.gen.to_rows():
            for s in d.gen.to_rows():
                acc = 0
                for a, b in zip(t, s):
                    acc = F9.add(acc, F9.mul(a, F9.frobenius(b, 1)))
                assert acc == 0

    def test_zero_code_dual_is_everything(self):
        assert FqCode.zero(F5, 3).galois_dual(0) == FqCode(identity(F5, 3))

    def test_bad_l(self):
        with pytest.raises(BadLError):
            code(F5, 2, [[1, 1]]).galois_dual(1)

    @pytest.mark.parametrize("l", [2, -1, True, False, 1.0, "1", None], ids=repr)
    def test_twist_entry_points_refuse(self, l):
        # the memo holds l = 0 and 1 first, which True, False and 1.0 would hit
        c = code(F9, 2, [[1, 4]])
        for good in range(2):
            c.hull_dim(good)
        for call in (c.galois_dual, c.hull_dim, c.lcd_status, c.is_lcd, c.is_self_orthogonal, c._gram_facts, c._gram):
            with pytest.raises(BadLError, match=r"l must lie in \[0, 1\]"):
                call(l)

    def test_one_kernel_per_code_object(self, monkeypatch):
        c = code(GF(2, 4), 3, [[1, 7, 7]])
        real, kernels = fqcode._reduced, []
        monkeypatch.setattr(fqcode, "_reduced", lambda f, rows: kernels.append(rows) or real(f, rows))
        duals = [c.galois_dual(l) for l in (0, 1, 2, 3, 3, 2, 1, 0)]
        # one reduction, of the n - k kernel rows written from G and its pivots
        assert [(len(rows), len(rows[0])) for rows in kernels] == [(c.n - c.k, c.n)]
        assert not any(map(any, matmul(c.gen, Matrix.from_rows(c.field, zip(*kernels[0]))).rows))
        assert duals[:4] == duals[:3:-1]

    def test_dimensions_complement(self):
        rng = random.Random(21)
        for _ in range(30):
            c = random_fqcode(rng, F9, rng.randint(1, 5), rng.randint(0, 3))
            for l in range(2):
                assert c.k + c.galois_dual(l).k == c.n


class TestHullAndLcd:
    def test_worked_values(self):
        assert code(F5, 2, [[1, 2]]).hull_dim(0) == 1
        assert code(F5, 2, [[1, 1]]).hull_dim(0) == 0
        assert FqCode.zero(F5, 2).hull_dim(0) == 0

    def test_lcd_status_values(self):
        assert code(F5, 2, [[1, 1]]).lcd_status(0) == (True, 2)
        assert code(F5, 2, [[1, 2]]).lcd_status(0) == (False, 0)
        assert code(F9, 2, [[1, 4]]).lcd_status(1) == (False, 0)

    @pytest.mark.parametrize(
        "field, row",
        [(GF(2, 3), [1, 2]), (GF(2, 3), [1, 2, 5]), (GF(3, 3), [1, 3]), (GF(3, 3), [1, 3, 10])],
    )
    def test_lcd_status_twist_direction(self, field, row):
        # P = G * F^(e-l)(G)^T is 1x1 for one row; P for twist l and for
        # e - l share rank, so only the determinant pins the direction
        p, e = field.p, field.e
        c = code(field, len(row), [row])
        assert c.gen.to_rows() == [row]

        def pairing(m):
            acc = 0
            for g in row:
                acc = field.add(acc, field.mul(g, field.pow(g, p**m)))
            return acc

        for l in (1, 2):
            expected = pairing(e - l)
            assert expected != pairing(l)
            assert c.lcd_status(l) == (expected != 0, expected)

    def test_zero_code_is_lcd_by_convention(self):
        assert FqCode.zero(F5, 4).is_lcd(0)

    def test_flag_matches_hull(self):
        rng = random.Random(22)
        for _ in range(40):
            c = random_fqcode(rng, F9, rng.randint(1, 5), rng.randint(0, 3))
            for l in range(2):
                assert c.is_lcd(l) == (c.hull_dim(l) == 0)


class TestSelfOrthogonal:
    def test_worked_values(self):
        assert code(F5, 2, [[1, 2]]).is_self_orthogonal(0)
        assert not code(F5, 2, [[1, 1]]).is_self_orthogonal(0)
        assert FqCode.zero(F5, 2).is_self_orthogonal(0)

    def test_cross_check_against_gram(self):
        rng = random.Random(23)
        for field in (F9, GF(2, 3)):
            e = field.e
            for _ in range(40):
                c = random_fqcode(rng, field, rng.randint(1, 5), rng.randint(0, 3))
                for l in range(e):
                    gm = gram(c.gen, e - l)
                    assert c.is_self_orthogonal(l) == all(v == 0 for row in gm.rows for v in row)

    def test_self_dual(self):
        assert code(F5, 2, [[1, 2]]).is_self_dual()
        assert not code(F5, 2, [[1, 1]]).is_self_dual()


class TestMinDist:
    def test_repetition(self):
        assert code(F5, 3, [[1, 1, 1]]).min_dist() == 3

    def test_enumerated_value(self):
        assert code(F5, 3, [[1, 0, 1], [0, 1, 1]]).min_dist() == 2

    def test_zero_code(self):
        with pytest.raises(ZeroCodeError):
            FqCode.zero(F5, 3).min_dist()

    def test_cap(self):
        c = code(F5, 4, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        with pytest.raises(CapExceededError):
            c.min_dist(cap=100)
        assert c.min_dist() == 2

    def test_cap_counts_all_messages(self):
        # 5^3 = 125 messages although only 31 projective ones are visited
        c = code(F5, 4, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        with pytest.raises(CapExceededError):
            c.min_dist(cap=124)
        assert c.min_dist(cap=125) == 2

    def test_cap_message_past_the_int_str_limit(self):
        # 1048573^716 has more than 4300 digits, past Python's default
        # int-to-str limit; the refusal must still be a cap refusal
        c = FqCode.zero(GF(1048573), 716).galois_dual(0)
        with pytest.raises(CapExceededError, match=r"^1048573\^716 codewords exceed the cap"):
            c.min_dist()
        p = RCode([c] + [FqCode.zero(c.field, 716)] * 3).params()
        assert p.d_lee is None and p.components[0] == (716, 716, None)

    def test_cached_distance_ignores_later_cap(self):
        c = code(F5, 4, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        assert c.min_dist() == 2
        assert c.min_dist(cap=1) == 2

    @pytest.mark.parametrize(
        "field, rows, d",
        [
            (F5, [[1, 1, 0, 1, 0]], 3),  # k = 1 with zero columns
            (F9, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),  # k = n
            (F9, [[1, 0, 4, 4, 0], [0, 1, 2, 2, 0]], 2),  # repeated and zero columns
            (GF(2, 3), [[1, 0, 1, 1, 1, 1], [0, 1, 3, 3, 6, 2]], 4),
        ],
    )
    def test_edge_shapes(self, field, rows, d):
        c = code(field, len(rows[0]), rows)
        assert c.min_dist() == d == oracle.min_distance(c)


def _replay_messages(field, k):
    """Messages visited by the projective walk, replayed on digit vectors."""
    msg = [0] * k
    seen = []
    for i in _projective_steps(field.p, field.e, k):
        j, t = divmod(i, field.e)
        msg[j] = field.add(msg[j], field.p**t)
        seen.append(tuple(msg))
    return seen


@pytest.mark.parametrize(
    "field, k",
    [(GF(2), 5), (GF(3), 4), (GF(2, 2), 3), (GF(3, 2), 3), (GF(2, 3), 2), (GF(7), 1)],
)
def test_gray_walk_visits_each_projective_message_once(field, k):
    seen = _replay_messages(field, k)
    assert len(seen) == len(set(seen)) == (field.q**k - 1) // (field.q - 1)
    for msg in seen:
        top = max(j for j, d in enumerate(msg) if d)
        assert msg[top] == 1


def test_gray_walk_words_on_a_small_code():
    """Each projective codeword is met once, and every codeword is a multiple of one."""
    f = GF(3, 2)
    c = code(f, 4, [[1, 0, 2, 5], [0, 1, 7, 3]])
    rows = c.gen.to_rows()
    words = []
    for msg in _replay_messages(f, c.k):
        word = [0] * c.n
        for d, row in zip(msg, rows):
            word = [f.add(a, f.mul(d, b)) for a, b in zip(word, row)]
        words.append(tuple(word))
    assert len(set(words)) == len(words) == f.q + 1
    scaled = {tuple(f.mul(a, v) for v in w) for w in words for a in f.units()}
    assert scaled == {w for w in oracle.codewords(c) if any(w)}


def _ruler_walk(p, e, k):
    """The projective walk's step indices straight from their definition."""
    for top in range(k):
        yield top * e
        for s in range(1, p ** (top * e)):
            i = 0
            while s % p == 0:
                s //= p
                i += 1
            yield i


def test_projective_steps_are_bounded_and_lazy():
    # 2^60 - 1 steps in all, so the walk must hand them out lazily from a
    # ruler block of bounded size; for p = 2, e = 1 they are v_2(1), v_2(2), ...
    head = list(itertools.islice(_projective_steps(2, 1, 60), 10**5))
    assert head == [(s & -s).bit_length() - 1 for s in range(1, 10**5 + 1)]


@pytest.mark.parametrize("block", [1, 3, 8, 30])
@pytest.mark.parametrize("p, e, k", [(2, 1, 9), (3, 1, 6), (2, 2, 4), (3, 2, 3), (5, 1, 4), (2, 3, 3)])
def test_projective_steps_past_the_ruler_block(monkeypatch, block, p, e, k):
    # a small block sends the high digits through the v_p loop between blocks
    monkeypatch.setattr(fqcode, "RULER_BLOCK", block)
    assert list(_projective_steps(p, e, k)) == list(_ruler_walk(p, e, k))


DIFF_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2), GF(3, 3), GF(5, 2), GF(2, 4), GF(17)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_min_dist_matches_oracle(data):
    f = data.draw(st.sampled_from(DIFF_FIELDS))
    n = data.draw(st.integers(1, 8))
    k_max = 1
    while k_max < n and f.q ** (k_max + 1) <= 4096:
        k_max += 1
    k = data.draw(st.integers(1, k_max))
    entries = st.integers(0, f.q - 1)
    cols = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            cols.append([0] * k)
        elif kind == "repeat" and cols:
            cols.append(list(data.draw(st.sampled_from(cols))))
        else:
            cols.append(data.draw(st.lists(entries, min_size=k, max_size=k)))
    c = code(f, n, [list(r) for r in zip(*cols)])
    if c.k == 0:
        return
    assert c.min_dist() == oracle.min_distance(c)


@pytest.mark.parametrize(
    "p, rows, d",
    [
        (131, [[1, 0, 5, 130, 7, 9], [0, 1, 5, 130, 7, 11]], 3),  # row 1 - row 0
        (131, [[1, 0, 1, 2, 3, 4], [0, 1, 2, 4, 6, 8]], 2),  # row 1 - 2 * row 0
        (131, [[1, 0, 3, 5, 7, 11, 13], [0, 1, 100, 123, 15, 61, 85]], 3),  # row 1 - 77 * row 0
        (257, [[1, 0, 2, 256, 9, 17], [0, 1, 4, 255, 18, 34]], 2),  # row 1 - 2 * row 0
        (257, [[1, 0, 3, 5, 7, 11], [0, 1, 86, 229, 116, 144]], 3),  # row 1 - 200 * row 0
    ],
)
def test_min_dist_wide_lanes(p, rows, d):
    # lanes of p.bit_length() + 1 = 9 and 10 bits
    c = code(GF(p), len(rows[0]), rows)
    assert c.k == 2
    assert c.min_dist() == d == oracle.min_distance(c)


@pytest.mark.parametrize("field, a", [(GF(5), 3), (GF(2, 3), 2), (GF(2, 3), 6)], ids=["gf5", "gf8-x", "gf8-x2+x"])
def test_min_dist_long_words(field, a):
    # n = 512 spreads a word over thousands of bits; the lightest word,
    # row 1 - a * row 0, is nonzero at its first two and three far coordinates
    n = 512
    rng = random.Random(32)
    row0 = [1, 0] + [rng.randrange(1, field.q) for _ in range(n - 2)]
    row1 = [0, 1] + [field.mul(a, v) for v in row0[2:]]
    for j in (n - 1, n - 5, n - 300):
        row1[j] = field.add(row1[j], 1)
    c = code(field, n, [row0, row1])
    assert c.min_dist() == oracle.min_distance(c) == 5


HULL_FIELDS = [GF(2), GF(2, 2), GF(5), GF(2, 3), GF(3, 2), GF(2, 4), GF(3, 3), GF(5, 2)]


def _check_hull_predicates(c):
    f = c.field
    for l in range(f.e):
        dual = c.galois_dual(l)
        # the l-dual is the kernel of F^(e-l)(G), computed afresh here
        twisted = Matrix(f, c.n, [[f.frobenius(v, f.e - l) for v in row] for row in c.gen.rows])
        assert dual == FqCode(nullspace_basis(twisted))
        if f.q**c.n <= 4096:
            assert oracle.is_dual_pair(c, dual, l)
        # kernel route: dim(C meet dual) = k + dim(dual) - dim(C + dual)
        stacked = Matrix.from_rows(f, c.gen.to_rows() + dual.gen.to_rows(), ncols=c.n)
        h = c.hull_dim(l)
        assert h == c.k + dual.k - rank(stacked) == oracle.hull_dim(c, l)
        assert c.is_lcd(l) == (h == 0)
        assert c.is_self_orthogonal(l) == (h == c.k)
    assert c.is_self_dual() == (c == c.galois_dual(0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hull_predicates_match_kernel_route_and_oracle(data):
    f = data.draw(st.sampled_from(HULL_FIELDS))
    n = data.draw(st.integers(1, 6))
    k_max = 0
    while k_max < n and f.q ** (k_max + 1) <= 1024:
        k_max += 1
    k = data.draw(st.integers(0, k_max))
    entries = st.integers(0, f.q - 1)
    cols = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            cols.append([0] * k)
        elif kind == "repeat" and cols:
            cols.append(list(data.draw(st.sampled_from(cols))))
        else:
            cols.append(data.draw(st.lists(entries, min_size=k, max_size=k)))
    _check_hull_predicates(code(f, n, [list(r) for r in zip(*cols)]))


GRAM_FIELDS = [GF(2, 2), GF(2, 3), F9, GF(2, 4), GF(3, 3), GF(2, 5), GF(2, 6)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gram_facts_match_the_full_generator_in_any_twist_order(data):
    # built from the free columns, half-filled, or read off the mate twist,
    # each entry's rank and determinant are the full generator's Gram
    # matrix's, and so is its P: stored by a build, or built on first
    # request by a twist whose mate was built first
    f = data.draw(st.sampled_from(GRAM_FIELDS))
    e, n = f.e, data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, n))
    rows = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n), min_size=k, max_size=k))
    if data.draw(st.booleans()):  # the whole space, G = I with no free column
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
    c = code(f, n, rows)
    twists = [*range(e)]
    for l in data.draw(st.sampled_from([twists, twists[::-1], data.draw(st.permutations(twists))])):
        p = gram(c.gen, e - l)
        pivots, d = f._gauss(p.to_rows())
        mate_first = l not in c._grams and (e - l) % e in c._grams
        facts = c._gram_facts(l)
        assert facts[1:] == (len(pivots), d)
        assert (facts[0] is None) == mate_first
        assert c._gram(l) == p.rows and c._grams[l] == (p.rows, len(pivots), d)
        if f.q**c.k <= 4096:
            assert c.hull_dim(l) == oracle.hull_dim(c, l)
    # the entries of 1 and its mate e - 1 are memoized, and True is still refused
    with pytest.raises(BadLError):
        c._gram_facts(True)


# (field, n) with n | q - 1, so any zero set Z in Z_n gives a cyclic code
CYCLIC = [(GF(2, 2), 3), (F5, 4), (GF(2, 3), 7), (F9, 4), (F9, 8), (GF(2, 4), 3), (GF(2, 4), 15),
          (GF(5, 2), 3), (GF(5, 2), 4), (GF(5, 2), 8), (GF(5, 2), 24), (GF(3, 3), 13), (GF(3, 3), 26)]


# odd-p extension lengths past the oracle's reach (q^k far above its 10^6 words), where the
# Gram and elimination kernels add by Zech logs
LONG_CYCLIC = [(GF(3, 4), 40), (GF(3, 4), 80), (GF(7, 2), 48), (GF(3, 5), 121)]


def _assert_cyclic_answers(f, n, zeros, twists):
    r"""With T = -p^(e-l) * Z mod n, the l-dual of the cyclic code with zeros Z has zeros Z_n \ T,
    so its hull has dimension |T \ Z| and it is l-LCD exactly when T = Z; checked at each twist in order."""
    c = cyclic(f, n, zeros)
    assert c.k == n - len(zeros)
    for l in twists:
        image = {-f.p ** (f.e - l) * z % n for z in zeros}
        assert c.hull_dim(l) == len(image - zeros)
        assert c.is_lcd(l) == (image == zeros)
        assert c.is_self_orthogonal(l) == (set(range(n)) - image <= zeros)
        assert c.galois_dual(l) == cyclic(f, n, set(range(n)) - image)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cyclic_codes_give_their_known_answers_at_every_twist(data):
    """The closed forms for a drawn short length and zero set; twists in random order."""
    f, n = data.draw(st.sampled_from(CYCLIC))
    zeros = data.draw(st.sets(st.integers(0, n - 1)))
    _assert_cyclic_answers(f, n, zeros, data.draw(st.permutations(range(f.e))))


@pytest.mark.parametrize("f, n", LONG_CYCLIC, ids=str)
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_cyclic_codes_past_the_oracle_give_their_known_answers(f, n, data):
    """The same closed forms at five drawn zero sets per length, of any size from 0 to n."""
    zeros = set(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))])
    _assert_cyclic_answers(f, n, zeros, data.draw(st.permutations(range(f.e))))


@pytest.mark.parametrize("field", [F5, GF(2, 2), F9], ids=str)
def test_first_facts_wrap_only_what_they_store(field, kernel_work, monkeypatch):
    """Work behind a fresh code's first facts, with Matrix constructions counted.

    A code is its rows, so none of these builds a Matrix: from_rows on an
    unreduced matrix makes one reducing kernel call, the first hull_dim(l)
    one Gram kernel call and one elimination, and the first Euclidean dual
    at most one reducing kernel call.
    """
    given = Matrix.from_rows(field, [[2, 1, 3, 1], [1, 3, 1, 2]])
    matrices = []
    real_init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__", lambda *args: matrices.append(args) or real_init(*args))
    for l in range(field.e):
        kernel_work.gauss.clear()
        c = FqCode.from_rows(field, 4, given)
        assert kernel_work.gauss == [("_reduced", True)] and kernel_work.grams == [] and matrices == []
        kernel_work.gauss.clear()
        c.hull_dim(l)
        assert kernel_work.gauss == [("_gram_facts", False)] and matrices == []
        assert [(caller, code) for caller, _, code in kernel_work.grams] == [("_build_gram", c)]
        kernel_work.gauss.clear()
        kernel_work.grams.clear()
        c.galois_dual(0)
        assert kernel_work.gauss in ([], [("_reduced", True)]) and kernel_work.grams == [] and matrices == []


@pytest.mark.parametrize(
    "c",
    [
        FqCode.zero(GF(2, 3), 3),
        FqCode.zero(F5, 0),
        FqCode.zero(GF(3, 3), 2).galois_dual(0),
        code(GF(2, 2), 4, [[1, 1, 0, 0], [0, 0, 1, 1]]),
        code(F9, 4, [[1, 0, 1, 1], [0, 1, 1, 2]]),
        code(GF(2, 4), 3, [[1, 7, 7]]),
    ],
    ids=["zero", "length-0", "full", "gf4-repeated-cols-self-dual", "gf9-self-dual", "gf16-repeated-cols-lcd"],
)
def test_hull_predicates_edge_shapes(c):
    _check_hull_predicates(c)


def test_hull_predicates_on_mixed_ring_code():
    f = GF(2, 2)
    comps = [
        code(f, 2, [[1, 1]]),  # self-dual for both twists
        code(f, 2, [[1, 2]]),  # LCD for l = 0, hull 1 for l = 1
        FqCode.zero(f, 2),
        FqCode.zero(f, 2).galois_dual(0),
    ]
    rc = RCode(comps)
    assert [c.hull_dim(1) for c in comps] == [1, 1, 0, 0]
    assert [c.hull_dim(0) for c in comps] == [1, 0, 0, 0]
    for l in range(f.e):
        assert sum(c.hull_dim(l) for c in comps) == oracle.hull_dim(rc, l)
        assert not rc.is_lcd(l)
        assert not rc.is_self_orthogonal(l)
    assert not rc.is_self_dual() and rc != rc.galois_dual(0)
    assert RCode([comps[0]] * 4).is_self_dual()


def is_mds(c: FqCode) -> bool:
    """The Singleton bound d = n - k + 1, attained."""
    return c.min_dist() == c.n - c.k + 1


class TestMds:
    def test_repetition_is_mds(self):
        assert is_mds(code(F5, 3, [[1, 1, 1]]))

    def test_parity_code_is_mds(self):
        assert is_mds(code(F5, 3, [[1, 1, 1]]).galois_dual(0))

    def test_weight_one_generator_breaks_it(self):
        assert not is_mds(code(F5, 4, [[1, 0, 0, 0], [0, 1, 1, 0]]))

    def test_mds_duality_under_all_twists(self):
        rep = code(F9, 4, [[1, 1, 1, 1]])
        for l in range(2):
            assert is_mds(rep) == is_mds(rep.galois_dual(l))


class TestScale:
    def test_identity_scaling(self):
        c = code(F5, 2, [[1, 2]])
        assert c.scale([1, 1]) == c

    def test_worked_value(self):
        assert code(F5, 2, [[1, 2]]).scale([2, 1]) == code(F5, 2, [[1, 1]])

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroScaleError):
            code(F5, 2, [[1, 2]]).scale([1, 0])

    @pytest.mark.parametrize("factors, error", [
        ([1, 7], ValueError), ([True, 1], ValueError), ([1, False], ValueError),
        ([1, 1, 1], MismatchError), ([0.0, 1], ValueError), ([1, 1.0], ValueError),
    ])
    def test_other_refusals(self, factors, error):
        with pytest.raises(error):
            code(F5, 2, [[1, 2]]).scale(factors)

    def test_runs_no_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("scale eliminated")

        f = GF(2, 3)
        c = code(f, 4, [[1, 0, 3, 5], [0, 1, 6, 7]])
        want = code(f, 4, [[f.mul(v, a) for v, a in zip(row, [2, 3, 4, 5])] for row in c.gen.to_rows()])
        for owner, name in ((fqcode, "_reduced"), (GF, "_gauss")):
            monkeypatch.setattr(owner, name, refuse)
        assert c.scale([2, 3, 4, 5]) == want

    @pytest.mark.parametrize("field", [F5, GF(2, 3), F9], ids=str)
    def test_zero_entries_take_no_product(self, field, monkeypatch):
        """A zero entry scales to zero with no field product; each nonzero entry takes two."""
        c = code(field, 5, [[1, 0, 3, 0, 2], [0, 1, 0, 0, 4]])
        factors = [2, 3, 4, 1, 3]
        want = code(field, 5, [[field.mul(v, a) for v, a in zip(row, factors)] for row in c.gen.to_rows()])
        calls, real = [], GF.mul
        monkeypatch.setattr(GF, "mul", lambda self, x, y: calls.append(x) or real(self, x, y))
        assert c.scale(factors) == want
        assert len(calls) == 2 * 5 and 0 not in calls

    def test_preserves_parameters(self):
        rng = random.Random(24)
        for _ in range(20):
            c = random_fqcode(rng, F5, 4, rng.randint(1, 3))
            if c.k == 0:
                continue
            factors = [rng.randint(1, 4) for _ in range(4)]
            scaled = c.scale(factors)
            assert scaled.k == c.k
            assert scaled.min_dist() == c.min_dist()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scale_matches_elimination_of_scaled_columns(data):
    f = data.draw(st.sampled_from(DIFF_FIELDS))
    n = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n), max_size=n))
    factors = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    c = code(f, n, rows)
    scaled = [[f.mul(v, a) for v, a in zip(row, factors)] for row in c.gen.to_rows()]
    assert c.scale(factors) == code(f, n, scaled)


PIVOT_FIELDS = [GF(2, 2), GF(5), GF(3, 2), GF(2, 4)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pivots_are_the_rref_pivots(data):
    """The pivots the constructor records, for random codes and every code derived from them."""
    f = data.draw(st.sampled_from(PIVOT_FIELDS))
    n = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)
    comps = [code(f, n, data.draw(st.lists(row, max_size=n))) for _ in range(4)]
    factors = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    derived = [c.galois_dual(l) for c in comps for l in range(f.e)]
    derived += [c.scale(factors) for c in comps]
    derived.append(RCode(comps).gray_image())
    for c in comps + derived:
        assert c.pivots == rref(c.gen)[2]


F8 = GF(2, 3)
ROUND_TRIP_ROWS = [[1, 0, 3, 5, 0], [0, 1, 6, 7, 2]]  # in RREF over GF(8)


def _ring_generators():
    rows = [[[1, 2, 0, 3], [4, 0, 5, 1], [0, 6, 7, 2]], [[2, 4, 0, 6], [0, 0, 1, 1], [3, 1, 2, 0]]]
    return RCode.from_generators(F8, 3, [[RingElement(F8, g) for g in row] for row in rows]).comps


DERIVATIONS = {
    "from_rows-reduced": lambda: [code(F8, 5, ROUND_TRIP_ROWS)],
    "from_rows-unreduced": lambda: [code(F8, 5, [[2, 3, 1, 0, 4], [5, 1, 0, 6, 7], [7, 2, 1, 6, 3]])],
    "euclidean-dual": lambda: [code(F8, 5, ROUND_TRIP_ROWS).galois_dual(0)],
    "twists": lambda: [code(F8, 5, ROUND_TRIP_ROWS).galois_dual(l) for l in range(1, F8.e)],
    "scale": lambda: [code(F8, 5, ROUND_TRIP_ROWS).scale([2, 3, 4, 5, 6])],
    "gray_image": lambda: [RCode(_ring_generators()).gray_image()],
    "from_generators": _ring_generators,
}


@pytest.mark.parametrize("derive", DERIVATIONS.values(), ids=DERIVATIONS)
def test_rows_round_trip_through_the_gen_view(derive):
    """A code of every derivation equals the code of its gen view, which is the Matrix of its rows."""
    for c in derive():
        assert c.k > 0 and c.n - c.k > 0
        assert FqCode(c.gen) == c and hash(FqCode(c.gen)) == hash(c)
        assert c.gen == Matrix(c.field, c.n, c.rows)


def test_count_text_is_decimal_while_printable():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter prints ints of any length")
    assert count_text(5, 3) == "125"
    assert count_text(10, limit - 1) == str(10 ** (limit - 1))
    assert count_text(10, limit) == f"10^{limit}"
