"""Minor search, the determinant identity, and the LCD scalings."""

import functools
import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, Matrix, RCode, RingElement, construct, oracle
from lcdring.construct import (
    DEFAULT_DIM_CAP,
    MinorCertificate,
    _beta,
    _factors,
    euclid_lcd_scaling,
    galois_lcd_scaling,
    lemma_det_check,
    minor_search,
    ring_lcd_equivalent,
)
from lcdring.errors import (
    BadLError,
    FieldTooSmallError,
    SizeCapError,
    SupportMismatchError,
    ZeroCodeError,
)
from lcdring.linalg import det, minor_det

from support import all_codes, identity, matmul, random_fqcode

F4 = GF(2, 2)
F5 = GF(5)
F8 = GF(2, 3)
F9 = GF(3, 2, [1, 0, 1])
F16 = GF(2, 4)
F25 = GF(5, 2)


def mat(field, rows):
    return Matrix.from_rows(field, rows)


class TestMinorSearch:
    def test_nonsingular_matrix(self):
        cert = minor_search(mat(F5, [[3]]))
        assert (cert.t, cert.r_set, cert.det) == (-1, (), 3)

    def test_scalar_zero(self):
        cert = minor_search(mat(F5, [[0]]))
        assert (cert.t, cert.r_set, cert.det) == (0, (0,), 1)

    def test_zero_two_by_two(self):
        cert = minor_search(mat(F5, [[0, 0], [0, 0]]))
        assert (cert.t, cert.r_set, cert.det) == (1, (0, 1), 1)

    def test_zero_matrix_needs_full_deletion(self):
        cert = minor_search(Matrix.zero(F5, 4, 4))
        assert (cert.t, cert.r_set, cert.det) == (3, (0, 1, 2, 3), 1)

    def test_nonsingular_matrix_above_cap_is_certified(self):
        cert = minor_search(identity(F5, DEFAULT_DIM_CAP + 1))
        assert (cert.t, cert.r_set, cert.det) == (-1, (), 1)

    def test_cap_refuses_a_needed_fallback_scan(self):
        # [[0, 1], [0, 0]] plus an identity block, above the cap: the greedy
        # row basis skips row 1 only, but deleting {1} leaves P[0, 0] = 0
        m = DEFAULT_DIM_CAP + 1
        rows = [[0] * m for _ in range(m)]
        rows[0][1] = 1
        for i in range(2, m):
            rows[i][i] = 1
        with pytest.raises(SizeCapError):
            minor_search(mat(F5, rows))

    def test_fallback_scan_under_default_cap(self):
        cert = minor_search(mat(F5, [[0, 1], [0, 0]]))
        assert (cert.t, cert.r_set, cert.det) == (1, (0, 1), 1)

    def test_minimality_by_rescan(self):
        rng = random.Random(41)
        for _ in range(30):
            m = rng.randint(1, 4)
            p = mat(F5, [[rng.randrange(5) for _ in range(m)] for _ in range(m)])
            cert = minor_search(p)
            for w in range(cert.t + 1):
                for drop in itertools.combinations(range(m), w):
                    assert minor_det(p, drop) == 0
            assert minor_det(p, cert.r_set) == cert.det != 0


def first_minor_by_scan(p):
    """(t, r_set, det) from every deletion set, by size, then lexicographically."""
    for w in range(p.nrows + 1):
        for drop in itertools.combinations(range(p.nrows), w):
            d = minor_det(p, drop)
            if d:
                return w - 1, drop, d


DIFF_FIELDS = (GF(2), F4, F5, F8, F9, F16, F25)


@st.composite
def square_matrices(draw):
    """Arbitrary square matrices of bounded rank, or twisted Gram matrices at any l."""
    f = draw(st.sampled_from(DIFF_FIELDS))
    m = draw(st.integers(0, 6))

    def rows(nrows, ncols):
        row = st.lists(st.integers(0, f.q - 1), min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    if draw(st.booleans()):
        r = draw(st.integers(0, m))
        return matmul(Matrix.from_rows(f, rows(m, r), ncols=r), Matrix.from_rows(f, rows(r, m), ncols=m))
    n = draw(st.integers(max(m, 1), 8))
    return FqCode.from_rows(f, n, rows(m, n))._gram(draw(st.integers(0, f.e - 1)))


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example(mat(F5, [[0, 1], [0, 0]]))
@example(FqCode.from_rows(F8, 4, [[1, 0, 7, 6], [0, 1, 6, 5]])._gram(1))  # P = [[2, 0], [1, 0]]
def test_minor_search_matches_exhaustive_scan(p):
    cert = minor_search(p)
    assert (cert.t, cert.r_set, cert.det) == first_minor_by_scan(p)


@pytest.fixture
def minor_det_calls(monkeypatch):
    """Deletion sets that minor_search passes to minor_det, in call order."""
    calls = []
    monkeypatch.setattr(construct, "minor_det", lambda p, drop: calls.append(drop) or minor_det(p, drop))
    return calls


def test_gf8_example_takes_the_fallback_scan(minor_det_calls):
    # greedy basis {1}, P[1, 1] = 0: the scan starts at size 1 and returns deletion set {1}
    assert minor_search(FqCode.from_rows(F8, 4, [[1, 0, 7, 6], [0, 1, 6, 5]])._gram(1)).r_set == (1,)
    assert minor_det_calls == [(0,), (0,), (1,)]


# Hermitian twists 2(e - l) = 0 mod e: l = 0 and l = e/2
HERMITIAN = [(F5, 0), (F9, 0), (F9, 1), (F16, 0), (F16, 2), (F25, 0), (F25, 1)]


def planted_codes(rng, f, l, n, count):
    """Length-n codes holding a self-orthogonal [I | a I] block beside a random one, columns shuffled."""
    m = f.e - l
    a = next(a for a in f.units() if f.pow(a, f.p**m + 1) == f.neg(1))
    for _ in range(count):
        h = rng.randint(0, n // 2)
        n2 = n - 2 * h
        r = rng.randint(h == 0, n2)
        rows = [[int(i == j) for j in range(h)] + [a * (i == j) for j in range(h)] + [0] * n2 for i in range(h)]
        rows += [[0] * (2 * h) + [rng.randrange(f.q) for _ in range(n2)] for _ in range(r)]
        perm = rng.sample(range(n), n)
        yield FqCode.from_rows(f, n, [[row[c] for c in perm] for row in rows])


class TestHermitianCertificate:
    @pytest.mark.parametrize("f,l", HERMITIAN, ids=repr)
    def test_one_determinant_per_search(self, f, l, minor_det_calls):
        for c in planted_codes(random.Random(48), f, l, 8, 40):
            minor_det_calls.clear()
            cert = minor_search(c._gram(l))
            assert minor_det_calls == [cert.r_set]

    @pytest.mark.parametrize("f,l", HERMITIAN, ids=repr)
    def test_scaled_support_is_the_hull(self, f, l):
        rng = random.Random(49)
        sizes = set()
        for _ in range(10):
            rc = RCode.from_components(list(planted_codes(rng, f, l, 8, 4)))
            alpha, out, cert = ring_lcd_equivalent(rc, l)
            assert out == rc.scale(alpha)
            for comp, fc in zip(rc.comps, cert.components):
                if fc is not None:
                    assert fc.minor.t + 1 == comp.hull_dim(l)
                    sizes.add(fc.minor.t + 1)
            assert out.is_lcd(l)
        assert max(sizes) >= 4

    def test_euclid_k100_zero_gram(self):
        # [I | 2I] over GF(5) is self-dual, 1 + 2^2 = 0: every row gets scaled
        rows = [[int(i == j) for j in range(100)] + [2 * (i == j) for j in range(100)] for i in range(100)]
        c = FqCode.from_rows(F5, 200, rows)
        assert c.is_self_dual()
        alpha, out, cert = euclid_lcd_scaling(c)
        assert cert.minor == MinorCertificate(99, tuple(range(100)), 1)
        assert alpha == (2,) * 100 + (1,) * 100
        assert out.k == 100 and out.is_lcd(0)

    def test_galois_k40(self):
        a = next(a for a in F9.units() if F9.pow(a, 4) == F9.neg(1))
        rows = [[int(i == j) for j in range(40)] + [a * (i == j) for j in range(40)] for i in range(40)]
        rows[0][-1] = 1  # the last column joins row 0 to row 39: hull dimension 38
        c = FqCode.from_rows(F9, 80, rows)
        _, out, cert = galois_lcd_scaling(c, 1)
        assert cert.minor.t + 1 == c.hull_dim(1) == 38
        assert out.k == 40 and out.is_lcd(1)


class TestLemmaCheck:
    def test_scalar(self):
        p = mat(F5, [[0]])
        cert = minor_search(p)
        assert lemma_det_check(p, [3], cert)

    def test_two_by_two(self):
        p = mat(F5, [[0, 0], [0, 3]])
        cert = minor_search(p)
        assert cert.r_set == (0,)
        assert lemma_det_check(p, [4, 0], cert)

    def test_empty_support(self):
        p = mat(F5, [[2]])
        cert = minor_search(p)
        assert cert.t == -1
        assert lemma_det_check(p, [0], cert)

    def test_support_mismatch(self):
        p = mat(F5, [[0, 0], [0, 3]])
        cert = minor_search(p)
        with pytest.raises(SupportMismatchError):
            lemma_det_check(p, [0, 1], cert)

    @pytest.mark.parametrize("b", [[-1], [-3], [5], [True], [1.0]])
    def test_non_encoding_refused(self, b):
        p = mat(F4, [[0]])
        cert = minor_search(p)
        assert cert.r_set == (0,)
        with pytest.raises(ValueError, match="not an element encoding"):
            lemma_det_check(p, b, cert)

    def test_random_instances(self):
        rng = random.Random(42)
        for field in (F5, F9):
            for _ in range(30):
                m = rng.randint(1, 4)
                p = mat(field, [[rng.randrange(field.q) for _ in range(m)] for _ in range(m)])
                cert = minor_search(p)
                b = [0] * m
                for j in cert.r_set:
                    b[j] = rng.randint(1, field.q - 1)
                assert lemma_det_check(p, b, cert)


class TestEuclidScaling:
    def test_worked_pipeline(self):
        c = FqCode.from_rows(F5, 2, [[1, 2]])
        alpha, out, cert = euclid_lcd_scaling(c)
        assert alpha == (2, 1)
        assert out == FqCode.from_rows(F5, 2, [[1, 1]])
        assert cert.minor == MinorCertificate(0, (0,), 1)
        assert cert.gram_det == 3
        assert out.is_lcd(0)

    def test_already_lcd_gets_identity(self):
        c = FqCode.from_rows(F5, 2, [[1, 1]])
        alpha, out, cert = euclid_lcd_scaling(c)
        assert alpha == (1, 1) and out == c and cert.minor.t == -1

    def test_small_fields_refused(self):
        for field in (GF(2), GF(3)):
            c = FqCode.from_rows(field, 2, [[1, 1]])
            with pytest.raises(FieldTooSmallError):
                euclid_lcd_scaling(c)

    def test_zero_code_refused(self):
        with pytest.raises(ZeroCodeError):
            euclid_lcd_scaling(FqCode.zero(F5, 2))

    def test_gf4_works_for_euclid(self):
        # q = 4 > 3: the only excluded unit is 1, so both others serve
        c = FqCode.from_rows(F4, 2, [[1, 1]])
        if not c.is_lcd(0):
            alpha, out, _ = euclid_lcd_scaling(c)
            assert out.is_lcd(0)

    def test_seeded_choice_is_reproducible(self):
        rng = random.Random(43)
        for _ in range(10):
            c = random_fqcode(rng, F5, 4, rng.randint(1, 3))
            if c.k == 0:
                continue
            a1, out1, _ = euclid_lcd_scaling(c, seed=99)
            a2, out2, _ = euclid_lcd_scaling(c, seed=99)
            assert a1 == a2 and out1 == out2


class TestGaloisScaling:
    def test_worked_pipeline(self):
        c = FqCode.from_rows(F9, 2, [[1, 4]])
        alpha, out, cert = galois_lcd_scaling(c, 1)
        assert alpha == (4, 1)
        assert cert.beta == 2
        assert cert.gram_det == 1
        assert out.is_lcd(1)

    def test_already_lcd(self):
        c = FqCode.from_rows(F9, 2, [[1, 1]])
        assert c.is_lcd(1)
        alpha, out, cert = galois_lcd_scaling(c, 1)
        assert alpha == (1, 1) and out == c

    def test_beta_one_refused(self):
        # q - 1 = 3 divides 2^1 + 1: every unit of GF(4) has a^3 = 1
        c = FqCode.from_rows(F4, 2, [[1, 1]])
        with pytest.raises(FieldTooSmallError):
            galois_lcd_scaling(c, 1)

    def test_bad_l(self):
        c = FqCode.from_rows(F9, 2, [[1, 1]])
        for l in (2, -1, True):
            with pytest.raises(BadLError):
                galois_lcd_scaling(c, l)

    def test_deletion_set_can_exceed_the_hull(self):
        # P = [[0, 0], [3, 0]] has rank 1, so hull 1, but both of its 1x1
        # deletion minors vanish: the certified set is both rows
        c = FqCode.from_rows(F8, 4, [[1, 0, 2, 7], [0, 1, 3, 4]])
        assert c.hull_dim(1) == oracle.hull_dim(c, 1) == 1
        assert c._gram(1).to_rows() == [[0, 0], [3, 0]]
        alpha, out, cert = galois_lcd_scaling(c, 1)
        assert cert.minor == MinorCertificate(1, (0, 1), 1)
        assert cert.beta is None
        assert out == c.scale(alpha)
        assert oracle.hull_dim(out, 1) == 0

    def test_parameters_preserved(self):
        rng = random.Random(44)
        for _ in range(15):
            c = random_fqcode(rng, F9, 4, rng.randint(1, 2))
            if c.k == 0:
                continue
            _, out, _ = galois_lcd_scaling(c, 1)
            assert out.k == c.k
            assert out.min_dist() == c.min_dist()
            assert out.is_lcd(1)

    @pytest.mark.parametrize("pe,l", [((2, 4), 3), ((2, 6), 5), ((3, 4), 3)])
    def test_gram_det_reads_twist_e_minus_l(self, pe, l):
        f = GF(*pe)
        rng = random.Random(47)
        directions = set()
        for _ in range(12):
            c = random_fqcode(rng, f, 5, 2)
            if c.k == 0:
                continue
            alpha, out, cert = galois_lcd_scaling(c, l)
            rows = [[f.mul(v, a) for v, a in zip(row, alpha)] for row in c.gen.to_rows()]
            assert cert.gram_det == summed_gram_det(f, rows, f.e - l) != 0
            directions.add(summed_gram_det(f, rows, f.e - l) != summed_gram_det(f, rows, l))
            assert out.is_lcd(l)
        assert True in directions


def summed_gram_det(f, rows, t):
    """det of the matrix [sum_j r_j s_j^(p^t)] over row pairs (r, s), summed entry by entry."""
    pw = f.p**t
    entries = [
        functools.reduce(f.add, (f.mul(a, f.pow(b, pw)) for a, b in zip(r, s)), 0)
        for r in rows
        for s in rows
    ]
    return det(Matrix(f, len(rows), len(rows), tuple(entries)))


class TestRingLevel:
    def test_componentwise_example(self):
        line = FqCode.from_rows(F5, 2, [[1, 2]])
        rc = RCode.from_components([line] * 4)
        alpha, out, cert = ring_lcd_equivalent(rc)
        assert out == rc.scale(alpha)
        assert all(a.is_unit for a in alpha)
        assert alpha[0] == RingElement.scalar(F5, 2)
        assert alpha[1] == RingElement.one(F5)
        assert out.is_lcd(0)
        assert all(c == FqCode.from_rows(F5, 2, [[1, 1]]) for c in out.comps)

    def test_already_lcd_identity(self):
        good = FqCode.from_rows(F5, 2, [[1, 1]])
        rc = RCode.from_components([good] * 4)
        alpha, out, cert = ring_lcd_equivalent(rc)
        assert out == rc == rc.scale(alpha)
        assert all(c is d for c, d in zip(out.comps, rc.comps))
        assert all(a == RingElement.one(F5) for a in alpha)
        assert all(c is None for c in cert.components)

    def test_mixed_components_scale_only_where_needed(self):
        line = FqCode.from_rows(F5, 2, [[1, 2]])
        good = FqCode.from_rows(F5, 2, [[1, 1]])
        rc = RCode.from_components([line, good, good, good])
        alpha, out, cert = ring_lcd_equivalent(rc)
        assert cert.components[0] is not None
        assert all(c is None for c in cert.components[1:])
        assert all(a.g[1] == a.g[2] == a.g[3] == 1 for a in alpha)
        assert out == rc.scale(alpha)
        assert out.comps[1:] == rc.comps[1:]
        assert out.is_lcd(0)

    def test_galois_mode(self):
        bad = FqCode.from_rows(F9, 2, [[1, 4]])
        rc = RCode.from_components([bad] * 4)
        alpha, out, cert = ring_lcd_equivalent(rc, 1)
        assert cert.beta == 2
        assert out == rc.scale(alpha)
        assert out.is_lcd(1)
        assert out.lee_min_dist() == rc.lee_min_dist()

    def test_assembles_the_checked_components(self, monkeypatch):
        """The output holds the field construction's scaled codes themselves; nothing is rescaled."""
        scaled = {}
        real = construct._scaling

        def recording(comp, *rest):
            scaled[id(comp)] = real(comp, *rest)
            return scaled[id(comp)]

        def no_rescale(self, alpha):
            raise AssertionError("ring_lcd_equivalent rescaled the input code")

        monkeypatch.setattr(construct, "_scaling", recording)
        monkeypatch.setattr(RCode, "scale", no_rescale)
        rng = random.Random(47)
        runs = []
        for _ in range(4):
            rc = RCode.from_components(list(planted_codes(rng, F9, 1, 6, 4)))
            scaled.clear()
            alpha, out, cert = ring_lcd_equivalent(rc, 1)
            for comp, got, fc in zip(rc.comps, out.comps, cert.components):
                assert got is (comp if fc is None else scaled[id(comp)][1])
            runs.append((rc, alpha, out))
        monkeypatch.undo()
        assert any(out != rc for rc, _, out in runs)
        for rc, alpha, out in runs:
            assert out == rc.scale(alpha)

    def test_galois_refusals_fire_before_scaling(self):
        rc = RCode.from_components([FqCode.from_rows(F4, 2, [[1, 1]])] * 4)
        with pytest.raises(FieldTooSmallError):
            ring_lcd_equivalent(rc, 1)
        rc3 = RCode.from_components([FqCode.from_rows(GF(3), 2, [[1, 1]])] * 4)
        with pytest.raises(FieldTooSmallError):
            ring_lcd_equivalent(rc3)

    def test_determinism_with_seed(self):
        rng = random.Random(45)
        line = FqCode.from_rows(F5, 2, [[1, 2]])
        rc = RCode.from_components([line] * 4)
        a1, o1, _ = ring_lcd_equivalent(rc, seed=7)
        a2, o2, _ = ring_lcd_equivalent(rc, seed=7)
        assert a1 == a2 and o1 == o2

    def test_oracle_confirms_trivial_hull_of_outputs(self):
        from lcdring import oracle
        from support import random_rcode

        rng = random.Random(46)
        for _ in range(8):
            rc = random_rcode(rng, F5, rng.randint(2, 3), 1)
            alpha, out, _ = ring_lcd_equivalent(rc)
            assert out == rc.scale(alpha)
            assert oracle.hull_dim(out, 0) == 0


# fields of the factor-rule check: the twists l admitted (q - 1 does not
# divide p^(e-l) + 1), and among them those meeting the paper's condition
# p^(e-l) + 1 | q - 1, where beta is reported
FACTOR_FIELDS = {
    (2, 1): ((), ()),
    (3, 1): ((), ()),
    (2, 2): ((0,), ()),
    (5, 1): ((0,), ()),
    (7, 1): ((0,), ()),
    (2, 3): ((0, 1, 2), ()),
    (3, 2): ((0, 1), (1,)),
    (2, 4): ((0, 1, 2, 3), (2, 3)),
    (5, 2): ((0, 1), (1,)),
    (3, 3): ((0, 1, 2), ()),
    (7, 2): ((0, 1), (1,)),
    (2, 6): ((0, 1, 2, 3, 4, 5), (3, 5)),
    (3, 4): ((0, 1, 2, 3), (2, 3)),
}


class TestFactorRule:
    @pytest.mark.parametrize("pe", FACTOR_FIELDS, ids=lambda pe: f"GF({pe[0]}^{pe[1]})")
    def test_one_rule_matches_both_definitions(self, pe):
        """A twist is admitted exactly when some unit a has a^(p^(e-l)+1) != 1; _factors lists those units."""
        field = GF(*pe)
        admitted, paper = [], []
        for l in range(field.e):
            b_exp = field.p ** (field.e - l) + 1
            factors = [x for x in field.units() if field.pow(x, b_exp) != 1]
            assert _factors(field, b_exp) == factors
            try:
                beta = _beta(field, l)
            except FieldTooSmallError:
                assert factors == []
                continue
            assert factors
            admitted.append(l)
            if beta is not None:
                # the paper's case: the units off the roots of unity are the non-beta-th powers
                paper.append(l)
                assert factors == [x for x in field.units() if field.pow(x, (field.q - 1) // beta) != 1]
        assert (tuple(admitted), tuple(paper)) == FACTOR_FIELDS[pe]
        if 0 in admitted:
            assert _beta(field, 0) is None
            assert _factors(field, field.q + 1) == [x for x in field.units() if x not in (1, field.neg(1))]

    def test_refusals(self):
        for l in (True, 1.0, "1", -1, 2, None):
            with pytest.raises(BadLError, match=r"l must lie in \[0, 1\]"):
                _beta(F9, l)
        with pytest.raises(FieldTooSmallError, match="q - 1 = 3 divides"):
            _beta(F4, 1)
        assert _beta(F9, 0) is None and _beta(F9, 1) == 2
        assert _beta(F8, 1) is None
        # a mode string where the twist goes is refused, not read as some twist
        rc = RCode.from_components([FqCode.from_rows(F5, 2, [[1, 2]])] * 4)
        with pytest.raises(BadLError, match="got 'euclid'"):
            ring_lcd_equivalent(rc, "euclid")


# every subspace of GF(q)^n for n up to the bound, at every admitted twist
CENSUS = [(F4, 4), (F5, 4), (F8, 3), (F9, 3), (F16, 2), (GF(3, 3), 2), (GF(2, 5), 2)]


def test_census_every_code_scales_to_lcd():
    """The scaled code is LCD by brute force; its deletion set is the hull for a Hermitian twist, at least it otherwise."""
    start = time.monotonic()
    scaled = 0
    for f, top in CENSUS:
        twists = [l for l in range(f.e) if (f.p ** (f.e - l) + 1) % (f.q - 1)]
        for n in range(1, top + 1):
            for c in all_codes(f, n):
                if c.k == 0:
                    continue
                for l in twists:
                    alpha, out, cert = galois_lcd_scaling(c, l)
                    assert out == c.scale(alpha)
                    assert oracle.hull_dim(out, l) == 0
                    size, hull = len(cert.minor.r_set), c.hull_dim(l)
                    assert size == hull if 2 * l % f.e == 0 else size >= hull
                    scaled += 1
    assert scaled == 2973
    assert time.monotonic() - start <= 3.0


def test_census_covers_every_subspace():
    """Gaussian binomials: [n, k]_q subspaces of each dimension k, each enumerated once."""
    for f, n in ((F4, 4), (F5, 3), (F9, 2)):
        codes = list(all_codes(f, n))
        assert len(set(codes)) == len(codes)
        for k in range(n + 1):
            top = functools.reduce(int.__mul__, (f.q ** (n - i) - 1 for i in range(k)), 1)
            bottom = functools.reduce(int.__mul__, (f.q ** (k - i) - 1 for i in range(k)), 1)
            assert sum(c.k == k for c in codes) == top // bottom


@pytest.mark.parametrize("f,l", [(GF(2), 0), (GF(3), 0), (F4, 1)], ids=repr)
def test_refused_twists_fix_the_hull_under_every_monomial_map(f, l):
    """Every unit a has a^(p^(e-l)+1) = 1, so no permutation or scaling moves P: the refusal is sharp."""
    for n in range(1, 4):
        maps = list(itertools.product(itertools.permutations(range(n)), itertools.product(f.units(), repeat=n)))
        for c in all_codes(f, n):
            rows = c.gen.to_rows()
            images = {FqCode.from_rows(f, n, [[f.mul(row[perm[j]], a[j]) for j in range(n)] for row in rows])
                      for perm, a in maps}
            assert {oracle.hull_dim(image, l) for image in images} == {oracle.hull_dim(c, l)}
    with pytest.raises(FieldTooSmallError):
        galois_lcd_scaling(FqCode.from_rows(f, 1, [[1]]), l)
