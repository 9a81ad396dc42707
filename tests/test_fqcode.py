"""Field codes: duals, hulls, LCD and MDS predicates, scaling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, oracle
from lcdring.errors import (
    BadLError,
    CapExceededError,
    MismatchError,
    ZeroCodeError,
    ZeroScaleError,
)
from lcdring.fqcode import _projective_steps
from lcdring.linalg import gram

from support import random_fqcode

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


class TestGaloisDual:
    def test_self_dual_line(self):
        c = code(F5, 2, [[1, 2]])
        assert c.galois_dual(0) == c

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
        assert FqCode.zero(F5, 3).galois_dual(0) == FqCode.full(F5, 3)

    def test_bad_l(self):
        with pytest.raises(BadLError):
            code(F5, 2, [[1, 1]]).galois_dual(1)

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
        for _ in range(40):
            c = random_fqcode(rng, F9, rng.randint(1, 5), rng.randint(0, 3))
            for l in range(2):
                gm = gram(c.gen, l)
                assert c.is_self_orthogonal(l) == all(v == 0 for v in gm.entries)

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


DIFF_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]


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


class TestMds:
    def test_repetition_is_mds(self):
        assert code(F5, 3, [[1, 1, 1]]).is_mds()

    def test_parity_code_is_mds(self):
        assert code(F5, 3, [[1, 1, 1]]).galois_dual(0).is_mds()

    def test_weight_one_generator_breaks_it(self):
        assert not code(F5, 4, [[1, 0, 0, 0], [0, 1, 1, 0]]).is_mds()

    def test_mds_duality_under_all_twists(self):
        rep = code(F9, 4, [[1, 1, 1, 1]])
        for l in range(2):
            assert rep.is_mds() == rep.galois_dual(l).is_mds()


class TestScale:
    def test_identity_scaling(self):
        c = code(F5, 2, [[1, 2]])
        assert c.scale([1, 1]) == c

    def test_worked_value(self):
        assert code(F5, 2, [[1, 2]]).scale([2, 1]) == code(F5, 2, [[1, 1]])

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroScaleError):
            code(F5, 2, [[1, 2]]).scale([1, 0])

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
