"""Ring codes built from four components."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, RCode, RingElement, ring_lcd_equivalent
from lcdring.ring import gamma_to_u, gray
from lcdring.errors import CapExceededError, FieldTooSmallError, MismatchError, NotAUnitError, ZeroCodeError

from support import CYCLIC, cyclic, identity, random_rcode, ring_words, u_dual, u_mul, u_span

F5 = GF(5)
F9 = GF(3, 2, [1, 0, 1])


def line_code():
    return FqCode.from_rows(F5, 2, [[1, 2]])


def rcode_of(comp):
    return RCode([comp] * 4)


class TestConstruction:
    def test_zero(self):
        z = RCode([FqCode.zero(F5, 3)] * 4)
        assert z.k == 0 and all(c.k == 0 for c in z.comps)

    def test_mismatched_components(self):
        with pytest.raises(MismatchError):
            RCode(
                [line_code(), line_code(), line_code(), FqCode.zero(F5, 3)]
            )

    @pytest.mark.parametrize("count", [3, 5])
    def test_exactly_four_components(self, count):
        with pytest.raises(MismatchError, match="exactly four component codes"):
            RCode([line_code()] * count)

    def test_repr(self):
        rc = RCode([line_code(), line_code(), FqCode.zero(F5, 2), line_code()])
        assert repr(rc) == "RCode(n=2, k=3 (1,1,0,1), field=GF(5))"

    def test_scalar_generator_hits_all_slots(self):
        row = [RingElement.scalar(F5, 1), RingElement.scalar(F5, 2)]
        rc = RCode.from_generators(F5, 2, [row])
        assert all(c == line_code() for c in rc.comps)

    def test_idempotent_generator_hits_one_slot(self):
        row = [RingElement.idempotent(F5, 1), RingElement.zero(F5)]
        rc = RCode.from_generators(F5, 2, [row])
        assert rc.comps[1] == FqCode.from_rows(F5, 2, [[1, 0]])
        assert all(rc.comps[i].k == 0 for i in (0, 2, 3))

    def test_generator_roundtrip(self):
        rng = random.Random(31)
        for _ in range(20):
            rc = random_rcode(rng, F9, rng.randint(1, 4), 2)
            again = RCode.from_generators(rc.field, rc.n, rc.generator_rows())
            assert again == rc

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_generator_length_checked(self, n):
        with pytest.raises(ValueError, match="column count"):
            RCode.from_generators(F5, n, [])

    @pytest.mark.parametrize("row, match", [
        ([RingElement.one(F5)], "generator of width 1 in a length-2 code"),
        ([RingElement.one(F5), RingElement.one(F9)], "generator entry from a different field"),
    ], ids=["width", "field"])
    def test_generator_rows_checked(self, row, match):
        with pytest.raises(MismatchError, match=match):
            RCode.from_generators(F5, 2, [row])

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2)], ids=lambda f: f"GF({f.q})")
    def test_span_in_u_coordinates(self, field):
        """The R-span of the generators, multiplied out in the (1, u, v, uv) basis, is the
        code ``from_generators`` builds through the idempotent slots, read back in u."""
        assert u_mul(F5, (1, 1, 0, 0), (1, 1, 0, 0)) == (1, 3, 0, 0)  # (1 + u)^2 = 1 + 3u
        rng = random.Random(field.q)
        for n, count in ((1, 1), (2, 1), (1, 2), (2, 2)):
            gens = [[tuple(rng.randrange(field.q) for _ in range(4)) for _ in range(n)] for _ in range(count)]
            rc = RCode.from_generators(field, n, [[RingElement.from_u(field, x) for x in g] for g in gens])
            words = [tuple(gamma_to_u(field, x.g) for x in w) for w in ring_words(rc)]
            assert len(words) == rc.size and set(words) == u_span(field, gens)


class TestDual:
    def test_zero_dualizes_to_full(self):
        z = RCode([FqCode.zero(F5, 2)] * 4)
        d = z.galois_dual(0)
        assert all(c == FqCode(identity(F5, 2)) for c in d.comps)

    def test_self_dual_line(self):
        rc = rcode_of(line_code())
        assert rc.galois_dual(0) == rc

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2)], ids=lambda f: f"GF({f.q})")
    def test_dual_in_u_coordinates(self, field):
        """The l-Galois dual by its definition over all pairs, in the (1, u, v, uv) basis, is
        ``galois_dual(l)`` read back in u; the hull it leaves gives the hull dimension and LCD flag."""
        rng = random.Random(field.q + 1)
        for n, count in ((1, 1), (2, 1), (1, 2), (2, 2)):
            gens = [[tuple(rng.randrange(field.q) for _ in range(4)) for _ in range(n)] for _ in range(count)]
            rc = RCode.from_generators(field, n, [[RingElement.from_u(field, x) for x in g] for g in gens])
            words = u_span(field, gens)
            for l in range(field.e):
                dual = u_dual(field, n, words, l)
                got = {tuple(gamma_to_u(field, x.g) for x in w) for w in ring_words(rc.galois_dual(l))}
                assert got == dual
                hull = words & dual
                assert len(hull) == field.q ** sum(c.hull_dim(l) for c in rc.comps)
                assert rc.is_lcd(l) == (len(hull) == 1)

    def test_dimension_identity(self):
        rng = random.Random(32)
        for _ in range(25):
            rc = random_rcode(rng, F9, rng.randint(1, 4), 3)
            for l in range(2):
                assert rc.k + rc.galois_dual(l).k == 4 * rc.n


class TestGrayImage:
    def test_single_slot(self):
        rc = RCode(
            [
                FqCode.zero(F5, 1),
                FqCode.from_rows(F5, 1, [[1]]),
                FqCode.zero(F5, 1),
                FqCode.zero(F5, 1),
            ]
        )
        assert rc.gray_image() == FqCode.from_rows(F5, 4, [[0, 1, 0, 0]])

    def test_repetition_components(self):
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        img = rcode_of(rep).gray_image()
        assert (img.n, img.k) == (12, 4)
        assert img.min_dist() == 3

    def test_zero(self):
        assert RCode([FqCode.zero(F5, 2)] * 4).gray_image() == FqCode.zero(F5, 8)

    def test_dimension_always_adds_up(self):
        rng = random.Random(33)
        for _ in range(20):
            rc = random_rcode(rng, F9, rng.randint(1, 4), 3)
            assert rc.gray_image().k == rc.k

    def test_image_distance_is_lee_distance(self):
        rng = random.Random(36)
        for _ in range(15):
            rc = random_rcode(rng, F5, rng.randint(1, 3), 2)
            if rc.k == 0:
                continue
            assert rc.gray_image().min_dist() == rc.lee_min_dist()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gray_image_matches_elimination_of_expanded_rows(data):
    f = data.draw(st.sampled_from([GF(2), GF(2, 2), F5, F9, GF(2, 3)]))
    n = data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)
    rc = RCode([FqCode.from_rows(f, n, data.draw(st.lists(entries, max_size=n))) for _ in range(4)])
    assert rc.gray_image() == FqCode.from_rows(f, 4 * n, [gray(row) for row in rc.generator_rows()])


class TestParams:
    def test_repetition(self):
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        p = rcode_of(rep).params()
        assert (p.n, p.k, p.d_lee) == (3, 4, 3)
        assert p.components == ((3, 1, 3),) * 4

    def test_mixed_distance(self):
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        par = rep.galois_dual(0)  # [3, 2, 2]
        rc = RCode([par, rep, rep, rep])
        assert rc.params().d_lee == 2

    def test_zero_code(self):
        p = RCode([FqCode.zero(F5, 3)] * 4).params()
        assert p.k == 0 and p.d_lee is None


class TestPredicates:
    def test_lcd_all_components(self):
        good = FqCode.from_rows(F5, 2, [[1, 1]])
        assert rcode_of(good).is_lcd(0)
        mixed = RCode([line_code(), good, good, good])
        flag, dets = mixed.lcd_status(0)
        assert not flag and dets == (0, 2, 2, 2)

    def test_zero_code_is_lcd(self):
        assert RCode([FqCode.zero(F5, 2)] * 4).is_lcd(0)

    def test_self_dual_and_orthogonal(self):
        rc = rcode_of(line_code())
        assert rc.is_self_dual()
        assert rc.is_self_orthogonal(0)
        bad = RCode([FqCode.from_rows(F5, 2, [[1, 1]])] + [line_code()] * 3)
        assert not bad.is_self_dual()
        assert not bad.is_self_orthogonal(0)
        assert RCode([FqCode.zero(F5, 2)] * 4).is_self_orthogonal(0)


class TestMds:
    def test_repetition_components(self):
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        assert rcode_of(rep).is_mds()

    def test_parity_components(self):
        par = FqCode.from_rows(F5, 3, [[1, 1, 1]]).galois_dual(0)
        assert rcode_of(par).is_mds()

    def test_mixed_parameters_fail(self):
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        par = rep.galois_dual(0)
        rc = RCode([par, rep, rep, rep])
        assert not rc.is_mds()

    def test_zero_raises(self):
        with pytest.raises(ZeroCodeError):
            RCode([FqCode.zero(F5, 3)] * 4).is_mds()

    def test_unequal_dimensions_decide_no_before_the_cap(self):
        """Only equal k_i can reach n - k/4 + 1, so a cap of 0 raises for equal k_i and not otherwise."""
        rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
        assert not RCode([rep, rep, rep, rep.galois_dual(0)]).is_mds(cap=0)
        assert not RCode([rep, rep, rep, FqCode.zero(F5, 3)]).is_mds(cap=0)
        with pytest.raises(CapExceededError):
            RCode([rep] * 4).is_mds(cap=0)

    def test_bound_equality_matches_componentwise_rule(self):
        rng = random.Random(34)
        for _ in range(30):
            rc = random_rcode(rng, F5, rng.randint(2, 4), 2)
            if any(c.k == 0 for c in rc.comps):
                continue
            per_comp = all(c.min_dist() == c.n - c.k + 1 for c in rc.comps) and (
                len({(c.k, c.min_dist()) for c in rc.comps}) == 1
            )
            assert rc.is_mds() == per_comp


class TestScale:
    def test_identity(self):
        rc = rcode_of(line_code())
        ones = tuple(RingElement.one(F5) for _ in range(2))
        assert rc.scale(ones) == rc

    def test_worked_example(self):
        rc = rcode_of(line_code())
        alpha = (RingElement.scalar(F5, 2), RingElement.one(F5))
        scaled = rc.scale(alpha)
        assert all(c == FqCode.from_rows(F5, 2, [[1, 1]]) for c in scaled.comps)

    @pytest.mark.parametrize("alpha, match", [
        ((RingElement.one(F5),), "one scaling unit per coordinate"),
        ((RingElement.one(F5), RingElement.one(F9)), "scaling vector from a different ring"),
    ], ids=["length", "ring"])
    def test_mismatched_scaling_rejected(self, alpha, match):
        with pytest.raises(MismatchError, match=match):
            rcode_of(line_code()).scale(alpha)

    def test_nonunit_rejected(self):
        rc = rcode_of(line_code())
        alpha = (RingElement.idempotent(F5, 1), RingElement.one(F5))
        with pytest.raises(NotAUnitError):
            rc.scale(alpha)

    def test_preserves_parameters(self):
        rng = random.Random(35)
        for _ in range(15):
            rc = random_rcode(rng, F5, 3, 2)
            if rc.k == 0:
                continue
            alpha = tuple(
                RingElement(F5, tuple(rng.randint(1, 4) for _ in range(4)))
                for _ in range(3)
            )
            scaled = rc.scale(alpha)
            assert scaled.k == rc.k
            assert scaled.lee_min_dist() == rc.lee_min_dist()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ring_codes_of_four_cyclic_components_give_their_known_answers(data):
    r"""Four zero sets Z_i in Z_n give a ring code whose l-LCD facts have closed forms: with
    T_i = -p^(e-l) * Z_i mod n, the component hulls sum to the sum of |T_i \ Z_i|, the code is l-LCD
    exactly when every T_i = Z_i, and its l-dual is the ring code of zero sets Z_n \ T_i.  Where the
    field admits the twist, ``ring_lcd_equivalent`` makes a non-LCD code l-LCD with the same length and
    component dimensions; where q - 1 divides p^(e-l) + 1 it refuses."""
    f, n = data.draw(st.sampled_from(CYCLIC))
    zeros = [data.draw(st.sets(st.integers(0, n - 1))) for _ in range(4)]
    rc = RCode(cyclic(f, n, z) for z in zeros)
    for l in data.draw(st.permutations(range(f.e))):
        images = [{-f.p ** (f.e - l) * z % n for z in z_i} for z_i in zeros]
        assert sum(c.hull_dim(l) for c in rc.comps) == sum(len(t - z) for t, z in zip(images, zeros))
        assert rc.is_lcd(l) == (images == zeros)
        assert rc.galois_dual(l) == RCode(cyclic(f, n, set(range(n)) - t) for t in images)
        if (f.p ** (f.e - l) + 1) % (f.q - 1) == 0:
            with pytest.raises(FieldTooSmallError):
                ring_lcd_equivalent(rc, l)
        elif images != zeros:
            out = ring_lcd_equivalent(rc, l)[1]
            assert out.is_lcd(l) and out.n == n and [c.k for c in out.comps] == [c.k for c in rc.comps]
