"""Idempotent coordinates, the expansion map, Lee weight, inner products."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdring import GF, RingElement
from lcdring.errors import BadLError, MismatchError, NotAUnitError
from lcdring.ring import galois_inner, gamma_to_u, gray, lee_distance, lee_weight, u_to_gamma

F5 = GF(5)
F9 = GF(3, 2, [1, 0, 1])


@pytest.mark.parametrize("coord", [True, False, 1.0, 0.0, -1, 5])
def test_constructor_checks_coordinates(coord):
    with pytest.raises(ValueError, match="is not an element of"):
        RingElement(F5, (coord, 0, 0, 0))


@pytest.mark.parametrize(
    "quad", [(0, 7, 0, 0), (0, True, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1.0), (7, 0, 0, 0), (True, 0, 0, 0)])
def test_u_basis_checks_coordinates(quad):
    for convert in (u_to_gamma, RingElement.from_u, gamma_to_u):
        with pytest.raises(ValueError, match="not an element encoding"):
            convert(F5, quad)


@pytest.mark.parametrize("slot", [-1, 4, True, False, 1.0, "1"])
def test_idempotent_refuses_bad_slots(slot):
    with pytest.raises(MismatchError, match="idempotent slot"):
        RingElement.idempotent(F5, slot)


class TestBasisConversion:
    def test_one_is_the_sum_of_idempotents(self):
        assert u_to_gamma(F5, (1, 0, 0, 0)) == (1, 1, 1, 1)

    def test_u_splits_into_two_idempotents(self):
        assert u_to_gamma(F5, (0, 1, 0, 0)) == (0, 1, 1, 0)

    def test_roundtrip_exhaustive_gf4(self):
        f = GF(2, 2)
        for quad in itertools.product(range(4), repeat=4):
            assert gamma_to_u(f, u_to_gamma(f, quad)) == quad
            assert u_to_gamma(f, gamma_to_u(f, quad)) == quad

    def test_roundtrip_exhaustive_gf9(self):
        for quad in itertools.product(range(9), repeat=4):
            assert gamma_to_u(F9, u_to_gamma(F9, quad)) == quad
            assert u_to_gamma(F9, gamma_to_u(F9, quad)) == quad


class TestRingArithmetic:
    def test_idempotents_are_orthogonal(self):
        for i in range(4):
            gi = RingElement.idempotent(F5, i)
            assert gi * gi == gi
            for j in range(4):
                if i != j:
                    assert (gi * RingElement.idempotent(F5, j)).is_zero

    def test_square_of_one_plus_u(self):
        x = RingElement.from_u(F5, (1, 1, 0, 0))
        assert x.g == (1, 2, 2, 1)
        assert (x * x).to_u() == (1, 3, 0, 0)  # u^2 = u makes (1+u)^2 = 1+3u

    def test_inverse(self):
        one = RingElement.one(F5)
        assert one.inverse() == one
        x = RingElement(F5, (1, 2, 1, 1))
        assert x.inverse() == RingElement(F5, (1, 3, 1, 1))
        with pytest.raises(NotAUnitError):
            RingElement.idempotent(F5, 1).inverse()

    def test_mixed_rings_rejected(self):
        with pytest.raises(MismatchError):
            RingElement.one(F5) + RingElement.one(F9)

    def test_frobenius(self):
        x = RingElement(F9, (3, 0, 0, 0))  # g1 * x
        assert x.frobenius(1) == RingElement(F9, (6, 0, 0, 0))
        rng = random.Random(2)
        for _ in range(30):
            a = RingElement(F9, tuple(rng.randrange(9) for _ in range(4)))
            b = RingElement(F9, tuple(rng.randrange(9) for _ in range(4)))
            assert a.frobenius(2) == a
            assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)
            assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)


class TestExpansion:
    def test_single_entries(self):
        u = RingElement.from_u(F5, (0, 1, 0, 0))
        assert gray([u]) == (0, 1, 1, 0)
        assert gray([RingElement.one(F5)]) == (1, 1, 1, 1)

    def test_block_layout(self):
        vec = (RingElement.idempotent(F5, 1), RingElement.zero(F5))
        assert gray(vec) == (0, 1, 0, 0, 0, 0, 0, 0)

    def test_lee_weights(self):
        assert lee_weight([RingElement.from_u(F5, (0, 1, 0, 0))]) == 2
        assert lee_weight([RingElement.from_u(F5, (1, 1, 0, 0))]) == 4
        assert lee_weight([RingElement.zero(F5)]) == 0

    def test_bijection_on_a_small_ring(self):
        f = GF(2, 2)
        seen = set()
        for quad in itertools.product(range(4), repeat=4):
            seen.add(gray([RingElement(f, quad)]))
        assert len(seen) == 4**4

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_linear_and_distance_preserving(self, data):
        n = data.draw(st.integers(1, 5))
        coords = st.integers(0, 8)
        xs = data.draw(st.lists(st.tuples(coords, coords, coords, coords), min_size=n, max_size=n))
        ys = data.draw(st.lists(st.tuples(coords, coords, coords, coords), min_size=n, max_size=n))
        c = data.draw(coords)
        x = tuple(RingElement(F9, t) for t in xs)
        y = tuple(RingElement(F9, t) for t in ys)
        scalar = RingElement.scalar(F9, c)
        combo = tuple(scalar * a + b for a, b in zip(x, y))
        expected = tuple(
            F9.add(F9.mul(c, a), b) for a, b in zip(gray(x), gray(y))
        )
        assert gray(combo) == expected
        hamming = sum(1 for a, b in zip(gray(x), gray(y)) if a != b)
        assert lee_distance(x, y) == hamming


class TestGaloisInner:
    def test_idempotent_squares(self):
        g1 = RingElement.idempotent(F5, 0)
        assert galois_inner((g1,), (g1,), 0) == g1

    def test_twist_applies_frobenius(self):
        g1 = RingElement.idempotent(F9, 0)
        g1w = RingElement(F9, (3, 0, 0, 0))
        assert galois_inner((g1,), (g1w,), 1) == RingElement(F9, (6, 0, 0, 0))

    def test_cross_idempotents_vanish(self):
        g2 = RingElement.idempotent(F9, 1)
        g3 = RingElement.idempotent(F9, 2)
        for l in range(2):
            assert galois_inner((g2,), (g3,), l).is_zero

    def test_bad_l(self):
        one = RingElement.one(F9)
        with pytest.raises(BadLError):
            galois_inner((one,), (one,), 2)

    @pytest.mark.parametrize("l", [-1, True, False, 1.0, "1", None], ids=repr)
    def test_refuses_non_int_twists(self, l):
        one = RingElement.one(F9)
        with pytest.raises(BadLError):
            galois_inner((one,), (one,), l)

    def test_slotwise_agreement_with_field_pairing(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 4)
            s = tuple(RingElement(F9, tuple(rng.randrange(9) for _ in range(4))) for _ in range(n))
            t = tuple(RingElement(F9, tuple(rng.randrange(9) for _ in range(4))) for _ in range(n))
            for l in range(2):
                full = galois_inner(s, t, l)
                for slot in range(4):
                    acc = 0
                    for a, b in zip(s, t):
                        acc = F9.add(acc, F9.mul(a.g[slot], F9.frobenius(b.g[slot], l)))
                    assert full.g[slot] == acc
