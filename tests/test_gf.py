"""Field arithmetic: worked values plus structural properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdring import GF
from lcdring.errors import (
    BadBetaError,
    BadModulusError,
    BadRankError,
    EmptySetError,
    NotPrimeError,
)


@pytest.fixture(scope="module")
def f5():
    return GF(5)


@pytest.fixture(scope="module")
def f9():
    return GF(3, 2, [1, 0, 1])


def test_prime_field_default_modulus():
    f = GF(5)
    assert (f.p, f.e, f.q) == (5, 1, 5)
    assert f.modulus == (0, 1)


def test_gf9_accepts_x2_plus_1():
    f = GF(3, 2, [1, 0, 1])
    assert f.q == 9
    # and it is also the smallest-encoding default
    assert GF(3, 2).modulus == (1, 0, 1)


def test_not_prime():
    with pytest.raises(NotPrimeError):
        GF(4)


@pytest.mark.parametrize(
    "modulus",
    [
        [1, 1],          # wrong degree
        [1, 0, 2],       # not monic
        [0, 0, 1],       # x^2, root at 0
        [2, 0, 1],       # x^2 + 2 = x^2 - 1 has roots over F_3
    ],
)
def test_bad_modulus(modulus):
    with pytest.raises(BadModulusError):
        GF(3, 2, modulus)


@pytest.mark.parametrize(
    "args",
    [(5.9,), (5, 1.0), (True,), (5, True), (3, 2, [1, 0, 1.0]), (3, 2, [True, 0, 1])],
    ids=["float-p", "float-e", "bool-p", "bool-e", "float-modulus", "bool-modulus"],
)
def test_non_int_arguments_refused(args):
    with pytest.raises(ValueError, match="must be an int"):
        GF(*args)


@pytest.mark.parametrize("x", [True, False, 1.0])
def test_check_refuses_non_elements(f5, x):
    with pytest.raises(ValueError, match="not an element encoding"):
        f5.check(x)


def test_arithmetic_worked_values(f5, f9):
    w = 3  # the residue class of x in GF(9)
    assert f9.mul(w, w) == 2
    assert f5.add(3, 4) == 2
    assert all(f9.mul(x, 1) == x for x in f9.elements())


def test_inverse_worked_values(f5, f9):
    assert f5.inv(2) == 3
    assert f9.inv(3) == 6  # inverse of x is 2x
    with pytest.raises(ZeroDivisionError):
        f9.inv(0)


def test_frobenius_worked_values(f5, f9):
    assert f9.frobenius(3, 1) == 6  # x^3 = 2x
    assert all(f9.frobenius(x, 2) == x for x in f9.elements())
    assert f5.frobenius(3, 1) == 3


def test_residue_classification(f9):
    assert not f9.is_beta_power(4, 2)  # x+1 is a non-square
    assert f9.is_beta_power(2, 2)      # 2 = x^2
    assert f9.is_beta_power(1, 2)
    with pytest.raises(ZeroDivisionError):
        f9.is_beta_power(0, 2)
    with pytest.raises(BadBetaError):
        f9.is_beta_power(1, 3)  # 3 does not divide 8


def test_nonresidue_picking(f9):
    assert [f9.beta_nonresidue(2, r) for r in range(4)] == [4, 5, 7, 8]
    with pytest.raises(BadRankError):
        f9.beta_nonresidue(2, 4)
    f4 = GF(2, 2)
    with pytest.raises(EmptySetError):
        f4.beta_nonresidue(1, 0)


def test_encoding_roundtrip(f9):
    for x in f9.elements():
        assert f9.encode(f9.coeffs(x)) == x


@pytest.mark.parametrize("q,args", [(4, (2, 2)), (5, (5,)), (9, (3, 2)), (16, (2, 4)), (25, (5, 2)), (27, (3, 3)), (121, (11, 2))])
def test_beta_power_class_sizes(q, args):
    # |(F_q*)^beta| = (q-1)/beta, checked by exhaustive classification
    f = GF(*args)
    n_units = f.q - 1
    for beta in range(1, n_units + 1):
        if n_units % beta:
            continue
        powers = sum(1 for x in f.units() if f.is_beta_power(x, beta))
        assert powers == n_units // beta


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2))
def test_frobenius_is_a_homomorphism(xe, ye, l):
    f = GF(3, 2, [1, 0, 1])
    assert f.frobenius(f.mul(xe, ye), l) == f.mul(f.frobenius(xe, l), f.frobenius(ye, l))
    assert f.frobenius(f.add(xe, ye), l) == f.add(f.frobenius(xe, l), f.frobenius(ye, l))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 2), (5, 1), (3, 2), (2, 4)]), st.data())
def test_units_invert(params, data):
    f = GF(*params)
    x = data.draw(st.integers(1, f.q - 1))
    assert f.mul(x, f.inv(x)) == 1


def test_pow_matches_repeated_multiplication(f9):
    for x in f9.elements():
        acc = 1
        for m in range(10):
            assert f9.pow(x, m) == acc
            acc = f9.mul(acc, x)


def test_large_field_falls_back_without_tables():
    # q = 3^6 = 729 sits above the table cutoff; arithmetic must still agree
    # with the defining polynomial relations.
    f = GF(3, 6)
    x = 3
    assert f.mul(x, f.inv(x)) == 1 if x else True
    y = f.pow(x, f.q - 1)
    assert y == 1
    assert f.frobenius(x, f.e) == x
