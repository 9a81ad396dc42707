"""Field arithmetic: worked values plus structural properties."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdring import GF
from lcdring.gf import _pmod, _pmul, _ppowmod, _psub, _trim
from lcdring.errors import BadModulusError, NotPrimeError


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
    # a unit x is a square iff x^((q - 1)/2) = 1
    assert f9.pow(4, 4) != 1  # x+1 is a non-square
    assert f9.pow(2, 4) == 1  # 2 = x^2
    assert f9.pow(1, 4) == 1


def test_encoding_roundtrip(f9):
    for x in f9.elements():
        assert sum(c * f9.p**i for i, c in enumerate(f9.coeffs(x))) == x


@pytest.mark.parametrize("q,args", [(4, (2, 2)), (5, (5,)), (9, (3, 2)), (16, (2, 4)), (25, (5, 2)), (27, (3, 3)), (121, (11, 2))])
def test_beta_power_class_sizes(q, args):
    # |(F_q*)^beta| = (q-1)/beta, checked by exhaustive classification
    f = GF(*args)
    n_units = f.q - 1
    for beta in range(1, n_units + 1):
        if n_units % beta:
            continue
        powers = sum(1 for x in f.units() if f.pow(x, n_units // beta) == 1)
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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_pmod_is_the_remainder_of_division(p, data):
    """a = m*b + r with deg r < deg b gives _pmod(a, b) == r; a zero divisor raises."""
    poly = st.lists(st.integers(0, p - 1), max_size=6)
    b, m, r = data.draw(poly), data.draw(poly), data.draw(poly)
    b.append(data.draw(st.integers(1, p - 1)))  # a nonzero leading coefficient
    r = _trim(r[: len(b) - 1])  # deg r < deg b
    a = _psub(_pmul(m, b, p), [-c % p for c in r], p)
    assert _pmod(a, b, p) == r
    with pytest.raises(ZeroDivisionError):
        _pmod(a, [0] * len(b), p)


# GF(9), GF(25), GF(2^8), GF(5^4), GF(23^2) and the explicit GF(16) modulus
# x^4 + x^3 + x^2 + x + 1 are fields where x is not primitive
DIFF_FIELDS = [
    (2, 2), (2, 3), (3, 2), (2, 4), (2, 4, (1, 1, 1, 1, 1)), (5, 2), (3, 3),
    (2, 8), (3, 5), (3, 6), (2, 10), (5, 4), (23, 2),
]


@functools.cache
def _diff_field(args):
    return GF(*args)


def _poly(f, x):
    return list(f.coeffs(x))


def _enc(f, poly):
    return sum(c * f.p**i for i, c in enumerate(poly))


@pytest.mark.parametrize("args", DIFF_FIELDS, ids=str)
def test_log_tables_use_the_smallest_primitive_encoding(args):
    f = _diff_field(args)
    n, mod = f.q - 1, list(f.modulus)
    g = f._exp[1]
    # the powers of g run through every unit, so g has order q - 1
    assert sorted(f._exp[:n]) == list(f.units())
    assert f._exp[n:] == f._exp[:n]
    assert all(f._log[f._exp[i]] == i for i in range(n))
    for i in range(0, n, max(1, n // 50)):
        assert f._exp[i] == _enc(f, _ppowmod(_poly(f, g), i, mod, f.p))
    # every smaller encoding has order below q - 1
    for h in range(1, g):
        v, order = h, 1
        while v != 1:
            v, order = _enc(f, _pmod(_pmul(_poly(f, v), _poly(f, h), f.p), mod, f.p)), order + 1
        assert order < n


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
@example((3, 6), None)
def test_table_arithmetic_matches_polynomial_arithmetic(args, data):
    f = _diff_field(args)
    p, q, mod = f.p, f.q, list(f.modulus)
    if data is None:  # x = 3 is the residue of x itself
        x, y, m = 3, 1, f.q - 1
    else:
        x = data.draw(st.integers(0, q - 1))
        y = data.draw(st.integers(0, q - 1))
        m = data.draw(st.one_of(st.integers(-2 * q, 3 * q), st.sampled_from([0, q - 1, q])))
    cx, cy = f.coeffs(x), f.coeffs(y)
    assert f.add(x, y) == _enc(f, [(a + b) % p for a, b in zip(cx, cy)])
    assert f.sub(x, y) == _enc(f, [(a - b) % p for a, b in zip(cx, cy)])
    assert f.neg(x) == _enc(f, [-a % p for a in cx])
    assert f.mul(x, y) == _enc(f, _pmod(_pmul(cx, cy, p), mod, p))
    for l in range(2 * f.e + 1):
        assert f.frobenius(x, l) == _enc(f, _ppowmod(cx, p**l, mod, p))
    if x == 0:
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        if m < 0:
            with pytest.raises(ZeroDivisionError):
                f.pow(0, m)
        else:
            assert f.pow(0, m) == (0 if m else 1)
        return
    inv = _enc(f, _ppowmod(cx, q - 2, mod, p))
    assert f.inv(x) == inv
    assert f.mul(x, f.inv(x)) == 1
    assert f.pow(x, q - 1) == 1
    assert f.frobenius(x, f.e) == x
    base, k = (cx, m) if m >= 0 else (f.coeffs(inv), -m)
    assert f.pow(x, m) == _enc(f, _ppowmod(base, k, mod, p))


@pytest.mark.parametrize(
    "args",
    [(2, 21), (2**61 - 1,), (2, 10**18), (1048573, 2)],
    ids=["2^21", "mersenne-61", "e=1e18", "p^2"],
)
def test_field_order_bounded_before_construction(args):
    with pytest.raises(ValueError, match="exceeds"):
        GF(*args)


# Row kernels against scalar add/mul/sub loops: GF(2), GF(5), GF(4), GF(8),
# GF(9), GF(16), GF(25), GF(27) and GF(3^5)
KERNEL_FIELDS = [(2,), (5,), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (3, 5)]


def _scalar_dot(f, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


@st.composite
def _kernel_rows(draw):
    """(field, xs, ys, c): rows rich in zeros, some all zero, some whose dot cancels to 0 partway."""
    f = _diff_field(draw(st.sampled_from(KERNEL_FIELDS)))
    elem = st.one_of(st.just(0), st.integers(0, f.q - 1))
    n = draw(st.integers(0, 8))
    xs = draw(st.lists(elem, min_size=n, max_size=n))
    ys = draw(st.lists(elem, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["random", "zero xs", "zero ys", "cancel"]))
    if shape == "zero xs":
        xs = [0] * n
    elif shape == "zero ys":
        ys = [0] * n
    elif shape == "cancel":
        # a term -s after a prefix summing to s brings the running sum back to 0
        cut = draw(st.integers(0, n))
        x = draw(st.integers(1, f.q - 1))
        s = _scalar_dot(f, xs[:cut], ys[:cut])
        xs.insert(cut, x)
        ys.insert(cut, f.mul(f.neg(s), f.inv(x)))
    return f, xs, ys, draw(elem)


@settings(max_examples=600, deadline=None)
@given(_kernel_rows())
@example((_diff_field((3, 5)), [1, 1, 2], [5, _diff_field((3, 5)).neg(5), 7], 3))
@example((_diff_field((2, 4)), [0, 0, 0], [0, 0, 0], 0))
def test_row_kernels_match_scalar_arithmetic(case):
    f, xs, ys, c = case
    assert f.dot(xs, ys) == _scalar_dot(f, xs, ys)
    assert f.sub_scaled(xs, c, ys) == [f.sub(x, f.mul(c, y)) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("args", KERNEL_FIELDS, ids=str)
def test_row_kernels_reach_every_log_sum(args):
    # c, y and their negatives run over every unit, so log c + log(-1) + log y
    # covers its whole range up to 3(q - 1)
    f = _diff_field(args)
    units = list(f.units())
    for c in units:
        xs = [f.mul(c, y) for y in units]
        assert f.sub_scaled(xs, c, units) == [0] * len(units)
        assert f.sub_scaled([0] * len(units), c, units) == [f.neg(x) for x in xs]
        assert f.dot([c] * len(units), units) == _scalar_dot(f, [c] * len(units), units)


@st.composite
def _frobenius_rows(draw):
    """(field, row) over GF(5), GF(4), GF(9), GF(16) and GF(25), rows rich in zeros."""
    f = _diff_field(draw(st.sampled_from([(5,), (2, 2), (3, 2), (2, 4), (5, 2)])))
    return f, draw(st.lists(st.one_of(st.just(0), st.integers(0, f.q - 1)), max_size=10))


@settings(max_examples=300, deadline=None)
@given(_frobenius_rows())
def test_frobenius_row_matches_frobenius(case):
    f, xs = case
    for m in range(2 * f.e + 1):
        assert f.frobenius_row(xs, m) == [f.frobenius(x, m) for x in xs]
