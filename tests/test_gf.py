"""Field arithmetic: worked values plus structural properties."""

import enum
import functools
import hashlib
import itertools
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, Matrix, RingElement, gamma_to_u, lemma_det_check, minor_search, u_to_gamma
import lcdring.gf as gf_module
from lcdring.gf import _is_irreducible, _pmod, _pmul, _ppowmod, _prime_divisors, _psub, _trim
from lcdring.codefile import parse_code
from lcdring.errors import BadLError, BadModulusError, NotPrimeError, ParseError


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


def _first_irreducible_by_trial_division(p, e):
    """The monic degree-e polynomial of least encoding with no monic factor of degree 1 .. e // 2."""
    def divides(g, f):
        r = list(f)
        for i in range(len(f) - len(g), -1, -1):  # long division; g is monic
            c = r[i + len(g) - 1]
            for j, gj in enumerate(g):
                r[i + j] = (r[i + j] - c * gj) % p
        return not any(r)

    factors = [list(c) + [1] for d in range(1, e // 2 + 1) for c in itertools.product(range(p), repeat=d)]
    for low in range(p**e):
        f = [low // p**i % p for i in range(e)] + [1]
        if not any(divides(g, f) for g in factors):
            return tuple(f)


@pytest.mark.parametrize("p, e", [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                                  for e in range(2, 11) if p**e <= 2**10])
def test_default_modulus_is_the_first_irreducible(p, e):
    assert GF(p, e).modulus == _first_irreducible_by_trial_division(p, e)


def test_not_prime():
    """GF(p) builds exactly when p is prime: each p below 3000, and near the order cap
    2^20 - 1, the prime 2^20 - 3 and 1021^2, a square that trial division finds only at its root."""
    for p in [*range(-2, 3000), 1021**2, 2**20 - 1, 2**20 - 3]:
        if p >= 2 and all(p % r for r in range(2, math.isqrt(p) + 1)):
            assert GF(p).q == p
        else:
            with pytest.raises(NotPrimeError, match=f"^{p} is not prime$"):
                GF(p)


@pytest.mark.parametrize(
    "modulus",
    [
        [1, 1],          # wrong degree
        [1, 0, 2],       # not monic
        [0, 0, 1],       # x^2, root at 0
        [2, 0, 1],       # x^2 + 2 = x^2 - 1 has roots over F_3
        [4, 0, 1],       # 4 lies outside [0, 3), though x^2 + 1 is irreducible
    ],
)
def test_bad_modulus(modulus):
    with pytest.raises(BadModulusError):
        GF(3, 2, modulus)


@pytest.mark.parametrize("modulus", [[3, 1], [1, 1], [0, 2], [0, 0, 1], [], [0, 1, 0]])
def test_a_prime_field_has_one_modulus(modulus):
    """x = [0, 1] is the one modulus of a prime field: x + 3 would compute the same GF(5) under a
    second key."""
    assert GF(5, 1, [0, 1]) == GF(5) and repr(GF(5, 1, [0, 1])) == "GF(5)"
    with pytest.raises(BadModulusError, match=rf"^the modulus of a prime field is x = \[0, 1\], got {re.escape(str(modulus))}$"):
        GF(5, 1, modulus)


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


class Digit(enum.IntEnum):
    ONE = 1
    TWO = 2
    FIVE = 5


def _lemma_det_check(f, x):
    p = Matrix.from_rows(f, [[0]])
    return lemma_det_check(p, [x], minor_search(p))


# every entry point that takes field values, and what it gives for the plain int 2 over GF(5)
ENCODING_ENTRY_POINTS = {
    "check": (lambda f, x: f.check(x), 2),
    "u_to_gamma": (lambda f, x: u_to_gamma(f, (x, 0, 0, 0)), (2, 2, 2, 2)),
    "gamma_to_u": (lambda f, x: gamma_to_u(f, (x, 0, 0, 0)), (2, 3, 3, 2)),
    "from_u": (lambda f, x: RingElement.from_u(f, (x, 0, 0, 0)).g, (2, 2, 2, 2)),
    "RingElement": (lambda f, x: RingElement(f, (x, 0, 0, 0)).g, (2, 0, 0, 0)),
    "scale": (lambda f, x: FqCode.from_rows(f, 2, [[1, 1]]).scale(iter([1, x])).gen.rows, ((1, 2),)),
    "from_rows": (lambda f, x: Matrix.from_rows(f, [[x]]).rows, ((2,),)),
    "lemma_det_check": (_lemma_det_check, True),  # det [[0 + 2]] = 2 = the empty minor's 1 times b_0
    "check_row": (lambda f, x: f.check_row(iter([1, x])), (1, 2)),
    "Matrix": (lambda f, x: Matrix(f, 2, [(x, 2)]).rows, ((2, 2),)),
    "scalar": (lambda f, x: RingElement.scalar(f, x).g, (2, 2, 2, 2)),
}


@pytest.mark.parametrize("call, value", ENCODING_ENTRY_POINTS.values(), ids=ENCODING_ENTRY_POINTS)
def test_an_int_subclass_is_not_an_encoding(f5, call, value):
    """One definition of an encoding: an int of exactly type int, so an IntEnum member never leaks into a value."""
    assert call(f5, 2) == value
    with pytest.raises(ValueError, match="is not an element"):
        call(f5, Digit.TWO)


def _code_file(place, doc):
    """An entry point that reads x from a GF(5) code file, and the place its reader names before the message."""
    return (lambda f, x: parse_code(json.dumps({"field": {"p": 5}, "n": 2, **doc(x)}))), place


# the library entry points raise the message alone; the code-file forms wrap it after the value's place
REFUSALS = {name: (call, "") for name, (call, _) in ENCODING_ENTRY_POINTS.items()} | {
    "components": _code_file("component 4: ", lambda x: {"components": [[[1, 2]]] * 3 + [[[1, x]]]}),
    "gamma-generators": _code_file(
        "generator row 0 entry 1: ", lambda x: {"generators": [[[1, 0, 0, 0], [0, 0, x, 0]]]}),
    "u-generators": _code_file(
        "generator row 0 entry 1: ", lambda x: {"basis": "u", "generators": [[[1, 0, 0, 0], [0, 0, x, 0]]]}),
}
NOT_ENCODINGS = {
    "True": True, "False": False, "0.0": 0.0, "-1": -1, "q": 5, "2**70": 2**70, "str": "1", "None": None,
    "IntEnum": Digit.TWO,
}


@pytest.mark.parametrize("call, place, x", [
    pytest.param(call, place, x, id=f"{name}-{xid}")
    for name, (call, place) in REFUSALS.items() for xid, x in NOT_ENCODINGS.items()
    if not (place and xid == "IntEnum")  # JSON reads no int subclass
])
def test_one_rule_and_one_message_for_a_field_value(f5, call, place, x):
    """Every entry point refuses a non-encoding with ``GF.check_row``'s one message: a library call
    raises it as ``ValueError``, and the code-file reader as ``ParseError`` after the value's place."""
    with pytest.raises((ValueError, ParseError)) as info:
        call(f5, x)
    assert str(info.value) == f"{place}{x!r} is not an element encoding of GF(5)"
    assert type(info.value) is (ParseError if place else ValueError)


@pytest.mark.parametrize("args, name", [
    ((Digit.FIVE,), "p"), ((5, Digit.ONE), "e"), ((3, 2, [Digit.ONE, 0, Digit.ONE]), "modulus entry"),
], ids=["p", "e", "modulus"])
def test_an_int_subclass_is_not_field_data(args, name):
    """p, e and the modulus entries are ints of exactly type int, so a field never stores an IntEnum member."""
    with pytest.raises(ValueError, match=f"^{name} must be an int, got <Digit"):
        GF(*args)


def test_an_int_subclass_is_not_a_twist(f9):
    assert f9.check_twist(1) == 1
    with pytest.raises(BadLError, match=r"^l must lie in \[0, 1\], got <Digit.ONE: 1>$"):
        f9.check_twist(Digit.ONE)


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
    for f in (f5, f9):
        with pytest.raises(ValueError, match="frobenius iterate must be >= 0"):
            f.frobenius(3, -1)


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


def _monics(p, deg):
    """Every monic polynomial of degree deg over F_p, as an ascending coefficient list."""
    return ([*low, 1] for low in itertools.product(range(p), repeat=deg))


def _has_proper_factor(coeffs, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(coeffs) - 1
    return any(_pmod(coeffs, d, p) == [] for m in range(1, deg // 2 + 1) for d in _monics(p, m))


def _necklace(p, n):
    """(1/n) * sum over d | n of mu(d) * p^(n/d): the count of monic irreducibles of degree n."""
    def mobius(d):
        primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
        return 0 if any(d % (r * r) == 0 for r in primes) else (-1) ** len(primes)
    return sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p, top", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_irreducibility_matches_trial_division(p, top):
    """Every monic polynomial of degree <= top, and the irreducible count per degree."""
    for deg in range(1, top + 1):
        count = 0
        for coeffs in _monics(p, deg):
            irreducible = _is_irreducible(coeffs, p)
            assert irreducible == (not _has_proper_factor(coeffs, p)), coeffs
            count += irreducible
        assert count == _necklace(p, deg)


@st.composite
def _monic_polys(draw):
    """(p, coeffs): a random monic polynomial, or a product of two of degree >= 2, often with no root."""
    p, top = draw(st.sampled_from([(2, 12), (3, 8), (5, 6), (7, 6), (11, 4), (13, 4)]))

    def monic(lo, hi):
        return draw(st.lists(st.integers(0, p - 1), min_size=lo, max_size=hi)) + [1]

    if draw(st.booleans()):
        return p, monic(1, top)
    return p, _pmul(monic(2, top // 2), monic(2, top // 2), p)


@settings(max_examples=300, deadline=None)
@given(_monic_polys())
@example((2, [1, 0, 1, 0, 1]))  # (x^2 + x + 1)^2: reducible, with no root over GF(2)
def test_irreducibility_matches_trial_division_past_the_exhaustive_degrees(case):
    p, coeffs = case
    assert _is_irreducible(coeffs, p) == (not _has_proper_factor(coeffs, p))


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


@pytest.mark.parametrize("n, primes", [
    (2**20 - 1, [3, 5, 11, 31, 41]),
    (3**12 - 1, [2, 5, 7, 13, 73]),
    (1021**2 - 1, [2, 3, 5, 7, 17, 73]),
], ids=["2^20-1", "3^12-1", "1021^2-1"])
def test_prime_divisors_of_the_largest_unit_groups(n, primes):
    assert _prime_divisors(n) == primes


def test_prime_divisors_match_every_prime_divisor():
    for n in range(1, 2000):
        assert _prime_divisors(n) == [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]


def test_gf256_exp_table_is_pinned():
    exp = GF(2, 8)._exp
    assert exp[:10] == [1, 3, 5, 15, 17, 51, 85, 255, 26, 46]
    digest = hashlib.sha256(repr(exp).encode()).hexdigest()
    assert digest == "4f57328f226aac2279b20bd04a69c29c3d81b440a48c3894ec7eedfacdf1cdee"


# fields where x has small order, so <x> has many cosets, each started
# from the one before
@pytest.mark.parametrize("args, head, digest", [
    ((23, 2), [1, 25, 95, 255, 39, 422], "949ba66f0799dbf308232a2319eb496b50add3c952bd7b82da54e9fd1c2263c0"),
    ((5, 4), [1, 6, 36, 216, 549, 16], "0ab51ba1f9178d7da1ae128ca4e5a09abd9174087fe7ab2bec56db28f19301e4"),
    ((83, 2), [1, 93, 1676, 4207, 4919, 2651], "dca51e866bc95cc5f5a4b5c8df0510d0305781a9bf5431eb76520af000414ddc"),
    ((19, 3), [1, 29, 385, 4266, 4125, 1575], "ee41e81950840df39b127f3f5ec07fe3a42bef66ae74c02f647e426ced7737b5"),
], ids=["23^2", "5^4", "83^2", "19^3"])
def test_exp_tables_with_many_cosets_are_pinned(args, head, digest):
    exp = GF(*args)._exp
    assert exp[:6] == head
    assert hashlib.sha256(repr(exp).encode()).hexdigest() == digest


def _x_order(f):
    """(d, m): the order of x and the index of <x> in the unit group."""
    n = f.q - 1
    d = n // math.gcd(f._log[f.p], n)
    return d, n // d


def _textbook_primitive(f):
    """The smallest encoding g with g^((q-1)/r) != 1 for every prime r | q - 1."""
    n, mod = f.q - 1, list(f.modulus)
    primes = _prime_divisors(n)
    return next(g for g in range(f.p, f.q) if all(_ppowmod(_poly(f, g), n // r, mod, f.p) != [1] for r in primes))


@st.composite
def _small_fields(draw):
    """GF(p^e), q <= 625, e >= 2, under the first irreducible modulus at or after a drawn encoding."""
    p, e = draw(st.sampled_from([
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4), (3, 5),
        (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (13, 2), (17, 2), (19, 2), (23, 2),
    ]))
    q = p**e
    start = draw(st.integers(0, q - 1))
    mods = ([(start + i) % q // p**j % p for j in range(e)] + [1] for i in range(q))
    return GF(p, e, next(mod for mod in mods if _is_irreducible(mod, p)))


@settings(max_examples=150, deadline=None)
@given(_small_fields())
@example(GF(2, 4, (1, 1, 1, 1, 1)))
def test_log_tables_match_the_textbook_primitive_under_random_moduli(f):
    """g is the textbook smallest primitive encoding, exp[i] = g^i at spot values, and log and zech invert them."""
    p, n, mod = f.p, f.q - 1, list(f.modulus)
    g = f._exp[1]
    assert g == _textbook_primitive(f)
    assert f._exp[n:] == f._exp[:n]
    assert all(f._log[f._exp[i]] == i for i in range(n))
    for i in range(0, n, max(1, n // 20)):
        assert f._exp[i] == _enc(f, _ppowmod(_poly(f, g), i, mod, p))
    # characteristic 2 adds by XOR and builds no Zech table; odd p stores two periods, like exp
    assert len(f._zech) == (2 * n if p > 2 else 0)
    assert f._zech[n:] == f._zech[:n]
    for k in range(len(f._zech) // 2):
        one_more = [(c + (j == 0)) % p for j, c in enumerate(f.coeffs(f._exp[k]))]
        assert f._zech[k] == f._log[_enc(f, one_more)]


@pytest.mark.parametrize("args, failures", [
    ((3, 5), set()), ((23, 2), {"g^m"}), ((5, 4), {"g^(m/r)"}), ((17, 2), {"g^m", "g^(m/r)"}),
], ids=["x-primitive", "23^2", "5^4", "17^2"])
def test_primitive_search_reaches_each_branch(args, failures):
    """Why each encoding from x up to g is not primitive: g^m does not generate <x>, or some g^(m/r) is in <x>."""
    f = GF(*args)
    n, (d, m), g = f.q - 1, _x_order(f), f._exp[1]
    assert (m == 1) == (g == f.p) == (not failures)
    seen = set()
    for h in range(f.p, g):
        # h^m lies in <x>, and generates it iff its order is d
        if n // math.gcd(f._log[f.pow(h, m)], n) != d:
            seen.add("g^m")
        else:
            assert any(f.pow(h, n // r) == 1 for r in _prime_divisors(m))
            seen.add("g^(m/r)")
    assert seen == failures


@pytest.mark.parametrize("args, cosets, products", [((23, 2), 132, 54), ((83, 2), 1722, 409)], ids=["23^2", "83^2"])
def test_log_tables_make_no_polynomial_product_per_coset(args, cosets, products, monkeypatch):
    """The build's polynomial products are the primitive search's powers below m, not one per coset of <x>."""
    f = GF(*args)
    assert _x_order(f)[1] == cosets
    calls = []
    monkeypatch.setattr(gf_module, "_pmul", lambda a, b, p: calls.append(1) or _pmul(a, b, p))
    assert f._log_tables() == (f._exp, f._log, f._zech)
    assert len(calls) == products < cosets / 2


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


def _dot(f, xs, ys):
    """sum(x_i * y_i) through the Gram kernel: the entry of rows xs and ys at twist 0."""
    return f._gram_rows([xs, ys], 0)[0][1]


def _sub_scaled(f, xs, c, ys, pivot=1):
    """xs - c*ys through the elimination kernel: column 0 of [c*pivot] + xs cleared by the row
    [pivot] + ys, the first step of a forward pass over the two rows, and the only one to write."""
    rows = [[pivot, *ys], [f.mul(c, pivot), *xs]]
    pivots, _ = f._gauss(rows)
    assert pivots[0] == 0 and rows[0] == [pivot, *ys] and rows[1][0] == 0
    return rows[1][1:]


@settings(max_examples=600, deadline=None)
@given(_kernel_rows())
@example((_diff_field((3, 5)), [1, 1, 2], [5, _diff_field((3, 5)).neg(5), 7], 3))
@example((_diff_field((2, 4)), [0, 0, 0], [0, 0, 0], 0))
def test_row_kernels_match_scalar_arithmetic(case):
    f, xs, ys, c = case
    assert _dot(f, xs, ys) == _scalar_dot(f, xs, ys)
    for pivot in (1, f.neg(1), f.q - 1):
        assert _sub_scaled(f, xs, c, ys, pivot) == [f.sub(x, f.mul(c, y)) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("args", KERNEL_FIELDS, ids=str)
def test_row_kernels_reach_every_log_sum(args):
    # c, y and their negatives run over every unit, so log c + log(-1) + log y
    # covers its whole range up to 3(q - 1)
    f = _diff_field(args)
    units = list(f.units())
    for c in units:
        xs = [f.mul(c, y) for y in units]
        assert _sub_scaled(f, xs, c, units) == [0] * len(units)
        assert _sub_scaled(f, [0] * len(units), c, units) == [f.neg(x) for x in xs]
        assert _dot(f, [c] * len(units), units) == _scalar_dot(f, [c] * len(units), units)


def _kernel_elements(f):
    """Field elements rich in 0, 1 and -1."""
    return st.one_of(st.sampled_from([0, 1, f.neg(1)]), st.integers(0, f.q - 1))


@st.composite
def _column_clears(draw):
    """(field, col, pivot_row, rows): a pivot row zero left of col and rows to clear, some zero at
    col, some all zero, some multiples of the pivot row that cancel to 0 entry by entry."""
    f = _diff_field(draw(st.sampled_from(KERNEL_FIELDS)))
    elem = _kernel_elements(f)
    width = draw(st.integers(1, 8))
    col = draw(st.integers(0, width - 1))
    unit = st.one_of(st.just(f.neg(1)), st.integers(1, f.q - 1))
    pivot_row = [0] * col + [draw(unit)] + draw(st.lists(elem, min_size=width - col - 1, max_size=width - col - 1))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(["random", "zero", "zero at col", "multiple", "multiple plus noise"]))
        row = draw(st.lists(elem, min_size=width, max_size=width))
        if shape == "zero":
            row = [0] * width
        elif shape == "zero at col":
            row[col] = 0
        elif shape.startswith("multiple"):
            c = draw(unit)
            noise = row if shape == "multiple plus noise" else [0] * width
            row = [f.add(v, f.mul(c, y)) for v, y in zip(noise, pivot_row)]
            row[col] = f.mul(c, pivot_row[col])
        rows.append(row)
    return f, col, pivot_row, rows


@settings(max_examples=600, deadline=None)
@given(_column_clears())
def test_gauss_row_update_matches_a_scalar_update(case):
    f, col, pivot_row, rows = case
    want = []
    for row in rows:
        factor = f.mul(row[col], f.inv(pivot_row[col]))
        want.append([f.sub(x, f.mul(factor, y)) for x, y in zip(row, pivot_row)])
    # one row at a time: a forward pass over the pivot row and one row below it, from column col
    # on, clears column col and writes nothing else
    got = []
    for row in rows:
        pair = [pivot_row[col:], row[col:]]
        f._gauss(pair)
        assert pair[0] == pivot_row[col:]
        got.append(row[:col] + pair[1])
    assert got == want
    assert all(row[col] == 0 for row in got)


@st.composite
def _gram_cases(draw):
    """(field, rows): up to 4 rows of width up to 6, rich in zeros and -1, some rows all zero."""
    f = _diff_field(draw(st.sampled_from(KERNEL_FIELDS + [(2, 8), (3, 6), (5, 4)])))
    width = draw(st.integers(0, 6))
    elem = _kernel_elements(f)
    rows = draw(st.lists(st.one_of(st.just([0] * width), st.lists(elem, min_size=width, max_size=width)), max_size=4))
    return f, rows


@settings(max_examples=300, deadline=None)
@given(_gram_cases())
@example((_diff_field((3, 2)), [[1, 3], [3, 1]]))  # (1, x) times itself is 1 + x^2 = 0 at m = 0
def test_gram_rows_match_scalar_products(case):
    """Every twist m from 0 to 2e: row i holds sum_j a_ij * a_kj^(p^m) for each k, and when e divides
    2m, entry (k, i) is the (p^m)-power of entry (i, k), above the diagonal and below it."""
    f, rows = case
    for m in range(2 * f.e + 1):
        full = [[_scalar_dot(f, a, [f.frobenius(y, m) for y in b]) for b in rows] for a in rows]
        got = f._gram_rows(rows, m)
        assert got == full
        if not 2 * m % f.e:
            assert [[f.frobenius(x, m) for x in col] for col in zip(*got)] == got


@pytest.mark.parametrize("args", [(2,), (2, 2), (2, 3), (2, 4), (2, 8), (2, 4, (1, 1, 1, 1, 1))], ids=str)
def test_characteristic_two_adds_by_xor(args):
    """Sums in characteristic 2 are the XOR of the encodings, digit by digit mod 2, and read no Zech table."""
    f = _diff_field(args)
    assert f._zech == []
    xs = range(f.q) if f.q <= 16 else range(0, f.q, 7)
    for x in xs:
        for y in range(f.q):
            digits = _enc(f, [(a + b) % 2 for a, b in zip(f.coeffs(x), f.coeffs(y))])
            assert f.add(x, y) == f.sub(x, y) == x ^ y == digits


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
