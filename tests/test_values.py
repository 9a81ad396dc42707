"""Value semantics of the package's value types and certificate records.

GF, Matrix, RingElement, FqCode and RCode are immutable ``__slots__``
classes that compare and hash by their fields.  The certificates and RCodeParams
are NamedTuples, so they also unpack and compare equal to plain tuples.
"""

from types import SimpleNamespace

import pytest

import lcdring
from lcdring import (
    GF,
    FieldScalingCertificate,
    FqCode,
    Matrix,
    MinorCertificate,
    RCode,
    RCodeParams,
    RingElement,
    RingScalingCertificate,
)

F5 = GF(5)


def field():
    return GF(3, 2)


def matrix():
    return Matrix.from_rows(F5, [[1, 2], [3, 4]])


def element():
    return RingElement(F5, (1, 2, 3, 4))


def fqcode():
    return FqCode.from_rows(F5, 2, [[1, 2]])


def rcode():
    return RCode([fqcode(), FqCode.zero(F5, 2), fqcode(), FqCode.zero(F5, 2).galois_dual(0)])


def minor():
    return MinorCertificate(0, (1,), 3)


def field_cert():
    return FieldScalingCertificate(0, None, (0, 1), minor(), (1, 2), 4)


def ring_cert():
    return RingScalingCertificate(0, None, (None, field_cert(), None, None))


def params():
    return RCodeParams(2, 4, 1, ((2, 1, 2), (2, 0, None), (2, 1, 2), (2, 2, 1)))


FIELDS = {
    field: ("p", "e", "q", "modulus"),
    matrix: ("field", "ncols", "rows"),
    element: ("field", "g"),
    fqcode: ("gen", "_dist"),
    rcode: ("comps",),
    minor: ("t", "r_set", "det"),
    field_cert: ("l", "beta", "perm", "minor", "alpha", "gram_det"),
    ring_cert: ("l", "beta", "components"),
    params: ("n", "k", "d_lee", "components"),
}
RECORDS = (minor, field_cert, ring_cert, params)


@pytest.mark.parametrize("make", FIELDS, ids=lambda f: f.__name__)
def test_value_semantics(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for other in FIELDS:
        if other is not make:
            assert a != other()
    names = FIELDS[make]
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b
    if make in RECORDS:
        assert a == tuple(b) and tuple(a) == b
        assert list(a) == [getattr(b, name) for name in names]
    else:
        with pytest.raises(AttributeError):
            delattr(a, names[0])
        lookalike = SimpleNamespace(**{name: getattr(a, name) for name in names})
        assert a.__eq__(lookalike) is NotImplemented
        assert a != lookalike


def test_a_field_is_equal_by_p_e_and_modulus():
    """A field is the value (p, e, modulus), hashed as that tuple; the default modulus is named
    or left out alike, and q and the tables take no part."""
    default, named, other = GF(3, 2), GF(3, 2, [1, 0, 1]), GF(3, 2, [2, 2, 1])
    assert default == named and hash(default) == hash(named) == hash((3, 2, (1, 0, 1)))
    assert default != other and other.q == default.q
    assert GF(5) != 5 and GF(5).__eq__(5) is NotImplemented
    assert len({default, named, other}) == 2


def test_a_field_is_frozen():
    f = GF(3, 2)
    with pytest.raises(AttributeError, match="^cannot assign to field 'p'$"):
        f.p = 5
    with pytest.raises(AttributeError, match="^cannot delete field 'q'$"):
        del f.q
    assert (f.p, f.q, f.mul(3, 3)) == (3, 9, 2)


def test_cached_min_dist_is_invisible():
    cached = fqcode()
    assert cached.min_dist() == 2
    fresh = fqcode()
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)


def test_matrix_repr():
    assert repr(matrix()) == "Matrix(field=GF(5), ncols=2, rows=((1, 2), (3, 4)))"


def test_lists_become_tuples():
    assert RingElement(F5, [1, 2, 3, 4]).g == (1, 2, 3, 4)
    comps = [fqcode()] * 4
    code = RCode(comps)
    assert isinstance(code.comps, tuple) and code.comps == tuple(comps)


def test_every_public_name_resolves():
    for name in lcdring.__all__:
        assert getattr(lcdring, name) is not None
