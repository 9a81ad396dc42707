"""Value semantics of the package's value types and certificate records.

Matrix, RingElement, FqCode and RCode are immutable ``__slots__`` classes
that compare and hash by their fields.  The certificates and RCodeParams
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


def matrix():
    return Matrix.from_rows(F5, [[1, 2], [3, 4]])


def element():
    return RingElement(F5, (1, 2, 3, 4))


def fqcode():
    return FqCode.from_rows(F5, 2, [[1, 2]])


def rcode():
    return RCode.from_components([fqcode(), FqCode.zero(F5, 2), fqcode(), FqCode.zero(F5, 2).galois_dual(0)])


def minor():
    return MinorCertificate(0, (1,), 3)


def field_cert():
    return FieldScalingCertificate(0, None, (0, 1), minor(), (1, 2), 4)


def ring_cert():
    return RingScalingCertificate(0, None, (None, field_cert(), None, None))


def params():
    return RCodeParams(2, 4, 1, ((2, 1, 2), (2, 0, None), (2, 1, 2), (2, 2, 1)))


FIELDS = {
    matrix: ("field", "nrows", "ncols", "entries"),
    element: ("field", "g"),
    fqcode: ("field", "n", "gen", "_dist"),
    rcode: ("field", "n", "comps"),
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


def test_cached_min_dist_is_invisible():
    cached = fqcode()
    assert cached.min_dist() == 2
    fresh = fqcode()
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)


def test_matrix_repr():
    assert repr(matrix()) == "Matrix(field=GF(5), nrows=2, ncols=2, entries=(1, 2, 3, 4))"


def test_lists_become_tuples():
    assert RingElement(F5, [1, 2, 3, 4]).g == (1, 2, 3, 4)
    comps = [fqcode()] * 4
    code = RCode(F5, 2, comps)
    assert isinstance(code.comps, tuple) and code.comps == tuple(comps)


def test_every_public_name_resolves():
    for name in lcdring.__all__:
        assert getattr(lcdring, name) is not None
