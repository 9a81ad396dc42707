"""The JSON code-file format."""

import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdring import GF, FqCode, RCode, linalg
from lcdring.codefile import (
    MAX_LENGTH,
    code_document,
    dumps,
    field_code_document,
    parse_code,
)
from lcdring.errors import BadModulusError, NotPrimeError, ParseError

from support import random_rcode

F5 = GF(5)

MINIMAL = {
    "field": {"p": 5, "e": 1},
    "n": 2,
    "components": [[[1, 2]], [[1, 2]], [[1, 2]], [[1, 2]]],
}


def test_minimal_components_file():
    rc = parse_code(json.dumps(MINIMAL))
    line = FqCode.from_rows(F5, 2, [[1, 2]])
    assert rc == RCode([line] * 4)


def test_u_basis_generators_match_gamma_scalars():
    # scalar entries are fixed by the basis conversion
    doc_u = {
        "field": {"p": 5, "e": 1},
        "n": 2,
        "basis": "u",
        "generators": [[[1, 0, 0, 0], [2, 0, 0, 0]]],
    }
    doc_g = {
        "field": {"p": 5, "e": 1},
        "n": 2,
        "basis": "gamma",
        "generators": [[[1, 1, 1, 1], [2, 2, 2, 2]]],
    }
    assert parse_code(json.dumps(doc_u)) == parse_code(json.dumps(doc_g))


def test_both_representations_rejected():
    doc = dict(MINIMAL)
    doc["generators"] = [[[1, 1, 1, 1], [2, 2, 2, 2]]]
    with pytest.raises(ParseError):
        parse_code(json.dumps(doc))


def test_neither_representation_rejected():
    doc = {"field": {"p": 5, "e": 1}, "n": 2}
    with pytest.raises(ParseError):
        parse_code(json.dumps(doc))


def test_field_errors_surface():
    doc = dict(MINIMAL)
    doc["field"] = {"p": 4, "e": 1}
    with pytest.raises(NotPrimeError):
        parse_code(json.dumps(doc))
    doc["field"] = {"p": 3, "e": 2, "modulus": [0, 0, 1]}
    with pytest.raises(BadModulusError):
        parse_code(json.dumps(doc))


@pytest.mark.parametrize(
    "change",
    [
        {"field": {"p": True}},
        {"field": {"p": 5, "e": True}},
        {"field": {"p": 2, "e": 1, "modulus": [True, True]}},
        {"field": {"p": 5, "modulus": [0.0, 1]}},
        {"n": True},
        {"components": [[[1, True]], [[1, 2]], [[1, 2]], [[1, 2]]]},
        {"components": None, "generators": [[[1, 0, 0, 0], [False, 0, 0, 0]]]},
        {"field": {"p": 5, "modulus": 5}},
    ],
)
def test_booleans_and_non_integers_rejected(change):
    doc = {k: v for k, v in {**MINIMAL, **change}.items() if v is not None}
    with pytest.raises(ParseError):
        parse_code(json.dumps(doc))


@pytest.mark.parametrize(
    "field",
    [
        {"p": 2**61 - 1},
        {"p": 1048583},  # the first prime above 2^20
        {"p": 2, "e": 21},
        {"p": 3, "e": 10**18},
        {"p": 1, "e": 10**18},
        {"p": 5, "e": 0},
    ],
)
def test_field_order_bounded_before_construction(field):
    """GF bounds q before its primality test; p < 2 is refused as no prime before that."""
    doc = dict(MINIMAL, field=field)
    with pytest.raises(NotPrimeError if field["p"] < 2 else ParseError):
        parse_code(json.dumps(doc))


@pytest.mark.parametrize("field", [{"p": 1048573}, {"p": 2, "e": 20}])
def test_largest_fields_accepted(field):
    doc = dict(MINIMAL, field=field)
    rc = parse_code(json.dumps(doc))
    assert rc.field.q <= 2**20 and rc.field.q > 2**19


def test_dimension_problems_rejected():
    doc = dict(MINIMAL)
    doc["components"] = [[[1, 2, 3]], [[1, 2]], [[1, 2]], [[1, 2]]]
    with pytest.raises(ParseError):
        parse_code(json.dumps(doc))
    doc = dict(MINIMAL)
    doc["components"] = [[[1, 2]], [[1, 2]], [[1, 2]]]
    with pytest.raises(ParseError):
        parse_code(json.dumps(doc))


def test_out_of_range_encoding_rejected():
    doc = dict(MINIMAL)
    doc["components"] = [[[1, 7]], [[1, 2]], [[1, 2]], [[1, 2]]]
    with pytest.raises(ParseError):
        parse_code(json.dumps(doc))


def test_not_json():
    with pytest.raises(ParseError):
        parse_code("not json at all {")


def test_number_past_the_int_str_limit_is_not_json():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter reads ints of any length")
    text = json.dumps(dict(MINIMAL, n=0)).replace('"n": 0', '"n": ' + "9" * (limit + 1))
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_code(text)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"field": {"p": 2, "e": 21}}, "bad 'field': field order 2^21 exceeds 1048576"),
        ({"components": [[[1, 2]], [[1, 2]], [[1, 2]], [[1, 7]]]},
         "component 4: entry 7 is not an element of GF(5)"),
        ({"components": None, "generators": [[[1, 0, 0, 0], [0, 0, 5, 0]]]},
         "generator row 0 entry 1: coordinate 5 is not an element of GF(5)"),
        ({"components": None, "basis": "u", "generators": [[[1, 0, 0, 0], [0, 0, 5, 0]]]},
         "generator row 0 entry 1: 5 is not an element encoding of GF(5)"),
    ],
    ids=["field", "component", "gamma-generator", "u-generator"],
)
def test_constructor_refusals_name_their_place(change, message):
    """The constructors check the values; the reader says where the value sits."""
    doc = {k: v for k, v in {**MINIMAL, **change}.items() if v is not None}
    with pytest.raises(ParseError) as info:
        parse_code(json.dumps(doc))
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "basis, message", [("u", "only meaningful in the gamma basis"), ("lambda", "unknown basis 'lambda'")],
    ids=["u", "lambda"],
)
def test_components_need_the_gamma_basis(basis, message):
    with pytest.raises(ParseError, match=message):
        parse_code(json.dumps(dict(MINIMAL, basis=basis)))


def test_length_bounded_before_any_matrix():
    doc = {"field": {"p": 5}, "components": [[], [], [], []]}
    rc = parse_code(json.dumps(dict(doc, n=MAX_LENGTH)))
    assert rc.n == MAX_LENGTH and rc.k == 0
    for n in (MAX_LENGTH + 1, 10**18):
        with pytest.raises(ParseError, match="'n' must be at most"):
            parse_code(json.dumps(dict(doc, n=n)))


def test_rows_bounded_before_any_matrix(monkeypatch):
    built = []
    real = FqCode.from_rows.__func__
    monkeypatch.setattr(FqCode, "from_rows", classmethod(lambda cls, *a: built.append(a) or real(cls, *a)))
    row = [[1]]
    at_cap = {"field": {"p": 5}, "n": 1, "components": [row, row, row, row * MAX_LENGTH]}
    assert parse_code(json.dumps(at_cap)).k == 4
    over = dict(at_cap, components=[row, row, row, row * (MAX_LENGTH + 1)])
    built.clear()
    with pytest.raises(ParseError, match=f"component 4 has {MAX_LENGTH + 1} rows, more than {MAX_LENGTH}"):
        parse_code(json.dumps(over))
    assert built == []
    gens = {"field": {"p": 5}, "n": 1, "generators": [[[1, 0, 0, 0]]] * (4 * MAX_LENGTH)}
    assert parse_code(json.dumps(gens)).k == 1
    gens["generators"].append([[0, 0, 0, 1]])
    with pytest.raises(ParseError, match=f"'generators' has {4 * MAX_LENGTH + 1} rows"):
        parse_code(json.dumps(gens))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"components": [[[1, 2, 3]] * 3] * 3 + [[[1, 2, 7]]]},
         "component 4: entry 7 is not an element of GF(5)"),
        ({"generators": [[[1, 0, 0, 0]] * 3] * 3 + [[[1, 0, 0, 0]] * 2 + [[0, 0, 0, 7]]]},
         "generator row 3 entry 2: coordinate 7 is not an element of GF(5)"),
    ],
    ids=["component", "generator"],
)
def test_values_refused_before_any_elimination(monkeypatch, doc, message):
    """A bad value in the last component or generator row costs no reduction of the earlier ones."""
    eliminations = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: eliminations.append(a) or real(*a))
    doc = {"field": {"p": 5}, "n": 3, **doc}
    with pytest.raises(ParseError) as info:
        parse_code(json.dumps(doc))
    assert str(info.value) == message
    assert eliminations == []
    good = json.dumps(doc).replace("7", "4")
    assert parse_code(good).k > 0 and eliminations  # the patch sees every reduction


def generator_document(rc, basis):
    """A generators document for ``rc``: one ring row per component row, entries in ``basis``."""
    doc = {k: v for k, v in code_document(rc).items() if k != "components"}
    doc["basis"] = basis
    doc["generators"] = [[list(x.to_u() if basis == "u" else x.g) for x in row]
                         for row in rc.generator_rows()]
    return doc


def test_full_code_writes_4n_generator_rows():
    """A full code written as generators has 4n rows, so at n = MAX_LENGTH it meets the cap."""
    for n in (1, 3):
        full = RCode([FqCode.zero(F5, n).galois_dual(0)] * 4)
        doc = generator_document(full, "gamma")
        assert len(doc["generators"]) == 4 * n
        assert parse_code(dumps(doc)) == full


@pytest.mark.parametrize(
    "basis, representation", [("gamma", "components"), ("gamma", "generators"), ("u", "generators")]
)
def test_roundtrip(basis, representation):
    rng = random.Random(61)
    f9 = GF(3, 2, [1, 0, 1])
    for _ in range(10):
        rc = random_rcode(rng, f9, rng.randint(1, 4), 2)
        doc = code_document(rc) if representation == "components" else generator_document(rc, basis)
        assert parse_code(dumps(doc)) == rc


def test_field_code_document_shape():
    rep = FqCode.from_rows(F5, 3, [[1, 1, 1]])
    rc = RCode([rep] * 4)
    doc = field_code_document(rc.gray_image())
    assert doc["kind"] == "field"
    assert doc["n"] == 12
    assert len(doc["rows"]) == 4
    with pytest.raises(ParseError):
        parse_code(json.dumps(doc))


# json.dumps(doc, indent=2) is the reference the writer must match byte for byte
ODD_TEXT = st.text(alphabet='"\\/\x00\x01\x1f\x7f\u00e9\u2028\U0001f600ab')
TEXT = st.text() | ODD_TEXT
INTS = st.integers() | st.integers(-(10**400), 10**400)
LEAVES = (
    st.none() | st.booleans() | INTS | st.floats() | TEXT
    | st.lists(INTS) | st.lists(INTS | st.booleans())
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TEXT, VALUES, max_size=5))
def test_dumps_matches_json_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1,)])
def test_dumps_refuses_keys_other_than_str(key):
    with pytest.raises(TypeError):
        dumps({"ok": [1], "nested": {key: 0}})


GOLDEN_JSON = sorted((pathlib.Path(__file__).parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_JSON, ids=lambda p: p.name)
def test_dumps_rewrites_every_golden_document(path):
    text = path.read_text(encoding="utf-8")
    assert dumps(json.loads(text)) == text
