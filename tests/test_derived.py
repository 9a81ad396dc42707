"""Derived values: built without the constructors' checks, and equal to what the checks would build.

``Matrix._derived`` and ``FqCode._derived`` store a value computed from
valid ones without checking it again.  Each derivation is rebuilt here
through the checked public constructors, ``Matrix(...)`` and
``FqCode(gen)``: the rebuilt value must be equal, and a code must have
the same pivots.  An AST guard names the only call sites of the private
constructors.
"""

import ast
import json
import pathlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import lcdring
from lcdring import GF, FqCode, Matrix, RCode, RingElement, gram, rref
from lcdring.codefile import code_document, parse_code

FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(2, 3), GF(3, 2), GF(7), GF(2, 4)]


def checked_matrix(m: Matrix) -> Matrix:
    rebuilt = Matrix(m.field, m.ncols, m.rows)
    assert rebuilt == m
    assert all(type(row) is tuple for row in m.rows)
    return rebuilt


def checked_code(c: FqCode) -> FqCode:
    rebuilt = FqCode(checked_matrix(c.gen))
    assert rebuilt == c
    assert rebuilt.pivots == c.pivots
    assert type(c.pivots) is tuple
    return rebuilt


def rows(f: GF, n: int):
    """Up to n + 1 rows of width n, so codes of every dimension from 0 to n come up."""
    return st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n), max_size=n + 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_derivation_passes_the_checked_constructors(data):
    f = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 7))
    c = FqCode.from_rows(f, n, data.draw(rows(f, n)))
    checked_code(c)  # from_rows: _reduced's pivots
    reduced, rk, pivots = rref(c.gen)
    assert checked_matrix(reduced) == c.gen and pivots == c.pivots and rk == c.k
    # ascending l: over GF(8) and GF(16) the last twists read their mate's transposed P
    for l in range(f.e):
        checked_code(c.galois_dual(l))
        p = checked_matrix(c._gram_facts(l)[0])
        assert p.nrows == p.ncols == c.k
        checked_matrix(gram(c.gen, f.e - l))
    factors = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    checked_code(c.scale(factors))
    ring = RCode([c, *(FqCode.from_rows(f, n, data.draw(rows(f, n))) for _ in range(3))])
    checked_code(ring.gray_image())


SRC = pathlib.Path(lcdring.__file__).parent
PRIVATE = ("_derived", "_fill")

# (module, enclosing function, callee): the only places a value skips its checks
PRIVATE_CONSTRUCTION_SITES = {
    ("linalg", "Matrix.__init__", "self._fill"),
    ("linalg", "Matrix._derived", "m._fill"),
    ("linalg", "rref", "Matrix._derived"),
    ("linalg", "gram", "Matrix._derived"),
    ("fqcode", "FqCode.__init__", "self._fill"),
    ("fqcode", "FqCode._derived", "c._fill"),
    ("fqcode", "FqCode._span", "Matrix._derived"),
    ("fqcode", "FqCode._span", "FqCode._derived"),
    ("fqcode", "FqCode._gram_facts", "Matrix._derived"),
    ("fqcode", "FqCode.galois_dual", "Matrix._derived"),
    ("fqcode", "FqCode.galois_dual", "FqCode._derived"),
    ("fqcode", "FqCode.scale", "Matrix._derived"),
    ("fqcode", "FqCode.scale", "FqCode._derived"),
    ("rcode", "RCode.gray_image", "Matrix._derived"),
    ("rcode", "RCode.gray_image", "FqCode._derived"),
}


def _private_construction_sites():
    sites = set()

    def visit(node, scope, module):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        children = ast.iter_child_nodes(node)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in PRIVATE:
            sites.add((module, ".".join(scope), ast.unparse(node.func)))
            children = [node.func.value, *node.args, *node.keywords]
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            # a reference that is not a call, such as an alias, would hide a site
            raise AssertionError(f"{module}.py:{node.lineno} names {node.attr} without calling it")
        for child in children:
            visit(child, scope, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path.stem)
    return sites


def test_private_constructors_are_called_only_by_derivations():
    assert _private_construction_sites() == PRIVATE_CONSTRUCTION_SITES


def test_generator_slots_are_checked_once(monkeypatch):
    """Generator rows are checked by their ``RingElement``s only; a components document by its four matrices."""
    f = GF(5)
    rng = random.Random(3)
    rows = [[RingElement(f, [rng.randrange(5) for _ in range(4)]) for _ in range(6)] for _ in range(5)]
    checked = []
    real = Matrix.__post_init__

    def counted(self):
        checked.append(self.nrows)
        real(self)

    monkeypatch.setattr(Matrix, "__post_init__", counted)
    rc = RCode.from_generators(f, 6, rows)
    assert checked == []
    doc = code_document(rc)
    assert parse_code(json.dumps(doc)) == rc
    assert checked == [c.k for c in rc.comps]
    checked.clear()
    del doc["components"]
    doc["generators"] = [[list(x.g) for x in row] for row in rows]
    assert parse_code(json.dumps(doc)) == rc
    assert checked == []
