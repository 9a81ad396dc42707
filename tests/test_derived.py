"""Derived values: equal to what the checked constructors would build.

``FqCode._derived`` stores a code computed from valid ones without the
constructor's scan; ``Matrix(...)``, which checks every entry, is the
one way to build a matrix.  Each derivation is rebuilt here through the
checked public constructors, ``Matrix(...)`` and ``FqCode(gen)``: the
rebuilt value must be equal, and a code must have the same pivots.  AST
guards name the only call sites of the private constructors, among them
the only place a value is made without its class's ``__init__``, and the
only places a code module builds a ``Matrix``.
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
    assert type(c.rows) is tuple and all(type(row) is tuple for row in c.rows)
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
        p = c._gram(l)
        assert type(p) is tuple and all(type(row) is tuple for row in p)
        assert Matrix(f, c.k, p).rows == p and len(p) == c.k
        checked_matrix(gram(c.gen, f.e - l))
    factors = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    checked_code(c.scale(factors))
    ring = RCode([c, *(FqCode.from_rows(f, n, data.draw(rows(f, n))) for _ in range(3))])
    checked_code(ring.gray_image())


SRC = pathlib.Path(lcdring.__file__).parent
# __new__ makes a value without its class's __init__, so it counts as a private constructor
PRIVATE = ("_derived", "_fill", "__new__")

# (module, enclosing function, callee): the only places a value skips its checks; only
# FqCode._derived makes a value without __init__, so every Matrix is checked
PRIVATE_CONSTRUCTION_SITES = {
    ("fqcode", "FqCode.__init__", "self._fill"),
    ("fqcode", "FqCode._derived", "object.__new__"),
    ("fqcode", "FqCode._derived", "c._fill"),
    ("fqcode", "FqCode._span", "FqCode._derived"),
    ("fqcode", "FqCode.galois_dual", "FqCode._derived"),
    ("fqcode", "FqCode.scale", "FqCode._derived"),
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


# (module, enclosing function, callee): a code is its rows, so the modules
# that make and read codes build a Matrix only to check outside rows
# (from_rows, zero, parse_code), for the public gen view, and for the one
# P a scaled component hands to minor_search and lemma_det_check
MATRIX_BOUNDARY = {
    ("fqcode", "FqCode.from_rows", "Matrix.from_rows"),
    ("fqcode", "FqCode.zero", "Matrix.zero"),
    ("fqcode", "FqCode.gen", "Matrix"),
    ("codefile", "parse_code", "Matrix.from_rows"),
    ("construct", "galois_lcd_scaling", "Matrix"),
}


def _matrix_builds(module):
    """(module, enclosing function, callee) for each call of Matrix or one of its class methods.

    ``Matrix`` may otherwise appear only in annotations, in its import and
    as the class an ``isinstance`` tests, so no alias can hide a build.
    """
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    allowed, sites = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            for ann in [node.returns, *(a.annotation for a in args)]:
                allowed.update(map(id, ast.walk(ann)) if ann is not None else ())
        elif isinstance(node, ast.AnnAssign):
            allowed.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            allowed.update(map(id, ast.walk(node.args[1])))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            target = func.value if isinstance(func, ast.Attribute) else func
            if isinstance(target, ast.Name) and target.id == "Matrix":
                sites.add((module, ".".join(scope), ast.unparse(func)))
                allowed.add(id(target))
        if isinstance(node, ast.Name) and node.id == "Matrix" and id(node) not in allowed:
            raise AssertionError(f"{module}.py:{node.lineno} names Matrix outside a build, an annotation or isinstance")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sites


def test_code_modules_build_a_matrix_only_at_the_boundary():
    modules = ("fqcode", "rcode", "oracle", "codefile", "construct")
    assert set().union(*map(_matrix_builds, modules)) == MATRIX_BOUNDARY


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
