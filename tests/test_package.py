"""Package-wide guards that no single module's tests would notice."""

import ast
import pathlib
import re
import sys

import lcdring

PACKAGE = pathlib.Path(lcdring.__file__).parent


def test_package_imports_only_the_standard_library():
    """Every import in src/lcdring, nested ones included, names a stdlib module or lcdring itself."""
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "lcdring" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_value_protocol_lives_in_one_class():
    """Only value.Value refuses assignment; only Value and GF define equality and hashing."""
    owners = {"__setattr__": {"value.Value"}, "__delattr__": {"value.Value"},
              "__eq__": {"value.Value", "gf.GF"}, "__hash__": {"value.Value", "gf.GF"}}
    classes, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            owner = f"{path.stem}.{cls.name}"
            classes.add(owner)
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{owner}.{name}" for name in names
                          if name in owners and owner not in owners[name]]
    assert found == []
    assert {"value.Value", "gf.GF"} <= classes


def _call_sites(callee):
    """module.py:enclosing def for every call of a function or method named ``callee``."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}  # node -> innermost enclosing def; ast.walk is breadth-first
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    calls.append(f"{path.name}:{owner.get(node, '<module>')}")
    return calls


def test_only_fqcode_builds_gram_matrices():
    """One Gram route: linalg.gram has one call site, in FqCode._gram_facts, the memo every predicate reads."""
    assert _call_sites("gram") == ["fqcode.py:_gram_facts"]


def test_only_from_rows_reduces_into_rref():
    """One route into RREF: rref has one call site, FqCode.from_rows; the kernel in galois_dual goes through it."""
    assert _call_sites("rref") == ["fqcode.py:from_rows"]


# What the fast paths compute, and the shared kernels behind them.
FAST_PATH_ATTRS = {
    "pivots", "galois_dual", "hull_dim", "lcd_status", "is_lcd", "is_self_orthogonal", "is_self_dual",
    "min_dist", "lee_min_dist", "params", "gray_image", "_gram", "_gram_facts", "_grams",
    "_dist", "_dual", "_check_cap", "_row_floor", "dot", "sub_scaled", "frobenius_row",
}


def test_oracle_is_independent_of_the_fast_paths():
    """oracle.py checks the fast paths, so it may not import or read them."""
    path = PACKAGE / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            targets = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr in FAST_PATH_ATTRS:
            found.append(f"oracle.py:{node.lineno}: .{node.attr}")
            continue
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if {"linalg", "construct"} & set(parts) or (
                "fqcode" in parts and parts[-1] not in ("FqCode", "count_text")
            ):
                found.append(f"oracle.py:{node.lineno}: import {target}")
    assert found == []


def test_codefile_checks_only_the_shape():
    """codefile leaves the field bound and the encoding range to GF, Matrix and RingElement."""
    tree = ast.parse((PACKAGE / "codefile.py").read_text(encoding="utf-8"))
    reads_q = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "q"]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert reads_q == []
    assert "MAX_FIELD_ORDER" not in names


def test_every_error_class_is_raised():
    """Each class in errors.py but the root is raised by name in src/lcdring, or is a base of one that is."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    bases = {cls.name: [b.id for b in cls.bases if isinstance(b, ast.Name)]
             for cls in tree.body if isinstance(cls, ast.ClassDef)}
    live = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in bases:
                    live.add(exc.id)
    for name in list(live):  # a raised class keeps its whole chain of bases alive
        while bases.get(name):
            name = bases[name][0]
            live.add(name)
    assert sorted(set(bases) - live - {"LcdringError"}) == []
    assert len(bases) > 10


def test_readme_lists_the_public_api():
    """README's "Public API" bullets name exactly lcdring.__all__, so an export cannot change unannounced."""
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    # each bullet names its exports, over one or more lines, before a colon
    bullets = "\n".join(re.findall(r"^- ([^:]*):", section, re.MULTILINE))
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(lcdring.__all__)
