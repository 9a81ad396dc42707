"""Package-wide guards that no single module's tests would notice."""

import ast
import pathlib
import re
import sys

import lcdring
from lcdring import ring
from lcdring.errors import CapExceededError

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


def test_sources_parse_at_the_declared_python_floor():
    """Every module parses as the oldest Python that pyproject.toml's requires-python admits.

    This checks syntax only: a standard-library name added after the floor still passes.
    """
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE).groups()))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_value_protocol_lives_in_one_class():
    """Only value.Value defines equality, hashing and the refusal to assign or delete, and every
    class that declares fields in a non-empty ``__slots__`` is a Value, so no second protocol can
    come back."""
    protocol = {"__eq__", "__hash__", "__setattr__", "__delattr__"}
    classes, found, slotted = set(), [], set()
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
                    if "__slots__" in names and ast.literal_eval(node.value):
                        slotted.add(owner)
                        if not any(isinstance(b, ast.Name) and b.id == "Value" for b in cls.bases):
                            found.append(f"{owner}: __slots__ outside Value")
                else:
                    continue
                found += [f"{owner}.{name}" for name in names if name in protocol and owner != "value.Value"]
    assert found == []
    assert "value.Value" in classes
    assert slotted == {"gf.GF", "linalg.Matrix", "ring.RingElement", "fqcode.FqCode", "rcode.RCode"}


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
    """One Gram route: the package builds every Gram matrix in FqCode._build_gram, for the memo every
    predicate reads, straight from the Gram kernel; linalg.gram serves the public API alone."""
    assert _call_sites("gram") == []
    assert _call_sites("_gram_rows") == ["fqcode.py:_build_gram", "linalg.py:gram"]


def test_one_route_into_reduced_form():
    """One route into RREF: linalg._reduced, reached by a span of rows (FqCode._span, which serves
    from_rows, the kernel in galois_dual and RCode.from_generators) and by the public rref, which
    the package itself never calls."""
    assert _call_sites("_reduced") == ["fqcode.py:_span", "linalg.py:rref"]
    assert _call_sites("_span") == ["fqcode.py:from_rows", "fqcode.py:galois_dual", "rcode.py:from_generators"]
    assert _call_sites("rref") == []


def test_row_kernels_have_one_caller_each():
    """Every elimination calls the elimination kernel directly, with no pass-through between: a
    code's P, the minor search and its determinant check, the reduction route and the public rank,
    det and minor_det.  The Gram kernel has one caller per Gram matrix, a code's P and the public
    gram, views are built inside those two kernels, and no module reads a kernel other than by
    calling it."""
    sites = {kernel: _call_sites(kernel) for kernel in ("_gauss", "_gram_rows")}
    assert sites == {
        "_gauss": [
            "construct.py:minor_search", "construct.py:lemma_det_check", "fqcode.py:_gram_facts",
            "linalg.py:_reduced", "linalg.py:det", "linalg.py:minor_det", "linalg.py:rank",
        ],
        "_gram_rows": ["fqcode.py:_build_gram", "linalg.py:gram"],
    }
    assert not {"_clear_column", "_view"} & set(vars(lcdring.GF))
    reads = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads += sum(isinstance(node, ast.Attribute) and node.attr in sites for node in ast.walk(tree))
    assert reads == sum(map(len, sites.values()))


def test_one_route_to_each_twisted_gram_matrix():
    """Every P comes from the Gram kernel, never from its mate's, so ``frobenius_row`` serves only the
    Hermitian mirror inside the kernel and the Frobenius image of a dual; and the twist's power and
    exponent come from ``GF._gram_power``, so construct reads no twist off a code."""
    assert _call_sites("frobenius_row") == ["fqcode.py:galois_dual", "gf.py:_gram_rows"]
    tree = ast.parse((PACKAGE / "construct.py").read_text(encoding="utf-8"))
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert "_twist" not in names and "_gram_power" in names
    assert not hasattr(lcdring.FqCode, "_twist")


def test_one_reduced_form_scan():
    """linalg.rref_scan is the one test of reduced row echelon form: defined once, in linalg, and
    read only by _reduced, which takes rows that pass as they are, and by FqCode(gen), which refuses
    a generator that fails."""
    defs = [path.name for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "rref_scan"]
    assert defs == ["linalg.py"]
    assert _call_sites("rref_scan") == ["fqcode.py:__init__", "linalg.py:_reduced"]


def test_oracle_walks_one_way():
    """oracle.py has one walk over a span, _walk, called from _fq_words and _blocks alone, and no
    subtraction: a step adds x^t * row j, so no carry scalar is ever formed."""
    path = PACKAGE / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    generators = sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                        and any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn)))
    assert generators == ["_blocks", "_walk"]
    assert _call_sites("_walk") == ["oracle.py:_blocks", "oracle.py:_fq_words"]
    subs = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "sub") or (isinstance(node, ast.Name) and node.id == "sub")]
    assert subs == []


def test_one_distance_rule():
    """One route to a distance: ``fqcode.least_distance`` checks the cap, reads the row floor and
    orders the walks for ``FqCode.min_dist`` and ``RCode.lee_min_dist`` alike.  So rcode.py reads no
    distance internal of a component, and the cap test ``q**k > cap`` is written once, in fqcode.py."""
    rcode = ast.parse((PACKAGE / "rcode.py").read_text(encoding="utf-8"))
    attrs = {node.attr for node in ast.walk(rcode) if isinstance(node, ast.Attribute)}
    assert not {"_dist", "_check_cap", "_row_floor", "_lane_walk"} & attrs
    caps = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        caps += [path.name for node in ast.walk(tree) if isinstance(node, ast.Compare)
                 and ast.unparse(node) == "q ** k > cap"]
    assert caps == ["fqcode.py"]
    assert _call_sites("least_distance") == ["fqcode.py:min_dist", "rcode.py:lee_min_dist"]


# What the fast paths compute, and the shared kernels behind them.
FAST_PATH_ATTRS = {
    "pivots", "galois_dual", "hull_dim", "lcd_status", "is_lcd", "is_self_orthogonal", "is_self_dual",
    "min_dist", "lee_min_dist", "params", "gray_image", "_gram_facts", "_gram", "_build_gram", "_grams",
    "_gram_power", "_dist", "_dual", "_free_columns", "_lane_walk", "_gauss", "_gram_rows", "frobenius_row",
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
                "fqcode" in parts and parts[-1] not in ("FqCode", "count_text", "DEFAULT_ENUM_CAP")
            ):
                found.append(f"oracle.py:{node.lineno}: import {target}")
    assert found == []


def test_oracle_reads_ring_words_as_slot_words():
    """oracle.py imports nothing from ring, keeps no second stream of expansions, and is the only
    module that enumerates codewords."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    ring = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            targets = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        ring += [f"oracle.py:{node.lineno}: import {t}" for t in targets if "ring" in t.split(".")]
    assert ring == []
    assert _call_sites("expansions") == []
    sites = _call_sites("codewords")
    assert sites and all(site.startswith("oracle.py:") for site in sites)


def test_oracle_combines_slot_results():
    """oracle.py imports no ``product``, so no call walks the tuples of slot words that make ring
    words, and it tells a field code from a ring code in ``_slots`` alone."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    owner = {}  # node -> innermost enclosing def; ast.walk is breadth-first
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    names = {alias.name.split(".")[-1] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "product" not in names
    sites = [owner.get(node, "<module>") for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
             and any(isinstance(n, ast.Name) and n.id == "FqCode" for n in ast.walk(node.args[1]))]
    assert sites == ["_slots"]


def test_oracle_budgets_one_slot_code():
    """oracle.py raises ``CapExceededError`` in ``_check_budget`` alone, and ``is_expansion`` asks
    ``codewords`` only for slot codes, names bound from ``code.comps``: no image word is drawn."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    owner = {}  # node -> innermost enclosing def; ast.walk is breadth-first
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    raises = [owner.get(node, "<module>") for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and any(isinstance(n, ast.Name) and n.id == "CapExceededError" for n in ast.walk(node))]
    assert raises == ["_check_budget"]
    expansion = next(fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "is_expansion")
    slots = {n.id for node in ast.walk(expansion) if isinstance(node, (ast.For, ast.comprehension))
             and ast.unparse(node.iter) == "code.comps" for n in ast.walk(node.target) if isinstance(n, ast.Name)}
    drawn = [node.args[0] for node in ast.walk(expansion)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "codewords"]
    assert drawn and all(isinstance(arg, ast.Name) and arg.id in slots for arg in drawn)


def test_codefile_checks_only_the_shape():
    """codefile leaves the field bound and the encoding range to GF, Matrix and RingElement."""
    tree = ast.parse((PACKAGE / "codefile.py").read_text(encoding="utf-8"))
    reads_q = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "q"]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert reads_q == []
    assert "MAX_FIELD_ORDER" not in names


def test_one_rule_for_a_field_value():
    """``GF.check_row`` is the one place that tests a field value against q, and every entry point that
    takes field values calls it: a matrix once per row, a scaling, a perturbation and ``ring._coords``,
    the one check of a ring element's coordinates, which a ring element and the two basis conversions
    share; ``GF.check`` is its one-entry case."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}  # node -> innermost enclosing def; ast.walk is breadth-first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        sites += [f"{path.name}:{owner.get(node, '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and node.ops and isinstance(node.ops[-1], ast.Lt)
                  and ast.unparse(node.comparators[-1]).split(".")[-1] == "q"]
    assert sites == ["gf.py:check_row"]
    assert _call_sites("check_row") == [
        "construct.py:lemma_det_check", "fqcode.py:scale", "gf.py:check", "linalg.py:__post_init__", "ring.py:_coords",
    ]
    assert _call_sites("_coords") == ["ring.py:u_to_gamma", "ring.py:gamma_to_u", "ring.py:__init__"]


def test_one_slot_count():
    """R's split into slots is described once, by ``ring.POINTS``: the int 4 is written in ring.py alone,
    so every other module reads the slot count as ``ring.SLOTS`` (oracle.py, which imports nothing
    from ring, off the code it checks)."""
    fours = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        fours += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if path.name != "ring.py"
                  and isinstance(node, ast.Constant) and type(node.value) is int and node.value == 4]
    assert fours == []
    assert ring.SLOTS == len(ring.POINTS) == 4


def test_matrix_rows_are_read_directly():
    """No module reads a flat ``entries`` or calls a ``col`` accessor: columns come from one
    ``zip(*rows)`` transpose, where a call per column would walk every row once per column."""
    entries = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        entries += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert entries == []
    assert _call_sites("col") == []


# Functions and methods that nothing in src/lcdring reaches, each with the reason it stays.
KEPT = {
    "error": "argparse's hook, overridden in cli so a usage error exits 1",
    "format_help": "argparse's hook, overridden in cli to print the command table's help",
    "one": "ring arithmetic, documented in README's Public API",
    "scalar": "ring arithmetic, documented in README's Public API",
    "idempotent": "ring arithmetic, documented in README's Public API",
    "inverse": "ring arithmetic, documented in README's Public API",
    "is_zero": "ring arithmetic, documented in README's Public API",
    "elements": "a public view of GF that tests use as a reference",
    "check": "GF.check_row of one entry, a public check of one field value",
    "generator_rows": "a public view of RCode that tests use as a reference",
    "row": "perfbench's tracer reads Matrix.row (ROADMAP item 1)",
    "gen": "a public view of FqCode that README documents and perfbench's tracer reads",
    "min_distance": "a single oracle call the tests and perfbench compare against; verify reads it through survey",
    "is_expansion": "a single oracle call the tests compare against; verify reads it through survey",
}


def test_every_function_is_reached():
    """Every function and method of src/lcdring, dunders aside, is referenced there or kept in ``KEPT``.

    A method is referenced as an attribute or as a string that is an
    identifier (a ``getattr``, an ``attrgetter``); a function also by its
    bare name, and an ``__all__`` entry is such a string.  Like
    ``_call_sites`` this matches by name alone, so a dead method that
    shares its name with a live one (``FqCode.zero`` with
    ``Matrix.zero``) is not caught.
    """
    methods, functions, names, attrs = {}, {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_class = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs = methods if id(node) in in_class else functions
                    defs.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                attrs.add(node.value)
    unreached = {name: where for name, where in methods.items() if name not in attrs}
    unreached |= {name: where for name, where in functions.items() if name not in attrs | names}
    assert sorted(f"{where}: {name}" for name, where in unreached.items() if name not in KEPT) == []
    # a kept name that became reachable, or was deleted, leaves KEPT too
    assert sorted(set(KEPT) - set(unreached)) == []
    # the oracle's one pass per slot code and the helpers it shares with the single calls
    shared = {"survey", "_least", "_weight", "_hull", "_expansion", "_orthogonal_count"}
    assert shared <= set(functions) - set(unreached)


def test_budgets_are_caught_only_where_documented():
    """A handler that can catch CapExceededError sits only in cli.main, which exits 2, and in
    RCode.params, whose distances degrade to None past the cap, so no budget becomes a silent skip.

    A handler counts when it is bare or names the class or one of its bases.
    """
    catching = {cls.__name__ for cls in CapExceededError.__mro__}
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler):
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                names = {getattr(t, "id", getattr(t, "attr", None)) for t in types}
                if child.type is None or names & catching:
                    found.add(owner)
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    assert sorted(found) == ["cli.main", "rcode.RCode.params"]


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


def test_readme_quick_start_runs():
    """README's "Library quick start" block runs, and each bare expression gives the value its comment names."""
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    claims = 0
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            claim = lines[node.end_lineno - 1].partition("#")[2].split(":")[0].strip()
            assert repr(value) == claim, ast.unparse(node)
            claims += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert claims == 3
