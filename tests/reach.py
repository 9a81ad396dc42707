"""List the statements of ``src/lcdring`` that the tier-1 suite never runs.

    python3 tests/reach.py

Runs pytest on ``tests/`` in this process under a ``sys.settrace`` line
tracer that watches only the files of ``src/lcdring``.  Python processes
that a test starts with the inherited environment are traced too: a
``sitecustomize`` module put first on ``PYTHONPATH`` starts the same
tracer in each of them and writes its lines to a temporary directory at
exit (``python -I`` ignores ``PYTHONPATH``, so isolated children are not
traced).

A statement is one the compiler gave bytecode to, on a line of its own
(not one of its nested statements); an ``except`` clause counts as one.
It is reached when any of those lines runs.  Prints ``file:line: source``
for each statement that never runs and exits 1 if there is any, else 0.

pytest's exit status is reported on its own line and does not change
this tool's.  ``tests/traffic.py`` runs the benchmark's jobs under the
same tracer and statement table.

Standard library only; pytest and hypothesis are the suite's own needs.
"""

from __future__ import annotations

import ast
import atexit
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "lcdring"


def start(out_dir: str | None = None) -> set[tuple[str, int]]:
    """Trace every line run in ``PACKAGE`` from now on; returns the live set of (file, line).

    With ``out_dir``, the set is written there at interpreter exit, one
    ``file:line`` a line, in a file named after the process id.  A code
    object stops being traced once each of its lines has run.
    """
    root = str(PACKAGE) + os.sep
    hit: set[tuple[str, int]] = set()
    left: dict[CodeType, set[int]] = {}

    def lines(frame, event, arg):
        if event == "line":
            code = frame.f_code
            hit.add((code.co_filename, frame.f_lineno))
            left[code].discard(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        todo = left.get(code)
        if todo is None:
            todo = left[code] = {line for _, _, line in code.co_lines() if line is not None}
        return lines if todo else None

    if out_dir is not None:
        def dump() -> None:
            sys.settrace(None)
            with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w") as fh:
                fh.writelines(f"{name}:{line}\n" for name, line in hit)

        atexit.register(dump)
    threading.settrace(calls)
    sys.settrace(calls)
    return hit


def _code_lines(code: CodeType) -> set[int]:
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            out |= _code_lines(const)
    return out


def _statements(path: Path) -> list[tuple[int, set[int], str]]:
    """(first line, own executable lines, enclosing definition) of each statement in the file that has any.

    The enclosing definition is the dotted name of the innermost class or
    function whose body holds the statement, or ``<module>``.
    """
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    out = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                own = set(range(first, child.end_lineno + 1))
                for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                    for grandchild in getattr(child, field, ()):
                        own -= set(range(grandchild.lineno, grandchild.end_lineno + 1))
                own &= executable
                if own:
                    out.append((first, own, owner))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
            else:
                visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(out, key=lambda s: s[0])


def unreached(hit: set[tuple[str, int]]) -> list[tuple[str, int, str, str]]:
    """(file relative to the repo, first line, enclosing definition, source line) of each
    statement of ``PACKAGE`` none of whose lines is in ``hit``, in file and line order."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        src = path.read_text().splitlines()
        for first, own, owner in _statements(path):
            if not any((str(path), line) in hit for line in own):
                missed.append((str(path.relative_to(REPO)), first, owner, src[first - 1].strip()))
    return missed


def main() -> int:
    import pytest  # here, so the children that load this file for start() do not import it

    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('reach', {str(Path(__file__).resolve())!r})\n"
            "reach = importlib.util.module_from_spec(spec)\n"
            f"spec.loader.exec_module(reach)\nreach.start({tmp!r})\n"
        )
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))
        hit = start()
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(REPO / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for dump in Path(tmp).glob("*.txt"):
            for entry in dump.read_text().splitlines():
                name, line = entry.rsplit(":", 1)
                hit.add((name, int(line)))
    missed = unreached(hit)
    for name, first, _, source in missed:
        print(f"{name}:{first}: {source}")
    print(f"pytest exit status {int(status)}; {len(missed)} statement(s) never run", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
