"""Package-wide guards that no single module's tests would notice."""

import ast
import pathlib
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
