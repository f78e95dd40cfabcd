"""The package imports nothing outside the standard library at runtime.

Every module of ``src/blockstoch`` is parsed with ``ast``; each absolute
import must name a top-level module of the standard library
(``sys.stdlib_module_names``) or the package itself.  Relative imports
stay inside the package.  ``networkx``, ``sympy`` and the other test
dependencies belong in the tests and benches only.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockstoch"


def _imported_modules(path):
    """The top-level module named by each absolute import of a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    outside = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in _imported_modules(path)
        if name not in sys.stdlib_module_names and name != PACKAGE.name
    }
    assert not outside, sorted(outside)
