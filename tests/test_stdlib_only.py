"""The package imports nothing outside the standard library at runtime.

Every module of ``src/blockstoch`` is parsed with ``ast``; each absolute
import must name a top-level module of the standard library
(``sys.stdlib_module_names``) or the package itself.  Relative imports
stay inside the package.  ``networkx``, ``sympy`` and the other test
dependencies belong in the tests and benches only.  Nor does the package
start threads or processes: every computation runs in the caller's.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockstoch"
CONCURRENCY = ("concurrent.futures", "multiprocessing", "subprocess", "threading")


def _imported_modules(path):
    """The dotted name of each absolute import of a file; ``from a import b``
    names ``a`` and ``a.b``, since ``b`` may be a submodule."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    outside = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in _imported_modules(path)
        if name.partition(".")[0] not in {*sys.stdlib_module_names, PACKAGE.name}
    }
    assert not outside, sorted(outside)


def test_no_threads_or_processes():
    started = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _imported_modules(path)
        if any(name == m or name.startswith(m + ".") for m in CONCURRENCY)
    }
    assert not started, sorted(started)
