"""Every function, class, method, property and annotated class field of
the package is used, and every defaulted parameter of its functions is
supplied by some call.

A definition counts as used when its name occurs outside the definition
itself: as a name, an attribute, an imported name, a keyword or an
identifier string (as ``monkeypatch.setattr`` takes it) anywhere in the
package or the tests, or as a word of the README.  Special methods are
called by the interpreter, and a method that overrides one of a base
class from outside the package (``argparse.ArgumentParser.error``) is
called by that base, so both are exempt.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """The identifiers a node names."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name.rpartition(".")[2], node.asname)
    if isinstance(node, ast.keyword):
        return (node.arg,)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,) if node.value.isidentifier() else ()
    return ()


def _outside_bases(node):
    """The base classes of a class definition that resolve by import."""
    bases = []
    for base in node.bases:
        module, _, attr = ast.unparse(base).rpartition(".")
        try:
            bases.append(getattr(importlib.import_module(module or "builtins"), attr))
        except (ImportError, AttributeError):
            pass
    return bases


def _defined_name(node, in_class):
    """The name a node defines: a function or class, or an annotated
    field (``name: type`` or ``name: type = value``) in a class body."""
    if isinstance(node, DEFINITIONS):
        return node.name
    if in_class and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _scan(tree, path, definitions, uses):
    """Record each definition with its place, and each name with the
    definitions it occurs inside."""
    stack = [(tree, (), [], False)]
    while stack:
        node, inside, bases, in_class = stack.pop()
        for name in _names(node):
            uses.setdefault(name, []).append(inside)
        defined = _defined_name(node, in_class)
        if defined is not None:
            if not any(hasattr(base, defined) for base in bases):
                place = f"{defined} ({path.name}:{node.lineno})"
                definitions.append((defined, place, id(node)))
            inside = inside + (id(node),)
        is_class = isinstance(node, ast.ClassDef)
        bases = _outside_bases(node) if is_class else []
        stack.extend(
            (child, inside, bases, is_class) for child in ast.iter_child_nodes(node)
        )


def test_every_definition_is_named_elsewhere():
    sources = sorted((ROOT / "src" / "blockstoch").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    definitions = []
    uses = {}
    # the parsed trees stay alive so that the node ids stay distinct
    trees = []
    for path in sources + tests:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        trees.append(tree)
        _scan(tree, path, definitions if path in sources else [], uses)
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    dead = [
        place
        for name, place, node in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in readme
        and not any(node not in inside for inside in uses.get(name, ()))
    ]
    assert not dead, f"defined but never named elsewhere: {', '.join(dead)}"


def _defaulted(node, in_class):
    """``(name, position)`` of each defaulted parameter of a function:
    its place among the positional arguments a call passes (the bound
    ``self`` or ``cls`` not counted), or None when it is keyword-only."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
    offset = 1 if in_class and not static else 0
    first = len(positional) - len(args.defaults)
    found = [(name, i - offset) for i, name in enumerate(positional) if i >= first]
    found += [
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return found


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_is_supplied_somewhere():
    """A defaulted parameter that no call in the package or the tests
    supplies, by keyword or by position, is an option nobody sets.

    Calls match a function by name, so a call to any function of that
    name counts; a call that unpacks ``*args`` or ``**kwargs`` supplies
    everything.  A class's ``__init__`` is called by the class name.
    """
    sources = sorted((ROOT / "src" / "blockstoch").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    parameters = []
    calls = {}
    for path in sources + tests:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node):
                calls.setdefault(_call_name(node), []).append(node)
        if path not in sources:
            continue
        stack = [(tree, None)]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = owner if child.name == "__init__" and owner else child.name
                    for param, position in _defaulted(child, owner is not None):
                        place = f"{child.name}({param}) ({path.name}:{child.lineno})"
                        parameters.append((name, param, position, place))
                stack.append((child, child.name if isinstance(child, ast.ClassDef) else None))

    def supplies(call, param, position):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return position is not None and len(call.args) > position

    unset = [
        place
        for name, param, position, place in parameters
        if not any(supplies(c, param, position) for c in calls.get(name, ()))
    ]
    assert not unset, f"defaulted but never supplied: {', '.join(unset)}"
