"""Every function, class and method in ``src/autoplan`` is used.

A name counts as used only when code in ``src/`` or ``bench/`` mentions it:
as a name or an attribute, in an import, or as a word of a string constant
that is not a docstring (the benchmark's trace targets are such strings).
Its own definition, docstrings and comments do not count, so a name that
only prose mentions fails.  Dunder methods are called by Python itself and
are exempt.  A definition that fails here is code no run reaches; delete
it, or use it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> dict[str, list[str]]:
    defs: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "autoplan").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, _DEFINITIONS):
                defs.setdefault(node.name, []).append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return defs


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the string constants that are docstrings."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                ids.add(id(first.value))
    return ids


def _mentions(tree: ast.Module) -> set[str]:
    """Every name the code of one module mentions."""
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_definition_is_referenced():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    mentioned = set()
    for path in sources:
        mentioned |= _mentions(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(_definitions().items())
        if not (name.startswith("__") and name.endswith("__")) and name not in mentioned
    ]
    assert not unused, f"defined but never referenced in src/ or bench/: {unused}"
