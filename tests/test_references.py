"""Every function, class and method in ``src/autoplan`` is used.

A name counts as used when it appears in ``src/`` or ``bench/`` anywhere
other than its own definitions: a call, an import, a string that names it
(as the benchmark's trace targets do) or the prose around it.  Dunder
methods are called by Python itself and are exempt.  A definition that
fails here is code no run reaches; delete it, or use it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions() -> dict[str, list[str]]:
    defs: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "autoplan").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return defs


def test_every_definition_is_referenced():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    unused = [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(_definitions().items())
        if not (name.startswith("__") and name.endswith("__"))
        # each definition is one mention of its own name
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) <= len(where)
    ]
    assert not unused, f"defined but never referenced in src/ or bench/: {unused}"
