"""Source hygiene: every function, class and method defined in the package is
used somewhere in the package, its tests or its benchmark."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halfstokes"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not _is_dunder(node.name)}


def _references(tree):
    """Names loaded, attributes accessed and identifiers inside string
    literals (the benchmark tracer looks functions up by name); docstrings
    do not count."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            refs.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return refs


def test_no_unreferenced_definitions():
    defined = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _definitions(ast.parse(path.read_text())):
            defined.setdefault(name, path.name)
    refs = set()
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            refs |= _references(ast.parse(path.read_text()))
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in refs)
    assert not unused, f"defined but never referenced: {unused}"
