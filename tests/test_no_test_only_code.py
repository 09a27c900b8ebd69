"""Every function, method and class in ``src/`` has a caller outside the tests.

A definition that only tests reach is code the program never runs: it
grows, drifts and is never checked by a real run.  This walks ``src/``
with :mod:`ast` and fails on any definition whose name appears nowhere
in the non-test code except at its own definition and in package
``__init__`` re-exports.

A name counts as used when it appears as a Name, an Attribute, an
import, or a token of a string without whitespace (which covers entry
points such as ``"Class.method"`` or ``"pkg.mod:func"``).  Names are
compared bare, so a use of any ``x.close`` keeps every ``close`` method.
Dunder methods are called by the language, not by name, so they are
never reported.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: The code that is not a test: the package plus every front-end.
NON_TEST_DIRS = ("src", "scripts", "examples", "perfbench", "benchmarks")
#: Definitions that may stay test-only, with the reason.  Keep it empty.
ALLOWLIST: Dict[str, str] = {}

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(directory: Path) -> Iterator[Path]:
    for path in sorted(directory.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


def _definitions(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _is_reexport(node: ast.AST) -> bool:
    """An ``__init__`` import or ``__all__`` entry: exposure, not use."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
    return False


def _uses(tree: ast.AST, package_init: bool) -> Iterator[str]:
    skipped: Set[int] = set()
    if package_init:
        for node in ast.walk(tree):
            if _is_reexport(node):
                skipped.update(id(child) for child in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value and not any(ch.isspace() for ch in node.value):
                yield from _TOKEN.findall(node.value)


def find_test_only() -> List[str]:
    """``path:line name`` of each ``src/`` definition only tests reach."""
    used: Counter = Counter()
    for directory in NON_TEST_DIRS:
        for path in _python_files(ROOT / directory):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            used.update(_uses(tree, package_init=path.name == "__init__.py"))
    found = []
    for path in _python_files(SRC):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, line in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] == 0 and name not in ALLOWLIST:
                found.append(f"{path.relative_to(ROOT)}:{line} {name}")
    return found


def test_every_src_definition_has_a_non_test_caller() -> None:
    found = find_test_only()
    assert not found, "defined in src/ but reached only by tests:\n" + "\n".join(found)
