"""Every imported name is used: each ``.py`` under src/, tests/ and
perfbench/ is parsed with ``ast``, and a name that an import binds but the
module never reads fails the test with its file and line.  ``from
__future__`` imports are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree):
    """(line, name) of each name bound by an import and never read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, alias.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    where = path.relative_to(ROOT)
    assert not unused, "; ".join("%s:%d imports %s, never used" % (where, ln, n) for ln, n in unused)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, sys as s\nfrom a import b\nprint(b)\n")
    assert unused_imports(tree) == [(2, "os"), (2, "s")]
