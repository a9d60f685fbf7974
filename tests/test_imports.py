"""Every module of ``src/partctl`` uses each name it imports.  The package's
``__init__.py`` is left out: its imports are the public API."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "partctl"


def unused_imports(source):
    """(line, name) for each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_an_unread_name():
    source = "import json, sys\nfrom .graph import bits as b, mask_of\nprint(sys.argv, b)\n"
    assert unused_imports(source) == [(1, "json"), (2, "mask_of")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
