"""Every module of ``src/partctl`` uses each name it imports, and each name it
defines at top level, and each method and property of its classes, is read
somewhere in ``src/``, ``tests/`` or ``perfbench/``.  The package's
``__init__.py`` is left out: its imports are the public API."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "partctl"


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


def top_level_names(source):
    """(line, name) for each function, class and constant ``source`` defines
    at top level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return out


def member_names(source):
    """(line, "Class.name") for each method and property, dunders left out,
    of the classes ``source`` defines at top level."""
    return [(f.lineno, f"{c.name}.{f.name}")
            for c in ast.parse(source).body if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]


def names_read(source):
    """Every name ``source`` reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unread(source, reads):
    """(line, name) for each top-level name and class member of ``source``
    whose name is not in ``reads``."""
    return [(line, name) for line, name in top_level_names(source) + member_names(source)
            if name.rpartition(".")[2] not in reads]


def test_top_level_names_and_reads():
    source = "X = 1\ny: int = X\ndef f(): return g.h\nclass C: Z = 2\n"
    assert top_level_names(source) == [(1, "X"), (2, "y"), (3, "f"), (4, "C")]
    assert names_read(source) == {"X", "int", "g", "h"}


def test_member_names_skip_dunders():
    source = ("class C:\n    def __init__(self): pass\n"
              "    @property\n    def p(self): pass\n    def f(self): pass\n")
    assert member_names(source) == [(4, "C.p"), (5, "C.f")]


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(names_read(p.read_text())
                         for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")))


def test_an_unread_method_fails_the_check(read_anywhere):
    source = (SRC / "graph.py").read_text().replace(
        "    def degree(self",
        "    def scratch_unread(self):\n        return 0\n\n    def degree(self", 1)
    assert [name for _, name in unread(source, read_anywhere)] == ["Graph.scratch_unread"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_defines_no_unread_name(module, read_anywhere):
    assert unread((SRC / module).read_text(), read_anywhere) == []
