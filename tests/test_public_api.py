"""The public API is declared once, in ``partctl/__init__.py``, and README's
"Public API" list names exactly the same names."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _init_imports():
    tree = ast.parse((ROOT / "src" / "partctl" / "__init__.py").read_text())
    return {
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _readme_api():
    text = (ROOT / "README.md").read_text()
    assert "\n## Public API\n" in text, "README has no Public API section"
    section = text.split("\n## Public API\n", 1)[1]
    names = set()
    for line in section.splitlines():
        if line.startswith("#"):
            break
        m = re.match(r"- `partctl\.(\w+)`: (.*)$", line)
        if m:
            names |= {(m.group(1), name) for name in re.findall(r"`(\w+)`", m.group(2))}
    return names


def test_readme_lists_every_public_name():
    init, readme = _init_imports(), _readme_api()
    assert init, "no imports found in partctl/__init__.py"
    missing = sorted(init - readme)
    extra = sorted(readme - init)
    assert not missing, f"imported by partctl/__init__.py but not in README: {missing}"
    assert not extra, f"in README's Public API list but not imported: {extra}"
