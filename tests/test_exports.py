"""Package surface: every public name has a user besides its own tests."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chaoscope"


def test_every_export_is_used_in_src_or_named_in_the_readme():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # references only: a def, a class or an import statement is not a use
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    named = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert sorted(exported - used - named) == []
