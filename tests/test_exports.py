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


def test_defaulted_parameters_stay_within_the_roadmap_count():
    # ROADMAP aim 2 tracks this count; a new default raises the bound with
    # its reason in CHANGES.md
    count = 0
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count <= 13


def test_src_lines_stay_within_the_roadmap_count():
    # ROADMAP aim 2 tracks this count too; a change that grows `src/` raises
    # the bound with its reason in CHANGES.md
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in PACKAGE.glob("*.py"))
    assert lines <= 3505


def test_every_module_level_import_is_read():
    unread = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno}: {name}")
    assert unread == []


def test_no_module_reads_a_private_name_of_another():
    # a `_`-prefixed name is its own module's business; other modules go
    # through the public surface
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    reads = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # names bound to sibling modules, e.g. `from . import dsl`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        aliases.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        reads.append(f"{path.name}: from .{node.module} import {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                reads.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert reads == []
