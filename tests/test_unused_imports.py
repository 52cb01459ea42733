"""Every name a module imports is referenced somewhere in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.Module):
    """(line, bound name) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _referenced(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _referenced(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """`file:line name` of every imported name the module never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced(tree)
    rel = path.relative_to(root)
    return [f"{rel}:{line} {name}" for line, name in _imported(tree) if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
    assert files
    found = [entry for path in files for entry in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_reports_file_line_and_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "def f(x: 'tau') -> None:\n"
        "    return os.sep, pi\n",
        encoding="utf-8",
    )
    assert unused_imports(module, tmp_path) == ["m.py:2 system"]
