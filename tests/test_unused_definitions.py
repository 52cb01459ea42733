"""Every top-level function, class and constant of the package, and every
method and property of its top-level classes, is used beyond its own lines
somewhere in src/, scripts/ or bench/. A reference from tests/ does not
count: a name that only its own tests call is dead code. Dunder methods and
dataclass fields (which asdict serialises) are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USING_DIRS = ("src", "scripts", "bench")


def _references(tree: ast.Module):
    """(name, line) of every loaded name and attribute, matched by name alone,
    and the attribute string of every Target(owner, "attr", ...), a name the
    bench rebinds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            yield node.args[1].value, node.lineno


def _definitions(tree: ast.Module):
    """(prefix, node) of every top-level statement, and of every function
    defined in a top-level class, prefixed by the class name."""
    for node in tree.body:
        yield "", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.", item


def unused_definitions(package: Path, root: Path) -> list[str]:
    """`file:line name` of every top-level def, class or assigned name, and
    every method of a top-level class, of the package's modules that no file
    under root's USING_DIRS references outside the definition."""
    files = [p for d in USING_DIRS for p in (root / d).rglob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    refs = [(name, path, line) for path, tree in trees.items() for name, line in _references(tree)]
    unused = []
    for path in sorted(package.glob("*.py")):
        for prefix, node in _definitions(trees[path]):
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            for name in [getattr(t, "id", getattr(t, "name", None)) for t in targets]:
                if name and not name.startswith("__") and not any(
                    n == name and (p != path or not node.lineno <= line <= node.end_lineno)
                    for n, p, line in refs
                ):
                    where = f"{path.relative_to(package.parent)}:{node.lineno}"
                    unused.append(f"{where} {prefix}{name}")
    return unused


def test_no_unused_definitions():
    found = unused_definitions(ROOT / "src" / "d2dcache", ROOT)
    assert not found, "definitions nothing uses:\n" + "\n".join(found)


def test_scan_reports_unused_and_counts_targets(tmp_path):
    for d in ("src/pkg", "scripts", "tests"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "m.py").write_text(
        "LIMIT = 3\ndef rec(n):\n    return rec(n - 1) if n else LIMIT\n"
        "def used(): pass\ndef rebound(): pass\nclass Lone: pass\ndef tested(): pass\n"
        "class Box:\n    size: int = 1\n    def __init__(self): pass\n    @property\n"
        "    def area(self): return self.size\n    def dead(self): return self.dead()\n",
        encoding="utf-8")
    (tmp_path / "scripts" / "user.py").write_text(
        "import m\nm.used()\nTarget(m, 'rebound', 'layer')\nm.Box().area\n", encoding="utf-8")
    (tmp_path / "tests" / "test_m.py").write_text("import m\nm.tested()\n", encoding="utf-8")
    found = unused_definitions(tmp_path / "src" / "pkg", tmp_path)
    assert found == [
        "pkg/m.py:2 rec", "pkg/m.py:6 Lone", "pkg/m.py:7 tested", "pkg/m.py:13 Box.dead"
    ]
