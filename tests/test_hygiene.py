"""Static checks on the library and test sources that no linter here covers."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "strongmatch"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name listed in ``__all__`` counts as read (it is re-exported).
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


# perfbench/ is left out: it is the benchmark's own code
@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["line 1: path", "line 2: sys"]


def private_definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level private names and private methods defined in ``tree``.

    Dunder names are not private helpers and are left out.
    """
    out: list[ast.AST] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node)
        elif isinstance(node, ast.Assign):
            out.extend(t for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target)
        if isinstance(node, ast.ClassDef):
            out.extend(f for f in node.body if isinstance(f, ast.FunctionDef))
    return [d for d in out if _is_private(_defined_name(d))]


def _defined_name(node: ast.AST) -> str:
    return node.id if isinstance(node, ast.Name) else node.name


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private definitions that no code outside their own body refers to.

    A reference is a loaded name or an attribute read anywhere in
    ``sources`` (file name -> text); uses inside the definition itself,
    such as a recursive call, do not count.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
    orphans = []
    for fname, tree in trees.items():
        for definition in private_definitions(tree):
            name = _defined_name(definition)
            own = {id(n) for n in ast.walk(definition)}
            if all(ref in own for ref in refs.get(name, ())):
                orphans.append(f"{fname}:{definition.lineno}: {name}")
    return sorted(orphans)


def test_no_orphaned_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_checker_flags_an_orphaned_private_name():
    sources = {
        "a.py": (
            "_USED = 1\n_SPARE = 2\n"
            "def _walk(k):\n    return _walk(k - 1) if k else _USED\n"
            "class C:\n    def _kept(self): pass\n    def _dead(self): pass\n"
            "    def __len__(self): return 0\n"
        ),
        "b.py": "from a import C\nC()._kept()\n",
    }
    assert orphaned_private_names(sources) == [
        "a.py:2: _SPARE", "a.py:3: _walk", "a.py:7: _dead",
    ]
