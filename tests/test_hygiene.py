"""Static checks on the library and test sources that no linter here covers."""

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Callable, Optional

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "strongmatch"
PERFBENCH = TESTS.parent / "perfbench"
# the sources the per-file checks cover; perfbench/ is left out, as it is
# the benchmark's own code
CHECKED = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


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
    used.update(exported_names(tree))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def redefined_names(source: str) -> list[str]:
    """Functions and classes bound a second time in the same module or class
    body, by line of the later binding; the earlier one is dead code."""
    found: list[tuple[int, str]] = []
    scopes: list[tuple[str, ast.AST]] = [("", ast.parse(source))]
    for prefix, scope in scopes:
        seen = set()
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    found.append((node.lineno, prefix + node.name))
                seen.add(node.name)
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}{node.name}.", node))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_redefined_names(path):
    assert redefined_names(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_redefined_name():
    source = (
        "def f(): pass\nclass C:\n    def m(self): pass\n    def m(self): pass\n"
        "    class D:\n        def g(self): pass\n        def g(self): pass\n"
        "def g(): pass\nclass C: pass\nasync def f(): pass\n"
    )
    assert redefined_names(source) == [
        "line 4: C.m", "line 7: C.D.g", "line 9: C", "line 10: f",
    ]


def exported_names(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_checker_flags_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["line 1: path", "line 2: sys"]


def definitions(tree: ast.Module) -> list[tuple[Optional[str], ast.AST]]:
    """Module-level definitions and class methods in ``tree``, each with the
    name of its class (None at module level)."""
    out: list[tuple[Optional[str], ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((None, node))
        elif isinstance(node, ast.Assign):
            out.extend((None, t) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((None, node.target))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (node.name, f) for f in node.body if isinstance(f, ast.FunctionDef)
            )
    return out


def _defined_name(node: ast.AST) -> str:
    return node.id if isinstance(node, ast.Name) else node.name


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_definitions(
    sources: dict[str, str],
    wanted: Callable[[Optional[str], str], bool],
    readers: dict[str, str],
) -> list[str]:
    """Definitions in ``sources`` picked by ``wanted(class name, name)`` that
    no code outside their own body refers to.

    A reference is an attribute read anywhere in ``sources`` or ``readers``
    (file name -> text; ``readers`` are only searched for references) or,
    for a module-level definition, also a loaded name; uses inside the
    definition itself, such as a recursive call, do not count.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loads: dict[str, list[int]] = {}
    attrs: dict[str, list[int]] = {}
    for tree in [*trees.values(), *map(ast.parse, readers.values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(id(node))
    unread = []
    for fname, tree in trees.items():
        for owner, definition in definitions(tree):
            name = _defined_name(definition)
            if not wanted(owner, name):
                continue
            refs = attrs.get(name, [])
            if owner is None:
                refs = refs + loads.get(name, [])
            own = {id(n) for n in ast.walk(definition)}
            if all(ref in own for ref in refs):
                unread.append(f"{fname}:{definition.lineno}: {name}")
    return sorted(unread)


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private definitions, dunder names aside, that no code outside their
    own body refers to."""
    return unread_definitions(sources, lambda owner, name: _is_private(name), {})


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


def public_names(init_source: str) -> Callable[[Optional[str], str], bool]:
    """unread_definitions' ``wanted`` for the names in ``__all__`` of
    ``init_source`` and the public methods of the class Graph."""
    exported = exported_names(ast.parse(init_source))

    def wanted(owner: Optional[str], name: str) -> bool:
        if owner is None:
            return name in exported
        return owner == "Graph" and not name.startswith("_")

    return wanted


def test_public_names_have_a_reader():
    """Every ``__all__`` name and every public Graph method is read in src/
    outside its own definition, or in perfbench/ (the benchmark, which this
    test only reads)."""
    # a copy without perfbench/ would otherwise report the names only it
    # reads as unread
    assert PERFBENCH.is_dir(), f"{PERFBENCH} is missing"
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    readers = {
        p.name: p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py")
    }
    wanted = public_names(sources["__init__.py"])
    assert unread_definitions(sources, wanted, readers) == []


def test_checker_flags_an_unread_public_name():
    sources = {
        "a.py": (
            "def kept(): pass\ndef spare(k):\n    return spare(k - 1)\n"
            "class Graph:\n    def used(self): pass\n    def idle(self): pass\n"
            "class Other:\n    def spare(self): pass\n"
        ),
        "__init__.py": "from a import kept, spare\n__all__ = ['kept', 'spare']\n",
    }
    readers = {"bench.py": "from a import kept\nkept().used()\nidle = 1\nprint(idle)\n"}
    wanted = public_names(sources["__init__.py"])
    assert unread_definitions(sources, wanted, readers) == [
        "a.py:2: spare", "a.py:6: idle",
    ]


# the only names certify.py, the trusted base of every size check, may
# import from the package, by module
CERTIFY_IMPORTS = {"graph": {"Edge", "Graph", "GraphError", "girth", "normalize_edge"}}


def package_imports_beyond(source: str, allowed: dict[str, set[str]]) -> list[str]:
    """Imports in ``source``, a module of the package, of package names
    outside ``allowed`` (module -> names), by line, as ``module.name``; a
    module imported whole is its name alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name.removeprefix("strongmatch."))
                for alias in node.names
                if alias.name.split(".")[0] == "strongmatch"
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "strongmatch":
                    continue
                module = module.removeprefix("strongmatch").lstrip(".")
            for alias in node.names:
                if alias.name not in allowed.get(module, ()):
                    name = f"{module}.{alias.name}" if module else alias.name
                    found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_certify_imports_only_the_graph_core():
    source = (SRC / "certify.py").read_text(encoding="utf-8")
    assert package_imports_beyond(source, CERTIFY_IMPORTS) == []


def test_checker_flags_a_package_import_beyond_the_allowed():
    source = (
        "from __future__ import annotations\nimport os\n"
        "from .graph import Graph, girth\nfrom .graph import _k33plus_at\n"
        "from .reduction import _Engine\nfrom . import cli\n"
        "import strongmatch.oracle\nfrom strongmatch.graph import Edge, _ring\n"
    )
    assert package_imports_beyond(source, CERTIFY_IMPORTS) == [
        "line 4: graph._k33plus_at", "line 5: reduction._Engine", "line 6: cli",
        "line 7: oracle", "line 8: graph._ring",
    ]


def _notes(source: str):
    """(line, text) of every docstring and comment in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


def _bound_names(source: str) -> set[str]:
    """def and class names, parameters, and every name or attribute that
    a statement assigns."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return out


def stale_private_names(
    sources: dict[str, str], docs: Optional[dict[str, str]] = None
) -> list[str]:
    """Private names, dunder names aside, that a docstring or comment in
    ``sources`` (file name -> text), or a line of ``docs`` (file name ->
    text, each line a note), writes but no source defines.

    A name written after a module of ``sources`` and a dot (the module's
    file name without ``.py``) must be defined in that module; any other,
    bare or after another qualifier, anywhere in ``sources``.
    """
    bound = {Path(name).stem: _bound_names(text) for name, text in sources.items()}
    everywhere = set().union(*bound.values())
    notes = [(f, line, note) for f, text in sources.items() for line, note in _notes(text)]
    notes += [
        (f, line, note)
        for f, text in (docs or {}).items()
        for line, note in enumerate(text.splitlines(), 1)
    ]
    stale = []
    for fname, line, note in notes:
        for dotted in re.findall(r"\w+(?:\.\w+)*", note):
            parts = dotted.split(".")
            for i, part in enumerate(parts):
                if not re.fullmatch(r"_[A-Za-z]\w*", part):
                    continue
                owner = parts[i - 1] if i else None
                if part not in bound.get(owner, everywhere):
                    stale.append(f"{fname}:{line}: {dotted}")
    return stale


def test_no_stale_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in CHECKED}
    readme = TESTS.parent / "README.md"
    docs = {readme.name: readme.read_text(encoding="utf-8")}
    assert stale_private_names(sources, docs) == []


def test_checker_flags_a_stale_private_name():
    sources = {
        "a.py": (
            '"""Uses _helper, b._kept, b._gone and __init__."""\n'
            "def _helper(_arg):\n"
            '    """Reads _arg, self._slot and _missing."""\n'
            "    return 1  # _helper and b._helper; self._spare\n"
        ),
        "b.py": "_kept = 1\nclass C:\n    def __init__(self):\n        self._slot = 0\n",
    }
    docs = {"README.md": "Uses `b._kept` and `_helper`.\n\n`b._gone`, then _nowhere\n"}
    assert stale_private_names(sources, docs) == [
        "a.py:1: b._gone", "a.py:3: _missing", "a.py:4: b._helper",
        "a.py:4: self._spare", "README.md:3: b._gone", "README.md:3: _nowhere",
    ]


def graph_bypasses(sources: dict[str, str]) -> list[str]:
    """Calls in ``sources`` (file name -> text) of ``Graph.__new__``, by
    file and line: an instance made that way skips the checks of
    ``Graph.__init__``, which every Graph must pass."""
    found = []
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr == "__new__":
                owner = func.value
                if isinstance(owner, ast.Attribute):
                    name = owner.attr
                else:
                    name = getattr(owner, "id", None)
                if name == "Graph":
                    found.append(f"{fname}:{node.lineno}")
    return sorted(found)


def test_no_graph_bypass():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert graph_bypasses(sources) == []


def test_checker_flags_a_graph_bypass():
    sources = {
        "a.py": (
            "g = Graph.__new__(Graph)\nh = Graph(2, [(0, 1)])\n"
            "k = graph.Graph.__new__(graph.Graph)\nobject.__new__(Other)\n"
        ),
        "b.py": "class Graph:\n    def __new__(cls): pass\nGraph.__new__(Graph)\n",
    }
    assert graph_bypasses(sources) == ["a.py:1", "a.py:3", "b.py:3"]


def unasserted_parse_errors(source: str, tests: dict[str, str]) -> list[str]:
    """``raise GraphParseError(...)`` statements in ``source`` whose message
    begins with constant text that no string literal in ``tests`` (file
    name -> text) contains, by line and that text."""
    literals = [
        node.value
        for text in tests.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    found = []
    for node in ast.walk(ast.parse(source)):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if not (
            isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name)
            and exc.func.id == "GraphParseError"
        ):
            continue
        head = exc.args[0]
        if isinstance(head, ast.JoinedStr):
            head = head.values[0]
        lead = head.value if isinstance(head, ast.Constant) else ""
        if not lead or not any(lead in s for s in literals):
            found.append((node.lineno, lead))
    return [f"line {line}: {lead!r}" for line, lead in sorted(found)]


def test_parse_errors_are_asserted():
    """Every parse error message of graph.py is pinned by some test."""
    tests = {
        p.name: p.read_text(encoding="utf-8")
        for p in TESTS.glob("*.py")
        if p.name != Path(__file__).name
    }
    source = (SRC / "graph.py").read_text(encoding="utf-8")
    assert unasserted_parse_errors(source, tests) == []


def test_checker_flags_an_unasserted_parse_error():
    source = (
        "def parse(x):\n"
        "    if x == 1:\n        raise GraphParseError('no header', 1)\n"
        "    if x == 2:\n        raise GraphParseError(f'bad count {x!r}', 2)\n"
        "    if x == 3:\n        raise GraphParseError(f'{x} leads')\n"
        "    raise GraphParseError(f'bad id {x}') from None\n"
        "raise ValueError('no header either')\n"
    )
    tests = {"t.py": "assert str(err) == f'line 4: bad count {7}'\nno_header = 1\n"}
    assert unasserted_parse_errors(source, tests) == [
        "line 3: 'no header'", "line 7: ''", "line 8: 'bad id '",
    ]
