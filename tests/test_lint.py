"""Static checks on the package sources that need no linter installed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rerankeval"

# module-level names that nothing in the package reads, with the reason each
# is kept
UNREFERENCED_OK = {
    "__init__.__version__": "the package's public version, equal to pyproject.toml's",
    "rerank.rerank_user": "the one-user pipeline that acceptance criterion 5 calls",
}


def unused_imports(source):
    """Names bound by the module's top-level imports that nothing in the
    module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_used_imports():
    source = ("import os\nimport os.path as osp\nfrom x import a, b as c\n"
              "from __future__ import annotations\n"
              "def f():\n    return os.sep, c\n")
    assert unused_imports(source) == [(2, "osp"), (3, "a")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources):
    """module.name of each top-level function, class or assigned name in
    sources ({module: source}) that no code in any of them reads, either as
    a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_checker_sees_unreferenced_definitions():
    sources = {"a": "X = 1\nY: int = 2\ndef f():\n    return g()\nclass C:\n    pass\n",
               "b": "import a\ndef g():\n    return a.X\n"}
    assert unreferenced_definitions(sources) == ["a.C", "a.Y", "a.f"]


def test_every_definition_is_referenced_from_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources) == sorted(UNREFERENCED_OK)
