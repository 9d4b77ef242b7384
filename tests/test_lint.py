"""Static checks on the package sources that need no linter installed."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rerankeval"

# module-level names that nothing in the package reads, with the reason each
# is kept
UNREFERENCED_OK = {
    "__init__.__version__": "the package's public version, equal to pyproject.toml's",
    "ingest.split_leave_n_out": "the split of a table its caller keeps; the tests check "
                                "split_file's split, which shares its code, through it",
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
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


def loads_that_may_unpickle(source):
    """Line of each np.load or numpy.load call in source that does not pass
    allow_pickle=False as a literal keyword."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "load" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in ("np", "numpy")
                  and not any(k.arg == "allow_pickle" and isinstance(k.value, ast.Constant)
                              and k.value.value is False for k in node.keywords))


def test_checker_sees_np_load_that_may_unpickle():
    source = ("np.load(p)\nnp.load(p, allow_pickle=False)\nnp.load(p, allow_pickle=flag)\n"
              "numpy.load(p, allow_pickle=True)\nnp.load(p, allow_pickle=0)\n"
              "np.load(p, **options)\njson.load(f)\n")
    assert loads_that_may_unpickle(source) == [1, 3, 4, 5, 6]


def test_np_load_never_unpickles():
    # a run directory may come from elsewhere; loading it must not run its code
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in loads_that_may_unpickle(path.read_text(encoding="utf-8"))]
    assert found == []


def _is_literal(node, kind):
    return isinstance(node, ast.Constant) and type(node.value) is kind


def _call_name(call):
    """The name a call calls: f for f(...) and for x.f(...)."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _open_mode(call):
    """The mode argument of an open call, the builtin open(file, mode) or a
    method such as p.open(mode), as an AST node; "r" when it has none."""
    at = 1 if isinstance(call.func, ast.Name) else 0
    return next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))


def text_reads_without_bom_skip(source):
    """Line of each text read in source that does not pass
    encoding="utf-8-sig" as a literal keyword. A text read is a read_text
    call; an open call (the builtin, or a method such as Path.open) unless
    its mode is a literal binary or write-only one; or a read call given a
    positional argument other than an int literal, as ConfigParser.read is
    given file names where a file object's read takes a size."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, name = node.func, _call_name(node)
        if name == "open":
            mode = _open_mode(node)
            reads = not (_is_literal(mode, str) and
                         ("b" in mode.value or not {"r", "+"} & set(mode.value)))
        elif name == "read_text":
            reads = True
        elif name == "read" and isinstance(func, ast.Attribute):
            reads = any(not _is_literal(arg, int) for arg in node.args)
        else:
            reads = False
        if reads and not any(k.arg == "encoding" and _is_literal(k.value, str)
                             and k.value.value == "utf-8-sig" for k in node.keywords):
            found.append(node.lineno)
    return sorted(found)


def test_checker_sees_text_reads_without_bom_skip():
    source = ('Path(p).read_text()\nPath(p).read_text(encoding="utf-8")\n'
              'Path(p).read_text(encoding="utf-8-sig")\nopen(p)\n'
              'open(p, "w", encoding="utf-8")\nopen(p, "rb")\n'
              'p.open(newline="", encoding="utf-8-sig")\np.open("r", encoding="utf-8")\n'
              'p.open(mode)\nparser.read(path)\nparser.read(path, encoding="utf-8-sig")\n'
              'fh.read()\nresp.read(1024)\nopen(p, encoding=enc)\n'
              'p.open("a", encoding="utf-8")\np.open(mode="r+", encoding="utf-8")\n'
              'Path(p).read_bytes()\nos.fdopen(fd, "wb")\n')
    assert text_reads_without_bom_skip(source) == [1, 2, 4, 8, 9, 10, 14, 16]


def test_text_reads_skip_a_byte_order_mark():
    # editors on some systems start a UTF-8 file with a byte order mark;
    # every input file is read the same way, with it skipped
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in text_reads_without_bom_skip(path.read_text(encoding="utf-8"))]
    assert found == []


# the array lookups of ids, with user_codes, which Interactions.user_code
# replaced; one id goes through a dict instead of a str array and a binary search
ARRAY_LOOKUPS = {"user_codes", "item_codes", "_codes"}


def one_id_array_lookups(source):
    """Line of each call in source to one of ARRAY_LOOKUPS, as a function or
    a method, that passes a one-element list or tuple literal."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and _call_name(node) in ARRAY_LOOKUPS
                  and any(isinstance(arg, (ast.List, ast.Tuple)) and len(arg.elts) == 1
                          for arg in node.args))


def test_checker_sees_one_id_array_lookups():
    source = ("t.user_codes([u])[0]\nt.item_codes([i])\n_codes(table, [i])\n"
              "t.item_codes(ids)\nt.item_codes([a, b])\n_codes(table, (i,))\n"
              "t.user_code(u)\nf([i])\nt.item_codes(list(ids))\n")
    assert one_id_array_lookups(source) == [1, 2, 3, 6]


def test_one_id_lookups_go_through_dicts():
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in one_id_array_lookups(path.read_text(encoding="utf-8"))]
    assert found == []


# calls that write a file by name, besides open with a writing mode
WRITE_CALLS = {"write_text", "write_bytes", "mkstemp"}


def writes_outside_commit(source):
    """Line of each call in source, outside a function named commit, that
    writes a file: one of WRITE_CALLS, or an open call (the builtin, or a
    method such as Path.open) whose mode is not a literal without w, a, x
    or +."""
    tree = ast.parse(source)
    in_commit = {id(node) for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) and f.name == "commit"
                 for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in in_commit:
            continue
        name = _call_name(node)
        if name == "open":
            mode = _open_mode(node)
            writes = not (_is_literal(mode, str) and not set("wax+") & set(mode.value))
        else:
            writes = name in WRITE_CALLS
        if writes:
            found.append(node.lineno)
    return sorted(found)


def test_checker_sees_writes_outside_commit():
    source = ('Path(p).write_text(s)\np.write_bytes(b)\ntempfile.mkstemp(dir=d)\n'
              'open(p, "w")\np.open("a", encoding="utf-8")\nopen(p, mode="xb")\n'
              'open(p, "r+b")\nopen(p, mode)\nopen(p)\nopen(p, "rb")\n'
              'p.open(newline="", encoding="utf-8-sig")\np.read_text()\n'
              'def commit(*paths):\n    open(tmp, "xb")\n    p.write_text(s)\n'
              'def commit_all():\n    open(p, "wb")\n')
    assert writes_outside_commit(source) == [1, 2, 3, 4, 5, 6, 7, 8, 17]


def test_files_are_written_only_through_commit():
    # ingest.commit commits each command's files together or leaves them as
    # they were; a file written any other way could be left half-written
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in writes_outside_commit(path.read_text(encoding="utf-8"))]
    assert found == []


def _imported_modules(node):
    """The modules an import statement, or an import_module or __import__
    call given the name as a literal, may load: a from-import loads its
    module and may load, for each name, the submodule of that name."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ([node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
                if node.level == 0 else [])
    if isinstance(node, ast.Call) and _call_name(node) in ("import_module", "__import__"):
        return [arg.value for arg in node.args[:1] if _is_literal(arg, str)]
    return []


def imports_of(source, packages, module_level=False):
    """Line of each import in source of one of packages or of a module under
    one, at any depth; with module_level, only those that run when the module
    is imported, outside any function."""
    found = []

    def visit(node):
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                              ast.Lambda)):
            return
        if any(name == p or name.startswith(p + ".")
               for name in _imported_modules(node) for p in packages):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_checker_sees_scipy_imports():
    source = ("import scipy\nimport scipy.sparse as sp\nfrom scipy import special\n"
              "from scipy.sparse._sparsetools import csr_matmat\nimport numpy, scipy.stats\n"
              "def f():\n    import scipy.special\n"
              "importlib.import_module('scipy.sparse')\n__import__('scipy')\n"
              "import scipyx\nfrom . import scipy\nfrom .scipy import x\n"
              "importlib.util.find_spec('scipy')\nimport numpy as scipy\n")
    assert imports_of(source, ["scipy"]) == [1, 2, 3, 4, 5, 7, 8, 9]


def test_no_scipy_import_under_src():
    # importing scipy, or any of its modules, adds about 13 MB to every
    # command's peak RSS; the kNN build loads only the compiled kernels it
    # runs, from their file (_kernels.sparsetools)
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in imports_of(path.read_text(encoding="utf-8"), ["scipy"])]
    assert found == []


# http.client brings ssl, socket and email: about 2 MB of RSS
HTTP_STACK = ["http", "ssl", "email", "socket", "urllib.request"]


def test_checker_sees_module_level_http_stack_imports():
    source = ("import http.client\nimport json, ssl\nfrom email import utils\n"
              "import socketserver\nfrom urllib.request import urlopen\n"
              "from urllib import request\nfrom urllib import parse\n"
              "from urllib.parse import urlsplit\nclass C:\n    import socket\n"
              "def f():\n    import http.client\n    from email import utils\n"
              "async def g():\n    import ssl\n"
              "if True:\n    import email.utils\n"
              "try:\n    import socket\nexcept ImportError:\n    pass\n"
              "importlib.import_module('http.client')\nimport httpx, emails\n"
              "h = lambda: __import__('ssl')\nfrom . import http\n")
    assert imports_of(source, HTTP_STACK, module_level=True) == [
        1, 2, 3, 5, 6, 10, 17, 19, 22]


def test_no_module_level_http_stack_import_under_src():
    # only an HTTP backend uses it, so HttpBackend imports it when built;
    # a module-level import would load it into every command
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in imports_of(path.read_text(encoding="utf-8"), HTTP_STACK,
                                    module_level=True)]
    assert found == []


# constants that cut work into pieces: a test sets each to other values, so
# that every seam between pieces is crossed, not only those the defaults make
PIECE_SIZES = {"_csvscan._BLOCK_ROWS", "_csvscan._SCAN_BYTES", "_kernels.SGD_CHUNK_STEPS",
               "candgen.KNN_BLOCK_ROWS", "candgen.KNN_PAIR_BYTES", "candgen.KNN_PICK_WINDOW"}
# integer constants of the same modules that fix a format, not a piece size
FORMAT_CONSTANTS = {"_csvscan._KEY_BYTES", "_csvscan._EXACT_RATING_WIDTH",
                    "candgen.SLATE_SIZE"}


def _is_int_expression(node):
    """An int literal, or unary and binary operators on int literals alone."""
    if isinstance(node, ast.UnaryOp):
        return _is_int_expression(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_int_expression(node.left) and _is_int_expression(node.right)
    return _is_literal(node, int)


def int_constants(source):
    """Each top-level all-caps name in source, a leading underscore allowed,
    assigned an integer expression."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and _is_int_expression(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name)
                      and t.id.lstrip("_")[:1].isupper() and t.id.upper() == t.id]
    return sorted(found)


def monkeypatched(source):
    """module.name of each call in source of the form
    x.setattr(module, "name", ...): module a plain name, name a literal."""
    return sorted(f"{node.args[0].id}.{node.args[1].value}"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "setattr" and len(node.args) >= 2
                  and isinstance(node.args[0], ast.Name) and _is_literal(node.args[1], str))


def test_checker_sees_int_constants():
    source = ("A = 1\n_B = 1 << 16\nC = -(2 * 3)\nD = 1.5\nE = np.array([1])\n"
              "lower = 4\nF: int = 5\nG = True\n_H9_I = 0x10  # note\nJ = K = 7\n"
              "M: int\ndef f():\n    L = 1\n")
    assert int_constants(source) == ["A", "C", "F", "J", "K", "_B", "_H9_I"]


def test_checker_sees_monkeypatched_constants():
    source = ('monkeypatch.setattr(candgen, "KNN_BLOCK_ROWS", 1)\n'
              'mp.setattr(_csvscan, "_SCAN_BYTES", 16)\n'
              'monkeypatch.setattr(cli.ingest, "read_split", f)\n'
              'monkeypatch.setattr("candgen.X", 1)\nsetattr(candgen, "Y", 2)\n'
              'monkeypatch.setattr(candgen, name, 3)\n')
    assert monkeypatched(source) == ["_csvscan._SCAN_BYTES", "candgen.KNN_BLOCK_ROWS"]


def test_every_piece_size_is_varied_by_a_test():
    # a new integer constant in these modules is a piece size, which some
    # test must vary, or a format constant, listed as one
    defined = {f"{module}.{name}" for module in ("_csvscan", "_kernels", "candgen")
               for name in int_constants((SRC / f"{module}.py").read_text(encoding="utf-8"))}
    assert defined == PIECE_SIZES | FORMAT_CONSTANTS
    varied = {name for path in sorted(TESTS.glob("test_*.py"))
              for name in monkeypatched(path.read_text(encoding="utf-8"))}
    assert sorted(PIECE_SIZES - varied) == []
