"""The in-place build: the kernel and the package's checked-hash bytecode.

The build tests work on a copy of ``setup.py``, ``pyproject.toml`` and
``src/`` built with ``python setup.py build_ext --inplace``, never on the
tree itself; two of them check the test session's own rebuild rule
(``conftest.needs_build``) on such a copy.  Fresh interpreters run with
``-B`` (no bytecode written), as a process does under
``PYTHONDONTWRITEBYTECODE=1``, and record every module that the import
system compiles from source.  A scan of the package's sources, with no
build, checks that no module imports a name it never uses.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import pathlib
import py_compile
import re
import shutil
import subprocess
import sys

import pytest
from conftest import needs_build, stale_bytecode

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = pathlib.Path(__file__).parent / "data"

# Imports the benchmark worker's three modules and prints, as JSON, the
# package's location and every source file compiled on the way.
PROBE = """
import importlib._bootstrap_external as bootstrap
import json

compiled = []
source_to_code = bootstrap.SourceLoader.source_to_code


def record(self, data, path, *args, **kwargs):
    compiled.append(path)
    return source_to_code(self, data, path, *args, **kwargs)


bootstrap.SourceLoader.source_to_code = record
import deltacodes.cli, deltacodes.minweight, deltacodes.semigroup

print(json.dumps({
    "package": deltacodes.__file__,
    "compiled": compiled,
    "edited": getattr(deltacodes.errors, "EDITED", False),
}))
"""


def build(tree: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=tree,
        capture_output=True,
        text=True,
    )


def start(tree: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from ``tree`` and
    writes no bytecode."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, "-B", *args], cwd=tree, env=env, capture_output=True, check=True
    )


def probe(tree: pathlib.Path) -> dict:
    report = json.loads(start(tree, "-c", PROBE).stdout)
    package = tree / "src" / "deltacodes"
    assert pathlib.Path(report["package"]).parent == package
    report["compiled"] = [
        pathlib.Path(path).name for path in report["compiled"]
        if pathlib.Path(path).parent == package
    ]
    return report


def bytecode(package: pathlib.Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in (package / "__pycache__").iterdir()}


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> pathlib.Path:
    tree = tmp_path_factory.mktemp("tree")
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, tree / name)
    shutil.copytree(
        ROOT / "src", tree / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "*.egg-info"),
    )
    proc = build(tree)
    assert proc.returncode == 0, proc.stderr
    return tree


def test_every_module_has_checked_hash_bytecode(built):
    package = built / "src" / "deltacodes"
    assert len(list(package.glob("*.py"))) > 10
    assert stale_bytecode(package) == []
    # nothing outside the package is byte-compiled
    assert {p.parent for p in built.rglob("*.pyc")} == {package / "__pycache__"}


def test_a_session_rebuilds_a_tree_whose_bytecode_is_stale(built, tmp_path):
    """The test session's check: a module with no bytecode, with bytecode
    of an older source, or with timestamp bytecode asks for a build, and
    the build makes the tree current."""
    tree = tmp_path / "tree"
    shutil.copytree(built, tree)
    package = tree / "src" / "deltacodes"
    assert not needs_build(package)
    pathlib.Path(importlib.util.cache_from_source(str(package / "gf.py"))).unlink()
    with open(package / "errors.py", "a", encoding="utf-8") as module:
        module.write("\nEDITED = True\n")
    py_compile.compile(str(package / "codes.py"), doraise=True)
    assert stale_bytecode(package) == ["codes.py", "errors.py", "gf.py"]
    assert needs_build(package)
    assert build(tree).returncode == 0
    assert not needs_build(package)


def test_a_session_rebuilds_a_tree_without_a_kernel(built, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(built, tree)
    package = tree / "src" / "deltacodes"
    for kernel in package.glob("_minweight.*"):
        if kernel.suffix != ".c":
            kernel.unlink()
    assert stale_bytecode(package) == [] and needs_build(package)


def test_a_fresh_start_compiles_no_module(built):
    assert probe(built)["compiled"] == []


def test_an_edited_module_is_compiled_from_source(built, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(built, tree)
    package = tree / "src" / "deltacodes"
    before = bytecode(package)
    with open(package / "errors.py", "a", encoding="utf-8") as module:
        module.write("\nEDITED = True\n")
    report = probe(tree)
    assert report["compiled"] == ["errors.py"]
    assert report["edited"] is True
    assert bytecode(package) == before


def test_the_built_copy_prints_the_golden_table(built):
    out = start(built, "-m", "deltacodes.cli", "table", "--config", str(DATA / "planar119.cfg"))
    assert out.stdout == (DATA / "golden_table2.csv").read_bytes()


def test_a_module_that_does_not_compile_fails_the_build(built, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(built, tree)
    (tree / "src" / "deltacodes" / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    assert build(tree).returncode != 0


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads.  A name read only in an
    annotation is read, and so is a name listed in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_scan_for_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from a import b, c as d, e, f\n"
        "__all__ = ['e']\n"
        "def g(x: b) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["system", "d", "f"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "deltacodes").glob("*.py"))
)
def test_no_module_imports_a_name_it_does_not_use(module):
    source = (ROOT / "src" / "deltacodes" / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


# Names that only code outside the package reads: the benchmark worker
# imports ``gf._tables`` and calls ``minweight.available_backends``.
READ_OUTSIDE = {"gf._tables", "minweight.available_backends"}


def read_names(node: ast.AST) -> set[str]:
    """The names a piece of source reads: every name it loads, takes as an
    attribute or imports."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The top-level private names (``_name``, not dunder) that a module of
    ``sources`` (name -> source) defines and no module reads, as
    ``module._name``.  A name is read where any module loads it, takes it as
    an attribute or imports it."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                (module, name) for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        read |= read_names(tree)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_the_scan_for_dead_private_names():
    sources = {
        "a": "_ONE = 1\n_two: int = 2\ndef _f():\n    return _ONE\nclass _C:\n    pass\n",
        "b": "from a import _f\nimport a\nx = a._two\n__all__ = []\n",
    }
    assert dead_private_names(sources) == ["a._C"]


def test_every_private_name_is_read():
    package = ROOT / "src" / "deltacodes"
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert set(dead_private_names(sources)) == {
        name for name in READ_OUTSIDE if name.partition(".")[2].startswith("_")
    }


def top_level_names(tree: ast.Module) -> dict[str, ast.AST]:
    """Each name a module binds at its top level, in an ``if`` or ``try``
    there too, with the statement that binds it (an empty one for an
    import)."""
    out, todo = {}, list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # an imported name reads nothing of the module
            out.update(((a.asname or a.name).split(".")[0], ast.Pass()) for a in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            todo += [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            todo += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
    return out


def unreached_exports(sources: dict[str, str], entry: str, named: set[str]) -> list[str]:
    """The ``__all__`` names of ``sources`` (module -> source), as
    ``module.name``, that nothing reaches.  A name is reached when another
    module reads it (as ``dead_private_names`` reads), when it is in
    ``named``, when it is the ``entry`` point (``module:name``, the console
    script), or when the body of a reached name of its own module reads it:
    so a command line run reaches what ``main`` calls, and what that calls,
    module by module."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {module: read_names(tree) for module, tree in trees.items()}
    unreached = []
    for module, tree in trees.items():
        bound = top_level_names(tree)
        elsewhere = set().union(*(r for other, r in reads.items() if other != module))
        todo = [
            name for name in bound
            if name in elsewhere or name in named or f"{module}:{name}" == entry
        ]
        reached = set(todo)
        while todo:
            for name in read_names(bound[todo.pop()]):
                if name in bound and name not in reached:
                    reached.add(name)
                    todo.append(name)
        exported = bound.get("__all__")
        names = ast.literal_eval(exported.value) if exported else []
        unreached += [f"{module}.{name}" for name in names if name not in reached]
    return unreached


def test_the_scan_for_unreached_exports():
    sources = {
        "a": (
            "__all__ = ['main', 'helper', 'shown', 'used', 'dead', 'FLAG']\n"
            "if True:\n    FLAG = 1\n"
            "def main():\n    return helper()\n"
            "def helper():\n    return FLAG\n"
            "def shown():\n    pass\n"
            "def used():\n    pass\n"
            "def dead():\n    return used()\n"
        ),
        "b": "from a import used\n__all__ = ['alone']\ndef alone():\n    pass\n",
    }
    assert unreached_exports(sources, "a:main", {"shown"}) == ["a.dead", "b.alone"]


def library_use_names() -> set[str]:
    """The names in the code of the README's "Library use" section: its
    inline code and its example."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = " ".join(text for _, text in re.findall(r"(`+)(.+?)\1", section, re.S))
    return set(re.findall(r"[A-Za-z_]\w*", code))


def test_every_exported_name_is_reached():
    """Each ``__all__`` name is read by another module, is run by a command
    (the console script's entry point calls it, or a function it reaches
    does), or is named in the README's "Library use" section; the names that
    only code outside the package reads are ``READ_OUTSIDE``."""
    package = ROOT / "src" / "deltacodes"
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (entry,) = re.findall(r'^deltacodes = "deltacodes\.(\w+:\w+)"$', pyproject, re.M)
    found = unreached_exports(sources, entry, library_use_names())
    assert set(found) == {
        name for name in READ_OUTSIDE if not name.partition(".")[2].startswith("_")
    }
