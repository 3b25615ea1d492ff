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


# Private names that only code outside the package reads: the benchmark
# worker imports ``gf._tables``.
READ_OUTSIDE = {"gf._tables"}


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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
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
    assert set(dead_private_names(sources)) == READ_OUTSIDE
