"""Build the compiled column-search kernel and the package's bytecode before
the tests import them.

In a source tree (``setup.py`` next to ``src/``) the in-place build
``python setup.py build_ext --inplace`` runs once per session when the built
kernel is missing or older than ``_minweight.c``, or when a module has no
checked-hash ``.pyc`` that matches its source.  So the suite always tests the
C that is checked in, and a fresh interpreter loads the library as a
benchmark worker does.  A failed build only warns: the tests that need the
compiled kernel or the bytecode then fail and say so.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import pathlib
import subprocess
import sys

import pytest


def stale_bytecode(package: pathlib.Path) -> list[str]:
    """The modules of ``package`` without a checked-hash ``.pyc`` (PEP 552
    flags 0b11: hash-based, check the source) of their current source."""
    stale = []
    for source in sorted(package.glob("*.py")):
        cached = pathlib.Path(importlib.util.cache_from_source(str(source)))
        data = cached.read_bytes() if cached.is_file() else b""
        if (
            data[:4] != importlib.util.MAGIC_NUMBER
            or int.from_bytes(data[4:8], "little") != 0b11
            or data[8:16] != importlib.util.source_hash(source.read_bytes())
        ):
            stale.append(source.name)
    return stale


def needs_build(package: pathlib.Path) -> bool:
    """Whether the in-place build of ``package`` is missing or out of date."""
    built = [
        package / f"_minweight{suffix}"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    newest = max((p.stat().st_mtime for p in built if p.is_file()), default=None)
    # the in-place copy keeps the build's time in whole seconds
    if newest is None or newest < int((package / "_minweight.c").stat().st_mtime):
        return True
    return bool(stale_bytecode(package))


def _source_package() -> pathlib.Path | None:
    """The package's directory when it sits in a source tree, else None."""
    spec = importlib.util.find_spec("deltacodes")
    if spec is None or spec.origin is None:
        return None
    package = pathlib.Path(spec.origin).parent
    if not ((package / "_minweight.c").is_file() and (package.parents[1] / "setup.py").is_file()):
        return None
    return package


def pytest_configure(config: pytest.Config) -> None:
    package = _source_package()
    if package is None or not needs_build(package):
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=package.parents[1],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0 or needs_build(package):
        config.issue_config_time_warning(
            pytest.PytestWarning(
                "could not build the compiled kernel and bytecode with `python "
                f"setup.py build_ext --inplace`:\n{proc.stderr.strip()}"
            ),
            stacklevel=2,
        )
