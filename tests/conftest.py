"""Build the compiled column-search kernel before the tests import it.

In a source tree (``setup.py`` next to ``src/``) the kernel is rebuilt with
``python setup.py build_ext --inplace`` once per session, and only when the
built extension is missing or older than ``_minweight.c``, so the suite
always tests the C that is checked in.  A failed build only warns: the
tests that need the compiled kernel then fail and say so.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import pathlib
import subprocess
import sys

import pytest


def _stale_kernel() -> pathlib.Path | None:
    """The source tree's root when its kernel needs a build, else None."""
    spec = importlib.util.find_spec("deltacodes")
    if spec is None or spec.origin is None:
        return None
    package = pathlib.Path(spec.origin).parent
    root = package.parent.parent
    source = package / "_minweight.c"
    if not (source.is_file() and (root / "setup.py").is_file()):
        return None
    built = [
        package / f"_minweight{suffix}"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    newest = max((p.stat().st_mtime for p in built if p.is_file()), default=None)
    # the in-place copy keeps the build's time in whole seconds
    if newest is not None and newest >= int(source.stat().st_mtime):
        return None
    return root


def pytest_configure(config: pytest.Config) -> None:
    root = _stale_kernel()
    if root is None:
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0 or _stale_kernel() is not None:
        config.issue_config_time_warning(
            pytest.PytestWarning(
                "could not build the compiled kernel with `python setup.py "
                f"build_ext --inplace`:\n{proc.stderr.strip()}"
            ),
            stacklevel=2,
        )
