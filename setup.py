"""Build script: compiles the kernel (column search, echelon extension, row
products, and a field's subtraction and multiplication tables) from its C
source.

``src/deltacodes/_minweight.c`` is a hand-written CPython extension, so a
build, and an edit of the kernel, need only a C compiler and the Python
headers.  Its entry points keep the signatures of the pure-Python twin
``_minweight_py.py``, whose docstrings state their contracts; an edit of one
is an edit of both.  For a source-tree run, build the kernel next to its sources with
``python setup.py build_ext --inplace``.

That in-place build also byte-compiles ``src/deltacodes/*.py`` into
checked-hash ``.pyc`` files (PEP 552).  Where no bytecode is written
(``PYTHONDONTWRITEBYTECODE=1`` or ``python -B``), an import would otherwise
compile every module from source in every process.  A checked-hash file is
used only while the hash of its source matches, so an edited module is
compiled from source again, never loaded stale.  An editable install
builds in place as well; other installs are unchanged, since pip compiles
the files it installs.

The package works without the extension (a pure-Python fallback with the same
algorithm is selected at import time), so the extension is optional: a failed
compile downgrades to a warning instead of aborting the install.  A module
that fails to byte-compile fails the build.
"""

from __future__ import annotations

import compileall
import pathlib
import py_compile

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext as _build_ext
from setuptools.errors import ByteCompileError

PACKAGE = pathlib.Path(__file__).resolve().parent / "src" / "deltacodes"


class build_ext(_build_ext):
    """``build_ext`` that, when building in place, also writes the package's
    checked-hash bytecode."""

    def run(self) -> None:
        super().run()
        if not self.inplace:
            return
        # force: a timestamp .pyc left by an earlier import is replaced too
        if not compileall.compile_dir(
            PACKAGE,
            maxlevels=0,
            force=True,
            quiet=1,
            invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH,
        ):
            raise ByteCompileError(f"could not byte-compile {PACKAGE}")


setup(
    cmdclass={"build_ext": build_ext},
    ext_modules=[
        Extension(
            "deltacodes._minweight",
            ["src/deltacodes/_minweight.c"],
            optional=True,
        )
    ],
)
