"""Build script: compiles the column-search kernel from its C source.

``src/deltacodes/_minweight.c`` is a hand-written CPython extension, so a
build, and an edit of the kernel, need only a C compiler and the Python
headers.  For a source-tree run, build the kernel next to its sources with
``python setup.py build_ext --inplace``.

The package works without the extension (a pure-Python fallback with the same
algorithm is selected at import time), so the extension is optional: a failed
compile downgrades to a warning instead of aborting the install.
"""

from __future__ import annotations

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "deltacodes._minweight",
            ["src/deltacodes/_minweight.c"],
            optional=True,
        )
    ]
)
