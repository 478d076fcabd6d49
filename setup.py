"""Build script.

The five subset-DP kernels have one compiled implementation,
``src/linewidth/kernels/_core.c``, written against the CPython C API; it
needs only a C compiler and the Python headers.  The extension is optional:
if it cannot be built, installation still succeeds and the package selects
the pure-Python kernels at import time.  Build it in place with

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "linewidth.kernels._core",
            ["src/linewidth/kernels/_core.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
