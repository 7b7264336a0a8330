"""Setuptools shim.

This file exists only so that legacy editable installs
(``pip install -e . --no-use-pep517``) work in offline environments where
the ``wheel`` package is unavailable.

Packaging note for the compiled backend: the C kernels
(:mod:`repro.core.engine_compiled`) add **no Python dependency** — they
compile ``src/repro/core/_gather_kernels.c`` at import time with whatever
system C compiler is on PATH (``$CC``, ``cc``, ``gcc``, or ``clang``),
cache the shared object under ``$REPRO_KERNEL_CACHE`` (default
``<tmpdir>/repro-kernels``), and load it via :mod:`ctypes`.
Distributions must ship that ``.c`` file as package data alongside the
Python sources.  When it is missing, no compiler exists, or
``REPRO_NO_COMPILED=1`` is set, there is no compiled backend:
``repro.core.engine.COMPILED_BACKEND`` is ``None`` and
``DEFAULT_BACKEND`` is the bit-identical ``NUMPY_BACKEND``.
"""

from setuptools import setup

setup(package_data={"repro.core": ["_gather_kernels.c"]})
