"""Parametrizations over the kernel backends, shared by the test modules.

The ids are the names these tests had when the suite was parametrized
over gather engines: ``compiled`` is the C backend (skipped when its
kernels did not build), ``flat`` the numpy backend (its kernels run on the
flat ``(l, i, node)`` tensors), and ``reference`` the per-node walk of
the paper.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.engine import COMPILED_BACKEND, NUMPY_BACKEND, gather
from repro.core.gather import soar_gather

needs_compiled = pytest.mark.skipif(
    COMPILED_BACKEND is None, reason="the C kernels did not build"
)

#: Every backend, under its historical engine id.
BACKEND_PARAMS = [
    pytest.param(COMPILED_BACKEND, id="compiled", marks=needs_compiled),
    pytest.param(NUMPY_BACKEND, id="flat"),
]

#: ``gather(tree, budget, exact_k=False)`` of every backend and of the
#: reference walk.
GATHER_PARAMS = [
    pytest.param(
        functools.partial(gather, backend=COMPILED_BACKEND), id="compiled", marks=needs_compiled
    ),
    pytest.param(functools.partial(gather, backend=NUMPY_BACKEND), id="flat"),
    pytest.param(soar_gather, id="reference"),
]
