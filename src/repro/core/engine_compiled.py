"""The C kernels of the ``compiled`` backend (the default when they build).

:mod:`repro.core.engine` runs SOAR's three hot loops through a
:class:`~repro.core.engine.Backend`: the gather/repair ``repair_chain``,
the colour ``trace`` of a sweep's budgets, and the Eq. (1) ``costs`` of
the traced placements.  Under numpy the chain is a level loop of small
array operations that holds the GIL for the whole solve.  This module
compiles the same three loops from ``_gather_kernels.c`` into a small
shared library and calls them through ``ctypes``, which **releases the
GIL for the duration of every kernel call**:

* :func:`repair_chain` (``repro_repair_chain``) — a cold gather or a
  delta repair as one call;
* :func:`color_masks` (``repro_color``) — SOAR-Color for every budget of
  a sweep in one call;
* :func:`utilization_costs` (``repro_utilization``) — Eq. (1) for every
  traced placement in one call.

The colour and cost consistency checks (negative or out-of-range budgets,
too many blue nodes, a blue node outside Λ) are kernel status codes the
wrappers raise as :class:`~repro.exceptions.PlacementError`.

Bit-identity
------------
Each C kernel performs the identical per-element IEEE-754 operations in
the identical order as its numpy counterpart (a single multiply or add
followed by a strict ``<``; ascending-``j`` argmin with strict
improvement), so the two backends' tables, breadcrumbs, placements, and
costs are byte-identical — enforced across the seeded generator corpus
by ``tests/test_engine_differential.py`` and
``tests/test_trace_kernels.py``.  Both chains skip the splits above a
child subtree's available-switch count (the C one per child, the numpy
one per level batch); such splits cannot strictly improve any entry, so
the cap changes no bit.

Build and fallback
------------------
No third-party dependency is required: the kernels are plain C99 built on
demand with the system compiler (``$CC``, ``cc``, ``gcc``, or ``clang`` —
whichever is found first) as ``-O2 -ffp-contract=off -fPIC -shared``
(no fused multiply-adds, which would round differently from numpy's
separate multiply and add) and cached by source
digest under ``$REPRO_KERNEL_CACHE`` (default: ``<tmpdir>/repro-kernels``),
so the compile runs once per source revision per machine.  The publish is
an atomic :func:`os.replace`, making concurrent first builds safe.

When no compiler is available, the build fails, or ``REPRO_NO_COMPILED``
is set (the CI no-backend job), :data:`HAVE_COMPILED` is ``False``: there
is no ``compiled`` backend and :data:`repro.core.engine.DEFAULT_BACKEND`
is the numpy one — bit-identical results, and a backend name that says
which kernels actually ran.  Compiled-specific tests skip.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.core.flat import FlatCostModel, FlatTables
from repro.exceptions import PlacementError

#: Set this environment variable (to any non-empty value) to skip the C
#: backend entirely and force the numpy fallback — the CI no-backend job
#: uses it to prove the fallback path stays green.
DISABLE_ENV: str = "REPRO_NO_COMPILED"
#: Overrides the directory the compiled library is cached in.
CACHE_ENV: str = "REPRO_KERNEL_CACHE"

_SOURCE = Path(__file__).with_name("_gather_kernels.c")

_f64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_i32 = ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_u8 = ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_ll = ctypes.c_longlong


def _find_compiler() -> str | None:
    """The first working C compiler: ``$CC``, then cc / gcc / clang."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _configure(library: ctypes.CDLL) -> ctypes.CDLL:
    """Attach prototypes so ctypes checks dtypes and contiguity for us."""
    library.repro_color.argtypes = [
        _f64, _f64, _i32, _i32, _i64, _i64, _i64, _u8, _i64, _i64, _i64, _i64,
        _i64, _ll, _ll, _ll, _ll, ctypes.c_int32, _u8, _i64,
    ]
    library.repro_color.restype = ctypes.c_int32
    library.repro_utilization.argtypes = [
        _u8, _u8, _i64, _i64, _f64, _i64, _ll, _ll, ctypes.c_int32, _f64, _i64,
    ]
    library.repro_utilization.restype = ctypes.c_int32
    library.repro_repair_chain.argtypes = [
        _f64, _f64, _i32, _i32, _i64, _i64, _f64, _f64, _u8, _i64, _i64, _i64,
        _i64, _i64, _i64, _ll, _ll, _ll, _ll, ctypes.c_int32,
    ]
    library.repro_repair_chain.restype = ctypes.c_int32
    return library


def _build_library() -> ctypes.CDLL | None:
    """Compile (or reuse) the kernel library; ``None`` means fall back."""
    if os.environ.get(DISABLE_ENV):
        return None
    if not _SOURCE.exists():
        return None
    source_bytes = _SOURCE.read_bytes()
    digest = hashlib.sha256(source_bytes).hexdigest()[:16]
    cache_root = Path(
        os.environ.get(CACHE_ENV) or Path(tempfile.gettempdir()) / "repro-kernels"
    )
    lib_path = cache_root / f"gather_kernels-{digest}.so"
    if not lib_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            return None
        try:
            cache_root.mkdir(parents=True, exist_ok=True)
            handle, staging = tempfile.mkstemp(dir=cache_root, suffix=".so")
            os.close(handle)
        except OSError:
            return None
        try:
            subprocess.run(
                [
                    compiler, "-O2", "-ffp-contract=off", "-fPIC", "-shared",
                    "-o", staging, str(_SOURCE),
                ],
                check=True,
                capture_output=True,
            )
            os.replace(staging, lib_path)  # atomic publish; racing builds both win
        except (OSError, subprocess.SubprocessError):
            try:
                os.unlink(staging)
            except OSError:
                pass
            return None
    try:
        return _configure(ctypes.CDLL(str(lib_path)))
    except OSError:
        return None


_LIB = _build_library()

#: True when the C kernels compiled and loaded; False means there is no
#: ``compiled`` backend and the default one is numpy.
HAVE_COMPILED: bool = _LIB is not None


def compiled_available() -> bool:
    """Whether the C backend is active (vs. the numpy fallback)."""
    return HAVE_COMPILED


# --------------------------------------------------------------------------- #
# kernel wrappers (see repro.core.engine.Backend for the contracts)
# --------------------------------------------------------------------------- #


def repair_chain(flat: FlatTables, dirty: np.ndarray) -> None:
    """The ``repair_chain`` of the compiled backend: one ``repro_repair_chain`` call."""
    rows, width = flat.y_red.shape[1:]
    status = _LIB.repro_repair_chain(
        flat.y_blue,
        flat.y_red,
        flat.splits_blue,
        flat.splits_red,
        flat.col,
        flat.scol,
        flat.path_rho,
        flat.load.astype(np.float64),
        flat.avail.view(np.uint8),
        flat.depth,
        flat.num_children,
        flat.child_concat,
        flat.child_offset,
        flat.stage_offset,
        np.ascontiguousarray(dirty, dtype=np.int64),
        dirty.size,
        rows - 1,
        width,
        len(flat.order),
        int(flat.exact_k),
    )
    if status != 0:
        raise MemoryError("repro_repair_chain could not allocate its scratch")


# --------------------------------------------------------------------------- #
# the colour and cost kernels (see repro.core.color / repro.core.cost)
# --------------------------------------------------------------------------- #

# Status codes of repro_color / repro_utilization (see _gather_kernels.c).
_NO_MEMORY = -1
_NEGATIVE_BUDGET = 1
_BUDGET_OUT_OF_RANGE = 2
_OVER_BUDGET = 3
_OUTSIDE_AVAILABILITY = 4

#: Python's built-in ``sum`` of floats is a plain running total before 3.12
#: and Neumaier-compensated from 3.12 on; the cost kernel reproduces
#: whichever this interpreter uses, so it stays bit-identical to the numpy
#: kernel's and the reference walk's ``sum``.
_COMPENSATED_SUM = int(sys.version_info >= (3, 12))


def _kernel_failure(
    status: int, info: np.ndarray, order: tuple, budgets: np.ndarray | None, k: int
) -> Exception:
    """The exception a nonzero colour/cost kernel status stands for."""
    if status == _NO_MEMORY:
        return MemoryError("the colour/cost kernel could not allocate its scratch")
    row, position, value = (int(x) for x in info)
    if status == _NEGATIVE_BUDGET:
        return PlacementError(
            f"traceback assigned a negative budget to {order[position]!r}; "
            "the gather tables are inconsistent"
        )
    if status == _BUDGET_OUT_OF_RANGE:
        return PlacementError(
            f"traceback assigned budget {value} to {order[position]!r}, outside "
            f"the tables' budgets 0..{k}; the gather tables are inconsistent"
        )
    if status == _OVER_BUDGET:
        return PlacementError(
            f"traceback selected {value} blue nodes for budget "
            f"{int(budgets[row])}; the gather tables are inconsistent"
        )
    return PlacementError(
        f"blue node {order[position]!r} is not in the availability set Λ"
    )


def _require_vectors(n: int, **vectors: np.ndarray) -> None:
    """The C kernels read ``n`` elements of every per-node vector."""
    for name, vector in vectors.items():
        if vector.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {vector.shape}")


def color_masks(
    flat: FlatTables,
    load: np.ndarray,
    avail: np.ndarray,
    budgets: list[int],
    exact_k: bool,
) -> np.ndarray:
    """Blue masks ``(len(budgets), n)`` (uint8, flat order), one C call.

    ``load`` / ``avail`` are the traced network's loads and Λ in flat
    order (the leaf rule reads them).  Raises
    :class:`~repro.exceptions.PlacementError` with the numpy trace's
    messages on inconsistent tables.
    """
    n = len(flat.order)
    rows, width = flat.y_red.shape[1:]
    _require_vectors(n, load=load, avail=avail)
    wanted = np.array(budgets, dtype=np.int64)
    masks = np.empty((wanted.size, n), dtype=np.uint8)
    info = np.zeros(3, dtype=np.int64)
    status = _LIB.repro_color(
        flat.y_blue,
        flat.y_red,
        flat.splits_blue,
        flat.splits_red,
        flat.col,
        flat.scol,
        load,
        avail.view(np.uint8),
        flat.num_children,
        flat.child_concat,
        flat.child_offset,
        flat.stage_offset,
        wanted,
        wanted.size,
        rows - 1,
        width,
        n,
        int(exact_k),
        masks,
        info,
    )
    if status != 0:
        raise _kernel_failure(status, info, flat.order, wanted, width - 1)
    return masks


def utilization_costs(
    model: FlatCostModel,
    masks: np.ndarray,
    avail: np.ndarray,
    load: np.ndarray,
) -> np.ndarray:
    """Eq. (1) of every blue mask row ``(B, n)`` over ``model``, one C call.

    Bit-identical to :func:`repro.core.cost.utilization_cost_flat` per
    row.  A blue node outside ``avail`` (Λ in flat order) raises
    :class:`~repro.exceptions.PlacementError`.
    """
    masks = np.ascontiguousarray(masks, dtype=np.uint8)
    n = len(model.order)
    if masks.ndim != 2 or masks.shape[1] != n:
        raise ValueError(f"blue masks must have shape (B, {n}), got {masks.shape}")
    _require_vectors(n, load=load, avail=avail)
    costs = np.empty(masks.shape[0], dtype=np.float64)
    info = np.zeros(3, dtype=np.int64)
    status = _LIB.repro_utilization(
        masks,
        avail.view(np.uint8),
        load,
        model.parent,
        model.rho,
        model.postorder,
        masks.shape[0],
        n,
        _COMPENSATED_SUM,
        costs,
        info,
    )
    if status != 0:
        raise _kernel_failure(status, info, model.order, None, 0)
    return costs
