"""The ``"compiled"`` gather engine (the default): C kernels behind the flat driver.

Every cold gather and every delta repair of the flat engines is one call
of the ``repair_chain`` kernel — all switches dirty for a gather, a
delta's ancestor chains for a repair.  Under numpy that kernel is a
level loop of small array operations that holds the GIL for the whole
solve.  This module compiles the same kernel (plus the colour and cost
kernels' helpers) from ``_gather_kernels.c`` into a small shared library
and calls it through ``ctypes``, which **releases the GIL for the
duration of every kernel call**, so a gather or a repair is a single C
call (``repro_repair_chain``) between the unchanged
:func:`repro.core.engine._gather_flat_tensors` and
:func:`repro.core.engine._repair_flat_tensors` drivers.

Bit-identity
------------
Each C kernel performs the identical per-element IEEE-754 operations in
the identical order as its numpy counterpart (a single multiply or add
followed by a strict ``<``; ascending-``j`` argmin with strict
improvement), so the compiled engine's tables, breadcrumbs, placements,
and costs are byte-identical to ``"flat"`` — enforced across the seeded
generator corpus by ``tests/test_engine_differential.py``.  Both chains
skip the splits above a child subtree's available-switch count (the C
one per child, the numpy one per level batch); such splits cannot
strictly improve any entry, so the cap changes no bit.

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
is set (the CI no-backend job), the ``"compiled"`` registry entry stays
callable and transparently computes with the numpy kernels — same name,
bit-identical results, no consumer changes.  :data:`HAVE_COMPILED` (and
:func:`compiled_available`) report which path is active; compiled-specific
tests skip when it is ``False``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.core.engine import (
    COMPILED_ENGINE,
    ENGINES,
    NUMPY_KERNELS,
    REPAIRERS,
    GatherKernels,
    _gather_flat_tensors,
    _repair_flat_tensors,
)
from repro.core.flat import FlatTables
from repro.core.gather import GatherResult
from repro.core.tree import TreeNetwork

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
    library.repro_strict_less.argtypes = [_f64, _f64, _u8, _ll]
    library.repro_strict_less.restype = None
    library.repro_sequential_sum.argtypes = [_f64, _ll]
    library.repro_sequential_sum.restype = ctypes.c_double
    library.repro_repair_chain.argtypes = [
        _f64, _f64, _i32, _i32, _f64, _f64, _u8, _i64, _i64, _i64, _i64, _i64, _i64,
        _ll, _ll, _ll, _ll, _ll, ctypes.c_int32,
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

#: True when the C kernels compiled and loaded; False means the
#: ``"compiled"`` engine name still works but computes with numpy.
HAVE_COMPILED: bool = _LIB is not None


def compiled_available() -> bool:
    """Whether the C backend is active (vs. the numpy fallback)."""
    return HAVE_COMPILED


# --------------------------------------------------------------------------- #
# kernel wrappers (see repro.core.engine.GatherKernels for the contracts)
# --------------------------------------------------------------------------- #


def _repair_chain_compiled(flat: FlatTables, dirty: np.ndarray, exact_k: bool) -> None:
    height = flat.y_red.shape[0] - 1
    width, n = flat.y_red.shape[1], flat.y_red.shape[2]
    status = _LIB.repro_repair_chain(
        flat.y_blue,
        flat.y_red,
        flat.splits_blue,
        flat.splits_red,
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
        height,
        width,
        n,
        flat.splits_red.shape[2],
        int(exact_k),
    )
    if status != 0:
        raise MemoryError("repro_repair_chain could not allocate its scratch")


#: The kernel set of the ``"compiled"`` engine — the C kernels when the
#: library built, the numpy kernels otherwise (bit-identical either way).
COMPILED_KERNELS: GatherKernels = (
    GatherKernels(repair_chain=_repair_chain_compiled)
    if HAVE_COMPILED
    else NUMPY_KERNELS
)


def compiled_gather(
    tree: TreeNetwork,
    budget: int,
    exact_k: bool = False,
) -> GatherResult:
    """Run SOAR-Gather with the compiled (GIL-releasing) kernels.

    Drop-in replacement for :func:`repro.core.engine.flat_gather` with
    byte-identical output.  When the C backend is unavailable (see the
    module docstring) this computes with the numpy kernels instead; the
    result still records ``engine="compiled"`` — provenance names the
    registry entry that produced it, and the entries are bit-identical by
    contract, with :data:`HAVE_COMPILED` distinguishing the backends.
    """
    return _gather_flat_tensors(
        tree, budget, exact_k, kernels=COMPILED_KERNELS, engine=COMPILED_ENGINE
    )


def compiled_repair(result: GatherResult, tree: TreeNetwork) -> GatherResult:
    """Delta-repair a compiled-engine gather result towards ``tree``.

    The shared repair driver of :mod:`repro.core.engine` parameterized by
    the compiled kernel set — the whole dirty chain (leaf re-broadcast,
    stage seeding, every convolution, breadcrumbs) is recomputed by one C
    call (releasing the GIL) when the backend is active, and by the numpy
    level loop otherwise, bit-identical either way.
    """
    return _repair_flat_tensors(
        result, tree, kernels=COMPILED_KERNELS, engine=COMPILED_ENGINE
    )


# --------------------------------------------------------------------------- #
# helpers for the compiled colour / cost kernels
# --------------------------------------------------------------------------- #


def strict_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise strict ``a < b`` as a bool array (numpy fallback inside).

    The compiled colour kernel routes its per-level blue/red decisions
    through this — the same comparison, the same NaN-compares-false
    semantics as :func:`np.less`.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if _LIB is None:
        return np.less(a, b)
    out = np.empty(a.shape, dtype=np.uint8)
    _LIB.repro_strict_less(a, b, out, a.size)
    return out.view(np.bool_)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum of a float64 vector, as one C loop.

    Bit-identical to ``float(sum(values.tolist()))`` — the reduction the
    flat cost kernel performs — because both are a plain sequential
    accumulation of the same doubles in the same order.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if _LIB is None:
        return float(sum(values.tolist()))
    return float(_LIB.repro_sequential_sum(values, values.size))


# Self-registration: done here (not in repro.core.engine) so the modules
# can be imported in either order without a partially-initialized cycle.
ENGINES[COMPILED_ENGINE] = compiled_gather
REPAIRERS[COMPILED_ENGINE] = compiled_repair
