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

Bound arguments
---------------
A kernel reads its long-lived arrays through C structs filled once, not
per call: :class:`KernelLayout` holds a layout's structure arrays (bound
once per :class:`~repro.core.flat.FlatLayout` by
:func:`~repro.core.flat.build_metadata`), :class:`KernelTables` one
table's stores, block indices, loads and Λ (bound once per
:class:`~repro.core.flat.FlatTables`, and anew when
:meth:`~repro.core.flat.ColumnStore.pin` replaces its stores) and
:class:`KernelCostModel` what Eq. (1) reads (bound once per
:class:`~repro.core.flat.FlatCostModel`).  A call passes those struct
pointers plus its own arrays: the dirty positions, the budgets and the
outputs.  A :class:`KernelArgs` binding holds every array it points into,
so a call keeps them alive until it returns, and a binding is never
modified once made.

Binding checks each array's dtype, C-contiguity and shape (what
``numpy.ctypeslib.ndpointer`` argument types and the wrappers' shape
checks did per call) and raises
:class:`~repro.exceptions.KernelArgumentError`; every argument type stays
a typed pointer.  Per-call conversion was dropped because it was most of
a small call's cost: about 2 µs per array through ``ndpointer.from_param``
for 8-15 arrays, and each converted array left two objects in a reference
cycle (numpy's ``data_as`` casts), about 30 per call.  The cycles drove
the garbage collector: a churn request paid more in collections than in
conversion.  The per-call arrays now reach C through ``from_buffer`` or a
cast of their address, which leave no cyclic garbage.

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
from ctypes import POINTER, c_double, c_int32, c_int64, c_uint8
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import KernelArgumentError, PlacementError

if TYPE_CHECKING:
    from repro.core.flat import FlatCostModel, FlatLayout, FlatTables

#: Set this environment variable (to any non-empty value) to skip the C
#: backend entirely and force the numpy fallback — the CI no-backend job
#: uses it to prove the fallback path stays green.
DISABLE_ENV: str = "REPRO_NO_COMPILED"
#: Overrides the directory the compiled library is cached in.
CACHE_ENV: str = "REPRO_KERNEL_CACHE"

_SOURCE = Path(__file__).with_name("_gather_kernels.c")

_f64 = POINTER(c_double)
_i64 = POINTER(c_int64)
_i32 = POINTER(c_int32)
_u8 = POINTER(c_uint8)


class KernelLayout(ctypes.Structure):
    """``struct kernel_layout``: the structure arrays of one flat layout."""

    _fields_ = [
        ("path_rho", _f64),
        ("depth", _i64),
        ("num_children", _i64),
        ("child_concat", _i64),
        ("child_offset", _i64),
        ("stage_offset", _i64),
        ("n", c_int64),
        ("height", c_int64),
    ]


class KernelTables(ctypes.Structure):
    """``struct kernel_tables``: one table's stores, indices, loads and Λ."""

    _fields_ = [
        ("y_blue", _f64),
        ("y_red", _f64),
        ("splits_blue", _i32),
        ("splits_red", _i32),
        ("col", _i64),
        ("scol", _i64),
        ("load", _i64),
        ("load_f64", _f64),
        ("avail", _u8),
        ("width", c_int64),
    ]


class KernelCostModel(ctypes.Structure):
    """``struct kernel_cost_model``: what Eq. (1) reads of one network."""

    _fields_ = [
        ("parent", _i64),
        ("rho", _f64),
        ("postorder", _i64),
        ("load", _i64),
        ("avail", _u8),
        ("n", c_int64),
    ]


def _find_compiler() -> str | None:
    """The first working C compiler: ``$CC``, then cc / gcc / clang."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _configure(library: ctypes.CDLL) -> ctypes.CDLL:
    """Attach the kernels' prototypes.

    Every pointer argument is typed (a struct or an element type), so
    ctypes refuses a wrong argument kind; the arrays behind the pointers
    are checked when they are bound (:func:`bind_layout`,
    :func:`bind_tables`, :func:`bind_cost_model`) or, for the per-call
    arrays, by the wrapper that allocates or converts them.
    """
    library.repro_repair_chain.argtypes = [
        POINTER(KernelLayout), POINTER(KernelTables), _i64, c_int64, c_int32,
    ]
    library.repro_repair_chain.restype = c_int32
    library.repro_color.argtypes = [
        POINTER(KernelLayout), POINTER(KernelTables), _i64, c_int64, c_int32, _u8, _i64,
    ]
    library.repro_color.restype = c_int32
    library.repro_utilization.argtypes = [
        _u8, c_int64, POINTER(KernelCostModel), c_int32, _f64, _i64,
    ]
    library.repro_utilization.restype = c_int32
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
# bindings: each kernel's long-lived arrays, bound once
# --------------------------------------------------------------------------- #

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
_BOOL = np.dtype(np.bool_)


class KernelArgs:
    """One bound struct: the pointer a kernel call passes, and its arrays.

    ``pointer`` points at a filled :class:`KernelLayout`,
    :class:`KernelTables` or :class:`KernelCostModel`.  ``arrays`` holds
    every array a field points into, so that memory lives as long as the
    binding (a kernel call reads the binding once and keeps it until the
    call returns), and ``addresses`` their data addresses, which a binding
    made ``like`` this one reuses for an unchanged array.  A binding is
    never modified: when a table's arrays change it is bound anew.
    """

    __slots__ = ("pointer", "arrays", "addresses")

    def __init__(self, pointer, arrays: dict, addresses: dict) -> None:
        self.pointer = pointer
        self.arrays = arrays
        self.addresses = addresses


def _check(name: str, array: np.ndarray, dtype: np.dtype, shape: tuple) -> None:
    """Refuse an array a kernel would misread: dtype, layout or shape.

    A leading ``None`` in ``shape`` is a free extent (a store's capacity).
    """
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        got = array.dtype if isinstance(array, np.ndarray) else type(array).__name__
        raise KernelArgumentError(f"{name} must be a {dtype} array, got {got}")
    if not array.flags.c_contiguous:
        raise KernelArgumentError(f"{name} must be C-contiguous")
    if shape[0] is None:
        wrong = array.ndim != len(shape) or array.shape[1:] != shape[1:]
    else:
        wrong = array.shape != shape
    if wrong:
        wanted = ("capacity", *shape[1:]) if shape[0] is None else shape
        raise KernelArgumentError(f"{name} must have shape {wanted}, got {array.shape}")


def _bind(
    struct: type[ctypes.Structure],
    like: KernelArgs | None,
    scalars: dict[str, int],
    arrays: dict[str, tuple[np.ndarray, np.dtype, tuple]],
) -> KernelArgs:
    """Fill ``struct`` from ``arrays`` (``name -> (array, dtype, shape)``).

    Every array is checked; one that ``like`` already points into (the
    same object) keeps its address, which is the costly part to read.
    """
    fields = dict(struct._fields_)
    values: dict[str, object] = dict(scalars)
    addresses: dict[str, int] = {}
    for name, (array, dtype, shape) in arrays.items():
        _check(name, array, dtype, shape)
        if like is not None and like.arrays.get(name) is array:
            address = like.addresses[name]
        else:
            address = array.ctypes.data
        addresses[name] = address
        values[name] = ctypes.cast(address, fields[name])
    held = {name: spec[0] for name, spec in arrays.items()}
    return KernelArgs(ctypes.pointer(struct(**values)), held, addresses)


def bind_layout(layout: FlatLayout) -> KernelArgs | None:
    """The :class:`KernelLayout` of ``layout``; ``None`` without the C backend."""
    if _LIB is None:
        return None
    n = len(layout.order)
    rows = layout.path_rho.shape[0]
    vector = (n,)
    return _bind(
        KernelLayout,
        None,
        {"n": n, "height": rows - 1},
        {
            "path_rho": (layout.path_rho, _F64, (rows, n)),
            "depth": (layout.depth, _I64, vector),
            "num_children": (layout.num_children, _I64, vector),
            "child_concat": (layout.child_concat, _I64, (n - 1,)),
            "child_offset": (layout.child_offset, _I64, vector),
            "stage_offset": (layout.stage_offset, _I64, vector),
        },
    )


def bind_tables(
    flat: FlatTables,
    like: KernelArgs | None = None,
    load: np.ndarray | None = None,
    avail: np.ndarray | None = None,
) -> KernelArgs | None:
    """The :class:`KernelTables` of ``flat``; ``None`` without the C backend.

    ``load`` / ``avail`` replace the table's own vectors (a trace for a
    different network of the same structure).  The float64 loads the
    gather reads are converted once and passed on to every binding made
    ``like`` one over the same load array, so a lineage converts them
    once.
    """
    if _LIB is None:
        return None
    load = flat.load if load is None else load
    avail = flat.avail if avail is None else avail
    n = len(flat.order)
    rows = flat.path_rho.shape[0]
    width = flat.y_red.shape[-1]
    if like is not None and like.arrays["load"] is load:
        load_f64 = like.arrays["load_f64"]
    else:
        load_f64 = np.asarray(load, dtype=np.float64)
    store = (None, rows, width)
    vector = (n,)
    return _bind(
        KernelTables,
        like,
        {"width": width},
        {
            "y_blue": (flat.y_blue, _F64, store),
            "y_red": (flat.y_red, _F64, store),
            "splits_blue": (flat.splits_blue, _I32, store),
            "splits_red": (flat.splits_red, _I32, store),
            "col": (flat.col, _I64, vector),
            "scol": (flat.scol, _I64, (flat.num_stages,)),
            "load": (load, _I64, vector),
            "load_f64": (load_f64, _F64, vector),
            "avail": (avail, _BOOL, vector),
        },
    )


def bind_cost_model(
    model: FlatCostModel,
    like: KernelArgs | None = None,
    load: np.ndarray | None = None,
    avail: np.ndarray | None = None,
) -> KernelArgs | None:
    """The :class:`KernelCostModel` of ``model``; ``None`` without the C backend.

    ``load`` / ``avail`` replace the model's own vectors, as in
    :func:`bind_tables`.
    """
    if _LIB is None:
        return None
    n = len(model.order)
    vector = (n,)
    return _bind(
        KernelCostModel,
        like,
        {"n": n},
        {
            "parent": (model.parent, _I64, vector),
            "rho": (model.rho, _F64, vector),
            "postorder": (model.postorder, _I64, vector),
            "load": (model.load if load is None else load, _I64, vector),
            "avail": (model.avail if avail is None else avail, _BOOL, vector),
        },
    )


def _data(array: np.ndarray, element: type) -> object:
    """The pointer argument of a per-call array the wrapper made contiguous.

    A writable array is passed as a ctypes object over its first element
    (``from_buffer``), which costs a fraction of reading its address; a
    read-only one (a memoized dirty set) through its address; an empty one
    as NULL, which no kernel reads.  Neither leaves cyclic garbage, unlike
    ``ndpointer`` arguments (their ``data_as`` casts leave two objects in
    a reference cycle per array).
    """
    if not array.size:
        return None
    if array.flags.writeable:
        return element.from_buffer(array)
    return ctypes.cast(array.ctypes.data, POINTER(element))


# --------------------------------------------------------------------------- #
# kernel wrappers (see repro.core.engine.Backend for the contracts)
# --------------------------------------------------------------------------- #


def repair_chain(flat: FlatTables, dirty: np.ndarray) -> None:
    """The ``repair_chain`` of the compiled backend: one ``repro_repair_chain`` call."""
    dirty = np.ascontiguousarray(dirty, dtype=np.int64)
    status = _LIB.repro_repair_chain(
        flat.layout_args.pointer,
        flat.table_args.pointer,
        _data(dirty, c_int64),
        dirty.size,
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


def color_masks(
    flat: FlatTables,
    load: np.ndarray,
    avail: np.ndarray,
    budgets: list[int],
    exact_k: bool,
) -> np.ndarray:
    """Blue masks ``(len(budgets), n)`` (uint8, flat order), one C call.

    ``load`` / ``avail`` are the traced network's loads and Λ in flat
    order (the leaf rule reads them); when they are not the table's own,
    the call binds the table with them.  Raises
    :class:`~repro.exceptions.PlacementError` with the numpy trace's
    messages on inconsistent tables.
    """
    tables = flat.table_args
    if load is not flat.load or avail is not flat.avail:
        tables = bind_tables(flat, tables, load, avail)
    wanted = np.array(budgets, dtype=np.int64)
    masks = np.empty((wanted.size, len(flat.order)), dtype=np.uint8)
    info = np.zeros(3, dtype=np.int64)
    status = _LIB.repro_color(
        flat.layout_args.pointer,
        tables.pointer,
        _data(wanted, c_int64),
        wanted.size,
        int(exact_k),
        _data(masks, c_uint8),
        _data(info, c_int64),
    )
    if status != 0:
        raise _kernel_failure(status, info, flat.order, wanted, flat.y_red.shape[-1] - 1)
    return masks


def utilization_costs(
    model: FlatCostModel,
    masks: np.ndarray,
    avail: np.ndarray,
    load: np.ndarray,
) -> np.ndarray:
    """Eq. (1) of every blue mask row ``(B, n)`` over ``model``, one C call.

    Bit-identical to :func:`repro.core.cost.utilization_cost_flat` per
    row.  ``avail`` / ``load`` are the costed network's Λ and loads in
    flat order; when they are not the model's own, the call binds the
    model with them.  A blue node outside ``avail`` raises
    :class:`~repro.exceptions.PlacementError`.
    """
    masks = np.ascontiguousarray(masks, dtype=np.uint8)
    n = len(model.order)
    if masks.ndim != 2 or masks.shape[1] != n:
        raise KernelArgumentError(
            f"blue masks must have shape (B, {n}), got {masks.shape}"
        )
    bound = model.cost_args
    if load is not model.load or avail is not model.avail:
        bound = bind_cost_model(model, bound, load, avail)
    costs = np.empty(masks.shape[0], dtype=np.float64)
    info = np.zeros(3, dtype=np.int64)
    status = _LIB.repro_utilization(
        _data(masks, c_uint8),
        masks.shape[0],
        bound.pointer,
        _COMPENSATED_SUM,
        _data(costs, c_double),
        _data(info, c_int64),
    )
    if status != 0:
        raise _kernel_failure(status, info, model.order, None, 0)
    return costs
