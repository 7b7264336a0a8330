"""Per-layer spans recorded around the calls into each layer's public functions.

The benchmark's traced run installs a :class:`Tracer`, which replaces each
layer entry point (a class attribute or a module global, see
:data:`LAYER_ENTRY_POINTS`) with a wrapper that records a span, and puts
the originals back on exit.  Spans nest on one stack (the client is a
single thread), so a layer's *self* time is its span minus the spans of
the layers it called.  The program itself is not modified: the wrappers
live here, and the untraced runs execute the original functions.

Layers are named after modules.  ``lock`` spans cover only the time until
the read/write lock is granted, so the lock's self time is its wait.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass

import repro.core.solver as solver_module
import repro.service.api as api_module
from repro.core.solver import GatherTable, Solver
from repro.core.tree import TreeNetwork
from repro.exceptions import RepairError
from repro.service.api import PlacementService, ReadWriteLock
from repro.service.cache import GatherTableCache
from repro.service.persistence import Journal
from repro.service.state import FleetState
from workloads import PLACEMENT_REQUESTS


def _public_methods(owner: type) -> tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(owner).items()
        if not name.startswith("_") and callable(value)
    )


#: ``(layer, owner, attribute)`` for every wrapped entry point.  The module
#: globals are patched where the caller looks them up (``fingerprint_loads``
#: as the service calls it, the colour and cost kernels as the solver does).
LAYER_ENTRY_POINTS: tuple[tuple[str, object, str], ...] = (
    ("api", PlacementService, "submit"),
    ("lock", ReadWriteLock, "read_locked"),
    ("lock", ReadWriteLock, "write_locked"),
    ("tree.digest", api_module, "fingerprint_loads"),
    ("tree.rebuild", TreeNetwork, "with_loads"),
    ("tree.rebuild", TreeNetwork, "with_available"),
    *(("cache", GatherTableCache, name) for name in _public_methods(GatherTableCache)),
    ("solver.gather", Solver, "gather"),
    ("solver.repair", GatherTable, "repair"),
    ("color", solver_module, "trace_color"),
    ("cost", solver_module, "evaluate_cost"),
    ("state", FleetState, "register"),
    ("state", FleetState, "withdraw"),
    ("state", FleetState, "drain"),
    ("persistence.journal", Journal, "append"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_ENTRY_POINTS))


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


class _TimedAcquire:
    """Context manager whose ``__enter__`` (the lock grant) is one span."""

    def __init__(self, tracer: "Tracer", inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def __enter__(self):
        return self._tracer.call("lock", self._inner.__enter__)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class Tracer:
    """Span recorder and per-request counters for one traced run.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.
    """

    def __init__(self) -> None:
        self.layers = {layer: LayerStats() for layer in LAYERS}
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []
        #: Wall time covered by root ``api`` spans (one per request).
        self.request_s = 0.0
        self.placement_requests = 0
        self.hit_requests = 0
        self.memo_requests = 0
        self.evictions = 0
        self.repair_candidates = 0
        self.repairs_completed = 0
        self.repairs_refused = 0
        self.journal_bytes = 0

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``; return its result."""
        stats = self.layers[layer]
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stats.calls += 1
            stats.self_s += elapsed - children[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            else:
                self.request_s += elapsed

    def _spanned(self, layer: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # wrappers with counters
    # ------------------------------------------------------------------ #

    def _wrapper(self, layer: str, owner: object, name: str, fn: Callable) -> Callable:
        if layer == "lock":
            return lambda lock: _TimedAcquire(self, fn(lock))
        spanned = self._spanned(layer, fn)
        if layer == "api":
            return self._submit_wrapper(spanned)
        if owner is GatherTableCache and name == "store":
            return self._store_wrapper(spanned)
        if owner is GatherTableCache and name == "repair_candidate":
            return self._candidate_wrapper(spanned)
        if layer == "solver.repair":
            return self._repair_wrapper(spanned)
        if layer == "persistence.journal":
            return self._append_wrapper(spanned)
        return spanned

    def _submit_wrapper(self, spanned: Callable) -> Callable:
        gather, color = self.layers["solver.gather"], self.layers["color"]

        def submit(service, request):
            before = (gather.calls, self.repairs_completed, color.calls)
            response = spanned(service, request)
            if isinstance(request, PLACEMENT_REQUESTS):
                # Outcomes per request, from the spans this request opened:
                # a hit paid neither a gather nor a repair, a memo hit did
                # not even trace a colouring.
                self.placement_requests += 1
                if (gather.calls, self.repairs_completed) == before[:2]:
                    self.hit_requests += 1
                    if color.calls == before[2]:
                        self.memo_requests += 1
            return response

        return submit

    def _store_wrapper(self, spanned: Callable) -> Callable:
        def store(cache, key, table):
            grows = 0 if key in cache else 1
            size = len(cache)
            spanned(cache, key, table)
            self.evictions += size + grows - len(cache)

        return store

    def _candidate_wrapper(self, spanned: Callable) -> Callable:
        def repair_candidate(cache, *args, **kwargs):
            candidate = spanned(cache, *args, **kwargs)
            if candidate is not None:
                self.repair_candidates += 1
            return candidate

        return repair_candidate

    def _repair_wrapper(self, spanned: Callable) -> Callable:
        def repair(table, delta):
            try:
                repaired = spanned(table, delta)
            except RepairError:
                self.repairs_refused += 1
                raise
            self.repairs_completed += 1
            return repaired

        return repair

    def _append_wrapper(self, spanned: Callable) -> Callable:
        def append(journal, event):
            size = os.path.getsize(journal.path)
            count = spanned(journal, event)
            self.journal_bytes += os.path.getsize(journal.path) - size
            return count

        return append

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "Tracer":
        for layer, owner, name in LAYER_ENTRY_POINTS:
            original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrapper(layer, owner, name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    # report
    # ------------------------------------------------------------------ #

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)`` for a traced wall.

        ``api.calls`` is the number of requests traced.  Every other count
        is per request, so a change that only makes requests faster (and a
        fixed-length run serve more of them) leaves it unchanged.
        """
        requests = self.layers["api"].calls
        out: dict[str, tuple[float, str]] = {}
        for layer, stats in self.layers.items():
            mean_ms = 1e3 * stats.self_s / stats.calls if stats.calls else 0.0
            if layer == "api":
                out["api.calls"] = (requests, "count")
            else:
                out[f"{layer}.calls"] = (stats.calls / requests, "1/req")
            out[f"{layer}.wait_ms" if layer == "lock" else f"{layer}.self_ms"] = (mean_ms, "ms")
            out[f"{layer}.share"] = (stats.self_s / wall_s, "ratio")
        placements = self.placement_requests
        appends = self.layers["persistence.journal"].calls
        out["cache.hit_ratio"] = (self.hit_requests / placements if placements else 0.0, "ratio")
        out["cache.memo_ratio"] = (self.memo_requests / placements if placements else 0.0, "ratio")
        out["cache.evictions"] = (self.evictions / requests, "1/req")
        out["solver.repair.refused"] = (self.repairs_refused / requests, "1/req")
        out["solver.repair.useful_ratio"] = (
            self.repairs_completed / self.repair_candidates if self.repair_candidates else 0.0,
            "ratio",
        )
        out["persistence.journal.bytes_per_append"] = (
            self.journal_bytes / appends if appends else 0.0,
            "B",
        )
        out["trace.coverage"] = (self.request_s / wall_s, "ratio")
        return out
