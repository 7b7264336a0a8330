"""The three benchmark workloads: seeded request streams for one closed-loop client.

Every workload runs on BT(1024) with constant link rates, per-switch
capacity 4, budget 16 and the service's default kernels.  A workload is
built by :func:`setup` from a seed; the service only ever sees the
generated requests, never the seed.

Why each workload exists:

``churn``
    Placement queries beside tenant churn over a recurring pool of 8
    workloads, with a write-ahead journal attached.  It is the only
    workload whose availability set Λ changes, so it is the only one where
    cold gathers, delta repairs, fleet state and the journal all do real
    work.  The stream is *stationary*: active tenants stay inside a fixed
    band and drains have a fixed per-request rate, so the mix of misses,
    repairs and evictions does not depend on how long the run is.
``warm-read``
    A fixed fleet and a cache warmed in set-up with one k=16 solve per
    recurring workload (32 of them, below the 64 cache entries).  No gather
    and no repair ever runs, so it measures the per-request floor: loads
    validation, digest, cache key and lookup, response packaging.  It is
    not listed in ``BENCHMARK.json``: on a 2-core VM whose speed changes
    by about 1.7x for minutes at a time, its sub-millisecond requests gave
    run-to-run spreads (IQR over median) of 0.38 in throughput and 0.63 in
    p50 at 30-second runs, above any bound the benchmark may set.  Every
    layer it exercises is also exercised by ``churn``.
``sweep-cold``
    Every request is a 1..16 budget sweep for a load vector never seen
    before (alternating uniform and power-law, as in the paper's strategy
    comparison), with Λ fixed.  Each request pays one gather and sixteen
    colour/cost traces; the cache only adds misses and LRU evictions, so a
    cache change that helps hits must show its cost here.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.tree import NodeId, TreeNetwork
from repro.service.api import (
    AdmitRequest,
    DrainRequest,
    PlacementService,
    ReleaseRequest,
    Request,
    SolveRequest,
    StatsRequest,
    SweepRequest,
)
from repro.service.persistence import Journal
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import (
    PowerLawLoadDistribution,
    UniformLoadDistribution,
    sample_leaf_loads,
)
from repro.workload.rates import apply_rate_scheme

WORKLOADS: tuple[str, ...] = ("churn", "warm-read", "sweep-cold")

BUDGET = 16
CAPACITY = 4

#: Churn mix: every block of 100 requests holds exactly these kinds, in one
#: fixed order, so every block of every run has the same mix; the seed
#: draws the workloads' loads and the drained switches.  (Drawing each
#: request's kind and workload independently made throughput differ by 40%
#: between seeds.)  Admits and releases balance, so the tenant count
#: returns to its level after every block.
CHURN_BLOCK: dict[str, int] = {
    "solve": 45, "sweep": 8, "admit": 19, "release": 19, "drain": 1, "stats": 8,
}
CHURN_POOL = 8
#: Active tenants stay in ``[TENANTS_LOW, TENANTS_HIGH]``; set-up admits
#: ``TENANTS_START`` so the timed loop starts inside the band.
TENANTS_LOW, TENANTS_START, TENANTS_HIGH = 12, 16, 20
CHURN_SWEEP_BUDGETS: tuple[int, ...] = (1, 2, 4, 8, 16)

WARM_POOL = 32
#: Share of warm-read requests that are 5-point sweeps (the rest are
#: single-budget solves).
WARM_SWEEP_SHARE = 0.25

COLD_SWEEP_BUDGETS: tuple[int, ...] = tuple(range(1, BUDGET + 1))

Loads = dict[NodeId, int]

#: Requests whose responses carry placements (and are checked).
PLACEMENT_REQUESTS = (SolveRequest, SweepRequest, AdmitRequest)


@dataclass
class Workload:
    """A built workload: the service under test and its request stream."""

    name: str
    tree: TreeNetwork
    service: PlacementService
    requests: Iterator[Request]
    #: Every ``verify_every``-th placement response is re-solved cold.
    verify_every: int
    close: Callable[[], None] = lambda: None


def _distributions() -> tuple[UniformLoadDistribution, PowerLawLoadDistribution]:
    return UniformLoadDistribution(), PowerLawLoadDistribution()


def _pool(tree: TreeNetwork, rng: np.random.Generator, size: int) -> list[Loads]:
    """``size`` recurring load vectors, alternating uniform and power-law.

    Alternating (rather than drawing the family) keeps the mix identical
    across seeds, so the utilisation ratio does not swing with the seed.
    """
    families = _distributions()
    return [sample_leaf_loads(tree, families[i % 2], rng=rng) for i in range(size)]


def _churn_stream(
    tree: TreeNetwork, pool: list[Loads], rng: np.random.Generator
) -> Iterator[Request]:
    """Stationary tenant churn: a fixed schedule inside a fixed tenant band."""
    switches = list(tree.switches)
    schedule = [kind for kind, count in CHURN_BLOCK.items() for _ in range(count)]
    np.random.default_rng(0).shuffle(schedule)
    active: list[str] = []
    admitted = 0

    def admit() -> AdmitRequest:
        # Tenants take the pool's workloads in turn and leave oldest first,
        # so how many tenants share a workload depends on the band alone.
        nonlocal admitted
        tenant = f"tenant-{admitted}"
        active.append(tenant)
        admitted += 1
        return AdmitRequest(tenant, pool[admitted % len(pool)], BUDGET)

    for _ in range(TENANTS_START):
        yield admit()
    queries = itertools.count()
    for kind in itertools.cycle(schedule):
        if kind == "admit" and len(active) >= TENANTS_HIGH:
            kind = "release"
        elif kind == "release" and len(active) <= TENANTS_LOW:
            kind = "admit"
        if kind == "solve":
            yield SolveRequest(pool[next(queries) % len(pool)], BUDGET)
        elif kind == "sweep":
            yield SweepRequest(pool[next(queries) % len(pool)], CHURN_SWEEP_BUDGETS)
        elif kind == "admit":
            yield admit()
        elif kind == "release":
            yield ReleaseRequest(active.pop(0))
        elif kind == "drain":
            # Draining an already drained switch is a valid no-op request.
            yield DrainRequest(switches[int(rng.integers(len(switches)))])
        else:
            yield StatsRequest()


def _warm_stream(pool: list[Loads], rng: np.random.Generator) -> Iterator[Request]:
    budgets = np.arange(1, BUDGET + 1)
    while True:
        loads = pool[int(rng.integers(len(pool)))]
        if rng.random() < WARM_SWEEP_SHARE:
            picked = sorted(int(b) for b in rng.choice(budgets, size=5, replace=False))
            yield SweepRequest(loads, tuple(picked))
        else:
            yield SolveRequest(loads, int(rng.integers(1, BUDGET + 1)))


def _cold_stream(tree: TreeNetwork, rng: np.random.Generator) -> Iterator[Request]:
    families = _distributions()
    for serial in itertools.count():
        loads = sample_leaf_loads(tree, families[serial % 2], rng=rng)
        yield SweepRequest(loads, COLD_SWEEP_BUDGETS)


def setup(name: str, seed: int, size: int, scratch: Path) -> Workload:
    """Build workload ``name``: tree, request stream, service, warm state.

    Everything a set-up measurement should cover happens here; the first
    request the caller pulls from :attr:`Workload.requests` is the first
    timed one.  ``scratch`` holds the churn journal (removed by ``close``).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    tree = apply_rate_scheme(bt_network(size), "constant")
    if name == "churn":
        pool = _pool(tree, rng, CHURN_POOL)
        journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=scratch))
        journal = Journal(journal_dir / "journal.jsonl", tree=tree)
        service = PlacementService(tree, CAPACITY, journal=journal)
        stream = _churn_stream(tree, pool, rng)
        for _ in range(TENANTS_START):
            service.submit(next(stream))

        def close() -> None:
            journal.close()
            shutil.rmtree(journal_dir, ignore_errors=True)

        return Workload(name, tree, service, stream, verify_every=25, close=close)
    service = PlacementService(tree, CAPACITY)
    if name == "warm-read":
        pool = _pool(tree, rng, WARM_POOL)
        for loads in pool:
            service.submit(SolveRequest(loads, BUDGET))
        return Workload(name, tree, service, _warm_stream(pool, rng), verify_every=2000)
    return Workload(name, tree, service, _cold_stream(tree, rng), verify_every=16)
