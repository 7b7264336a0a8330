"""Churn traces: recorded request streams for the placement service.

A *trace* is a flat list of :class:`TraceEvent` — a serializable, engine-
and state-agnostic description of one service request.  Traces come from
two places:

* :func:`generate_churn_trace` draws a seeded synthetic stream: tenants
  arrive (``admit``), repeat placement queries (``solve`` / ``sweep``,
  drawn from a small pool of recurring workloads so the cache has
  something to hit), depart (``release``), and occasionally a switch is
  drained.  The stream is fully determined by its seed.
* :func:`read_trace` / :func:`write_trace` round-trip a trace through
  JSON-lines, so a recorded production stream can be replayed offline
  (``soar-repro serve-replay --trace requests.jsonl``).

Workload loads are stored inline in each event (as ``str(node) -> load``
pairs); :func:`event_to_request` resolves them against the target network
when the trace is replayed, so a trace file is self-contained and portable
across processes.

The same format backs the service's write-ahead journal
(:class:`repro.service.persistence.Journal`): a journal is a trace file
restricted to the mutating kinds, produced by :func:`request_to_event` —
the inverse of :func:`event_to_request` — as each mutation is applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.tree import Loads, NodeId, TreeNetwork
from repro.exceptions import PersistenceError, WorkloadError
from repro.service.api import (
    AdmitRequest,
    DrainRequest,
    ReleaseRequest,
    Request,
    SolveRequest,
    StatsRequest,
    SweepRequest,
)
from repro.workload.distributions import (
    PowerLawLoadDistribution,
    UniformLoadDistribution,
    sample_leaf_loads,
)

#: Event kinds a trace may contain, mirroring the service request types.
EVENT_KINDS: tuple[str, ...] = ("solve", "sweep", "admit", "release", "drain", "stats")

#: Kind tag of the optional first line identifying the recorded network.
TRACE_HEADER_KIND: str = "trace-header"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded service request.

    ``loads`` maps ``str(node)`` to the load — stringified so the event
    survives JSON round-trips regardless of the node-id type; the replay
    side resolves names back to node ids against its network.
    """

    kind: str
    tenant: str | None = None
    budget: int | None = None
    budgets: tuple[int, ...] = ()
    loads: tuple[tuple[str, int], ...] = ()
    switch: str | None = None
    exact_k: bool = False

    def to_json(self) -> str:
        """Serialize as one compact JSON object (one line of a trace file)."""
        payload: dict = {"kind": self.kind}
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if self.budget is not None:
            payload["budget"] = self.budget
        if self.budgets:
            payload["budgets"] = list(self.budgets)
        if self.loads:
            payload["loads"] = [[name, load] for name, load in self.loads]
        if self.switch is not None:
            payload["switch"] = self.switch
        if self.exact_k:
            payload["exact_k"] = True
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Parse one JSON line back into an event."""
        return cls._from_payload(json.loads(line))

    @classmethod
    def _from_payload(cls, payload: dict) -> "TraceEvent":
        kind = payload.get("kind")
        if kind not in EVENT_KINDS:
            raise WorkloadError(f"unknown trace event kind: {kind!r}")
        return cls(
            kind=kind,
            tenant=payload.get("tenant"),
            budget=payload.get("budget"),
            budgets=tuple(int(b) for b in payload.get("budgets", [])),
            loads=tuple((str(name), int(load)) for name, load in payload.get("loads", [])),
            switch=payload.get("switch"),
            exact_k=bool(payload.get("exact_k", False)),
        )


def node_index(tree: TreeNetwork) -> dict[str, NodeId]:
    """Map ``str(node)`` back to node ids, rejecting ambiguous networks.

    The shared resolution convention of every serialized artifact in the
    service layer: trace events, write-ahead journals, and fleet snapshots
    all store switches as ``str(node)`` and resolve them through this
    index when loaded.
    """
    index: dict[str, NodeId] = {}
    for node in tree.switches:
        name = str(node)
        if name in index:
            raise WorkloadError(
                f"network has two switches stringifying to {name!r}; "
                "traces cannot be resolved against it"
            )
        index[name] = node
    return index


#: Backwards-compatible alias (pre-persistence name).
_node_index = node_index


def resolve_loads(
    tree: TreeNetwork,
    loads: Iterable[tuple[str, int]],
    node_index: dict[str, NodeId] | None = None,
) -> dict[NodeId, int]:
    """Resolve an event's stringified loads against a network."""
    index = _node_index(tree) if node_index is None else node_index
    resolved: dict[NodeId, int] = {}
    for name, load in loads:
        try:
            resolved[index[name]] = int(load)
        except KeyError as exc:
            raise WorkloadError(
                f"trace references unknown switch {name!r}"
            ) from exc
    return resolved


def event_to_request(
    tree: TreeNetwork,
    event: TraceEvent,
    node_index: dict[str, NodeId] | None = None,
) -> Request:
    """Convert a trace event into the corresponding typed service request."""
    index = _node_index(tree) if node_index is None else node_index
    if event.kind == "solve":
        return SolveRequest(
            loads=resolve_loads(tree, event.loads, index),
            budget=int(event.budget or 0),
            exact_k=event.exact_k,
        )
    if event.kind == "sweep":
        return SweepRequest(
            loads=resolve_loads(tree, event.loads, index),
            budgets=tuple(event.budgets),
            exact_k=event.exact_k,
        )
    if event.kind == "admit":
        if event.tenant is None:
            raise WorkloadError("admit event without a tenant id")
        return AdmitRequest(
            tenant_id=event.tenant,
            loads=resolve_loads(tree, event.loads, index),
            budget=int(event.budget or 0),
            exact_k=event.exact_k,
        )
    if event.kind == "release":
        if event.tenant is None:
            raise WorkloadError("release event without a tenant id")
        return ReleaseRequest(tenant_id=event.tenant)
    if event.kind == "drain":
        if event.switch is None:
            raise WorkloadError("drain event without a switch")
        try:
            return DrainRequest(switch=index[event.switch])
        except KeyError as exc:
            raise WorkloadError(
                f"drain event references unknown switch {event.switch!r}"
            ) from exc
    if event.kind == "stats":
        return StatsRequest()
    raise WorkloadError(f"unknown trace event kind: {event.kind!r}")


def _event_loads(loads: Mapping[NodeId, int]) -> tuple[tuple[str, int], ...]:
    """A request's loads as a trace event stores them: sorted ``(str(node), load)``.

    A :class:`~repro.core.tree.Loads` value serialises once and keeps the
    result (:attr:`~repro.core.tree.Loads.serialized`); its zero entries
    are not stored.
    """
    if isinstance(loads, Loads):
        return loads.serialized
    return tuple(sorted((str(n), int(v)) for n, v in loads.items()))


def request_to_event(request: Request) -> TraceEvent:
    """Convert a typed service request back into a serializable trace event.

    The exact inverse of :func:`event_to_request` (modulo load ordering,
    which both sides treat as a mapping): replaying the produced event
    against the same network yields an equal request.  This is how the
    write-ahead journal records mutating requests — the journal *is* a
    trace file, so every trace tool (:func:`read_trace`,
    :func:`trace_header`, the replay driver) works on journals unchanged.
    """
    if isinstance(request, SolveRequest):
        return TraceEvent(
            kind="solve",
            budget=int(request.budget),
            loads=_event_loads(request.loads),
            exact_k=request.exact_k,
        )
    if isinstance(request, SweepRequest):
        return TraceEvent(
            kind="sweep",
            budgets=tuple(int(b) for b in request.budgets),
            loads=_event_loads(request.loads),
            exact_k=request.exact_k,
        )
    if isinstance(request, AdmitRequest):
        return TraceEvent(
            kind="admit",
            tenant=request.tenant_id,
            budget=int(request.budget),
            loads=_event_loads(request.loads),
            exact_k=request.exact_k,
        )
    if isinstance(request, ReleaseRequest):
        return TraceEvent(kind="release", tenant=request.tenant_id)
    if isinstance(request, DrainRequest):
        return TraceEvent(kind="drain", switch=str(request.switch))
    if isinstance(request, StatsRequest):
        return TraceEvent(kind="stats")
    raise WorkloadError(f"unknown request type: {type(request).__name__}")


def write_trace(
    events: Sequence[TraceEvent],
    path: str | Path,
    tree: TreeNetwork | None = None,
) -> Path:
    """Write a trace as JSON-lines; returns the path written.

    When ``tree`` is given, the file starts with a header line recording
    the network's structure fingerprint and size, so a later replay can
    refuse to run the trace against a different network (BT switch names
    nest across sizes, so without the header a size mismatch would resolve
    silently and produce different results than the recording).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        if tree is not None:
            header = {
                "kind": TRACE_HEADER_KIND,
                "structure": tree.structure_fingerprint(),
                "num_switches": tree.num_switches,
            }
            handle.write(json.dumps(header, separators=(",", ":")))
            handle.write("\n")
        for event in events:
            handle.write(event.to_json())
            handle.write("\n")
    return target


def _json_lines(path: str | Path) -> Iterator[dict]:
    """The JSON objects of a JSON-lines file, blank lines skipped.

    Raises
    ------
    PersistenceError
        Naming the file and line, when a line is not a JSON object — the
        torn last record of a crash mid-append, for one.
    """
    with Path(path).open() as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PersistenceError(
                    f"{path}:{number}: torn or malformed JSON line ({exc.msg})"
                ) from exc
            if not isinstance(payload, dict):
                raise PersistenceError(f"{path}:{number}: line is not a JSON object")
            yield payload


def trace_header(path: str | Path) -> dict | None:
    """Return the trace file's header payload, or ``None`` if it has none."""
    for payload in _json_lines(path):
        return payload if payload.get("kind") == TRACE_HEADER_KIND else None
    return None


def check_trace_compatible(tree: TreeNetwork, header: dict | None) -> None:
    """Raise when a trace header identifies a different network.

    A headerless trace (``header is None``) passes — there is nothing to
    check against, as with hand-written traces.
    """
    if header is None:
        return
    expected = header.get("structure")
    if expected is not None and expected != tree.structure_fingerprint():
        raise WorkloadError(
            "trace was recorded for a different network "
            f"({header.get('num_switches', '?')} switches, structure {expected[:12]}…); "
            f"this network has {tree.num_switches} switches — "
            "replay with the matching --network-size / topology"
        )


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Read a JSON-lines trace file back into events (header skipped).

    Use :func:`trace_header` + :func:`check_trace_compatible` to validate
    the recorded network identity before replaying.  A line that is not a
    JSON object raises :class:`~repro.exceptions.PersistenceError` naming
    the file and line.
    """
    payloads = list(_json_lines(path))
    if payloads and payloads[0].get("kind") == TRACE_HEADER_KIND:
        payloads = payloads[1:]
    return [TraceEvent._from_payload(payload) for payload in payloads]


@dataclass(frozen=True)
class ChurnProfile:
    """Mix of request kinds in a synthetic churn trace (weights, not probs).

    The defaults describe a read-heavy service: most requests are repeated
    placement queries over a recurring pool of workloads, a quarter of the
    stream is tenant churn, drains are rare events.
    """

    solve: float = 0.45
    sweep: float = 0.08
    admit: float = 0.22
    release: float = 0.17
    drain: float = 0.03
    stats: float = 0.05

    def weights(self) -> np.ndarray:
        """Normalized weights aligned with :data:`EVENT_KINDS` by *name*,
        so reordering either the fields or the kinds cannot silently remap
        a kind onto another kind's weight."""
        values = np.asarray(
            [getattr(self, kind) for kind in EVENT_KINDS], dtype=np.float64
        )
        if np.any(values < 0) or values.sum() <= 0:
            raise WorkloadError("churn profile weights must be non-negative, not all zero")
        return values / values.sum()


def generate_churn_trace(
    tree: TreeNetwork,
    num_requests: int,
    seed: int | np.random.Generator = 0,
    budget: int = 16,
    workload_pool: int = 8,
    sweep_budgets: tuple[int, ...] = (1, 2, 4, 8, 16),
    max_drains: int = 2,
    profile: ChurnProfile | None = None,
    mix_probability: float = 0.5,
    tenant_offset: int = 0,
) -> list[TraceEvent]:
    """Generate a seeded synthetic churn trace over ``tree``.

    The stream draws workloads from a pool of ``workload_pool`` recurring
    load vectors (a mixed uniform / power-law population, as in the online
    experiments), so repeated queries exercise the gather-table cache the
    way recurring tenants would.  Releases target random *currently-active*
    tenants and drains pick random not-yet-drained switches, so every
    generated trace is valid to replay from a fresh service.

    ``tenant_offset`` starts the ``tenant-<n>`` numbering there instead of
    at zero, so a trace generated for a *restored* service (which may
    still hold tenants from its previous life) cannot collide with the
    restored registry — pass the service's lifetime ``admitted_total``.

    The stream is fully determined by ``seed`` (or the supplied generator)
    together with ``tenant_offset``.
    """
    if num_requests < 0:
        raise WorkloadError(f"num_requests must be non-negative, got {num_requests}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    profile = profile or ChurnProfile()
    weights = profile.weights()

    uniform = UniformLoadDistribution()
    power_law = PowerLawLoadDistribution()
    pool: list[tuple[tuple[str, int], ...]] = []
    for _ in range(max(1, int(workload_pool))):
        distribution = uniform if rng.random() < mix_probability else power_law
        loads = sample_leaf_loads(tree, distribution, rng=rng)
        pool.append(tuple((str(node), int(load)) for node, load in loads.items()))

    switch_names = [str(node) for node in tree.switches]
    active: list[str] = []
    drained: list[str] = []
    events: list[TraceEvent] = []
    next_tenant = max(0, int(tenant_offset))

    for _ in range(int(num_requests)):
        kind = EVENT_KINDS[int(rng.choice(len(EVENT_KINDS), p=weights))]
        if kind == "release" and not active:
            kind = "admit"
        if kind == "drain" and (len(drained) >= max_drains or len(drained) >= len(switch_names)):
            kind = "solve"

        if kind == "solve":
            events.append(
                TraceEvent(
                    kind="solve",
                    budget=int(budget),
                    loads=pool[int(rng.integers(len(pool)))],
                )
            )
        elif kind == "sweep":
            events.append(
                TraceEvent(
                    kind="sweep",
                    budgets=tuple(int(b) for b in sweep_budgets),
                    loads=pool[int(rng.integers(len(pool)))],
                )
            )
        elif kind == "admit":
            tenant = f"tenant-{next_tenant}"
            next_tenant += 1
            active.append(tenant)
            events.append(
                TraceEvent(
                    kind="admit",
                    tenant=tenant,
                    budget=int(budget),
                    loads=pool[int(rng.integers(len(pool)))],
                )
            )
        elif kind == "release":
            tenant = active.pop(int(rng.integers(len(active))))
            events.append(TraceEvent(kind="release", tenant=tenant))
        elif kind == "drain":
            candidates = [name for name in switch_names if name not in drained]
            switch = candidates[int(rng.integers(len(candidates)))]
            drained.append(switch)
            events.append(TraceEvent(kind="drain", switch=switch))
        else:
            events.append(TraceEvent(kind="stats"))
    return events
