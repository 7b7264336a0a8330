"""Crash-safe fleet state: versioned snapshots and a write-ahead journal.

The placement service is a long-lived daemon, but until this module its
fleet — tenant registry, residual capacities, drained switches, lifetime
counters — died with the process.  Persistence splits that state into two
artifacts with one invariant between them:

* a **snapshot** (:meth:`repro.service.PlacementService.snapshot`) is a
  versioned, JSON-serializable point-in-time copy of the fleet, stamped
  with the journal position ``seq`` — the number of mutating requests
  applied when it was taken;
* a **journal** (:class:`Journal`) is an append-only JSON-lines file that
  records every *mutating* request (admit / release / drain) after it is
  applied, in the exact :class:`~repro.service.events.TraceEvent` format —
  a journal *is* a trace file, so every trace tool reads it unchanged.

``PlacementService.restore(tree, snapshot, journal)`` loads the snapshot
and replays the journal events past ``seq``.  Because every mutating
request is deterministic given the fleet state (the kernel backends are
bit-identical and the drain loop re-places displaced tenants in arrival
order), replaying the tail reproduces the
crashed service's registry, residuals, counters, and incremental Λ digest
bit-for-bit — the restored service answers every subsequent request with
exactly the placements and costs an uninterrupted run would have produced.
Read-only requests are never journaled; they cannot change what needs
recovering.

What survives a restart and what does not
-----------------------------------------
Fleet state (tenants, capacities, drains, counters, Λ digest) is restored
exactly.  Diagnostics are not: cache statistics and per-kind request
counts restart from the journal replay, so ``Stats`` responses are the one
request type whose payload legitimately differs after a restore.  The
gather-table cache starts cold, but the snapshot records the cache's *hot
workloads* (the loads / semantics / budget of every cached table, LRU
order) and the restore path re-gathers them by default (``prewarm=True``),
so a restored service re-enters steady state without waiting for the
traffic to re-teach it.

Durability
----------
:meth:`Journal.append` flushes on every event; pass ``sync=True`` to also
``fsync`` — the classic write-ahead trade of latency for crash-window.
Appends happen *after* the handler returns (under the service's write
lock), so a journal line always records a mutation that was applied, and
a request that raised is never journaled.  A torn last line (a crash
mid-append) or a truncated snapshot raises
:class:`~repro.exceptions.PersistenceError` naming the file and line;
recovering by truncating the torn record is not attempted.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from collections.abc import Mapping, Sequence

from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import PersistenceError, ReproError
from repro.service.events import (
    TRACE_HEADER_KIND,
    TraceEvent,
    event_to_request,
    node_index,
    read_trace,
    resolve_loads,
    trace_header,
)

__all__ = [
    "Journal",
    "MUTATING_KINDS",
    "SNAPSHOT_KIND",
    "SNAPSHOT_VERSION",
    "build_snapshot",
    "read_snapshot",
    "write_snapshot",
]

#: Event kinds a write-ahead journal may contain.
MUTATING_KINDS: tuple[str, ...] = ("admit", "release", "drain")

#: ``kind`` tag of a serialized fleet snapshot.
SNAPSHOT_KIND: str = "fleet-snapshot"

#: Format version written into (and required from) every snapshot.
SNAPSHOT_VERSION: int = 1


class Journal:
    """Append-only write-ahead journal of mutating service requests.

    Parameters
    ----------
    path:
        The JSON-lines file to append to.  An existing file is *continued*
        (its events are counted and its header checked), which is how a
        restored service keeps appending where the crashed one stopped; a
        missing or empty file is initialized with a network-identity
        header when ``tree`` is given.
    tree:
        The network the journal belongs to.  Recorded in the header so a
        later restore refuses to replay the journal against a different
        network.
    sync:
        When true, every append ``fsync``\\ s the file (durability over
        latency); the default flushes only.

    Raises
    ------
    PersistenceError
        If an existing file contains non-mutating events or was recorded
        for a different network.
    """

    def __init__(
        self,
        path: str | Path,
        tree: TreeNetwork | None = None,
        sync: bool = False,
    ) -> None:
        self._path = Path(path)
        self._sync = bool(sync)
        self._handle = None
        self._structure = tree.structure_fingerprint() if tree is not None else None
        self._count = 0
        if self._path.exists() and self._path.stat().st_size > 0:
            header = trace_header(self._path)
            recorded = header.get("structure") if header else None
            if (
                recorded is not None
                and self._structure is not None
                and recorded != self._structure
            ):
                raise PersistenceError(
                    f"journal {self._path} was recorded for a different network "
                    f"(structure {recorded[:12]}…)"
                )
            if self._structure is None:
                self._structure = recorded
            events = read_trace(self._path)
            foreign = sorted({e.kind for e in events if e.kind not in MUTATING_KINDS})
            if foreign:
                raise PersistenceError(
                    f"journal {self._path} contains non-mutating events "
                    f"({', '.join(foreign)}); it is a full trace, not a journal"
                )
            self._count = len(events)
        else:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            if tree is not None:
                header = {
                    "kind": TRACE_HEADER_KIND,
                    "structure": self._structure,
                    "num_switches": tree.num_switches,
                }
                self._write_line(json.dumps(header, separators=(",", ":")))

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def path(self) -> Path:
        """The underlying JSON-lines file."""
        return self._path

    @property
    def structure(self) -> str | None:
        """Structure fingerprint of the recorded network (``None`` if unknown)."""
        return self._structure

    @property
    def event_count(self) -> int:
        """Mutating events in the journal (existing plus appended)."""
        return self._count

    def events(self) -> list[TraceEvent]:
        """Read the journal back as trace events (header skipped)."""
        self.flush()
        if not self._path.exists():
            return []
        return read_trace(self._path)

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #

    def _write_line(self, line: str) -> None:
        if self._handle is None:
            self._handle = self._path.open("a")
        self._handle.write(line)
        self._handle.write("\n")
        self._handle.flush()
        if self._sync:
            import os

            os.fsync(self._handle.fileno())

    def append(self, event: TraceEvent) -> int:
        """Append one mutating event; returns the new event count.

        Raises
        ------
        PersistenceError
            If the event's kind is not a mutating one — journaling a
            read-only request would desynchronize the ``seq`` positions
            every snapshot records.
        """
        if event.kind not in MUTATING_KINDS:
            raise PersistenceError(
                f"only mutating events belong in a journal, got {event.kind!r}"
            )
        self._write_line(event.to_json())
        self._count += 1
        return self._count

    def flush(self) -> None:
        """Flush any buffered appends to disk."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Close the file handle (the journal may be reopened later)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------------- #


def build_snapshot(service, include_cache: bool = True) -> dict:
    """Assemble the versioned snapshot payload for a service.

    Called by :meth:`repro.service.PlacementService.snapshot` (which holds
    the write lock around it); prefer that entry point.  The payload is
    pure JSON-serializable data: fleet state via
    :meth:`~repro.service.state.FleetState.state_dict`, the structure
    fingerprint, the journal position ``seq``, the Λ digest (an integrity
    check for the restore path), and — with ``include_cache`` — the hot
    workloads of the gather-table cache in LRU order (each cached
    :class:`~repro.core.solver.GatherTable` owns the workload network it
    was gathered for, so its loads can be read straight off the artifact).
    """
    state = service.state
    tree = state.tree
    payload: dict = {
        "kind": SNAPSHOT_KIND,
        "version": SNAPSHOT_VERSION,
        "structure": tree.structure_fingerprint(),
        "num_switches": tree.num_switches,
        "seq": int(service.mutation_seq),
        "availability": state.availability_fingerprint(),
        "fleet": state.state_dict(),
        "hot_workloads": [],
    }
    if include_cache:
        for key, table in service.cache.tables():
            loads = {
                str(node): int(load)
                for node, load in table.tree.loads.items()
                if int(load) != 0
            }
            payload["hot_workloads"].append(
                {
                    "loads": sorted([name, load] for name, load in loads.items()),
                    "exact_k": bool(key.exact_k),
                    "budget": int(table.budget),
                }
            )
    return payload


def write_snapshot(payload: Mapping, path: str | Path) -> Path:
    """Write a snapshot payload as JSON, atomically; returns the path.

    The snapshot is the file :func:`restore_service` starts from, so a
    crash mid-write must never leave a truncated JSON in its place.  The
    payload is written to a same-directory temporary file, flushed and
    fsynced, then published over ``path`` with :func:`os.replace` — on a
    POSIX filesystem readers see either the previous complete snapshot or
    the new complete one, never a partial write.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle_fd, staging = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle_fd, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, target)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return target


def read_snapshot(path: str | Path) -> dict:
    """Read a snapshot payload back, validating its kind tag.

    Raises
    ------
    PersistenceError
        If the file does not hold a fleet snapshot, or holds a truncated
        or otherwise undecodable one.
    """
    with Path(path).open() as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise PersistenceError(
                f"{path}:{exc.lineno}: snapshot is truncated or is not JSON ({exc.msg})"
            ) from exc
    if not isinstance(payload, dict) or payload.get("kind") != SNAPSHOT_KIND:
        raise PersistenceError(f"{path} does not contain a fleet snapshot")
    return payload


def _validate_snapshot(snapshot: Mapping, tree: TreeNetwork) -> None:
    if snapshot.get("kind") != SNAPSHOT_KIND:
        raise PersistenceError("payload is not a fleet snapshot")
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise PersistenceError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    recorded = snapshot.get("structure")
    if recorded is not None and recorded != tree.structure_fingerprint():
        raise PersistenceError(
            "snapshot was taken for a different network "
            f"({snapshot.get('num_switches', '?')} switches, "
            f"structure {recorded[:12]}…); this network has "
            f"{tree.num_switches} switches"
        )


def _journal_events(
    journal, tree: TreeNetwork
) -> tuple[list[TraceEvent], "Journal | None"]:
    """Normalize restore's ``journal`` argument into (events, attachable)."""
    if journal is None:
        return [], None
    # Duck-typed rather than isinstance: running this module as __main__
    # (the CI smoke) loads a second copy of the class, and a Journal from
    # either copy must be honoured.
    if hasattr(journal, "events") and hasattr(journal, "append"):
        if journal.structure is not None and journal.structure != tree.structure_fingerprint():
            raise PersistenceError(
                "journal was recorded for a different network "
                f"(structure {journal.structure[:12]}…)"
            )
        return journal.events(), journal
    if isinstance(journal, (str, Path)):
        header = trace_header(journal)
        recorded = header.get("structure") if header else None
        if recorded is not None and recorded != tree.structure_fingerprint():
            raise PersistenceError(
                f"journal {journal} was recorded for a different network "
                f"(structure {recorded[:12]}…)"
            )
        return read_trace(journal), None
    return list(journal), None


def restore_service(
    cls,
    tree: TreeNetwork,
    snapshot: Mapping | str | Path | None,
    journal=None,
    *,
    capacity: "int | Mapping[NodeId, int] | None" = None,
    cache_entries: int = 64,
    prewarm: bool = True,
):
    """Implementation of :meth:`repro.service.PlacementService.restore`.

    ``capacity`` is only consulted for journal-only recovery
    (``snapshot=None``), where no snapshot records the initial
    capacities; with a snapshot it is ignored — the snapshot is
    authoritative.  The ``engine`` / ``color`` / ``cost_kernel`` names of
    snapshots written before the backend knob are never read.
    """
    index = node_index(tree)
    if isinstance(snapshot, (str, Path)):
        snapshot = read_snapshot(snapshot)
    if snapshot is not None:
        _validate_snapshot(snapshot, tree)
        seq = int(snapshot.get("seq", 0))
        initial = snapshot["fleet"]["capacity"]["initial"]
        try:
            capacity = {index[name]: int(value) for name, value in initial.items()}
        except KeyError as exc:
            raise PersistenceError(
                f"snapshot references unknown switch {exc.args[0]!r}"
            ) from exc
    else:
        seq = 0
        if capacity is None:
            raise PersistenceError(
                "journal-only recovery needs the initial capacities: pass "
                "capacity=... (a snapshot records them, a journal does not)"
            )

    service = cls(tree, capacity, cache_entries=cache_entries)
    if snapshot is not None:
        service.state.load_state(snapshot["fleet"], index)
        recorded = snapshot.get("availability")
        rebuilt = service.state.availability_fingerprint()
        if recorded is not None and recorded != rebuilt:
            raise PersistenceError(
                "restored availability digest does not match the snapshot "
                f"({rebuilt[:12]}… != {recorded[:12]}…); the snapshot is "
                "corrupt or was edited"
            )
        service._mutation_seq = seq

    events, attachable = _journal_events(journal, tree)
    foreign = sorted({e.kind for e in events if e.kind not in MUTATING_KINDS})
    if foreign:
        raise PersistenceError(
            f"journal contains non-mutating events ({', '.join(foreign)}); "
            "replay full traces through the driver, not through restore"
        )
    if journal is not None and len(events) < seq:
        raise PersistenceError(
            f"journal holds {len(events)} events but the snapshot was taken "
            f"at seq {seq}; the journal does not cover this snapshot"
        )
    for event in events[seq:]:
        service._serve(event_to_request(tree, event, index))
        service._mutation_seq += 1
    if attachable is not None:
        service.attach_journal(attachable)

    if prewarm and snapshot is not None:
        for hot in snapshot.get("hot_workloads", []):
            if not service.available():
                break
            try:
                loads = resolve_loads(tree, hot.get("loads", []), index)
                service._solve_cached(
                    loads,
                    int(hot.get("budget", 0)),
                    bool(hot.get("exact_k", False)),
                )
            except ReproError:
                # A hot workload that no longer resolves (or gathers)
                # is stale advice, not an error: skip it.
                continue
    return service


# --------------------------------------------------------------------------- #
# standalone kill/restore smoke (the CI step)
# --------------------------------------------------------------------------- #


def main(argv: "Sequence[str] | None" = None) -> int:
    """Operational proof: kill a journaled service mid-trace and restore it.

    Generates a seeded churn trace, replays it uninterrupted, then replays
    it again with a crash in the middle — snapshot taken part-way through,
    journal running to the kill point, service rebuilt from snapshot +
    journal tail — and asserts the post-restore responses are
    payload-identical to the uninterrupted run.  Exits non-zero on any
    divergence; run by
    ``.github/workflows/ci.yml`` as the snapshot round-trip smoke.
    """
    import argparse
    import tempfile

    from repro.service.driver import response_payload
    from repro.service.events import generate_churn_trace
    from repro.topology.binary_tree import bt_network
    from repro.workload.rates import apply_rate_scheme

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network-size", type=int, default=64)
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--capacity", type=int, default=3)
    parser.add_argument("--budget", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2021)
    args = parser.parse_args(argv)

    tree = apply_rate_scheme(bt_network(args.network_size), "constant")
    trace = generate_churn_trace(
        tree, args.requests, seed=args.seed, budget=args.budget, workload_pool=6
    )
    index = node_index(tree)
    requests = [event_to_request(tree, event, index) for event in trace]
    snap_at = len(requests) // 3
    kill_at = 2 * len(requests) // 3

    # The ground truth: one service, never interrupted.
    from repro.service.api import PlacementService

    uninterrupted = PlacementService(tree, args.capacity)
    expected = [response_payload(uninterrupted.submit(req)) for req in requests]

    with tempfile.TemporaryDirectory() as workdir:
        journal_path = Path(workdir) / "fleet.jsonl"
        doomed = PlacementService(
            tree, args.capacity, journal=Journal(journal_path, tree=tree)
        )
        for req in requests[:snap_at]:
            doomed.submit(req)
        snapshot = doomed.snapshot()
        for req in requests[snap_at:kill_at]:
            doomed.submit(req)
        doomed.journal.close()  # the crash

        restored = PlacementService.restore(
            tree, snapshot, journal=Journal(journal_path, tree=tree)
        )
        tail = [response_payload(restored.submit(req)) for req in requests[kill_at:]]
        mismatches = sum(
            1 for got, want in zip(tail, expected[kill_at:]) if got != want
        )
        print(
            f"kill/restore: snapshot at {snap_at}, killed at {kill_at}, "
            f"{len(tail)} post-restore responses, {mismatches} mismatches"
        )
        if mismatches:
            raise SystemExit(
                f"{mismatches} post-restore responses diverged from the "
                "uninterrupted run"
            )
        if (
            restored.state.availability_fingerprint()
            != uninterrupted.state.availability_fingerprint()
        ):
            raise SystemExit("restored Λ digest diverged from the uninterrupted run")
    print("persistence smoke ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke step
    import sys

    sys.exit(main())
