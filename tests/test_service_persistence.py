"""Tests for crash safety and concurrency (:mod:`repro.service.persistence`).

Three layers:

* **unit** — journal append/read mechanics, snapshot (de)serialization of
  the capacity tracker and fleet state, and the typed refusals
  (:class:`~repro.exceptions.PersistenceError`) for foreign networks,
  unknown versions, tampered digests, and mismatched journals;
* **differential** — the headline guarantee: killing a journaled service
  mid-trace and restoring it (snapshot + journal tail) yields responses
  payload-identical to the uninterrupted run, across seeded churn traces
  (and via journal-only recovery with no snapshot at all);
* **concurrency** — four threads sharing one service answer a seeded
  trace payload-identically to a serial replay, and hammering ``submit``
  from many threads against a churning fleet never corrupts the registry
  and gives every reader the serial answer.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import DEFAULT_BACKEND, NUMPY_BACKEND
from repro.exceptions import PersistenceError
from repro.online.capacity import CapacityTracker
from repro.service import (
    AdmitRequest,
    DrainRequest,
    Journal,
    PlacementService,
    ReleaseRequest,
    SolveRequest,
    StatsRequest,
    TraceEvent,
    event_to_request,
    generate_churn_trace,
    node_index,
    read_snapshot,
    read_trace,
    replay_trace,
    request_to_event,
    response_payload,
    write_snapshot,
)
from repro.service.driver import _verify_response
from repro.service.persistence import SNAPSHOT_VERSION
from repro.topology.binary_tree import complete_binary_tree
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads


def leaf_loads(tree, seed: int = 0) -> dict:
    return sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=seed)


def churn_requests(tree, count: int, seed: int, budget: int = 4, pool: int = 4):
    index = node_index(tree)
    trace = generate_churn_trace(tree, count, seed=seed, budget=budget, workload_pool=pool)
    return trace, [event_to_request(tree, event, index) for event in trace]


# --------------------------------------------------------------------------- #
# journal mechanics
# --------------------------------------------------------------------------- #


class TestJournal:
    def test_append_and_read_roundtrip(self, tmp_path):
        tree = complete_binary_tree(4)
        journal = Journal(tmp_path / "j.jsonl", tree=tree)
        events = [
            TraceEvent(kind="admit", tenant="a", budget=2, loads=(("s2_0", 3),)),
            TraceEvent(kind="release", tenant="a"),
            TraceEvent(kind="drain", switch="s2_0"),
        ]
        for event in events:
            journal.append(event)
        assert journal.event_count == 3
        assert journal.events() == events
        journal.close()
        # Reopening continues the count and the structure identity.
        reopened = Journal(tmp_path / "j.jsonl", tree=tree)
        assert reopened.event_count == 3
        assert reopened.structure == tree.structure_fingerprint()

    def test_rejects_non_mutating_events(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(PersistenceError, match="only mutating"):
            journal.append(TraceEvent(kind="solve", budget=2))

    def test_rejects_foreign_network(self, tmp_path):
        small = complete_binary_tree(4)
        Journal(tmp_path / "j.jsonl", tree=small).close()
        with pytest.raises(PersistenceError, match="different network"):
            Journal(tmp_path / "j.jsonl", tree=complete_binary_tree(8))

    def test_rejects_full_trace_as_journal(self, tmp_path):
        from repro.service import write_trace

        tree = complete_binary_tree(4)
        trace = [TraceEvent(kind="solve", budget=2, loads=(("s2_0", 3),))]
        path = write_trace(trace, tmp_path / "trace.jsonl", tree=tree)
        with pytest.raises(PersistenceError, match="non-mutating"):
            Journal(path, tree=tree)

    def test_fresh_service_rejects_used_journal(self, tmp_path):
        tree = complete_binary_tree(4)
        journal = Journal(tmp_path / "j.jsonl", tree=tree)
        journal.append(TraceEvent(kind="release", tenant="ghost"))
        with pytest.raises(PersistenceError, match="describe exactly"):
            PlacementService(tree, capacity=2, journal=journal)

    def test_append_failure_detaches_journal_and_raises_typed(self, tmp_path):
        # If the journal write fails *after* the mutation applied, the
        # journal has a hole: the service must detach it (so the hole
        # cannot grow) and surface a PersistenceError instead of serving
        # on with a silently divergent journal.
        tree = complete_binary_tree(4)
        journal = Journal(tmp_path / "j.jsonl", tree=tree)
        service = PlacementService(tree, capacity=2, journal=journal)
        loads = leaf_loads(tree)
        service.submit(AdmitRequest(tenant_id="a", loads=loads, budget=2))

        def broken_append(event):
            raise OSError("disk full")

        journal.append = broken_append
        with pytest.raises(PersistenceError, match="journal append failed"):
            service.submit(AdmitRequest(tenant_id="b", loads=loads, budget=2))
        # The mutation itself was applied; journaling is now off.
        assert "b" in service.state.tenants()
        assert service.journal is None
        assert service.mutation_seq == 2
        # Subsequent mutations serve normally, un-journaled.
        service.submit(ReleaseRequest(tenant_id="b"))
        assert service.mutation_seq == 3

    def test_torn_last_record_raises_typed_error(self, tmp_path):
        # A crash mid-append leaves a prefix of the last record.  Cut at
        # every byte offset inside it, every reader must raise a typed
        # error naming the file and the torn line (header, then two
        # records: the torn one is line 3) — never a raw JSONDecodeError.
        tree = complete_binary_tree(4)
        path = tmp_path / "j.jsonl"
        journal = Journal(path, tree=tree)
        journal.append(TraceEvent(kind="admit", tenant="a", budget=2, loads=(("s2_0", 3),)))
        journal.append(TraceEvent(kind="drain", switch="s2_1"))
        journal.close()
        data = path.read_bytes()
        end = len(data) - 1  # the last record, without its newline
        start = data.rfind(b"\n", 0, end) + 1
        for cut in range(start + 1, end):
            torn = tmp_path / f"torn-{cut}.jsonl"
            torn.write_bytes(data[:cut])
            where = re.escape(f"{torn}:3")
            with pytest.raises(PersistenceError, match=where):
                read_trace(torn)
            with pytest.raises(PersistenceError, match=where):
                Journal(torn, tree=tree)
            with pytest.raises(PersistenceError, match=where):
                PlacementService.restore(tree, None, torn, capacity=2)
        # Cut exactly between records, the journal is whole and shorter.
        whole = tmp_path / "whole.jsonl"
        whole.write_bytes(data[:start])
        assert Journal(whole, tree=tree).event_count == 1

    def test_failed_requests_are_not_journaled(self, tmp_path):
        from repro.exceptions import WorkloadError

        tree = complete_binary_tree(4)
        journal = Journal(tmp_path / "j.jsonl", tree=tree)
        service = PlacementService(tree, capacity=2, journal=journal)
        with pytest.raises(WorkloadError):
            service.submit(ReleaseRequest(tenant_id="ghost"))
        assert journal.event_count == 0 and service.mutation_seq == 0
        service.submit(
            AdmitRequest(tenant_id="t", loads=leaf_loads(tree), budget=2)
        )
        assert journal.event_count == 1 and service.mutation_seq == 1


# --------------------------------------------------------------------------- #
# snapshot (de)serialization
# --------------------------------------------------------------------------- #


class TestSnapshotState:
    def test_tracker_state_roundtrip_preserves_digest(self, small_tree):
        tracker = CapacityTracker(small_tree, 2)
        tracker.consume({"a", "r"})
        tracker.drain("b")
        tracker.release({"a"})
        clone = CapacityTracker(small_tree, 2)
        clone.load_state(tracker.state_dict(), node_index(small_tree))
        assert clone.available() == tracker.available()
        assert clone.availability_fingerprint() == tracker.availability_fingerprint()
        assert clone.residual_capacities() == tracker.residual_capacities()
        assert clone.drained == tracker.drained
        assert clone.assignments == tracker.assignments

    def test_snapshot_roundtrip_through_disk(self, tmp_path):
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=3)
        loads = leaf_loads(tree)
        service.submit(AdmitRequest(tenant_id="a", loads=loads, budget=3))
        service.submit(SolveRequest(loads=loads, budget=3))
        service.submit(DrainRequest(switch="s3_7"))
        path = write_snapshot(service.snapshot(), tmp_path / "snap.json")
        restored = PlacementService.restore(tree, read_snapshot(path))
        assert restored.mutation_seq == service.mutation_seq == 2
        assert restored.state.tenants().keys() == service.state.tenants().keys()
        record, expected = restored.state.tenant("a"), service.state.tenant("a")
        assert record == expected  # loads, blue set, costs, digest — all of it
        assert (
            restored.state.availability_fingerprint()
            == service.state.availability_fingerprint()
        )
        assert restored.state.tracker.drained == service.state.tracker.drained
        assert restored.state.admitted_total == service.state.admitted_total

    def test_snapshot_engine_survives_the_default(self):
        # A snapshot written before the backend knob names its engine; the
        # name survives only as an ignored key, and the restored service
        # serves (repairs included) on the default backend.
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=3, backend=NUMPY_BACKEND)
        loads = leaf_loads(tree)
        service.submit(AdmitRequest(tenant_id="a", loads=loads, budget=3))
        snapshot = {**service.snapshot(), "engine": "flat"}
        restored = PlacementService.restore(tree, snapshot)
        assert restored.backend is restored.solver().backend is DEFAULT_BACKEND
        restored.submit(SolveRequest(loads=loads, budget=2))
        restored.submit(DrainRequest(switch="s3_7"))
        assert restored.submit(SolveRequest(loads=loads, budget=2)).cache_source == "repair"
        tables = [table for _, table in restored.cache.tables()]
        assert tables and {table.backend for table in tables} == {DEFAULT_BACKEND}
        assert "engine" not in restored.snapshot()

    def test_truncated_snapshot_raises_typed_error(self, tmp_path):
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=3)
        service.submit(AdmitRequest(tenant_id="a", loads=leaf_loads(tree), budget=3))
        path = write_snapshot(service.snapshot(), tmp_path / "snap.json")
        data = path.read_bytes()
        truncated = tmp_path / "truncated.json"
        # Every proper prefix short of the closing brace is torn.
        for cut in range(0, len(data) - 2, 7):
            truncated.write_bytes(data[:cut])
            where = re.escape(f"{truncated}:")
            with pytest.raises(PersistenceError, match=where):
                read_snapshot(truncated)
            with pytest.raises(PersistenceError, match=where):
                PlacementService.restore(tree, truncated)

    def test_prewarm_restores_cache_hits(self, tmp_path):
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=3)
        loads = leaf_loads(tree)
        service.submit(SolveRequest(loads=loads, budget=3))
        snapshot = service.snapshot()
        assert snapshot["hot_workloads"]
        warmed = PlacementService.restore(tree, snapshot)
        assert len(warmed.cache) == 1
        assert warmed.submit(SolveRequest(loads=loads, budget=3)).cache_hit
        cold = PlacementService.restore(tree, snapshot, prewarm=False)
        assert len(cold.cache) == 0
        assert not cold.submit(SolveRequest(loads=loads, budget=3)).cache_hit

    def test_unknown_version_rejected(self):
        tree = complete_binary_tree(4)
        snapshot = PlacementService(tree, capacity=2).snapshot()
        snapshot["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(PersistenceError, match="version"):
            PlacementService.restore(tree, snapshot)

    def test_foreign_network_rejected(self):
        snapshot = PlacementService(complete_binary_tree(4), capacity=2).snapshot()
        with pytest.raises(PersistenceError, match="different network"):
            PlacementService.restore(complete_binary_tree(8), snapshot)

    def test_tampered_fleet_state_rejected(self):
        tree = complete_binary_tree(4)
        service = PlacementService(tree, capacity=2)
        service.submit(AdmitRequest(tenant_id="a", loads=leaf_loads(tree), budget=2))
        snapshot = service.snapshot()
        # Hand-edit a residual: the restored Λ digest no longer matches.
        victim = next(iter(snapshot["fleet"]["capacity"]["residual"]))
        snapshot["fleet"]["capacity"]["residual"][victim] = 0
        with pytest.raises(PersistenceError, match="digest"):
            PlacementService.restore(tree, snapshot)

    def test_journal_shorter_than_snapshot_rejected(self, tmp_path):
        tree = complete_binary_tree(4)
        journal = Journal(tmp_path / "j.jsonl", tree=tree)
        service = PlacementService(tree, capacity=2, journal=journal)
        service.submit(AdmitRequest(tenant_id="a", loads=leaf_loads(tree), budget=2))
        snapshot = service.snapshot()
        with pytest.raises(PersistenceError, match="does not cover"):
            PlacementService.restore(tree, snapshot, journal=[])

    def test_failed_write_never_clobbers_previous_snapshot(self, tmp_path, monkeypatch):
        # Regression: write_snapshot used to open the target directly, so a
        # crash mid-write left a truncated, unparseable file — destroying
        # the one good snapshot it was meant to refresh.  The write must be
        # atomic: stage to a temp file, fsync, then rename over the target.
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=3)
        path = tmp_path / "snap.json"
        write_snapshot(service.snapshot(), path)
        before = path.read_text()

        service.submit(AdmitRequest(tenant_id="a", loads=leaf_loads(tree), budget=3))
        def explode(*args, **kwargs):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr("repro.service.persistence.json.dump", explode)
        with pytest.raises(OSError, match="mid-write"):
            write_snapshot(service.snapshot(), path)
        monkeypatch.undo()

        # The previous snapshot is byte-identical, still restorable, and no
        # staging debris is left behind.
        assert path.read_text() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["snap.json"]
        assert PlacementService.restore(tree, read_snapshot(path)).mutation_seq == 0

        # A successful write still replaces the content (and only then).
        write_snapshot(service.snapshot(), path)
        assert path.read_text() != before
        assert PlacementService.restore(tree, read_snapshot(path)).mutation_seq == 1

    def test_request_event_roundtrip(self):
        tree = complete_binary_tree(4)
        index = node_index(tree)
        loads = leaf_loads(tree)
        for request in (
            SolveRequest(loads=loads, budget=2),
            AdmitRequest(tenant_id="t", loads=loads, budget=3, exact_k=True),
            ReleaseRequest(tenant_id="t"),
            DrainRequest(switch="s2_0"),
            StatsRequest(),
        ):
            event = request_to_event(request)
            assert event_to_request(tree, event, index) == request


# --------------------------------------------------------------------------- #
# kill/restore differential
# --------------------------------------------------------------------------- #


class TestKillRestoreDifferential:
    """Snapshot + journal tail == never went down, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_mid_trace_restore_is_payload_identical(self, tmp_path, seed):
        tree = complete_binary_tree(16)
        trace, requests = churn_requests(tree, 90, seed=seed)
        uninterrupted = PlacementService(tree, capacity=3)
        expected = [response_payload(uninterrupted.submit(req)) for req in requests]

        snap_at, kill_at = len(requests) // 3, 2 * len(requests) // 3
        journal = Journal(tmp_path / "fleet.jsonl", tree=tree)
        doomed = PlacementService(tree, capacity=3, journal=journal)
        for request in requests[:snap_at]:
            doomed.submit(request)
        snapshot = doomed.snapshot()
        for request in requests[snap_at:kill_at]:
            doomed.submit(request)
        journal.close()  # the crash

        restored = PlacementService.restore(
            tree, snapshot, journal=Journal(tmp_path / "fleet.jsonl", tree=tree)
        )
        assert restored.mutation_seq == doomed.mutation_seq
        got = [response_payload(restored.submit(req)) for req in requests[kill_at:]]
        assert got == expected[kill_at:]
        # The restored service kept journaling: a second crash-and-restore
        # (journal-only this time, from the very beginning) still agrees.
        assert restored.journal is not None
        assert restored.journal.event_count == restored.mutation_seq

    def test_restored_service_serves_fresh_generated_traffic(self, tmp_path):
        # The operational resume flow behind `serve-replay --restore`: a
        # restored fleet must accept a freshly *generated* trace — the
        # tenant numbering is offset past the restored registry, so the
        # new admits cannot collide with tenants the fleet still holds.
        from repro.experiments.harness import ExperimentConfig
        from repro.experiments.service_replay import run_service_replay

        config = ExperimentConfig(network_size=16, repetitions=1, seed=3)
        _, _ = run_service_replay(
            num_requests=30,
            budget=3,
            capacity=3,
            config=config,
            journal_path=tmp_path / "fleet.jsonl",
            snapshot_path=tmp_path / "fleet.json",
        )
        report, rows = run_service_replay(
            num_requests=30,
            budget=3,
            capacity=3,
            config=config,
            journal_path=tmp_path / "fleet.jsonl",
            restore_path=tmp_path / "fleet.json",
        )
        assert report.num_requests == 30

    def test_journal_only_recovery(self, tmp_path):
        tree = complete_binary_tree(16)
        _, requests = churn_requests(tree, 60, seed=3)
        journal = Journal(tmp_path / "fleet.jsonl", tree=tree)
        original = PlacementService(tree, capacity=3, journal=journal)
        for request in requests:
            original.submit(request)
        journal.close()

        recovered = PlacementService.restore(
            tree, None, tmp_path / "fleet.jsonl", capacity=3
        )
        assert recovered.mutation_seq == original.mutation_seq
        assert recovered.state.tenants() == original.state.tenants()
        assert (
            recovered.state.availability_fingerprint()
            == original.state.availability_fingerprint()
        )
        assert recovered.state.admitted_total == original.state.admitted_total
        assert recovered.state.released_total == original.state.released_total

    def test_journal_only_recovery_requires_capacity(self, tmp_path):
        tree = complete_binary_tree(4)
        Journal(tmp_path / "j.jsonl", tree=tree).close()
        with pytest.raises(PersistenceError, match="capacity"):
            PlacementService.restore(tree, None, tmp_path / "j.jsonl")

    def test_restore_replays_drain_failures_identically(self, tmp_path):
        # A journaled drain whose re-placements failed must fail the same
        # way on replay (the failure path is part of the deterministic
        # history, not an anomaly the journal papers over).
        tree = complete_binary_tree(4)
        switches = sorted(tree.switches, key=repr)
        root = tree.root
        journal = Journal(tmp_path / "j.jsonl", tree=tree)
        service = PlacementService(tree, capacity=1, journal=journal)
        service.submit(AdmitRequest(tenant_id="t", loads={root: 3}, budget=1))
        for switch in switches:
            if switch != root:
                service.submit(DrainRequest(switch=switch))
        response = service.submit(DrainRequest(switch=root))
        assert [failure.tenant_id for failure in response.failed] == ["t"]
        journal.close()
        recovered = PlacementService.restore(
            tree, None, tmp_path / "j.jsonl", capacity=1
        )
        state = recovered.state
        assert state.num_tenants == 0
        assert state.admitted_total == 1 and state.released_total == 1
        assert (
            state.availability_fingerprint()
            == service.state.availability_fingerprint()
        )


# --------------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------------- #


def serve_concurrently(service, requests, workers: int = 4):
    """Serve ``requests`` on one shared service from ``workers`` threads.

    Mutating requests run alone, in order; each run of read-only requests
    between two of them is fanned out over the threads.  Returns the
    responses in request order and the Λ each request was served at.
    """
    responses: list = []
    available: list = []
    run: list = []
    with ThreadPoolExecutor(max_workers=workers) as pool:

        def flush() -> None:
            # Λ cannot change inside a read-only run.
            seen = service.state.available()
            responses.extend(pool.map(service.submit, run))
            available.extend([seen] * len(run))
            run.clear()

        for request in requests:
            if isinstance(request, (AdmitRequest, ReleaseRequest, DrainRequest)):
                flush()
                available.append(service.state.available())
                responses.append(service.submit(request))
            else:
                run.append(request)
        flush()
    return responses, available


class TestConcurrentReplay:
    @pytest.mark.parametrize("seed", [4, 11])
    def test_four_workers_match_serial_payloads(self, seed):
        tree = complete_binary_tree(16)
        trace, requests = churn_requests(tree, 80, seed=seed, pool=3)
        serial = replay_trace(tree, trace, capacity=3)
        concurrent, _ = serve_concurrently(PlacementService(tree, 3), requests)
        assert [response_payload(r.response) for r in serial.records] == [
            response_payload(response) for response in concurrent
        ]

    def test_concurrent_replay_verifies_against_cold_solves(self):
        tree = complete_binary_tree(16)
        trace, requests = churn_requests(tree, 60, seed=5, pool=3)
        responses, available = serve_concurrently(PlacementService(tree, 3), requests)
        verified = sum(
            _verify_response(tree, seen, request, response)
            for request, response, seen in zip(requests, responses, available)
        )
        placements = sum(
            1 for event in trace if event.kind in ("solve", "sweep", "admit")
        )
        assert verified == placements

    def test_hammered_submit_keeps_registry_consistent(self):
        # 8 threads of mixed read traffic while the main thread churns
        # tenants: no exception may escape, every read must see a
        # consistent fleet, and the final counters must balance.
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=4)
        loads = leaf_loads(tree)
        query = SolveRequest(loads=loads, budget=3)
        # One tenant of budget 2 at a time never exhausts a capacity-4
        # switch, so Λ is constant and every read has one serial answer.
        expected = response_payload(PlacementService(tree, capacity=4).submit(query))
        errors: list[BaseException] = []
        payloads: list[tuple] = []

        def reader() -> None:
            try:
                for _ in range(20):
                    response = service.submit(query)
                    assert response.cost > 0
                    payloads.append(response_payload(response))
                    stats = service.submit(StatsRequest())
                    fleet = stats.fleet
                    assert (
                        fleet["active_tenants"]
                        == fleet["admitted_total"] - fleet["released_total"]
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for round_id in range(10):
            service.submit(
                AdmitRequest(tenant_id=f"t{round_id}", loads=loads, budget=2)
            )
            service.submit(ReleaseRequest(tenant_id=f"t{round_id}"))
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert payloads == [expected] * (8 * 20)
        state = service.state
        assert state.num_tenants == 0
        assert state.admitted_total == 10 and state.released_total == 10
