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
* **concurrency** — a 4-worker replay of a seeded trace (both the thread
  pool and the Λ-epoch process pool of ``mode="process"``) is
  payload-identical to the serial replay, and hammering ``submit`` from
  many threads against a churning fleet never corrupts the registry.
"""

from __future__ import annotations

import threading

import pytest

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
    replay_trace,
    request_to_event,
    response_payload,
    write_snapshot,
)
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
        # A snapshot recorded before the compiled default keeps serving
        # with the engine it names.
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=3, engine="flat")
        loads = leaf_loads(tree)
        service.submit(AdmitRequest(tenant_id="a", loads=loads, budget=3))
        snapshot = service.snapshot()
        assert snapshot["engine"] == "flat"
        restored = PlacementService.restore(tree, snapshot)
        assert restored.engine == restored.solver().engine == "flat"
        restored.submit(SolveRequest(loads=loads, budget=2))
        restored.submit(DrainRequest(switch="s3_7"))
        assert restored.submit(SolveRequest(loads=loads, budget=2)).cache_source == "repair"
        tables = [table for _, table in restored.cache.tables()]
        assert tables and {table.engine for table in tables} == {"flat"}
        assert {table.result.engine for table in tables} == {"flat"}

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
            workers=4,
        )
        assert report.num_requests == 30
        assert rows[0]["workers"] == 4

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


class TestConcurrentReplay:
    @pytest.mark.parametrize("seed", [4, 11])
    def test_four_workers_match_serial_payloads(self, seed):
        tree = complete_binary_tree(16)
        trace = generate_churn_trace(tree, 80, seed=seed, budget=4, workload_pool=3)
        serial = replay_trace(tree, trace, capacity=3)
        concurrent = replay_trace(tree, trace, capacity=3, workers=4)
        assert concurrent.workers == 4
        assert [response_payload(r.response) for r in serial.records] == [
            response_payload(r.response) for r in concurrent.records
        ]

    def test_concurrent_replay_verifies_against_cold_solves(self):
        tree = complete_binary_tree(16)
        trace = generate_churn_trace(tree, 60, seed=5, budget=4, workload_pool=3)
        report = replay_trace(tree, trace, capacity=3, verify=True, workers=4)
        placements = sum(
            1 for event in trace if event.kind in ("solve", "sweep", "admit")
        )
        assert report.verified == placements

    @pytest.mark.parametrize("seed", [4, 11])
    def test_four_processes_match_serial_payloads(self, seed):
        # The Λ-epoch process pool: every solve/sweep runs on a replica
        # process synced to that epoch's fleet snapshot, yet the payloads
        # must be bit-identical to the serial replay — across a trace that
        # actually churns availability (admits, releases, and drains all
        # change Λ mid-trace, closing epochs).
        tree = complete_binary_tree(16)
        trace = generate_churn_trace(tree, 80, seed=seed, budget=4, workload_pool=3)
        kinds = {event.kind for event in trace}
        assert {"admit", "release", "drain", "solve", "sweep"} <= kinds
        serial = replay_trace(tree, trace, capacity=3)
        assert serial.mode == "serial"
        concurrent = replay_trace(tree, trace, capacity=3, workers=4, mode="process")
        assert concurrent.workers == 4 and concurrent.mode == "process"
        assert [response_payload(r.response) for r in serial.records] == [
            response_payload(r.response) for r in concurrent.records
        ]

    def test_process_replay_verifies_against_cold_solves(self):
        # verify=True re-solves every placement at the Λ the *parent* saw
        # when it buffered the request — proving the replicas answered from
        # the right epoch, not just self-consistently.
        tree = complete_binary_tree(16)
        trace = generate_churn_trace(tree, 60, seed=5, budget=4, workload_pool=3)
        report = replay_trace(
            tree, trace, capacity=3, verify=True, workers=2, mode="process"
        )
        placements = sum(
            1 for event in trace if event.kind in ("solve", "sweep", "admit")
        )
        assert report.verified == placements

    def test_unknown_mode_rejected(self):
        tree = complete_binary_tree(8)
        trace = generate_churn_trace(tree, 5, seed=1, budget=2)
        with pytest.raises(ValueError, match="unknown replay mode"):
            replay_trace(tree, trace, capacity=2, workers=2, mode="fiber")

    def test_hammered_submit_keeps_registry_consistent(self):
        # 8 threads of mixed read traffic while the main thread churns
        # tenants: no exception may escape, every read must see a
        # consistent fleet, and the final counters must balance.
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=4)
        loads = leaf_loads(tree)
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                for _ in range(20):
                    response = service.submit(SolveRequest(loads=loads, budget=3))
                    assert response.cost > 0
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
            thread.join()
        assert not errors, errors
        state = service.state
        assert state.num_tenants == 0
        assert state.admitted_total == 10 and state.released_total == 10
