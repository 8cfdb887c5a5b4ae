"""Chaos, durability, supervision, and admission-control tests.

The resilience contract (PR 9): injected faults never change results.
Covers the seeded :class:`~repro.service.faults.FaultPlan`, the
durability layer (atomic snapshot writes, integrity digests, generation
rotation, newest-valid recovery, the server's auto-snapshot loop and its
one drain), the degradation primitives
(:class:`AdmissionController`, :class:`RestartBudget`), pulls that a
worker's fault plan drops, the HTTP overload surface (429/503 +
``Retry-After`` honored by the CLI client), and process-level
supervision (SIGKILL a worker, watch it restart and resume its slot).
The load-bearing assertions are bit-identity: estimates after a chaos
run equal a fault-free single-process reference exactly.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import http_request

from repro.core import Partition, UniformRandomizer
from repro.exceptions import SerializationError, SnapshotError, ValidationError
from repro.serialize import load as load_snapshot
from repro.service import (
    AdmissionController,
    AggregationService,
    AttributeSpec,
    ClusterCoordinator,
    FaultPlan,
    RestartBudget,
    ServiceHTTPServer,
)
from repro.service.cluster import start_cluster
from repro.service.faults import PLAN_ENV_VAR
from repro.service.resilience import (
    persist_with_rotation,
    previous_snapshot_path,
    recover_service,
)
from repro.cli import _KeepAliveClient


def make_noise():
    return UniformRandomizer(half_width=0.25)


def make_service(*, n_shards=2):
    return AggregationService(
        [AttributeSpec("x", Partition.uniform(0, 1, 6), make_noise())],
        n_shards=n_shards,
    )


def make_batch(seed, n=200):
    rng = np.random.default_rng(seed)
    return {"x": make_noise().randomize(rng.uniform(0.2, 0.8, n), seed=rng)}


def assert_same_estimate(left, right):
    a = left.estimate("x", warn=False)
    b = right.estimate("x", warn=False)
    assert a.n_iterations == b.n_iterations
    assert np.array_equal(a.distribution.probs, b.distribution.probs)


# ----------------------------------------------------------------------
# FaultPlan: determinism, caps, validation, env activation
# ----------------------------------------------------------------------
class TestFaultPlan:
    SPEC = {
        "seed": 11,
        "points": {
            "demo": {"drop": 0.25, "error": 0.25, "delay": 0.25},
        },
    }

    def sequence(self, plan, point="demo", n=40):
        return [
            action.kind if action is not None else None
            for action in (plan.decide(point) for _ in range(n))
        ]

    def test_identical_across_instances_and_runs(self):
        first = self.sequence(FaultPlan(self.SPEC))
        second = self.sequence(FaultPlan(self.SPEC))
        assert first == second
        assert set(first) > {None}  # the schedule actually fires

    def test_seed_changes_schedule(self):
        other = dict(self.SPEC, seed=12)
        assert self.sequence(FaultPlan(self.SPEC)) != self.sequence(
            FaultPlan(other)
        )

    def test_max_caps_fires_not_attempts(self):
        plan = FaultPlan(
            {"seed": 1, "points": {"p": {"drop": 1.0, "max": 3}}}
        )
        kinds = self.sequence(plan, "p", 10)
        assert kinds[:3] == ["drop", "drop", "drop"]
        assert kinds[3:] == [None] * 7
        assert plan.stats() == {"p": {"attempts": 10, "fired": 3}}

    def test_qualified_key_beats_bare_point(self):
        plan = FaultPlan(
            {
                "seed": 2,
                "points": {
                    "httpd.response": {"drop": 1.0, "max": 1},
                    "httpd.response:/ingest": {"error": 1.0, "max": 1},
                },
            }
        )
        hit = plan.decide("httpd.response", qualifier="/ingest")
        assert hit.kind == "error"
        assert hit.point == "httpd.response:/ingest"
        other = plan.decide("httpd.response", qualifier="/stats")
        assert other.kind == "drop" and other.point == "httpd.response"

    def test_unnamed_point_is_free(self):
        plan = FaultPlan(self.SPEC)
        assert plan.decide("never.named") is None
        assert "never.named" not in plan.stats()

    def test_action_parameters_carried(self):
        plan = FaultPlan(
            {
                "seed": 3,
                "points": {
                    "p": {
                        "delay": 1.0,
                        "delay_seconds": 0.75,
                        "status": 429,
                        "max": 1,
                    },
                },
            }
        )
        action = plan.decide("p")
        assert (action.kind, action.value, action.status) == (
            "delay", 0.75, 429,
        )

    @pytest.mark.parametrize(
        "spec, match",
        [
            ({"seed": 1, "bogus": {}}, "unknown keys"),
            ({"points": {"p": {"warp": 1.0}}}, "unknown entry"),
            ({"points": {"p": {"drop": 1.5}}}, "in \\[0, 1\\]"),
            ({"points": {"p": {"drop": 0.7, "error": 0.7}}}, "sum past"),
            ({"points": {"p": {"max": -1}}}, "max must be"),
            # retired with the frame-truncating action: an unknown entry
            ({"points": {"p": {"fraction": 0.5}}}, "fraction"),
            # never coerced: a string, a float or a boolean is no integer
            ({"seed": "7"}, "seed is not an integer"),
            ({"seed": 7.9}, "seed is not an integer"),
            ({"seed": True}, "seed is not an integer"),
            ({"points": {"p": {"drop": True}}}, "'p': drop is not numeric"),
            ({"points": {"p": {"drop": "0.5"}}}, "'p': drop is not numeric"),
            ({"points": {"p": {"max": 2.7}}}, "'p': max is not an integer"),
            ({"points": {"p": {"max": True}}}, "'p': max is not an integer"),
            ({"points": {"p": {"max": "x"}}}, "'p': max is not an integer"),
            ({"points": {"p": {"status": "503"}}}, "status is not an integer"),
            ({"points": {"p": {"status": 503.9}}}, "status is not an integer"),
            # an injected error must be an error status
            ({"points": {"p": {"status": 200}}}, "status must be in"),
            ({"points": {"p": {"delay_seconds": -1}}}, "delay_seconds must"),
            ({"points": {"p": {"delay_seconds": float("inf")}}},
             "delay_seconds must"),
        ],
    )
    def test_bad_specs_rejected(self, spec, match):
        with pytest.raises(ValidationError, match=match):
            FaultPlan(spec)

    def test_from_spec_empty_is_none(self):
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec({}) is None

    def test_from_env_inline_file_and_errors(self, tmp_path):
        assert FaultPlan.from_env({}) is None
        inline = FaultPlan.from_env(
            {PLAN_ENV_VAR: json.dumps(self.SPEC)}
        )
        assert inline.seed == 11
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(self.SPEC))
        from_file = FaultPlan.from_env({PLAN_ENV_VAR: f"@{plan_file}"})
        assert from_file.to_spec() == inline.to_spec()
        # --fault-plan's bare file path reads the same through one parser
        bare = FaultPlan.from_env({PLAN_ENV_VAR: str(plan_file)})
        assert bare.to_spec() == inline.to_spec()
        with pytest.raises(ValidationError, match="not valid JSON"):
            FaultPlan.from_env({PLAN_ENV_VAR: "{broken"})
        with pytest.raises(ValidationError, match="cannot read"):
            FaultPlan.from_env({PLAN_ENV_VAR: f"@{tmp_path}/absent.json"})

    def test_to_spec_round_trips_and_is_isolated(self):
        plan = FaultPlan(self.SPEC)
        spec = plan.to_spec()
        assert self.sequence(FaultPlan(spec)) == self.sequence(
            FaultPlan(self.SPEC)
        )
        spec["points"]["demo"]["drop"] = 1.0  # caller mutation is harmless
        assert plan.to_spec() == self.SPEC


# ----------------------------------------------------------------------
# Degradation primitives (fake clocks, no sleeping)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestAdmissionController:
    def test_bounds_inflight_and_counts(self):
        gauge = AdmissionController(max_inflight=2, retry_after=3.0)
        assert gauge.try_acquire() and gauge.try_acquire()
        assert not gauge.try_acquire()
        gauge.release()
        assert gauge.try_acquire()
        stats = gauge.stats()
        assert stats["admitted"] == 3 and stats["rejected"] == 1
        assert stats["inflight"] == 2 and stats["max_inflight"] == 2

    def test_release_without_acquire_raises(self):
        gauge = AdmissionController(max_inflight=1)
        with pytest.raises(ValidationError, match="matching acquire"):
            gauge.release()

    def test_validation(self):
        with pytest.raises(ValidationError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValidationError):
            AdmissionController(max_inflight=1, retry_after=-1.0)


class TestRestartBudget:
    def test_backoff_doubles_then_exhausts(self):
        budget = RestartBudget(
            max_restarts=3, window=60.0, backoff=0.5, clock=FakeClock()
        )
        assert [budget.spend() for _ in range(4)] == [0.5, 1.0, 2.0, None]
        assert budget.spent == 3

    def test_window_expiry_refunds_budget(self):
        clock = FakeClock()
        budget = RestartBudget(
            max_restarts=1, window=10.0, backoff=0.5, clock=clock
        )
        assert budget.spend() == 0.5
        assert budget.spend() is None
        clock.now = 10.0  # the first restart fell out of the window
        assert budget.spend() == 0.5

    def test_backoff_caps(self):
        budget = RestartBudget(
            max_restarts=10, window=60.0, backoff=1.0, max_backoff=4.0,
            clock=FakeClock(),
        )
        assert [budget.spend() for _ in range(4)] == [1.0, 2.0, 4.0, 4.0]


# ----------------------------------------------------------------------
# Durability: atomic writes, integrity, rotation, recovery
# ----------------------------------------------------------------------
class TestDurability:
    def test_snapshot_integrity_digest_round_trip(self, tmp_path):
        service = make_service()
        service.ingest(make_batch(40))
        path = tmp_path / "snap.json"
        service.save(path)
        payload = json.loads(path.read_text())
        assert "integrity" in payload
        restored = AggregationService.load(path)
        assert_same_estimate(service, restored)

    def test_tampered_snapshot_rejected(self, tmp_path):
        service = make_service()
        service.ingest(make_batch(41))
        path = tmp_path / "snap.json"
        service.save(path)
        payload = json.loads(path.read_text())
        payload["n_shards"] = 7  # flip a byte of state, keep old digest
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError, match="integrity digest"):
            load_snapshot(path)

    def test_rotation_keeps_previous_generation(self, tmp_path):
        service = make_service()
        path = tmp_path / "snap.json"
        service.ingest(make_batch(42))
        persist_with_rotation(service, path)
        first_generation = service.estimate("x", warn=False)
        service.ingest(make_batch(43))
        persist_with_rotation(service, path)
        assert previous_snapshot_path(path).is_file()
        newest, used = recover_service(path)
        assert used == path
        assert_same_estimate(service, newest)
        older = AggregationService.load(previous_snapshot_path(path))
        assert np.array_equal(
            older.estimate("x", warn=False).distribution.probs,
            first_generation.distribution.probs,
        )

    def test_failed_write_leaves_old_snapshot_intact(self, tmp_path):
        """Regression: a disk-full write must not truncate the snapshot."""
        service = make_service()
        service.ingest(make_batch(44))
        path = tmp_path / "snap.json"
        persist_with_rotation(service, path)
        good = path.read_bytes()

        class DiskFull:
            def save(self, target):
                raise OSError(28, "No space left on device")

        with pytest.raises(SnapshotError, match="No space left"):
            persist_with_rotation(DiskFull(), path)
        # the good generation is back under its original name, unharmed
        assert path.read_bytes() == good
        recovered, used = recover_service(path)
        assert used == path
        assert_same_estimate(service, recovered)

    def test_failed_rotation_is_a_snapshot_error(self, tmp_path):
        """Regression: a rotation that fails must raise SnapshotError,
        which the auto-snapshot loop and a worker's drain handle, not a
        raw OSError."""
        service = make_service()
        path = tmp_path / "snap.json"
        persist_with_rotation(service, path)
        good = path.read_bytes()
        (previous_snapshot_path(path) / "blocker").mkdir(parents=True)
        with pytest.raises(SnapshotError, match="failed"):
            persist_with_rotation(service, path)
        assert path.read_bytes() == good

    def test_recovery_falls_back_past_corrupt_newest(self, tmp_path):
        service = make_service()
        service.ingest(make_batch(45))
        path = tmp_path / "snap.json"
        persist_with_rotation(service, path)
        service.ingest(make_batch(46))
        persist_with_rotation(service, path)
        path.write_text(path.read_text()[: 100])  # torn write
        recovered, used = recover_service(path)
        assert used == previous_snapshot_path(path)
        assert sum(recovered.n_seen().values()) == 200

    def test_missing_parent_directory_is_created(self, tmp_path):
        """Regression: a fresh ``--snapshot-dir`` must not fail every
        auto-snapshot until an operator pre-creates the directory."""
        service = make_service()
        service.ingest(make_batch(48))
        path = tmp_path / "snaps" / "worker-0.json"
        assert not path.parent.exists()
        persist_with_rotation(service, path)
        recovered, used = recover_service(path)
        assert used == path
        assert_same_estimate(service, recovered)

    def test_recovery_with_no_valid_generation_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        with pytest.raises(SnapshotError, match="no snapshot file exists"):
            recover_service(path)
        path.write_text("{broken")
        with pytest.raises(SnapshotError, match="no valid snapshot"):
            recover_service(path)

    def test_injected_snapshot_fault_spares_old_generation(self, tmp_path):
        service, server, thread = make_server(tmp_path)
        service.ingest(make_batch(47))
        try:
            server.persist()
            good = (tmp_path / "snap.json").read_bytes()
            server.faults = FaultPlan(
                {"seed": 5,
                 "points": {"snapshot.write": {"fail": 1.0, "max": 1}}}
            )
            with pytest.raises(SnapshotError, match="injected fault"):
                server.persist()
            assert (tmp_path / "snap.json").read_bytes() == good
            server.persist()  # the cap expired: next persist succeeds
        finally:
            server.shutdown()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# HTTP chaos: injected faults never change what the service absorbed
# ----------------------------------------------------------------------
def make_server(tmp_path, **kwargs):
    service = make_service()
    server = ServiceHTTPServer(
        service, port=0, snapshot_path=tmp_path / "snap.json", **kwargs
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return service, server, thread


class TestHTTPChaos:
    def test_injected_503_carries_retry_after_absorbs_nothing(self, tmp_path):
        faults = {
            "seed": 6,
            "points": {"httpd.response:/ingest": {"error": 1.0, "max": 1}},
        }
        service, server, thread = make_server(tmp_path, faults=faults)
        try:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            body = json.dumps(
                {"batch": {"x": make_batch(50)["x"].tolist()}}
            ).encode()
            conn.request("POST", "/ingest", body=body)
            response = conn.getresponse()
            detail = json.loads(response.read())
            assert response.status == 503
            assert response.getheader("Retry-After") == "1"
            assert "injected fault" in detail["error"]
            assert service.n_seen("x") == 0  # nothing absorbed
            conn.request("POST", "/ingest", body=body)  # identical re-send
            assert json.loads(conn.getresponse().read())["ingested"] == 200
            assert service.n_seen("x") == 200
            conn.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_dropped_response_redialed_by_client(self, tmp_path):
        faults = {
            "seed": 7,
            "points": {"httpd.response:/healthz": {"drop": 1.0, "max": 1}},
        }
        _, server, thread = make_server(tmp_path, faults=faults)
        try:
            client = _KeepAliveClient(server.url)
            # first GET is dropped mid-air; the client redials and
            # re-sends (GETs are idempotent) without surfacing an error
            assert client.get("/healthz")["status"] == "ok"
            client.close()
            assert server.faults.stats()[
                "httpd.response:/healthz"
            ]["fired"] == 1
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_chaos_ingest_parity_bit_identical(self, tmp_path, monkeypatch):
        """The tentpole invariant: a 5xx storm changes nothing."""
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        faults = {
            "seed": 8,
            "points": {"httpd.response:/ingest": {"error": 0.4}},
        }
        service, server, thread = make_server(tmp_path, faults=faults)
        reference = make_service()
        try:
            client = _KeepAliveClient(server.url)
            for seed in range(60, 70):
                batch = make_batch(seed)
                reference.ingest(batch)
                body = json.dumps(
                    {"batch": {"x": batch["x"].tolist()}}
                ).encode()
                assert client.post("/ingest", body)["ingested"] == 200
            client.close()
            fired = server.faults.stats()["httpd.response:/ingest"]["fired"]
            assert fired > 0, "the storm never fired; rate/seed broken"
            assert service.n_seen("x") == 2000
            assert_same_estimate(service, reference)
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_delay_fault_slows_but_absorbs(self, tmp_path):
        faults = {
            "seed": 9,
            "points": {
                "httpd.response:/ingest": {
                    "delay": 1.0, "delay_seconds": 0.05, "max": 1,
                }
            },
        }
        service, server, thread = make_server(tmp_path, faults=faults)
        try:
            client = _KeepAliveClient(server.url)
            body = json.dumps(
                {"batch": {"x": make_batch(51)["x"].tolist()}}
            ).encode()
            started = time.monotonic()
            assert client.post("/ingest", body)["ingested"] == 200
            assert time.monotonic() - started >= 0.05
            assert service.n_seen("x") == 200
            client.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_env_var_activates_plan(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            PLAN_ENV_VAR,
            json.dumps(
                {"seed": 10,
                 "points": {"httpd.response:/stats": {"error": 1.0,
                                                      "max": 1}}}
            ),
        )
        _, server, thread = make_server(tmp_path)  # faults=None -> env
        try:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/stats")
            response = conn.getresponse()
            response.read()
            assert response.status == 503
            conn.request("GET", "/stats")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            conn.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Pull chaos: a failed pull keeps the last-known slot; the next one heals
# ----------------------------------------------------------------------
class TestPullChaos:
    def test_dropped_pulls_keep_last_known_then_reach_parity(self, tmp_path):
        faults = {
            "seed": 13,
            "points": {"httpd.response:/partial": {"drop": 1.0, "max": 2}},
        }
        worker, server, thread = make_server(tmp_path, faults=faults)
        coordinator = ClusterCoordinator(make_service(n_shards=1), n_workers=1)
        try:
            coordinator.register(0, server.url)
            worker.ingest(make_batch(53))
            for _ in range(2):  # the worker drops both replies unanswered
                assert coordinator.sync() == {"synced": [], "failed": [0]}
                (entry,) = coordinator.health()["workers"]
                assert not entry["reachable"] and entry["stale"]
                assert coordinator.service.n_seen("x") == 0
            assert coordinator.sync() == {"synced": [0], "failed": []}
            (entry,) = coordinator.health()["workers"]
            assert entry["reachable"] and entry["records"] == 200
            assert_same_estimate(coordinator.service, worker)
            assert server.faults.stats()["httpd.response:/partial"] == {
                "attempts": 3, "fired": 2,
            }
        finally:
            server.shutdown()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Admission control over HTTP: 429/503 + Retry-After, honored client-side
# ----------------------------------------------------------------------
class TestAdmissionHTTP:
    def test_overload_returns_429_with_retry_after(self, tmp_path):
        service, server, thread = make_server(
            tmp_path, max_inflight=1, retry_after=2.0
        )
        try:
            assert server.admission.try_acquire()  # hog the only slot
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            body = json.dumps(
                {"batch": {"x": make_batch(55)["x"].tolist()}}
            ).encode()
            conn.request("POST", "/ingest", body=body)
            response = conn.getresponse()
            detail = json.loads(response.read())
            assert response.status == 429
            assert response.getheader("Retry-After") == "2"
            assert "in-flight ingest" in detail["error"]
            assert service.n_seen("x") == 0
            server.admission.release()
            conn.request("POST", "/ingest", body=body)
            assert conn.getresponse().status == 200
            assert service.n_seen("x") == 200
            conn.close()
            stats = server.admission.stats()
            assert stats["rejected"] == 1 and stats["inflight"] == 0
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_client_waits_out_overload_without_dropping(
        self, tmp_path, monkeypatch
    ):
        service, server, thread = make_server(
            tmp_path, max_inflight=1, retry_after=1.0
        )
        try:
            assert server.admission.try_acquire()
            waits = []

            def sleep_then_free(seconds):
                waits.append(seconds)
                if server.admission.inflight:
                    server.admission.release()

            monkeypatch.setattr(time, "sleep", sleep_then_free)
            client = _KeepAliveClient(server.url)
            body = json.dumps(
                {"batch": {"x": make_batch(56)["x"].tolist()}}
            ).encode()
            assert client.post("/ingest", body)["ingested"] == 200
            client.close()
            assert waits == [1.0]  # one honored Retry-After, no drops
            assert service.n_seen("x") == 200
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_draining_returns_503_and_healthz_reports(self, tmp_path):
        service, server, thread = make_server(tmp_path)
        try:
            server.drain()
            status, health = http_request(server.url + "/healthz")
            assert status == 200 and health["status"] == "draining"
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request(
                "POST", "/ingest",
                body=json.dumps(
                    {"batch": {"x": make_batch(57)["x"].tolist()}}
                ).encode(),
            )
            response = conn.getresponse()
            assert response.status == 503
            assert response.getheader("Retry-After") is not None
            assert "drain" in json.loads(response.read())["error"]
            assert service.n_seen("x") == 0
            conn.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_stats_exposes_admission_and_fault_counters(self, tmp_path):
        _, server, thread = make_server(
            tmp_path, max_inflight=4,
            faults={"seed": 1, "points": {"demo": {"drop": 1.0}}},
        )
        try:
            status, payload = http_request(server.url + "/stats")
            assert status == 200
            assert payload["admission"]["max_inflight"] == 4
            assert payload["faults"] == {"demo": {"attempts": 0, "fired": 0}}
        finally:
            server.shutdown()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# The server owns its durability: auto-snapshots and the one drain
# ----------------------------------------------------------------------
def count_writes(server, until=1):
    """Wrap ``server.persist``: list the writes, flag the ``until``-th."""
    writes = []
    reached = threading.Event()
    persist = server.persist

    def counted():
        saved = persist()
        writes.append(saved)
        if len(writes) >= until:
            reached.set()
        return saved

    server.persist = counted
    return writes, reached


def snapshot_threads():
    return {t for t in threading.enumerate() if t.name == "ppdm-snapshot"}


class TestServerSnapshots:
    def test_auto_snapshot_ticks_once_serving(self, tmp_path):
        service = make_service()
        service.ingest(make_batch(48))
        path = tmp_path / "snap.json"
        server = ServiceHTTPServer(
            service, port=0, snapshot_path=path, snapshot_interval=0.05
        )
        _, ticked = count_writes(server, until=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert ticked.wait(30), "auto-snapshot never ticked"
        finally:
            server.shutdown()
            thread.join(timeout=5)
        assert_same_estimate(service, recover_service(path)[0])

    def test_failed_tick_is_logged_and_retried(self, tmp_path, caplog):
        faults = {"seed": 5,
                  "points": {"snapshot.write": {"fail": 1.0, "max": 1}}}
        server = ServiceHTTPServer(
            make_service(), port=0, snapshot_path=tmp_path / "snap.json",
            snapshot_interval=0.05, faults=faults,
        )
        _, written = count_writes(server)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        with caplog.at_level("WARNING", logger="repro.service.httpd"):
            thread.start()
            try:
                assert written.wait(30), "no tick wrote after the failure"
            finally:
                server.shutdown()
                thread.join(timeout=5)
        assert server.faults.stats()["snapshot.write"]["fired"] == 1
        assert any(
            "auto-snapshot failed" in record.message
            for record in caplog.records
        )

    def test_failed_final_write_raises(self, tmp_path):
        faults = {"seed": 5, "points": {"snapshot.write": {"fail": 1.0}}}
        _, server, thread = make_server(tmp_path, faults=faults)
        try:
            with pytest.raises(SnapshotError, match="injected fault"):
                server.drain()
        finally:
            server.shutdown()
            thread.join(timeout=5)
        assert not (tmp_path / "snap.json").exists()

    def test_interval_validated(self, tmp_path):
        for interval in (0.0, -1.0):
            with pytest.raises(ValidationError, match="interval"):
                ServiceHTTPServer(
                    make_service(), snapshot_path=tmp_path / "snap.json",
                    snapshot_interval=interval,
                )
        with pytest.raises(ValidationError, match="snapshot_path"):
            ServiceHTTPServer(make_service(), snapshot_interval=5.0)

    def test_one_write_per_drain_and_none_from_shutdown_or_close(
        self, tmp_path
    ):
        before = snapshot_threads()
        servers = {
            stop: ServiceHTTPServer(
                make_service(), port=0, snapshot_path=tmp_path / stop,
                snapshot_interval=3600.0,
            )
            for stop in ("drain", "shutdown", "close")
        }
        writes = {stop: count_writes(server)[0]
                  for stop, server in servers.items()}
        # built is not serving: a coordinator forks between the two
        assert snapshot_threads() == before
        threads = [
            threading.Thread(target=servers[stop].serve_forever, daemon=True)
            for stop in ("drain", "shutdown")
        ]
        for thread in threads:
            thread.start()
        try:
            for stop in ("drain", "shutdown"):
                # answered, so serve_forever has started its loop
                assert http_request(servers[stop].url + "/healthz")[0] == 200
            assert len(snapshot_threads() - before) == 2
            servers["drain"].drain()
            assert len(writes["drain"]) == 1
        finally:
            servers["drain"].shutdown()
            servers["shutdown"].shutdown()
            servers["close"].close()
            for thread in threads:
                thread.join(timeout=5)
        assert {stop: len(w) for stop, w in writes.items()} == {
            "drain": 1, "shutdown": 0, "close": 0,
        }
        assert snapshot_threads() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["drain"]


class TestDrain:
    """One admitted body, held inside ``ingest_prepared`` during a drain."""

    def drain_while_held(self, tmp_path):
        service, server, thread = make_server(tmp_path)
        entered, release = threading.Event(), threading.Event()
        ingest_prepared = service.ingest_prepared

        def held(*args, **kwargs):
            entered.set()
            release.wait(30)
            return ingest_prepared(*args, **kwargs)

        service.ingest_prepared = held
        replies = []
        client = threading.Thread(target=lambda: replies.append(
            http_request(server.url + "/ingest",
                         b'{"batch": {"x": [0.4, 0.5, 0.6]}}')
        ))
        drainer = threading.Thread(target=server.drain)
        try:
            client.start()
            assert entered.wait(10), "the body was never admitted"
            drainer.start()
            poll_until(lambda: server.draining, timeout=10)
            # the body holds its admission, so drain() cannot be done
            assert drainer.is_alive()
            assert not (tmp_path / "snap.json").exists()
        finally:
            release.set()
            client.join(timeout=10)
            drainer.join(timeout=10)
        assert not drainer.is_alive()
        assert replies == [(200, {"ingested": 3, "records": 3})]
        return service, server, thread

    def test_snapshot_holds_the_admitted_body(self, tmp_path):
        _, server, thread = self.drain_while_held(tmp_path)
        server.shutdown()
        thread.join(timeout=5)
        recovered, _ = recover_service(tmp_path / "snap.json")
        assert recovered.n_seen("x") == 3

    def test_sigterm_leaves_every_acknowledged_record_in_the_snapshot(
        self, tmp_path
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        snapshot = tmp_path / "snap.json"
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--spec", str(spec),
             "--snapshot", str(snapshot), "--snapshot-interval", "60",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            match = None
            while match is None:
                line = process.stdout.readline()
                assert line, "ppdm serve exited before serving"
                match = re.search(r" on (http://\S+) ", line)
            status, reply = ingest_age(match.group(1), age_batch(76))
            assert (status, reply["ingested"]) == (200, 300)
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - hung server
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert f"snapshot persisted to {snapshot}" in out
        recovered, _ = recover_service(snapshot)
        assert recovered.n_seen("age") == 300


# ----------------------------------------------------------------------
# Process-level supervision: SIGKILL workers, restart, resume the slot
# ----------------------------------------------------------------------
SPEC = {
    "shards": 2,
    "classes": 0,
    "intervals": 8,
    "attributes": [
        {"name": "age", "low": 20, "high": 80,
         "noise": "uniform", "privacy": 1.0},
    ],
}


def cluster_noise():
    from repro.core import noise_for_privacy

    return noise_for_privacy("uniform", 1.0, 60.0)


def cluster_reference():
    return AggregationService(
        [AttributeSpec("age", Partition.uniform(20, 80, 8), cluster_noise())]
    )


def age_batch(seed, n=300):
    rng = np.random.default_rng(seed)
    return {"age": cluster_noise().randomize(rng.uniform(30, 70, n), seed=seed)}


def ingest_age(url, batch):
    body = {"batch": {"age": batch["age"].tolist()}}
    return http_request(url + "/ingest", json.dumps(body).encode())


def poll_until(predicate, timeout=60.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while True:
        if predicate():
            return
        assert time.monotonic() < deadline, message
        time.sleep(0.05)


def snapshot_holds(path, n_records):
    def check():
        try:
            recovered, _ = recover_service(path)
        except SnapshotError:
            return False
        return sum(recovered.n_seen().values()) >= n_records

    return check


def coordinator_records(url):
    """Union record count via background pulls only — no /estimate.

    Estimates warm-start from the previous refresh, so bit-parity with
    the single-process reference needs both sides refreshed at the same
    points: poll /healthz (records advance via the coordinator's timed
    pulls), then run exactly one /estimate against exactly one reference
    estimate.
    """
    return http_request(url + "/healthz")[1]["records"]


def assert_age_estimate_matches(coordinator_url, reference, n_seen):
    status, estimate = http_request(coordinator_url + "/estimate?attribute=age")
    expected = reference.estimate("age", warn=False)
    assert status == 200
    assert estimate["n_seen"] == n_seen
    assert estimate["n_iterations"] == expected.n_iterations
    assert np.array_equal(
        np.asarray(estimate["probs"]), expected.distribution.probs
    )


class TestSupervision:
    def test_sigkill_mid_ingest_restart_resumes_slot(self, tmp_path):
        """The crash-recovery integration test.

        Worker 0 is SIGKILLed while ingest traffic is in flight; the
        supervisor restarts it, the restarted process recovers its
        cumulative state from its auto-snapshot and resumes its shard
        slot, and the final estimate is bit-identical to a
        single-process reference fed every acknowledged batch.
        """
        supervisor = start_cluster(
            SPEC, n_workers=2, sync_interval=0.2,
            snapshot_dir=tmp_path, snapshot_interval=0.05,
            restart_backoff=0.05,
        )
        reference = cluster_reference()
        try:
            supervisor.wait_ready(timeout=60.0)
            urls = supervisor.worker_urls()

            batch = age_batch(70)
            assert ingest_age(urls[0], batch)[0] == 200
            reference.ingest(batch)
            batch = age_batch(71)
            assert ingest_age(urls[1], batch)[0] == 200
            reference.ingest(batch)
            # wait until worker 0's auto-snapshot holds its batch, so
            # the SIGKILL cannot lose acknowledged records
            poll_until(
                snapshot_holds(tmp_path / "worker-0.json", 300),
                message="worker 0 never auto-snapshotted its batch",
            )

            victim = supervisor.processes[0]
            os.kill(victim.pid, signal.SIGKILL)

            # mid-ingest: traffic keeps arriving while the slot is down;
            # the send fails (connection refused) and is retried against
            # the restarted worker until acknowledged
            batch = age_batch(72)
            reference.ingest(batch)

            def restarted():
                return supervisor.supervision()["restarts"][0] >= 1

            poll_until(restarted, message="worker 0 was never restarted")

            def resend():
                entry = supervisor.coordinator.health()["workers"][0]
                try:
                    return ingest_age(entry["url"], batch)[0] == 200
                except OSError:
                    return False

            poll_until(resend, message="restarted worker never ingested")

            # the union: worker 0's recovered snapshot + its re-sent
            # batch + worker 1's batch, all landed by timed pulls
            poll_until(
                lambda: coordinator_records(supervisor.url) == 900,
                message="union never reached 900 records",
            )
            assert_age_estimate_matches(supervisor.url, reference, 900)

            health = supervisor.coordinator.health()
            assert health["supervision"]["restarts"][0] >= 1
        finally:
            result = supervisor.shutdown()
        assert result["ok"], result["failures"]
        assert result["restarts"][0] >= 1

    def test_fault_plan_sigkills_worker_deterministically(self, tmp_path):
        faults = {
            "seed": 21,
            "points": {"supervisor.kill:0": {"kill": 1.0, "max": 1}},
        }
        supervisor = start_cluster(
            SPEC, n_workers=2, sync_interval=0.2,
            snapshot_dir=tmp_path, snapshot_interval=0.05,
            restart_backoff=0.05, faults=faults,
        )
        reference = cluster_reference()
        try:
            supervisor.wait_ready(timeout=60.0)
            batch = age_batch(73)
            assert ingest_age(supervisor.worker_urls()[1], batch)[0] == 200
            reference.ingest(batch)

            poll_until(
                lambda: supervisor.supervision()["restarts"][0] >= 1,
                message="the fault plan never killed worker 0",
            )
            # re-registration keeps "registered" at 2, so wait on the
            # slot's own URL: the dead worker's port refuses, and the
            # restarted worker's answers once it has registered
            def reregistered():
                entry = supervisor.coordinator.health()["workers"][0]
                try:
                    return http_request(entry["url"] + "/healthz")[0] == 200
                except OSError:
                    return False

            poll_until(
                reregistered,
                message="restarted worker never re-registered",
            )
            # launch forks workers from this process; a restart spawns
            # a fresh interpreter (checked where the platform has /proc)
            if Path("/proc/self/cmdline").exists():
                pid = supervisor.processes[0].pid
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
                assert b"from multiprocessing.spawn import spawn_main" in (
                    cmdline
                ), cmdline
            poll_until(
                lambda: coordinator_records(supervisor.url) == 300,
                message="the union never reflected worker 1's batch",
            )
            assert_age_estimate_matches(supervisor.url, reference, 300)
        finally:
            result = supervisor.shutdown()
        assert result["ok"], result["failures"]

    def test_exhausted_restart_budget_degrades_loudly(self):
        supervisor = start_cluster(
            SPEC, n_workers=1, sync_interval=60.0, restart_limit=0,
        )
        try:
            supervisor.wait_ready(timeout=60.0)
            os.kill(supervisor.processes[0].pid, signal.SIGKILL)
            poll_until(
                lambda: supervisor.supervision()["exhausted"] == [0],
                message="budget exhaustion was never recorded",
            )
            status, health = http_request(supervisor.url + "/healthz")
            assert health["status"] == "degraded"
            assert health["cluster"]["supervision"]["exhausted"] == [0]
        finally:
            result = supervisor.shutdown()
        assert not result["ok"]
        assert any(
            "restart budget exhausted" in failure["reason"]
            for failure in result["failures"]
        )


class TestServeClusterCLI:
    def test_unclean_shutdown_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.service.cluster as cluster_module
        from repro.cli import main

        class FakeSupervisor:
            url = "http://127.0.0.1:0"
            processes = []

            def wait_ready(self, timeout=30.0):
                return self

            def worker_urls(self):
                return []

            def wait(self):
                return None

            def shutdown(self, timeout=30.0):
                return {
                    "ok": False,
                    "failures": [
                        {"worker": 0, "reason": "final snapshot failed"}
                    ],
                    "restarts": [0],
                    "exhausted": [],
                }

        monkeypatch.setattr(
            cluster_module, "start_cluster",
            lambda *args, **kwargs: FakeSupervisor(),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        code = main(
            ["serve", "--workers", "1", "--spec", str(spec_path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "cluster shutdown was not clean" in err
        assert "final snapshot failed" in err

    def test_sigterm_takes_the_graceful_shutdown_path(self):
        """Regression: ``kill <pid>`` must drain like Ctrl-C, not
        orphan the workers by skipping every ``finally`` block."""
        from repro.cli import _graceful_sigterm

        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _graceful_sigterm():
                assert signal.getsignal(signal.SIGTERM) is not before
                os.kill(os.getpid(), signal.SIGTERM)
                signal.sigtimedwait([], 5)  # delivery is asynchronous
                raise AssertionError("SIGTERM was not delivered")
        assert signal.getsignal(signal.SIGTERM) is before

    def test_graceful_sigterm_is_a_no_op_off_the_main_thread(self):
        from repro.cli import _graceful_sigterm

        failures = []

        def body():
            try:
                with _graceful_sigterm():
                    pass
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=5)
        assert not failures
