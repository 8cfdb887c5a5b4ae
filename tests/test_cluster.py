"""Tests for the multi-worker cluster tier (repro.service.cluster).

Covers the partial wire frame (version 3), the export/replace sync
primitives, coordinator registration/pull/health, the failure modes the
operator's guide promises (worker death, registration retries, rejected
bodies absorbing nothing), the cluster's HTTP client, the HTTP surface,
and the real process topology: a two-worker smoke, how launch starts
its workers, a launch whose second worker cannot start, and the work
the sync path does, counted in requests and pulls.
"""

from __future__ import annotations

import errno
import http.client
import json
import os
import socket
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import http_request

from repro.core import Partition, UniformRandomizer
from repro.exceptions import ClusterError, ValidationError
from repro.service import (
    AggregationService,
    AttributeSpec,
    ClusterCoordinator,
    ServiceHTTPServer,
    TrainingService,
    encode_partial,
    export_sync_body,
    split_partial,
)
from repro.service.cluster import _default_fetch, register_worker, start_cluster
from repro.service.wire import (
    CONTENT_TYPE_COLUMNS,
    CONTENT_TYPE_PARTIAL,
    encode_columns,
)


def make_noise():
    return UniformRandomizer(half_width=0.25)


def make_service(*, classes=0, n_shards=2):
    noise = make_noise()
    return AggregationService(
        [
            AttributeSpec("x", Partition.uniform(0, 1, 6), noise),
            AttributeSpec("y", Partition.uniform(0, 1, 4), noise),
        ],
        n_shards=n_shards,
        classes=classes,
    )


def make_batch(seed, n=200, *, classes=None):
    rng = np.random.default_rng(seed)
    noise = make_noise()
    batch = {
        "x": noise.randomize(rng.uniform(0.2, 0.8, n), seed=rng),
        "y": noise.randomize(rng.uniform(0.1, 0.9, n), seed=rng),
    }
    labels = rng.integers(0, classes, n) if classes else None
    return batch, labels


def assert_same_estimates(left, right):
    for name in ("x", "y"):
        a = left.estimate(name, warn=False)
        b = right.estimate(name, warn=False)
        assert a.n_iterations == b.n_iterations
        assert np.array_equal(a.distribution.probs, b.distribution.probs)


# ----------------------------------------------------------------------
# Partial wire frame (version 3)
# ----------------------------------------------------------------------
class TestPartialWire:
    def test_roundtrip(self):
        partials = {
            "x": np.array([[1.0, 0.0, 3.0], [2.0, 5.0, 0.0]]),
            "y": np.array([[4.0, 4.0], [0.0, 1.0]]),
        }
        decoded, rest = split_partial(encode_partial(partials))
        assert bytes(rest) == b""
        assert set(decoded) == {"x", "y"}
        for name in partials:
            assert np.array_equal(decoded[name], partials[name])

    def test_roundtrip_through_service(self):
        """A class-aware service ships each attribute's one histogram as
        a single row."""
        service = make_service(classes=2)
        batch, labels = make_batch(0, classes=2)
        service.ingest(batch, classes=labels)
        decoded, _ = split_partial(encode_partial(service.export_partial()))
        for name in ("x", "y"):
            counts, _ = service.shards.merged(name)
            assert np.array_equal(decoded[name], counts[None, :])

    @pytest.mark.parametrize("classes", [0, 2])
    def test_sync_body_decodes_to_export_partial(self, classes):
        """The shape contract servebench's partial check relies on:
        ``np.array_equal`` is shape-sensitive, so ``(bins,)`` against
        ``(1, bins)`` would read as a mismatch."""
        service = make_service(classes=classes)
        batch, labels = make_batch(1, classes=classes or None)
        service.ingest(batch, classes=labels)
        service.ingest(make_batch(2)[0])
        decoded, rest = split_partial(export_sync_body(service))
        assert bytes(rest) == b""
        exported = service.export_partial()
        assert set(decoded) == set(exported)
        for name in exported:
            assert exported[name].shape[0] == 1
            assert np.array_equal(decoded[name], exported[name])

    @pytest.mark.parametrize("classes", [0, 2])
    def test_sync_body_bytes_are_one_block(self, classes):
        """Bytes per sync body: one row of counts per attribute whatever
        the class count (1,671 bytes for this servebench-shaped spec)."""
        from repro.service import service_from_spec

        names = ("age", "salary", "loan", "hvalue")
        service = service_from_spec({
            "classes": classes,
            "intervals": 24,
            "attributes": [
                {"name": name, "low": 0, "high": 100, "privacy": 1.0}
                for name in names
            ],
        })
        bins = sum(service.domain.grid(n).n_intervals for n in names)
        one_block = 12 + sum(2 + len(n) + 8 for n in names) + 8 * bins
        assert len(export_sync_body(service)) == one_block

    def test_split_returns_remainder(self):
        frame = encode_partial({"x": np.array([[1.0, 2.0]])})
        partials, rest = split_partial(frame + b"TRAILING")
        assert np.array_equal(partials["x"], [[1.0, 2.0]])
        assert bytes(rest) == b"TRAILING"

    def test_encode_rejects_empty(self):
        with pytest.raises(ValidationError):
            encode_partial({})

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[np.nan, 1.0]]),
            np.array([[np.inf, 1.0]]),
            np.array([[-1.0, 1.0]]),
            np.array([[0.5, 1.0]]),
        ],
        ids=["nan", "inf", "negative", "fractional"],
    )
    def test_encode_rejects_bad_counts(self, matrix):
        with pytest.raises(ValidationError):
            encode_partial({"x": matrix})

    def test_decode_rejects_tampered_counts(self):
        frame = bytearray(encode_partial({"x": np.array([[3.0, 1.0]])}))
        frame[-8:] = np.array([-2.0]).tobytes()
        with pytest.raises(ValidationError):
            split_partial(bytes(frame))

    @pytest.mark.parametrize("cut", [1, 4, 7, 11, 20, -1])
    def test_decode_rejects_truncation(self, cut):
        frame = encode_partial({"x": np.array([[1.0, 2.0], [0.0, 4.0]])})
        with pytest.raises(ValidationError):
            split_partial(frame[:cut])

    def test_decode_rejects_bad_magic_and_version(self):
        frame = bytearray(encode_partial({"x": np.array([[1.0]])}))
        bad_magic = b"NOPE" + bytes(frame[4:])
        with pytest.raises(ValidationError, match="magic"):
            split_partial(bad_magic)
        frame[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(ValidationError, match="version"):
            split_partial(bytes(frame))


# ----------------------------------------------------------------------
# Export / replace primitives
# ----------------------------------------------------------------------
class TestExportReplace:
    def test_replace_partial_is_idempotent(self):
        worker = make_service()
        batch, _ = make_batch(1)
        worker.ingest(batch)
        target = make_service(n_shards=2)
        # "records" counts attribute-records (2 attributes x 200 rows)
        assert target.replace_partial(0, worker.export_partial()) == 400
        assert target.replace_partial(0, worker.export_partial()) == 400
        assert target.n_seen("x") == 200

    def test_union_matches_single_process(self):
        reference = make_service()
        target = make_service(n_shards=2)
        for slot, seed in enumerate((1, 2)):
            worker = make_service()
            batch, _ = make_batch(seed)
            worker.ingest(batch)
            reference.ingest(batch)
            target.replace_partial(slot, worker.export_partial())
        assert_same_estimates(target, reference)

    def test_replace_rejects_unknown_attribute(self):
        target = make_service()
        with pytest.raises(ValidationError):
            target.replace_partial(0, {"zzz": np.array([[1.0]])})
        assert target.n_seen("x") == 0

    def test_replace_rejects_wrong_shape_and_absorbs_nothing(self):
        worker = make_service()
        batch, _ = make_batch(3)
        worker.ingest(batch)
        partials = worker.export_partial()
        partials["y"] = partials["y"][:, :-1]
        target = make_service()
        with pytest.raises(ValidationError):
            target.replace_partial(0, partials)
        assert target.n_seen("x") == 0

    def test_per_class_rows_land_summed(self):
        """A worker that kept one histogram per class ships ``classes + 1``
        rows (unlabeled, then one per class); the slot sums them into
        the state of one service fed the same records."""
        reference = make_service(classes=2)
        labeled, labels = make_batch(13, classes=2)
        unlabeled, _ = make_batch(14)
        reference.ingest(labeled, classes=labels)
        reference.ingest(unlabeled)
        partials = {}
        for name in ("x", "y"):
            grid = reference.domain.grid(name)
            partials[name] = np.stack(
                [grid.histogram(unlabeled[name])]
                + [grid.histogram(labeled[name][labels == c]) for c in (0, 1)]
            ).astype(float)
        body = encode_partial(partials)  # n_blocks = 3 on the wire
        target = make_service(classes=2, n_shards=2)
        assert target.replace_partial(0, split_partial(body)[0]) == 800
        assert target.n_seen() == reference.n_seen()
        assert_same_estimates(target, reference)


# ----------------------------------------------------------------------
# Coordinator bookkeeping
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_register_validates(self):
        coordinator = ClusterCoordinator(make_service(n_shards=2))
        with pytest.raises(ValidationError, match="integer id"):
            coordinator.register("0", "http://h:1")
        with pytest.raises(ValidationError, match="integer id"):
            coordinator.register(True, "http://h:1")
        with pytest.raises(ValidationError, match="out of range"):
            coordinator.register(2, "http://h:1")
        with pytest.raises(ValidationError, match="http"):
            coordinator.register(0, "ftp://h:1")

    def test_reregistration_updates_url(self):
        coordinator = ClusterCoordinator(make_service(n_shards=2))
        coordinator.register(0, "http://h:1")
        reply = coordinator.register(0, "http://h:2/")
        assert reply == {"worker": 0, "n_workers": 2, "registered": 1}
        assert coordinator.health()["workers"][0]["url"] == "http://h:2"

    def test_push_requires_registration(self):
        coordinator = ClusterCoordinator(make_service(n_shards=2))
        worker = make_service()
        worker.ingest(make_batch(4)[0])
        with pytest.raises(ValidationError, match="not registered"):
            coordinator.apply_push(0, export_sync_body(worker), rows=False)
        assert coordinator.service.n_seen("x") == 0

    def test_n_workers_bounded_by_shards(self):
        with pytest.raises(ValidationError, match="n_workers"):
            ClusterCoordinator(make_service(n_shards=2), n_workers=3)

    def test_health_staleness(self):
        coordinator = ClusterCoordinator(
            make_service(n_shards=2), stale_after=1e-9
        )
        health = coordinator.health()
        assert health["degraded"] and health["registered"] == 0
        coordinator.register(0, "http://h:1")
        worker = make_service()
        worker.ingest(make_batch(5)[0])
        coordinator.apply_push(0, export_sync_body(worker), rows=False)
        entry = coordinator.health()["workers"][0]
        # stale_after is tiny, so even a just-synced worker reads stale;
        # the sync itself still landed and is reported
        assert entry["records"] == 400
        assert entry["stale"] is True
        assert coordinator.health()["degraded"] is True

    def test_health_fresh_cluster_not_degraded(self):
        coordinator = ClusterCoordinator(
            make_service(n_shards=1), n_workers=1, stale_after=60.0
        )
        coordinator.register(0, "http://h:1")
        worker = make_service()
        worker.ingest(make_batch(6)[0])
        coordinator.apply_push(0, export_sync_body(worker), rows=False)
        health = coordinator.health()
        assert health["degraded"] is False
        assert health["workers"][0]["age_seconds"] >= 0.0


# ----------------------------------------------------------------------
# Pull sync + graceful degradation
# ----------------------------------------------------------------------
class FakeWorkers:
    """In-process worker fleet behind an injectable fetch."""

    def __init__(self, services, trainings=None):
        self.services = services
        self.trainings = trainings or {}
        self.dead = set()
        self.garbled = set()
        self.bodies = {}
        self.calls = []

    def fetch(self, url, data=None, content_type=None, timeout=None):
        self.calls.append(url)
        worker = int(url.split("//w")[1].split("/")[0])
        if worker in self.dead:
            raise ClusterError(f"{url} is unreachable: down")
        if worker in self.garbled:
            return b"garbage"
        if worker in self.bodies:
            return self.bodies[worker]
        # like a real worker, the rows go out only when asked for
        training = self.trainings.get(worker) if url.endswith("?rows=1") else None
        return export_sync_body(self.services[worker], training)


class TestPullSync:
    def make_cluster(self, *, classes=0, train=False):
        services = [
            make_service(classes=classes) for _ in range(2)
        ]
        trainings = (
            {i: TrainingService(s) for i, s in enumerate(services)}
            if train
            else None
        )
        fleet = FakeWorkers(services, trainings)
        service = make_service(classes=classes, n_shards=2)
        training = TrainingService(service) if train else None
        coordinator = ClusterCoordinator(
            service, training=training, fetch=fleet.fetch
        )
        for worker in range(2):
            coordinator.register(worker, f"http://w{worker}")
        return coordinator, fleet

    def test_sync_pulls_all_workers(self):
        coordinator, fleet = self.make_cluster()
        reference = make_service()
        for worker, seed in enumerate((7, 8)):
            batch, _ = make_batch(seed)
            fleet.services[worker].ingest(batch)
            reference.ingest(batch)
        assert coordinator.sync() == {"synced": [0, 1], "failed": []}
        assert_same_estimates(coordinator.service, reference)
        assert fleet.calls == ["http://w0/partial", "http://w1/partial"]

    def test_dead_worker_keeps_last_known(self):
        coordinator, fleet = self.make_cluster()
        batch, _ = make_batch(9)
        fleet.services[0].ingest(batch)
        fleet.services[1].ingest(make_batch(10)[0])
        coordinator.sync()
        assert coordinator.service.n_seen("x") == 400

        fleet.dead.add(0)
        fleet.services[1].ingest(make_batch(11)[0])
        result = coordinator.sync()
        assert result == {"synced": [1], "failed": [0]}
        # worker 0's slot still serves its last-known partials
        assert coordinator.service.n_seen("x") == 600
        entry = coordinator.health()["workers"][0]
        assert entry["reachable"] is False and entry["stale"] is True
        assert coordinator.health()["degraded"] is True
        assert coordinator.service.estimate("x", warn=False).n_iterations > 0

    @pytest.mark.parametrize("rows", [2, 4])
    def test_unexpected_row_count_fails_the_pull(self, rows):
        """Rows other than 1 or ``classes + 1`` raise ValidationError, so
        that pull fails and the slot keeps serving its last-known state."""
        coordinator, fleet = self.make_cluster(classes=2)
        batch, labels = make_batch(15, classes=2)
        fleet.services[0].ingest(batch, classes=labels)
        assert coordinator.sync() == {"synced": [0, 1], "failed": []}
        partials = {"x": np.ones((rows, 6)), "y": np.ones((rows, 4))}
        with pytest.raises(ValidationError, match="shape"):
            coordinator.service.replace_partial(0, partials)
        fleet.bodies[0] = encode_partial(partials)
        assert coordinator.sync() == {"synced": [1], "failed": [0]}
        assert coordinator.service.n_seen("x") == 200
        assert coordinator.health()["workers"][0]["reachable"] is False

    def test_require_all_with_never_synced_dead_worker_raises(self):
        coordinator, fleet = self.make_cluster()
        fleet.services[1].ingest(make_batch(12)[0])
        fleet.dead.add(0)
        with pytest.raises(ClusterError, match="never synced"):
            coordinator.sync(require_all=True)

    def test_require_all_degrades_to_last_known_after_first_sync(self):
        coordinator, fleet = self.make_cluster()
        fleet.services[0].ingest(make_batch(13)[0])
        fleet.services[1].ingest(make_batch(14)[0])
        coordinator.sync()
        fleet.dead.add(0)
        result = coordinator.sync(require_all=True)
        assert result == {"synced": [1], "failed": [0]}

    def test_rejected_body_fails_the_pull_and_keeps_last_known(self):
        coordinator, fleet = self.make_cluster()
        fleet.services[0].ingest(make_batch(22)[0])
        fleet.services[1].ingest(make_batch(23)[0])
        coordinator.sync()

        fleet.garbled.add(0)
        fleet.services[0].ingest(make_batch(24)[0])
        fleet.services[1].ingest(make_batch(25)[0])
        result = coordinator.sync()
        assert result == {"synced": [1], "failed": [0]}
        assert fleet.calls[-2:] == ["http://w0/partial", "http://w1/partial"]
        # worker 0's slot keeps its last good body; worker 1's is fresh
        assert coordinator.service.n_seen("x") == 200 + 400
        entry = coordinator.health()["workers"][0]
        assert entry["reachable"] is False and entry["stale"] is True
        assert coordinator.sync(require_all=True) == result

    def test_require_all_with_never_synced_garbled_worker_raises(self):
        coordinator, fleet = self.make_cluster()
        fleet.garbled.add(0)
        assert coordinator.sync() == {"synced": [1], "failed": [0]}
        with pytest.raises(ClusterError, match="never synced"):
            coordinator.sync(require_all=True)

    def test_train_matches_single_process(self):
        coordinator, fleet = self.make_cluster(classes=2, train=True)
        reference = make_service(classes=2)
        reference_training = TrainingService(reference)
        for worker, seed in enumerate((15, 16)):
            batch, labels = make_batch(seed, classes=2)
            fleet.trainings[worker].ingest(batch, labels)
            reference_training.ingest(batch, labels)
        model = coordinator.train("byclass")
        expected = reference_training.train("byclass")
        assert model.n_train == expected.n_train == 400
        assert model.tree.identical_to(expected.tree)

    def test_only_train_pulls_rows(self):
        coordinator, fleet = self.make_cluster(classes=2, train=True)
        for worker, seed in enumerate((35, 36)):
            fleet.trainings[worker].ingest(*make_batch(seed, classes=2))
        coordinator.sync()
        assert fleet.calls == ["http://w0/partial", "http://w1/partial"]
        assert coordinator.train("byclass").n_train == 400
        assert fleet.calls[2:] == [
            "http://w0/partial?rows=1", "http://w1/partial?rows=1"
        ]

    def test_a_pull_without_rows_keeps_the_last_pulled_rows(self):
        coordinator, fleet = self.make_cluster(classes=2, train=True)
        for worker, seed in enumerate((37, 38)):
            fleet.trainings[worker].ingest(*make_batch(seed, classes=2))
        assert coordinator.train("byclass").n_train == 400
        fleet.trainings[0].ingest(*make_batch(39, classes=2))
        assert coordinator.sync() == {"synced": [0, 1], "failed": []}
        assert coordinator.service.n_seen("x") == 600
        # worker 0 fails its /train pull: it degrades to the rows its
        # last /train pulled, which the plain sync between kept
        fleet.dead.add(0)
        assert coordinator.train("byclass").n_train == 400

    def test_train_needs_rows_pulled_once(self):
        coordinator, fleet = self.make_cluster(classes=2, train=True)
        for worker, seed in enumerate((40, 41)):
            fleet.trainings[worker].ingest(*make_batch(seed, classes=2))
        coordinator.sync()
        fleet.dead.add(0)
        with pytest.raises(ClusterError, match="never synced its rows"):
            coordinator.train("byclass")

    def test_rows_nobody_asked_for_fail_the_pull(self):
        coordinator, fleet = self.make_cluster(classes=2, train=True)
        fleet.trainings[0].ingest(*make_batch(42, classes=2))
        body = export_sync_body(fleet.services[0], fleet.trainings[0])
        with pytest.raises(ValidationError, match="not asked for"):
            coordinator.apply_push(0, body, rows=False)
        assert coordinator.service.n_seen("x") == 0
        fleet.bodies[0] = body
        assert coordinator.sync() == {"synced": [1], "failed": [0]}

    def test_sync_of_rows_needs_training(self):
        coordinator, _ = self.make_cluster()
        with pytest.raises(ValidationError, match="training service"):
            coordinator.sync(rows=True)

    def test_train_without_training_service_rejected(self):
        coordinator, _ = self.make_cluster()
        with pytest.raises(ValidationError, match="training"):
            coordinator.train()

    def test_push_with_rows_needs_training(self):
        coordinator, fleet = self.make_cluster()
        worker = make_service(classes=2)
        training = TrainingService(worker)
        batch, labels = make_batch(17, classes=2)
        training.ingest(batch, labels)
        with pytest.raises(ValidationError, match="no training service"):
            coordinator.apply_push(
                0, export_sync_body(worker, training), rows=True
            )
        assert coordinator.service.n_seen("x") == 0


# ----------------------------------------------------------------------
# The cluster's HTTP client: malformed replies, retries, no proxy
# ----------------------------------------------------------------------
class MalformedPeer:
    """A loopback peer that answers each connection with one canned reply.

    It reads the request head and body, writes the reply and closes, so
    a reply shorter than its ``Content-Length`` ends in a short read.
    """

    def __init__(self, replies):
        self._replies = list(replies)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for reply in self._replies:
            connection, _ = self._listener.accept()
            with connection, connection.makefile("rb") as request:
                length = 0
                while (line := request.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                request.read(length)
                connection.sendall(reply)

    def close(self):
        self._thread.join(timeout=10.0)
        self._listener.close()


SHORT_BODY = (
    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b"x" * 10
)
GARBLED_STATUS = b"garbage\r\n\r\n"


class TestDefaultFetch:
    """Malformed worker replies are a ClusterError, never a raw exception."""

    def test_short_body_and_garbled_status_line_raise_cluster_error(self):
        peer = MalformedPeer([SHORT_BODY, GARBLED_STATUS])
        try:
            with pytest.raises(ClusterError, match="malformed reply"):
                _default_fetch(peer.url + "/partial", timeout=10.0)
            with pytest.raises(ClusterError, match="malformed reply"):
                _default_fetch(peer.url + "/partial", timeout=10.0)
        finally:
            peer.close()

    def test_register_worker_retries_past_a_garbled_reply(self):
        coordinator = ClusterCoordinator(make_service(n_shards=1), n_workers=1)
        registered = json.dumps(coordinator.register(0, "http://w0")).encode()
        reply = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(registered) + registered
        )
        peer = MalformedPeer([GARBLED_STATUS, SHORT_BODY, reply])
        sleeps = []
        try:
            answer = register_worker(
                peer.url, 0, "http://w0", timeout=10.0, sleep=sleeps.append
            )
        finally:
            peer.close()
        assert answer["registered"] == 1 and sleeps == [0.25, 0.5]

    def test_proxy_variables_are_ignored(self, monkeypatch):
        """Cluster peers are dialled directly, whatever http_proxy says."""
        closed = socket.create_server(("127.0.0.1", 0))
        proxy = "http://127.0.0.1:%d" % closed.getsockname()[1]
        closed.close()
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, proxy)
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        coordinator = ClusterCoordinator(make_service(n_shards=1), n_workers=1)
        server = ServiceHTTPServer(
            coordinator.service, port=0, cluster=coordinator
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            answer = register_worker(
                server.url, 0, "http://w0", retries=1, timeout=10.0
            )
            body = _default_fetch(server.url + "/partial", timeout=10.0)
        finally:
            server.shutdown()
            thread.join(timeout=5)
        assert answer["registered"] == 1
        assert split_partial(body)[0].keys() == {"x", "y"}


class TestRegisterWorker:
    def test_retries_until_coordinator_is_up(self):
        coordinator = ClusterCoordinator(make_service(n_shards=1), n_workers=1)
        calls = {"n": 0}
        sleeps = []

        def fetch(url, data=None, content_type=None, timeout=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ClusterError(f"{url} is unreachable: not yet")
            payload = json.loads(data.decode())
            return json.dumps(
                coordinator.register(payload["worker"], payload["url"])
            ).encode()

        reply = register_worker(
            "http://c/", 0, "http://w0", fetch=fetch, sleep=sleeps.append
        )
        assert reply["registered"] == 1
        assert calls["n"] == 3 and sleeps == [0.25, 0.5]

    def test_raises_after_retry_budget(self):
        def fetch(url, data=None, content_type=None, timeout=None):
            raise ClusterError(f"{url} is unreachable: down")

        with pytest.raises(ClusterError, match="unreachable"):
            register_worker(
                "http://c", 0, "http://w0",
                retries=3, fetch=fetch, sleep=lambda _s: None,
            )


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class LiveCluster:
    """A coordinator HTTP server plus N in-thread worker HTTP servers."""

    def __init__(self, n_workers=2, *, classes=0, train=False):
        self.service = make_service(classes=classes, n_shards=n_workers)
        self.training = TrainingService(self.service) if train else None
        self.coordinator = ClusterCoordinator(
            self.service,
            n_workers=n_workers,
            training=self.training,
            timeout=5.0,
        )
        self.server = ServiceHTTPServer(
            self.service, port=0, cluster=self.coordinator,
            training=self.training,
        )
        self.threads = [
            threading.Thread(target=self.server.serve_forever, daemon=True)
        ]
        self.workers = []
        self.worker_servers = []
        for worker in range(n_workers):
            service = make_service(classes=classes)
            training = TrainingService(service) if train else None
            server = ServiceHTTPServer(service, port=0, training=training)
            self.workers.append((service, training))
            self.worker_servers.append(server)
            self.threads.append(
                threading.Thread(target=server.serve_forever, daemon=True)
            )
        for thread in self.threads:
            thread.start()
        for worker, server in enumerate(self.worker_servers):
            register_worker(self.server.url, worker, server.url, timeout=5.0)

    @property
    def url(self):
        return self.server.url

    def close(self):
        self.server.shutdown()
        for server in self.worker_servers:
            try:
                server.shutdown()
            except OSError:  # pragma: no cover - already closed
                pass
        for thread in self.threads:
            thread.join(timeout=5)


@pytest.fixture
def live():
    cluster = LiveCluster()
    yield cluster
    cluster.close()


class TestClusterHTTP:
    def test_register_and_cluster_endpoint(self, live):
        status, health = http_request(live.url + "/cluster")
        assert status == 200
        assert health["registered"] == 2 and health["n_workers"] == 2
        urls = [entry["url"] for entry in health["workers"]]
        assert urls == [server.url for server in live.worker_servers]

    def test_healthz_reports_cluster(self, live):
        _, payload = http_request(live.url + "/healthz")
        assert payload["status"] == "degraded"  # nothing synced yet
        assert payload["cluster"]["registered"] == 2

    def test_register_validation_maps_to_400(self, live):
        code, detail = http_request(
            live.url + "/register",
            json.dumps({"worker": 9, "url": "http://h:1"}).encode(),
        )
        assert code == 400 and "out of range" in detail["error"]
        code, _ = http_request(live.url + "/register", b"[1, 2]")
        assert code == 400

    def test_estimate_pulls_workers_and_matches_single_process(self, live):
        reference = make_service()
        for worker, seed in enumerate((22, 23)):
            batch, _ = make_batch(seed)
            live.workers[worker][0].ingest(batch)
            reference.ingest(batch)
        status, estimate = http_request(live.url + "/estimate?attribute=x")
        expected = reference.estimate("x", warn=False)
        assert status == 200
        assert estimate["n_seen"] == 400
        assert estimate["n_iterations"] == expected.n_iterations
        assert np.array_equal(
            np.asarray(estimate["probs"]), expected.distribution.probs
        )
        # the pull refreshed /healthz to a non-degraded cluster
        _, payload = http_request(live.url + "/healthz")
        assert payload["status"] == "ok"
        assert payload["cluster"]["degraded"] is False

    def test_worker_death_degrades_gracefully(self, live):
        for worker, seed in enumerate((24, 25)):
            live.workers[worker][0].ingest(make_batch(seed)[0])
        assert http_request(live.url + "/estimate?attribute=x")[0] == 200

        live.worker_servers[0].shutdown()
        live.workers[1][0].ingest(make_batch(26)[0])
        status, estimate = http_request(live.url + "/estimate?attribute=x")
        assert status == 200
        # worker 0 serves last-known (200), worker 1 is fresh (400)
        assert estimate["n_seen"] == 600
        _, payload = http_request(live.url + "/healthz")
        assert payload["status"] == "degraded"
        entries = {
            entry["worker"]: entry for entry in payload["cluster"]["workers"]
        }
        assert entries[0]["stale"] and not entries[0]["reachable"]
        assert not entries[1]["stale"]

    def test_coordinator_rejects_direct_ingest(self, live):
        code, detail = http_request(
            live.url + "/ingest",
            json.dumps({"batch": {"x": [0.5]}}).encode(),
        )
        assert code == 400 and "worker" in detail["error"]
        assert live.service.n_seen("x") == 0

    def test_worker_serves_partial_endpoint(self, live):
        batch, _ = make_batch(28)
        live.workers[0][0].ingest(batch)
        host, port = live.worker_servers[0].address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/partial")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == CONTENT_TYPE_PARTIAL
            partials, _ = split_partial(response.read())
        finally:
            conn.close()
        counts, _ = live.workers[0][0].shards.merged("x")
        assert np.array_equal(partials["x"], counts[None, :])

    def test_partial_rows_requires_training(self, live):
        code, detail = http_request(live.worker_servers[0].url + "/partial?rows=1")
        assert code == 400 and "training" in detail["error"]


class TestClusterHTTPTraining:
    @pytest.fixture
    def live(self):
        cluster = LiveCluster(classes=2, train=True)
        yield cluster
        cluster.close()

    def test_train_over_http_matches_single_process(self, live):
        reference = make_service(classes=2)
        reference_training = TrainingService(reference)
        for worker, seed in enumerate((29, 30)):
            batch, labels = make_batch(seed, classes=2)
            live.workers[worker][1].ingest(batch, labels)
            reference_training.ingest(batch, labels)
        status, reply = http_request(
            live.url + "/train", json.dumps({"strategy": "byclass"}).encode()
        )
        expected = reference_training.train("byclass")
        assert status == 200
        assert reply["n_train"] == 400
        assert reply["n_nodes"] == expected.tree.n_nodes
        assert reply["depth"] == expected.tree.depth
        model = live.coordinator.training.model("byclass")
        assert model.tree.identical_to(expected.tree)

    def test_train_with_never_synced_dead_worker_is_503(self, live):
        live.workers[1][1].ingest(*make_batch(31, classes=2))
        live.worker_servers[0].shutdown()
        code, detail = http_request(live.url + "/train", b"{}")
        assert code == 503 and "never synced" in detail["error"]

    def test_records_by_class_only_on_workers(self, live):
        """A coordinator's one-row partials carry no class split, so its
        /stats leaves records_by_class out; each worker reports its own."""
        for worker, seed in enumerate((33, 34)):
            batch, labels = make_batch(seed, classes=2)
            live.workers[worker][1].ingest(batch, labels)
        # pull both workers
        assert http_request(live.url + "/estimate?attribute=x")[0] == 200
        _, stats = http_request(live.url + "/stats")
        assert stats["records"]["x"] == 400
        assert "records_by_class" not in stats
        for (service, _), server in zip(live.workers, live.worker_servers):
            _, stats = http_request(server.url + "/stats")
            assert stats["records_by_class"] == {
                name: service.n_seen_by_class(name) for name in ("x", "y")
            }

    def test_pull_after_drain_carries_training_rows(self, live):
        batch, labels = make_batch(32, classes=2)
        live.workers[0][1].ingest(batch, labels)
        live.worker_servers[0].drain()
        # a drained worker still serves GET /partial?rows=1, and /train
        # pulls the row buffer with the aggregates
        model = live.coordinator.train("byclass")
        assert live.coordinator.health()["workers"][0]["records"] == 400
        assert model.n_train == 200


# ----------------------------------------------------------------------
# Process topology: on Linux, launch forks the workers from this test
# process; a supervised restart spawns (see test_resilience.py)
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


class TestStartCluster:
    def test_validates_inputs(self):
        with pytest.raises(ValidationError, match="n_workers"):
            start_cluster(SPEC, n_workers=0)
        with pytest.raises(ValidationError, match="dict"):
            start_cluster([], n_workers=1)
        with pytest.raises(ValidationError, match="needs snapshot_dir"):
            start_cluster(SPEC, n_workers=1, snapshot_interval=5.0)
        for interval in (0, -1.0, float("nan")):
            with pytest.raises(ValidationError, match="sync_interval"):
                start_cluster(SPEC, n_workers=1, sync_interval=interval)
        # refused before any worker starts, as one server would refuse it
        for interval in (0, -1.0):
            with pytest.raises(ValidationError, match="must be > 0"):
                start_cluster(
                    SPEC, n_workers=1, snapshot_dir="unused",
                    snapshot_interval=interval,
                )

    def test_refuses_a_mining_section_before_anything_starts(
        self, monkeypatch
    ):
        import repro.service.cluster as cluster

        def no_server(*args, **kwargs):
            raise AssertionError("start_cluster bound a coordinator socket")

        # the coordinator's socket is bound before any worker starts
        monkeypatch.setattr(cluster, "ServiceHTTPServer", no_server)
        spec = dict(SPEC, mining={"items": 4, "keep_prob": 0.9})
        for train in (False, True):
            with pytest.raises(ValidationError, match='"mining" section'):
                start_cluster(spec, n_workers=2, train=train)

    def test_two_process_topology_end_to_end(self):
        from repro.core import noise_for_privacy

        supervisor = start_cluster(SPEC, n_workers=2, sync_interval=60.0)
        try:
            supervisor.wait_ready(timeout=60.0)
            urls = supervisor.worker_urls()
            assert len(urls) == 2

            noise = noise_for_privacy("uniform", 1.0, 60.0)
            rng = np.random.default_rng(33)
            reference = AggregationService(
                [AttributeSpec("age", Partition.uniform(20, 80, 8), noise)]
            )
            for worker, url in enumerate(urls):
                values = noise.randomize(
                    rng.uniform(30, 70, 300), seed=worker
                )
                assert http_request(
                    url + "/ingest",
                    json.dumps({"batch": {"age": values.tolist()}}).encode(),
                )[0] == 200
                reference.ingest({"age": values})

            status, estimate = http_request(
                supervisor.url + "/estimate?attribute=age"
            )
            expected = reference.estimate("age", warn=False)
            assert status == 200 and estimate["n_seen"] == 600
            assert np.array_equal(
                np.asarray(estimate["probs"]), expected.distribution.probs
            )
        finally:
            supervisor.shutdown()
        assert all(not p.is_alive() for p in supervisor.processes)

    @pytest.mark.skipif(
        sys.platform != "linux" or not Path("/proc/self/fd").exists(),
        reason="launch forks on Linux, and the check reads /proc",
    )
    def test_launch_forks_workers_that_drop_the_coordinator_socket(self):
        supervisor = start_cluster(SPEC, n_workers=2, sync_interval=60.0)
        try:
            supervisor.wait_ready(timeout=60.0)
            own = Path("/proc/self/cmdline").read_bytes()
            inode = os.fstat(supervisor.server._httpd.fileno()).st_ino
            listener = f"socket:[{inode}]"
            for process in supervisor.processes:
                proc = Path(f"/proc/{process.pid}")
                # a fork keeps this interpreter's command line; a spawn
                # would read "... from multiprocessing.spawn import ..."
                assert (proc / "cmdline").read_bytes() == own
                links = set()
                for fd in (proc / "fd").iterdir():
                    try:
                        links.add(os.readlink(fd))
                    except FileNotFoundError:
                        # closed since the listing (say, the socket it
                        # registered on), so not the inherited listener
                        continue
                assert listener not in links, process.pid
        finally:
            supervisor.shutdown()

    def test_wait_ready_wakes_on_registration_without_sleeping(
        self, monkeypatch
    ):
        import repro.service.cluster as cluster_module

        supervisor = start_cluster(SPEC, n_workers=2, sync_interval=60.0)
        real_sleep = cluster_module.time.sleep
        caller = threading.get_ident()
        sleeps = []

        def counted(seconds):
            if threading.get_ident() == caller:
                sleeps.append(seconds)
            real_sleep(seconds)

        try:
            monkeypatch.setattr(cluster_module.time, "sleep", counted)
            supervisor.wait_ready(timeout=60.0)
            monkeypatch.undo()
            assert supervisor.coordinator.health()["registered"] == 2
        finally:
            supervisor.shutdown()
        assert sleeps == []

    def test_failed_worker_start_stops_the_launch(self, monkeypatch):
        from multiprocessing.process import BaseProcess

        import repro.service.cluster as cluster_module

        error = OSError(errno.EAGAIN, "injected: no process for worker 1")
        real_start = BaseProcess.start
        started = []

        def start_once(process):
            if started:
                raise error
            started.append(process)
            real_start(process)

        servers = []

        class SpyServer(ServiceHTTPServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                servers.append(self)

        monkeypatch.setattr(BaseProcess, "start", start_once)
        monkeypatch.setattr(cluster_module, "ServiceHTTPServer", SpyServer)
        try:
            with pytest.raises(OSError) as raised:
                start_cluster(SPEC, n_workers=2, sync_interval=60.0)
            assert raised.value is error
            (worker,) = started
            assert not worker.is_alive()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(servers[0].address, timeout=5.0)
        finally:
            # whatever the launch left behind must not outlive the test
            for process in started:
                if process.is_alive():
                    process.kill()
                    process.join(10.0)
            for server in servers:
                server.close()



# ----------------------------------------------------------------------
# The sync path's work, counted: only the coordinator moves state
# ----------------------------------------------------------------------
class TestSyncWork:
    TICKS = 3

    def test_timed_pulls_are_the_only_transfers(self, monkeypatch):
        """Workers send the coordinator two POST /register and nothing
        more, and K timed ticks after the ingest make exactly 2K pulls."""
        import repro.service.cluster as cluster_module
        import repro.service.httpd as httpd_module

        served = []  # (method, path) of every request the coordinator serves
        make_handler = httpd_module._make_handler

        def recording_handler(server):
            class Recording(make_handler(server)):
                def parse_request(self):
                    parsed = super().parse_request()
                    served.append((self.command, self.path))
                    return parsed

            return Recording

        pulls = []  # every URL the coordinator fetches
        fetch = cluster_module._default_fetch

        def counted_fetch(url, *args, **kwargs):
            pulls.append(url)
            return fetch(url, *args, **kwargs)

        ingested, counted = threading.Event(), threading.Event()
        ticks = []  # (result, URLs pulled) of each tick begun after ingest
        sync = ClusterCoordinator.sync

        def counted_sync(coordinator, **kwargs):
            if not ingested.is_set():
                return sync(coordinator, **kwargs)
            start = len(pulls)
            result = sync(coordinator, **kwargs)
            ticks.append((result, pulls[start:]))
            if len(ticks) == self.TICKS:
                counted.set()
            return result

        monkeypatch.setattr(httpd_module, "_make_handler", recording_handler)
        monkeypatch.setattr(cluster_module, "_default_fetch", counted_fetch)
        monkeypatch.setattr(ClusterCoordinator, "sync", counted_sync)
        supervisor = start_cluster(SPEC, n_workers=2, sync_interval=0.05)
        try:
            supervisor.wait_ready(timeout=60.0)
            urls = supervisor.worker_urls()
            for worker, url in enumerate(urls):
                ages = [20.0 + (7 * i + worker) % 60 for i in range(100)]
                body = json.dumps({"batch": {"age": ages}}).encode()
                assert http_request(url + "/ingest", body)[0] == 200
            ingested.set()
            assert counted.wait(timeout=60.0), "the sync loop stopped"
            health = supervisor.coordinator.health()
        finally:
            result = supervisor.shutdown()
        assert result["ok"], result["failures"]
        assert served == [("POST", "/register")] * 2
        assert len(ticks) >= self.TICKS
        for synced, pulled in ticks:
            assert synced == {"synced": [0, 1], "failed": []}
            assert pulled == [url + "/partial" for url in urls]
        assert [entry["records"] for entry in health["workers"]] == [100, 100]
        assert all(
            entry["age_seconds"] is not None for entry in health["workers"]
        )

    def test_timer_and_estimate_pull_no_rows(self, monkeypatch):
        """On a training cluster of servebench's spec, each timer tick and
        each /estimate pulls 1,671 bytes per worker, whatever the workers
        buffer; only /train pulls the labeled rows (296,741 bytes per
        worker at 8,192 rows, when every pull moved them)."""
        import repro.service.cluster as cluster_module
        from repro.service import service_from_spec

        attributes = [
            {"name": "salary", "low": 20_000, "high": 150_000},
            {"name": "age", "low": 20, "high": 80},
            {"name": "hvalue", "low": 50_000, "high": 1_350_000},
            {"name": "loan", "low": 0, "high": 500_000},
        ]
        for attribute in attributes:
            attribute.update(noise="uniform", privacy=1.0)
        spec = {"shards": 2, "classes": 2, "intervals": 24,
                "attributes": attributes}
        names = [attribute["name"] for attribute in attributes]
        sizes = []  # (path, bytes) of every pull after the ingest
        ingested, ticked = threading.Event(), threading.Event()
        fetch = cluster_module._default_fetch

        def measured_fetch(url, *args, **kwargs):
            body = fetch(url, *args, **kwargs)
            if ingested.is_set():
                sizes.append((url.rsplit("/", 1)[1], len(body)))
                if len(sizes) >= 2 * self.TICKS:
                    ticked.set()
            return body

        monkeypatch.setattr(cluster_module, "_default_fetch", measured_fetch)
        supervisor = start_cluster(
            spec, n_workers=2, train=True, sync_interval=0.05
        )
        try:
            supervisor.wait_ready(timeout=60.0)
            rng = np.random.default_rng(43)
            for url in supervisor.worker_urls():
                service = service_from_spec(spec)
                batch = {
                    name: service.spec(name).randomizer.randomize(
                        rng.uniform(a["low"], a["high"], 1_024), seed=rng
                    )
                    for name, a in zip(names, attributes)
                }
                body = encode_columns(batch, classes=rng.integers(0, 2, 1_024))
                status, _ = http_request(
                    url + "/ingest", body, content_type=CONTENT_TYPE_COLUMNS
                )
                assert status == 200
            ingested.set()
            assert ticked.wait(timeout=60.0), "the sync loop stopped"
            coordinator = supervisor.url
            assert http_request(coordinator + "/estimate?attribute=age")[0] == 200
            status, reply = http_request(
                coordinator + "/train", json.dumps({"strategy": "byclass"}).encode()
            )
        finally:
            result = supervisor.shutdown()
        assert result["ok"], result["failures"]
        assert status == 200 and reply["n_train"] == 2_048
        plain = [size for path, size in sizes if path == "partial"]
        with_rows = [size for path, size in sizes if path == "partial?rows=1"]
        assert len(plain) >= 2 * self.TICKS + 2
        assert set(plain) == {1_671}
        assert len(with_rows) == 2 and min(with_rows) > 1_671

    def test_failed_tick_is_logged_and_the_loop_keeps_ticking(
        self, monkeypatch, caplog
    ):
        calls = []
        ticked_again = threading.Event()

        def failing_once(coordinator, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise RuntimeError("injected: the first tick fails")
            ticked_again.set()
            return {"synced": [], "failed": []}

        monkeypatch.setattr(ClusterCoordinator, "sync", failing_once)
        supervisor = start_cluster(SPEC, n_workers=1, sync_interval=0.05)
        try:
            assert ticked_again.wait(timeout=60.0), "the sync loop died"
        finally:
            result = supervisor.shutdown()
        assert result["ok"], result["failures"]
        assert any(
            "background sync failed" in record.message
            for record in caplog.records
        )
