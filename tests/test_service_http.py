"""Tests for the HTTP front end (repro.service.httpd)."""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest
from conftest import http_request

from repro.core import Partition, StreamingReconstructor, UniformRandomizer
from repro.service import AggregationService, AttributeSpec, ServiceHTTPServer
from repro.service.wire import (
    CONTENT_TYPE_BASKETS,
    CONTENT_TYPE_COLUMNS,
    CONTENT_TYPE_NDJSON,
    encode_baskets,
    encode_columns,
    encode_ndjson,
)


@pytest.fixture
def noise():
    return UniformRandomizer(half_width=0.2)


@pytest.fixture
def service(noise):
    return AggregationService(
        [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
        n_shards=2,
    )


@pytest.fixture
def server(service, tmp_path):
    srv = ServiceHTTPServer(
        service, port=0, snapshot_path=tmp_path / "snap.json"
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)


def _get(server, path):
    return http_request(server.url + path)


def _post(server, path, payload):
    return http_request(server.url + path, json.dumps(payload).encode())


class TestRoutes:
    def test_healthz(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "records": 0}

    def test_attributes(self, server, noise):
        from repro.serialize import from_jsonable

        _, payload = _get(server, "/attributes")
        (attr,) = payload["attributes"]
        assert attr["name"] == "opinion"
        assert attr["n_intervals"] == 10
        assert attr["noise"] == "uniform"
        assert attr["privacy"] == pytest.approx(0.38)
        # the exact noise process, which clients randomize through
        assert from_jsonable(attr["randomizer"]) == noise

    def test_ingest_and_stats(self, server):
        status, payload = _post(
            server, "/ingest", {"batch": {"opinion": [0.5, 0.6, 0.7]}}
        )
        assert status == 200
        assert payload == {"ingested": 3, "records": 3}
        _, stats = _get(server, "/stats")
        assert stats["records"] == {"opinion": 3}
        assert stats["n_shards"] == 2
        assert stats["kernel_cache"]["misses"] == 1

    def test_ingest_with_shard_pin(self, server, service):
        status, _ = _post(
            server, "/ingest", {"batch": {"opinion": [0.5]}, "shard": 1}
        )
        assert status == 200
        assert service.shards.read_shard(1)[1].sum() == 1

    def test_estimate_matches_single_stream(self, server, noise):
        rng = np.random.default_rng(0)
        w = noise.randomize(rng.uniform(0.3, 0.7, 2_000), seed=1)
        assert _post(server, "/ingest", {"batch": {"opinion": w.tolist()}})[0] == 200
        _, estimate = _get(server, "/estimate?attribute=opinion")

        stream = StreamingReconstructor(
            Partition.uniform(0, 1, 10), noise
        ).update(np.asarray(w.tolist()))
        expected = stream.estimate()
        assert estimate["n_seen"] == 2_000
        assert estimate["n_iterations"] == expected.n_iterations
        assert np.array_equal(
            np.asarray(estimate["probs"]), expected.distribution.probs
        )

    def test_snapshot_persists(self, server, service, tmp_path):
        assert _post(server, "/ingest", {"batch": {"opinion": [0.4, 0.5]}})[0] == 200
        status, payload = _post(server, "/snapshot", None)
        assert status == 200
        restored = AggregationService.load(payload["saved"])
        assert restored.n_seen("opinion") == 2


def _post_raw(server, path, body, content_type):
    return http_request(server.url + path, body, content_type=content_type)


class TestColumnarIngest:
    def test_single_frame(self, server, service):
        body = encode_columns({"opinion": [0.4, 0.5, 0.6]})
        status, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert status == 200
        assert payload == {"ingested": 3, "frames": 1, "records": 3}
        assert service.n_seen("opinion") == 3

    def test_multi_frame_body_with_shard_pins(self, server, service):
        body = encode_columns({"opinion": [0.4]}, shard=0) + encode_columns(
            {"opinion": [0.5, 0.6]}, shard=1
        )
        status, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert status == 200
        assert payload["ingested"] == 3
        assert payload["frames"] == 2
        assert service.shards.read_shard(0)[1].sum() == 1
        assert service.shards.read_shard(1)[1].sum() == 2

    def test_content_type_parameters_tolerated(self, server, service):
        body = encode_columns({"opinion": [0.5]})
        status, _ = _post_raw(
            server, "/ingest", body, CONTENT_TYPE_COLUMNS + "; charset=binary"
        )
        assert status == 200
        assert service.n_seen("opinion") == 1

    def test_estimate_parity_with_json_wire(self, server, noise):
        """The two wires are interchangeable: same disclosures, bitwise
        the same estimate."""
        rng = np.random.default_rng(3)
        w = noise.randomize(rng.uniform(0.3, 0.7, 2_000), seed=4)
        half = w.size // 2
        status, _ = _post(
            server, "/ingest", {"batch": {"opinion": w[:half].tolist()}}
        )
        assert status == 200
        assert _post_raw(
            server, "/ingest", encode_columns({"opinion": w[half:]}),
            CONTENT_TYPE_COLUMNS,
        )[0] == 200
        _, estimate = _get(server, "/estimate?attribute=opinion")
        stream = StreamingReconstructor(Partition.uniform(0, 1, 10), noise)
        stream.update(np.asarray(w[:half].tolist()))
        stream.update(w[half:])
        expected = stream.estimate()
        assert np.array_equal(
            np.asarray(estimate["probs"]), expected.distribution.probs
        )
        assert estimate["n_iterations"] == expected.n_iterations

    def test_bad_magic_is_400(self, server):
        code, payload = _post_raw(
            server, "/ingest", b"JUNKJUNKJUNKJUNK", CONTENT_TYPE_COLUMNS
        )
        assert code == 400
        assert "magic" in payload["error"]

    def test_truncated_frame_is_400(self, server):
        body = encode_columns({"opinion": [0.5, 0.6]})[:-4]
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert "truncated" in payload["error"]

    def test_unknown_attribute_is_400(self, server):
        body = encode_columns({"nope": [0.5]})
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert "unknown attribute" in payload["error"]

    def test_failing_frame_aborts_whole_body(self, server, service):
        """All-or-nothing: a bad frame anywhere in the body means no
        frame of the body is absorbed (safe to re-send everything)."""
        body = encode_columns({"opinion": [0.4, 0.5]}) + encode_columns(
            {"opinion": [0.6, 0.7]}
        )[:-4]
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert "truncated" in payload["error"]
        assert service.n_seen("opinion") == 0

    def test_bad_shard_pin_aborts_whole_body(self, server, service):
        body = encode_columns({"opinion": [0.4]}) + encode_columns(
            {"opinion": [0.5]}, shard=7
        )
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert "shard index" in payload["error"]
        assert service.n_seen("opinion") == 0

    def test_columnar_only_negotiated_on_ingest(self, server):
        """Other routes ignore the columnar content type (body is JSON)."""
        code, _ = _post_raw(
            server, "/nope", encode_columns({}), CONTENT_TYPE_COLUMNS
        )
        assert code == 400  # body is not valid JSON -> 400, not a crash


class TestNDJSONIngest:
    def test_multi_line_body(self, server, service):
        body = encode_ndjson(
            [({"opinion": [0.4, 0.5]}, None), ({"opinion": [0.6]}, 1)]
        )
        status, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_NDJSON)
        assert status == 200
        assert payload == {"ingested": 3, "frames": 2, "records": 3}
        assert service.shards.read_shard(1)[1].sum() == 1

    def test_bad_line_is_400(self, server):
        body = b'{"batch": {"opinion": [0.5]}}\nnot json\n'
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_NDJSON)
        assert code == 400
        assert "line 2" in payload["error"]

    def test_non_integer_shard_is_400(self, server, service):
        body = b'{"batch": {"opinion": [0.5]}, "shard": []}\n'
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_NDJSON)
        assert code == 400
        assert "shard" in payload["error"]
        assert service.n_seen("opinion") == 0


class TestShardPinRule:
    """Every ingest wire answers a malformed shard pin with 400 and
    absorbs nothing, on this two-shard server."""

    def test_columns_pin_below_minus_one_is_400(self, server, service):
        frame = bytearray(encode_columns({"opinion": [0.5]}))
        frame[8:12] = (-2).to_bytes(4, "little", signed=True)
        code, payload = _post_raw(server, "/ingest", bytes(frame), CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert "shard pin -2" in payload["error"]
        assert service.n_seen("opinion") == 0

    def test_boolean_shard_is_400_in_json_and_ndjson(self, server, service):
        code, payload = _post(
            server, "/ingest", {"batch": {"opinion": [0.5]}, "shard": True}
        )
        assert code == 400
        assert "'shard' must be an integer" in payload["error"]
        body = b'{"batch": {"opinion": [0.5]}, "shard": true}\n'
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_NDJSON)
        assert code == 400
        assert "'shard' must be an integer" in payload["error"]
        assert service.n_seen("opinion") == 0


class TestKeepAlive:
    def test_connection_survives_many_requests(self, server):
        """HTTP/1.1 keep-alive: one socket carries the whole batch run."""
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            sockets = set()
            for i in range(4):
                body = encode_columns({"opinion": [0.1 * (i + 1)]})
                conn.request(
                    "POST", "/ingest", body=body,
                    headers={"Content-Type": CONTENT_TYPE_COLUMNS},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert payload["records"] == i + 1
                sockets.add(id(conn.sock))
            assert len(sockets) == 1  # never re-dialed
        finally:
            conn.close()

    def test_mixed_wire_formats_on_one_connection(self, server, service):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for body, ctype in [
                (json.dumps({"batch": {"opinion": [0.4]}}).encode(),
                 "application/json"),
                (encode_columns({"opinion": [0.5]}), CONTENT_TYPE_COLUMNS),
                (encode_ndjson([({"opinion": [0.6]}, None)]),
                 CONTENT_TYPE_NDJSON),
            ]:
                conn.request(
                    "POST", "/ingest", body=body,
                    headers={"Content-Type": ctype},
                )
                assert json.loads(conn.getresponse().read())["ingested"] == 1
            assert service.n_seen("opinion") == 3
        finally:
            conn.close()


class TestLabeledIngest:
    """Class columns across every wire format feed the per-class stripes."""

    @pytest.fixture
    def class_server(self, noise, tmp_path):
        service = AggregationService(
            [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
            n_shards=2,
            classes=2,
        )
        srv = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, service
        srv.shutdown()
        thread.join(timeout=5)

    def test_json_classes(self, class_server):
        server, service = class_server
        status, payload = _post(
            server, "/ingest",
            {"batch": {"opinion": [0.4, 0.6]}, "classes": [0, 1]},
        )
        assert status == 200
        assert payload["ingested"] == 2
        assert service.n_seen_by_class("opinion") == {
            "unlabeled": 0, "0": 1, "1": 1,
        }

    def test_columnar_v2_classes(self, class_server):
        server, service = class_server
        body = encode_columns({"opinion": [0.4, 0.5, 0.6]}, classes=[0, 0, 1])
        status, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert status == 200
        assert payload["ingested"] == 3
        assert service.n_seen_by_class("opinion")["0"] == 2

    def test_mixed_v1_v2_body(self, class_server):
        server, service = class_server
        body = encode_columns({"opinion": [0.4]}) + encode_columns(
            {"opinion": [0.5, 0.6]}, classes=[1, 1]
        )
        status, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert status == 200
        assert payload["frames"] == 2
        assert service.n_seen_by_class("opinion") == {
            "unlabeled": 1, "0": 0, "1": 2,
        }

    def test_ndjson_classes(self, class_server):
        server, service = class_server
        body = b'{"batch": {"opinion": [0.4]}, "classes": [1]}\n'
        status, _ = _post_raw(server, "/ingest", body, CONTENT_TYPE_NDJSON)
        assert status == 200
        assert service.n_seen_by_class("opinion")["1"] == 1

    def test_stats_reports_by_class(self, class_server):
        server, service = class_server
        status, _ = _post(
            server, "/ingest",
            {"batch": {"opinion": [0.4, 0.6]}, "classes": [0, 1]},
        )
        assert status == 200
        assert _post(server, "/ingest", {"batch": {"opinion": [0.5]}})[0] == 200
        _, stats = _get(server, "/stats")
        assert stats["classes"] == 2
        assert stats["records_by_class"]["opinion"] == {
            "unlabeled": 1, "0": 1, "1": 1,
        }

    def test_out_of_range_class_is_400_nothing_absorbed(self, class_server):
        server, service = class_server
        body = encode_columns({"opinion": [0.4]}, classes=[0]) + encode_columns(
            {"opinion": [0.5]}, classes=[9]
        )
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert "class" in payload["error"]
        assert service.n_seen("opinion") == 0

    def test_class_column_on_class_unaware_service_is_400(self, server, service):
        body = encode_columns({"opinion": [0.4]}, classes=[0])
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert "class" in payload["error"]
        assert service.n_seen("opinion") == 0

    def test_labeled_estimate_still_single_stream(self, class_server, noise):
        """Class partitioning never changes the all-records estimate."""
        server, service = class_server
        rng = np.random.default_rng(5)
        w = noise.randomize(rng.uniform(0.3, 0.7, 1_500), seed=6)
        labels = (rng.random(1_500) < 0.4).astype(int)
        half = w.size // 2
        status, _ = _post(
            server, "/ingest",
            {"batch": {"opinion": w[:half].tolist()},
             "classes": labels[:half].tolist()},
        )
        assert status == 200
        assert _post_raw(
            server, "/ingest",
            encode_columns({"opinion": w[half:]}, classes=labels[half:]),
            CONTENT_TYPE_COLUMNS,
        )[0] == 200
        _, estimate = _get(server, "/estimate?attribute=opinion")
        stream = StreamingReconstructor(Partition.uniform(0, 1, 10), noise)
        stream.update(np.asarray(w[:half].tolist()))
        stream.update(w[half:])
        expected = stream.estimate()
        assert np.array_equal(
            np.asarray(estimate["probs"]), expected.distribution.probs
        )


class TestTrainEndpoints:
    @pytest.fixture
    def train_server(self, noise):
        from repro.service import TrainingService

        service = AggregationService(
            [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
            classes=2,
        )
        training = TrainingService(service)
        srv = ServiceHTTPServer(service, port=0, training=training)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, service, training
        srv.shutdown()
        thread.join(timeout=5)

    def _feed(self, server, noise, n=600):
        rng = np.random.default_rng(7)
        x = np.concatenate(
            [rng.uniform(0, 0.45, n // 2), rng.uniform(0.55, 1, n // 2)]
        )
        labels = np.repeat([0, 1], n // 2)
        body = encode_columns(
            {"opinion": noise.randomize(x, seed=8)}, classes=labels
        )
        assert _post_raw(server, "/ingest", body, CONTENT_TYPE_COLUMNS)[0] == 200

    def test_train_then_model_roundtrip(self, train_server, noise):
        from repro import serialize
        from repro.service import TrainedModel

        server, service, training = train_server
        self._feed(server, noise)
        status, summary = _post(server, "/train", {"strategy": "byclass"})
        assert status == 200
        assert summary["strategy"] == "byclass"
        assert summary["n_train"] == 600
        assert summary["n_nodes"] >= 1
        _, payload = _get(server, "/model?strategy=byclass")
        model = serialize.from_jsonable(payload)
        assert isinstance(model, TrainedModel)
        assert model.tree.identical_to(training.model("byclass").tree)

    def test_train_default_strategy(self, train_server, noise):
        server, _, _ = train_server
        self._feed(server, noise)
        status, summary = _post(server, "/train", None)
        assert status == 200
        assert summary["strategy"] == "byclass"

    def test_model_before_training_is_404(self, train_server):
        server, _, _ = train_server
        code, payload = _get(server, "/model")
        assert code == 404
        assert "train" in payload["error"]

    def test_model_unknown_strategy_is_400(self, train_server):
        server, _, _ = train_server
        code, payload = _get(server, "/model?strategy=byclas")
        assert code == 400
        assert "byclas" in payload["error"]
        assert "byclass" in payload["error"]

    def test_train_without_data_is_400(self, train_server):
        server, _, _ = train_server
        code, payload = _post(server, "/train", {"strategy": "byclass"})
        assert code == 400
        assert "labeled" in payload["error"]

    def test_bad_strategy_is_400(self, train_server, noise):
        server, _, _ = train_server
        self._feed(server, noise)
        code, payload = _post(server, "/train", {"strategy": "original"})
        assert code == 400

    def test_training_ingest_is_all_or_nothing(self, train_server, noise):
        """A labeled body whose last frame is invalid absorbs nothing —
        neither shards nor the training buffer."""
        server, service, training = train_server
        good = encode_columns({"opinion": [0.4]}, classes=[0])
        bad = encode_columns({"opinion": [0.5]}, classes=[5])
        code, _ = _post_raw(server, "/ingest", good + bad, CONTENT_TYPE_COLUMNS)
        assert code == 400
        assert service.n_seen("opinion") == 0
        assert training.n_buffered == 0

    def test_train_endpoints_disabled_without_training(self, server):
        code, payload = _post(server, "/train", {"strategy": "byclass"})
        assert code == 400
        assert "training" in payload["error"]
        code, payload = _get(server, "/model")
        assert code == 400


class TestMiningEndpoints:
    """Basket ingest negotiation, POST /mine, GET /rules."""

    KEEP_PROB = 0.9
    N_ITEMS = 6

    @pytest.fixture
    def mining_server(self, noise):
        from repro.mining import RandomizedResponse
        from repro.service import MiningService

        service = AggregationService(
            [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
        )
        mining = MiningService(
            RandomizedResponse(keep_prob=self.KEEP_PROB),
            self.N_ITEMS,
            n_shards=2,
        )
        srv = ServiceHTTPServer(service, port=0, mining=mining)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, mining
        srv.shutdown()
        thread.join(timeout=5)

    def _disclosed(self, n=1_500):
        from repro.mining import RandomizedResponse, generate_baskets

        clean = generate_baskets(n, self.N_ITEMS, seed=21)
        response = RandomizedResponse(keep_prob=self.KEEP_PROB)
        return response.randomize(clean, seed=22)

    def test_basket_ingest_and_stats(self, mining_server):
        server, mining = mining_server
        disclosed = self._disclosed()
        body = encode_baskets(disclosed[:1000]) + encode_baskets(
            disclosed[1000:], shard=1
        )
        status, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_BASKETS)
        assert status == 200
        assert payload == {"ingested": 1500, "frames": 2, "baskets": 1500}
        assert mining.shards.read_shard(1)[1].sum() == 500
        _, stats = _get(server, "/stats")
        assert stats["mining"] == {
            "n_items": self.N_ITEMS,
            "keep_prob": self.KEEP_PROB,
            "max_size": 3,
            "n_shards": 2,
            "baskets": 1500,
        }

    def test_mine_then_rules_matches_offline(self, mining_server):
        from repro import serialize
        from repro.mining import MaskMiner, RandomizedResponse, association_rules

        server, mining = mining_server
        disclosed = self._disclosed()
        assert _post_raw(
            server, "/ingest", encode_baskets(disclosed), CONTENT_TYPE_BASKETS
        )[0] == 200
        status, summary = _post(
            server, "/mine", {"min_support": 0.15, "min_confidence": 0.4}
        )
        assert status == 200
        assert summary["n_baskets"] == 1500
        assert summary["min_support"] == 0.15
        assert summary["n_itemsets"] >= 1

        _, payload = _get(server, "/rules")
        result = serialize.from_jsonable(payload)
        response = RandomizedResponse(keep_prob=self.KEEP_PROB)
        expected_sets = MaskMiner(response).frequent_itemsets(disclosed, 0.15)
        assert result.itemsets == expected_sets  # bit-identical supports
        expected_rules = association_rules(expected_sets, 0.4)
        canonical = lambda r: (sorted(r.antecedent), sorted(r.consequent))  # noqa: E731
        assert sorted(result.rules, key=canonical) == sorted(
            expected_rules, key=canonical
        )
        assert len(result.rules) == summary["n_rules"]

    def test_rules_before_mine_is_404(self, mining_server):
        server, _ = mining_server
        code, payload = _get(server, "/rules")
        assert code == 404
        assert "mine" in payload["error"]

    def test_mine_before_ingest_is_400(self, mining_server):
        server, _ = mining_server
        code, payload = _post(
            server, "/mine", {"min_support": 0.2, "min_confidence": 0.5}
        )
        assert code == 400
        assert "no baskets" in payload["error"]

    def test_bad_thresholds_are_400(self, mining_server):
        server, _ = mining_server
        for body in (
            {"min_support": "high", "min_confidence": 0.5},
            {"min_support": 0.2},
            {"min_confidence": 0.5},
            {"min_support": True, "min_confidence": 0.5},
            None,
        ):
            code, payload = _post(server, "/mine", body)
            assert code == 400
            assert "min_" in payload["error"]

    def test_out_of_range_thresholds_are_400(self, mining_server):
        server, mining = mining_server
        assert _post_raw(
            server, "/ingest", encode_baskets(self._disclosed(50)),
            CONTENT_TYPE_BASKETS,
        )[0] == 200
        for support, confidence in ((0.0, 0.5), (1.5, 0.5), (0.2, -1.0)):
            code, _ = _post(
                server, "/mine",
                {"min_support": support, "min_confidence": confidence},
            )
            assert code == 400

    def test_mining_endpoints_disabled_without_mining(self, server):
        code, payload = _post(
            server, "/mine", {"min_support": 0.2, "min_confidence": 0.5}
        )
        assert code == 400
        assert "mining" in payload["error"]
        code, payload = _get(server, "/rules")
        assert code == 400
        assert "mining" in payload["error"]
        code, payload = _post_raw(
            server, "/ingest",
            encode_baskets(np.eye(3, dtype=bool)), CONTENT_TYPE_BASKETS,
        )
        assert code == 400
        assert "mining" in payload["error"]

    def test_failing_frame_aborts_whole_body(self, mining_server):
        """All-or-nothing, like the columnar wire: a bad frame anywhere
        means no basket of the body is counted."""
        server, mining = mining_server
        disclosed = self._disclosed(100)
        body = encode_baskets(disclosed) + encode_baskets(disclosed)[:-3]
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_BASKETS)
        assert code == 400
        assert "truncated" in payload["error"]
        assert mining.n_seen == 0

    def test_bad_shard_pin_aborts_whole_body(self, mining_server):
        server, mining = mining_server
        disclosed = self._disclosed(40)
        body = encode_baskets(disclosed) + encode_baskets(disclosed, shard=7)
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_BASKETS)
        assert code == 400
        assert "shard index" in payload["error"]
        assert mining.n_seen == 0

    def test_wrong_item_universe_is_400(self, mining_server):
        server, mining = mining_server
        body = encode_baskets(np.eye(4, dtype=bool))  # server mines 6 items
        code, payload = _post_raw(server, "/ingest", body, CONTENT_TYPE_BASKETS)
        assert code == 400
        assert "universe" in payload["error"]
        assert mining.n_seen == 0

    def test_mixed_v1_and_v4_body_is_400_nothing_absorbed(self, mining_server):
        """A columnar record frame inside a basket body (and vice versa)
        is malformed — neither tier absorbs anything from it."""
        server, mining = mining_server
        mixed = encode_baskets(self._disclosed(20)) + encode_columns(
            {"opinion": [0.5]}
        )
        code, payload = _post_raw(server, "/ingest", mixed, CONTENT_TYPE_BASKETS)
        assert code == 400
        assert "version" in payload["error"]
        assert mining.n_seen == 0
        # the symmetric half: a v4 frame under the columnar content type
        code, payload = _post_raw(
            server, "/ingest",
            encode_baskets(self._disclosed(5)), CONTENT_TYPE_COLUMNS,
        )
        assert code == 400
        assert "version" in payload["error"]
        assert server.service.n_seen("opinion") == 0

    def test_basket_ingest_keeps_connection_alive(self, mining_server):
        server, mining = mining_server
        disclosed = self._disclosed(300)
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            sockets = set()
            for chunk in np.array_split(np.arange(300), 3):
                conn.request(
                    "POST", "/ingest", body=encode_baskets(disclosed[chunk]),
                    headers={"Content-Type": CONTENT_TYPE_BASKETS},
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                sockets.add(id(conn.sock))
            assert len(sockets) == 1  # never re-dialed
            conn.request(
                "POST", "/mine",
                body=json.dumps(
                    {"min_support": 0.15, "min_confidence": 0.4}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            assert json.loads(conn.getresponse().read())["n_baskets"] == 300
        finally:
            conn.close()


class TestBasketHTTPFuzz:
    """Fuzzed basket bodies over a keep-alive connection: always a clean
    4xx, nothing absorbed, the connection stays usable — the v4 twin of
    TestHTTPRobustnessFuzz."""

    BASE_SEED = 424_244

    def _bodies(self, rng):
        matrix = np.array(
            [[(r * c) % 3 == 0 for c in range(1, 7)] for r in range(1, 9)]
        )
        single = encode_baskets(matrix)
        multi = encode_baskets(matrix, shard=0) + encode_baskets(matrix, shard=1)
        mixed = single + encode_columns({"opinion": [0.5]})
        bodies = [mixed, b"", b"PPDM"]
        for _ in range(12):
            base = bytearray(rng.choice((single, multi)))
            action = rng.random()
            if action < 0.45:
                base = base[: rng.randrange(1, len(base))]
            elif action < 0.9:
                for _ in range(rng.randint(1, 3)):
                    base[rng.randrange(len(base))] = rng.randrange(256)
            else:
                base = base + bytes(rng.randrange(1, 9))
            bodies.append(bytes(base))
        return bodies

    def test_fuzzed_basket_bodies_leave_connection_usable(self, noise):
        import random

        from repro.mining import RandomizedResponse
        from repro.service import MiningService

        service = AggregationService(
            [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
        )
        mining = MiningService(RandomizedResponse(keep_prob=0.9), 6, n_shards=2)
        srv = ServiceHTTPServer(service, port=0, mining=mining)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        rng = random.Random(self.BASE_SEED)
        host, port = srv.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for index, body in enumerate(self._bodies(rng)):
                before = mining.n_seen
                conn.request(
                    "POST", "/ingest", body=body,
                    headers={"Content-Type": CONTENT_TYPE_BASKETS},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status in (200, 400), (
                    f"body {index} (seed {self.BASE_SEED}) gave "
                    f"{response.status}"
                )
                if response.status != 200:
                    assert "error" in payload
                    # a rejected body absorbs nothing (all-or-nothing)
                    assert mining.n_seen == before
                # the record tier never sees basket bodies
                assert service.n_seen("opinion") == 0
                # same connection still serves the next request
                conn.request("GET", "/healthz")
                health = conn.getresponse()
                assert health.status == 200
                json.loads(health.read())
        finally:
            conn.close()
            srv.shutdown()
            thread.join(timeout=5)


class TestHTTPRobustnessFuzz:
    """Malformed/truncated/corrupted bodies: always a clean 4xx, the
    connection stays usable, and nothing is partially absorbed."""

    BASE_SEED = 424_242

    def _bodies(self, rng):
        valid = encode_columns({"opinion": [0.4, 0.5]}) + encode_columns(
            {"opinion": [0.6]}, shard=1
        )
        labeled = encode_columns({"opinion": [0.4, 0.5]}, classes=[0, 1])
        bodies = []
        for _ in range(12):
            base = bytearray(rng.choice((valid, labeled)))
            action = rng.random()
            if action < 0.45:
                base = base[: rng.randrange(1, len(base))]
            elif action < 0.9:
                for _ in range(rng.randint(1, 3)):
                    base[rng.randrange(len(base))] = rng.randrange(256)
            else:
                base = base + bytes(rng.randrange(1, 9))
            bodies.append(bytes(base))
        return bodies

    def test_fuzzed_columnar_bodies_leave_connection_usable(self, noise):
        import random

        service = AggregationService(
            [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
            n_shards=2,
            classes=2,
        )
        srv = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        rng = random.Random(self.BASE_SEED)
        host, port = srv.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for index, body in enumerate(self._bodies(rng)):
                before = service.n_seen("opinion")
                conn.request(
                    "POST", "/ingest", body=body,
                    headers={"Content-Type": CONTENT_TYPE_COLUMNS},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status in (200, 400), (
                    f"body {index} (seed {self.BASE_SEED}) gave "
                    f"{response.status}"
                )
                if response.status != 200:
                    assert "error" in payload
                    # a rejected body absorbs nothing (all-or-nothing)
                    assert service.n_seen("opinion") == before
                # same connection still serves the next request
                conn.request("GET", "/healthz")
                health = conn.getresponse()
                assert health.status == 200
                json.loads(health.read())
        finally:
            conn.close()
            srv.shutdown()
            thread.join(timeout=5)

    def test_oversized_body_is_413_before_reading(self, service):
        srv = ServiceHTTPServer(service, port=0, max_body_bytes=1_000)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = encode_columns({"opinion": np.zeros(10_000)})
            conn.request(
                "POST", "/ingest", body=body,
                headers={"Content-Type": CONTENT_TYPE_COLUMNS},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert "cap" in payload["error"]
            assert response.getheader("Connection") == "close"
            assert service.n_seen("opinion") == 0
        finally:
            conn.close()
            srv.shutdown()
            thread.join(timeout=5)

    def test_malformed_content_length_is_400_not_crash(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/ingest")
            conn.putheader("Content-Length", "banana")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "Content-Length" in payload["error"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/ingest")
            conn.putheader("Content-Length", "-5")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()


class TestTransferEncoding:
    def test_chunked_request_rejected_and_connection_closed(self, server):
        """Only Content-Length bodies are read; chunked bytes left on a
        keep-alive socket would desync every later request."""
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/ingest")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 501
            assert "Transfer-Encoding" in payload["error"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()


class TestThreadReaping:
    def test_finished_handler_threads_are_reaped(self, server):
        for _ in range(5):
            assert _get(server, "/healthz")[0] == 200
        # every request closed its connection, so the handler
        # threads are finished; the reaper must drop them from the
        # join-on-close list (only the in-flight ones may remain)
        server.reap_handler_threads()
        threads = getattr(server._httpd, "_threads", None)
        assert threads is not None
        assert sum(1 for t in threads if not t.is_alive()) == 0

    def test_reap_returns_zero_when_nothing_to_do(self, server):
        server.reap_handler_threads()
        assert server.reap_handler_threads() == 0


class TestErrors:
    def test_unknown_route_404(self, server):
        code, payload = _get(server, "/nope")
        assert code == 404
        assert "unknown route" in payload["error"]

    def test_estimate_needs_attribute(self, server):
        code, payload = _get(server, "/estimate")
        assert code == 400
        assert "attribute" in payload["error"]

    def test_estimate_unknown_attribute(self, server):
        code, payload = _get(server, "/estimate?attribute=nope")
        assert code == 400

    def test_estimate_before_data(self, server):
        code, payload = _get(server, "/estimate?attribute=opinion")
        assert code == 400
        assert "ingest" in payload["error"]

    def test_ingest_requires_batch_key(self, server):
        code, payload = _post(server, "/ingest", {"opinion": [0.5]})
        assert code == 400

    def test_ingest_rejects_non_json(self, server):
        code, payload = http_request(server.url + "/ingest", b"not json{")
        assert code == 400
        assert "JSON" in payload["error"]

    def test_ingest_unknown_attribute(self, server):
        code, payload = _post(server, "/ingest", {"batch": {"nope": [0.5]}})
        assert code == 400
        assert "unknown attribute" in payload["error"]

    def test_ingest_non_integer_shard(self, server):
        code, payload = _post(
            server, "/ingest",
            {"batch": {"opinion": [0.5]}, "shard": {"i": 0}},
        )
        assert code == 400
        assert "shard" in payload["error"]

    def test_snapshot_without_path_400(self, service):
        srv = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            code, payload = _post(srv, "/snapshot", None)
            assert code == 400
        finally:
            srv.shutdown()
            thread.join(timeout=5)


class TestMaxRequests:
    def test_serves_exactly_n_requests(self, service):
        srv = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(
            target=srv.serve_forever, kwargs={"max_requests": 2}, daemon=True
        )
        thread.start()
        assert _get(srv, "/healthz")[0] == 200
        assert _get(srv, "/healthz")[0] == 200
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert srv.requests_served == 2
