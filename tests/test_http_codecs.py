"""HTTP codec negotiation and compressed-body robustness.

The wire v5 surface as seen from the socket: ``Content-Encoding``
negotiation (415 before a body byte is absorbed), bounded
decompression (bombs -> 413, truncation/corruption -> 400), the
canonical-digits ``Content-Length`` rule, and quantized v5 ingest
parity — all while keep-alive connections stay usable and rejected
bodies absorb nothing.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import zlib

import numpy as np
import pytest

from repro.core import Partition, UniformRandomizer
from repro.service import AggregationService, AttributeSpec, ServiceHTTPServer
from repro.service.wire import (
    CONTENT_TYPE_COLUMNS,
    encode_columns,
    encode_quantized,
    supported_codecs,
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
def server(service):
    srv = ServiceHTTPServer(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)


def _post_encoded(server, body, *, encoding=None, path="/ingest",
                  content_type=CONTENT_TYPE_COLUMNS):
    """POST over a dedicated connection; return (status, payload, headers)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        headers = {"Content-Type": content_type}
        if encoding is not None:
            headers["Content-Encoding"] = encoding
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


class TestCodecNegotiation:
    def test_zlib_body_ingests_and_matches_identity(self, server, service):
        body = encode_columns({"opinion": [0.4, 0.5, 0.6]})
        status, payload, _ = _post_encoded(
            server, zlib.compress(body), encoding="zlib"
        )
        assert status == 200
        assert payload == {"ingested": 3, "records": 3, "frames": 1}
        # the identity body lands in the same accumulators
        status, payload, _ = _post_encoded(server, body)
        assert status == 200
        assert payload["records"] == 6

    def test_deflate_alias_and_case_insensitivity(self, server):
        body = encode_columns({"opinion": [0.4]})
        for token in ("deflate", "ZLIB", " zlib "):
            status, _, _ = _post_encoded(
                server, zlib.compress(body), encoding=token
            )
            assert status == 200

    def test_explicit_identity_token_accepted(self, server):
        body = encode_columns({"opinion": [0.4]})
        status, _, _ = _post_encoded(server, body, encoding="identity")
        assert status == 200

    def test_unknown_encoding_is_415_with_supported_list(self, server, service):
        status, payload, headers = _post_encoded(
            server, b"anything", encoding="br"
        )
        assert status == 415
        assert "'br'" in payload["error"]
        for codec in supported_codecs():
            assert codec in payload["error"]
        assert headers.get("Connection") == "close"
        assert service.n_seen("opinion") == 0

    def test_415_answers_before_reading_the_body(self, server):
        """A huge declared body with an undecodable codec is refused from
        the headers alone — the server must not wait for (or read) the
        bytes it can never decode."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/x-ppdm-columns\r\n"
                b"Content-Encoding: br\r\n"
                b"Content-Length: 1000000000\r\n"
                b"\r\n"
            )  # no body follows; a server reading it would block
            sock.settimeout(10)
            head = sock.recv(4096)
        assert head.startswith(b"HTTP/1.1 415")

    def test_multiple_encodings_rejected(self, server):
        status, _, _ = _post_encoded(
            server, b"anything", encoding="zlib, br"
        )
        assert status == 415


class TestCompressedBodyFuzz:
    """Compressed-body failure modes: clean 4xx, keep-alive usable,
    nothing absorbed."""

    def _roundtrip_health(self, conn):
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        json.loads(response.read())

    def test_corrupt_zlib_is_400_and_connection_survives(self, server, service):
        wire = bytearray(zlib.compress(encode_columns({"opinion": [0.5]})))
        wire[len(wire) // 2] ^= 0xFF
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/ingest", body=bytes(wire),
                headers={"Content-Type": CONTENT_TYPE_COLUMNS,
                         "Content-Encoding": "zlib"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "zlib" in payload["error"]
            assert service.n_seen("opinion") == 0
            self._roundtrip_health(conn)
        finally:
            conn.close()

    def test_truncated_zlib_is_400_nothing_absorbed(self, server, service):
        wire = zlib.compress(encode_columns({"opinion": np.zeros(500)}))
        status, payload, _ = _post_encoded(server, wire[:-6], encoding="zlib")
        assert status == 400
        assert "truncated" in payload["error"]
        assert service.n_seen("opinion") == 0

    def test_zlib_bomb_is_413_and_connection_survives(self, noise):
        service = AggregationService(
            [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
            n_shards=2,
        )
        srv = ServiceHTTPServer(service, port=0, max_body_bytes=65_536)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            bomb = zlib.compress(bytes(50_000_000))
            assert len(bomb) < 65_536  # fits the raw cap, explodes decoded
            conn.request(
                "POST", "/ingest", body=bomb,
                headers={"Content-Type": CONTENT_TYPE_COLUMNS,
                         "Content-Encoding": "zlib"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert "cap" in payload["error"]
            assert service.n_seen("opinion") == 0
            # the wire body was fully read, so keep-alive stays in sync
            self._roundtrip_health(conn)
        finally:
            conn.close()
            srv.shutdown()
            thread.join(timeout=5)

    def test_corrupt_frame_inside_valid_zlib_is_all_or_nothing(
        self, server, service
    ):
        good = encode_columns({"opinion": [0.4, 0.5]})
        bad = bytearray(encode_columns({"opinion": [0.6]}))
        bad[4] = 0x7F  # unsupported version in the second frame
        wire = zlib.compress(good + bytes(bad))
        status, _, _ = _post_encoded(server, wire, encoding="zlib")
        assert status == 400
        assert service.n_seen("opinion") == 0

    def test_mixed_version_frames_in_one_compressed_body(self, server, service):
        body = encode_columns({"opinion": [0.4]}) + encode_quantized(
            {"opinion": np.linspace(0.1, 0.9, 5)}
        )
        status, payload, _ = _post_encoded(
            server, zlib.compress(body), encoding="zlib"
        )
        assert status == 200
        assert payload["frames"] == 2
        assert service.n_seen("opinion") == 6

    def test_compressed_corruption_fuzz(self, server, service):
        import random

        rng = random.Random(161_803)
        body = encode_columns({"opinion": np.linspace(0.1, 0.9, 64)})
        wire = zlib.compress(body)
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        absorbed = 0
        try:
            for case in range(25):
                mutated = bytearray(wire)
                for _ in range(rng.randint(1, 3)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                before = service.n_seen("opinion")
                conn.request(
                    "POST", "/ingest", body=bytes(mutated),
                    headers={"Content-Type": CONTENT_TYPE_COLUMNS,
                             "Content-Encoding": "zlib"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status in (200, 400, 413), (
                    f"case {case} gave {response.status}"
                )
                if response.status == 200:
                    absorbed += payload["ingested"]
                else:
                    assert "error" in payload
                    assert service.n_seen("opinion") == before
                self._roundtrip_health(conn)
        finally:
            conn.close()
        assert service.n_seen("opinion") == absorbed


class TestContentLengthStrictness:
    """Content-Length must be canonical ASCII digits; anything Python's
    int() merely tolerates ("1_000", "+5", trailing space) is a 400."""

    BAD_VALUES = ["1_000", "+5", "5 ", "0x10", "2e3", "٥"]

    def _raw_request(self, server, content_length):
        host, port = server.address
        head = (
            "POST /ingest HTTP/1.1\r\n"
            "Host: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n"
            "\r\n"
        ).encode("utf-8")
        # read the head, then exactly Content-Length body bytes: a reply
        # that keeps the connection open never sends EOF
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(head)
            with sock.makefile("rb") as reply:
                lines = []
                while not lines or lines[-1] not in (b"\r\n", b""):
                    lines.append(reply.readline())
                length = 0
                for line in lines:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                return b"".join(lines) + reply.read(length)

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_noncanonical_content_length_is_400(self, server, service, value):
        reply = self._raw_request(server, value)
        assert reply.startswith(b"HTTP/1.1 400"), reply[:80]
        assert b"Content-Length" in reply
        assert service.n_seen("opinion") == 0

    def test_canonical_zero_still_accepted_on_post(self, server):
        reply = self._raw_request(server, "0")
        # an empty JSON body is a 400 from the handler, not a framing 400
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"batch" in reply
        assert b"canonical" not in reply


class TestQuantizedIngest:
    def test_quantized_estimate_matches_float_ingest(self, noise):
        """int8 bin indices land in the same accumulators as the raw
        float column — estimates are bit-identical."""
        rng = np.random.default_rng(11)
        disclosed = noise.randomize(rng.uniform(0.2, 0.8, 3_000), seed=3)

        def build():
            return AggregationService(
                [AttributeSpec("opinion", Partition.uniform(-1, 2, 30), noise)],
                n_shards=2,
            )

        float_service = build()
        float_service.ingest({"opinion": disclosed})
        expected = float_service.estimate("opinion")

        quant_service = build()
        srv = ServiceHTTPServer(quant_service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            indices = quant_service.quantize({"opinion": disclosed})
            assert indices["opinion"].dtype == np.dtype("int8")
            body = encode_quantized(indices)
            assert len(body) < disclosed.size * 8 // 4  # ~1/8th the bytes
            status, payload, _ = _post_encoded(srv, body)
            assert status == 200
            assert payload["ingested"] == 3_000
        finally:
            srv.shutdown()
            thread.join(timeout=5)
        got = quant_service.estimate("opinion")
        assert np.array_equal(
            got.distribution.probs, expected.distribution.probs
        )
        assert got.n_iterations == expected.n_iterations

    def test_out_of_grid_indices_rejected_all_or_nothing(self, server, service):
        # the layout grid is noise-expanded past the attribute's 10 bins,
        # but nowhere near 120 intervals
        body = encode_quantized({"opinion": np.array([0, 120], dtype=np.int8)})
        status, payload, _ = _post_encoded(server, body)
        assert status == 400
        assert "bin indices" in payload["error"]
        assert service.n_seen("opinion") == 0

    def test_quantized_rejected_when_training_is_enabled(self, noise):
        from repro.service import TrainingService

        service = AggregationService(
            [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
            classes=2,
        )
        srv = ServiceHTTPServer(
            service, port=0, training=TrainingService(service)
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            body = encode_quantized(
                {"opinion": np.array([1, 2], dtype=np.int8)}, classes=[0, 1]
            )
            status, payload, _ = _post_encoded(srv, body)
            assert status == 400
            assert "training" in payload["error"]
            assert service.n_seen("opinion") == 0
            # unlabeled quantized frames skip the training tier and pass
            body = encode_quantized({"opinion": np.array([1], dtype=np.int8)})
            status, _, _ = _post_encoded(srv, body)
            assert status == 200
        finally:
            srv.shutdown()
            thread.join(timeout=5)
