"""Shared fixtures, hypothesis settings and the loopback HTTP helper."""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.partition import Partition
from repro.datasets import quest

# One moderate profile for the whole suite: property tests stay fast but
# still explore; deadline disabled because reconstruction tests legitimately
# take tens of milliseconds.
settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    """A deterministic generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def unit_partition():
    """Ten equal intervals over [0, 1]."""
    return Partition.uniform(0.0, 1.0, 10)


@pytest.fixture(scope="session")
def small_quest_table():
    """A small Fn1-labelled Quest table shared across tests (read-only)."""
    return quest.generate(2_000, function=1, seed=99)


@pytest.fixture(scope="session")
def quest_fn2_split():
    """(train, test) pair for Fn2, sized for quick integration tests."""
    train = quest.generate(4_000, function=2, seed=7)
    test = quest.generate(1_500, function=2, seed=8)
    return train, test


def http_request(url, body=None, *, content_type="application/json"):
    """Send one request to a loopback server; return ``(status, reply)``.

    The request is a POST with a body and a GET without.  A JSON reply
    is parsed and any other comes back as bytes.  An error status
    is returned like any other, never raised.  ``http.client`` ignores
    ``http_proxy``, which ``urllib.request.urlopen`` honours, so an
    exported proxy cannot reroute the suite's loopback traffic.  Each
    request asks the server to close its connection and closes it here,
    as ``urlopen`` did, so the server's handler thread ends with the
    reply.
    """
    parts = urlsplit(url)
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    headers = {"Connection": "close"}
    if body is not None:
        headers["Content-Type"] = content_type
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
    try:
        conn.request(
            "GET" if body is None else "POST", target, body=body,
            headers=headers,
        )
        response = conn.getresponse()
        reply = response.read()
    finally:
        conn.close()
    if response.getheader("Content-Type", "").startswith("application/json"):
        reply = json.loads(reply)
    return response.status, reply
