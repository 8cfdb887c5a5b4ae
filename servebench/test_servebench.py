"""Tests of the benchmark's own helpers and of ``BENCHMARK.json``.

Run from the repository root::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import stats  # noqa: E402


class TestTail:
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 2001))  # 2000 samples: p99 is supported
        q, value = stats.tail(values)
        assert (q, value) == (99.0, 1980.0)
        assert sum(v > value for v in values) >= 10

    def test_small_sample_lowers_the_percentile(self):
        values = list(range(1, 441))
        q, value = stats.tail(values)
        assert sum(v > value for v in values) == 10
        assert value == 430.0
        assert q == pytest.approx(100.0 * 430 / 440)

    def test_never_below_the_median(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        q, value = stats.tail(values)
        assert value >= stats.median(values)
        assert q >= 50.0

    def test_lower_target_is_kept_when_supported(self):
        values = list(range(1, 1001))
        assert stats.tail(values, 90.0) == (90.0, 900.0)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            stats.tail([])


class TestSelfTimes:
    def test_children_are_subtracted_once(self):
        spans = [
            ("httpd.server", 0.0, 10.0),
            ("service.estimate", 2.0, 8.0),
            ("shards.merge", 3.0, 4.0),
            ("engine.sweep", 4.5, 7.0),
            ("wire.decode", 8.5, 9.0),
        ]
        got = {name: own for name, _, _, own in stats.self_times(spans)}
        # server: 10 - estimate 6 - decode 0.5; grandchildren not twice
        assert got["httpd.server"] == pytest.approx(3.5)
        assert got["service.estimate"] == pytest.approx(6.0 - 1.0 - 2.5)
        assert got["shards.merge"] == pytest.approx(1.0)
        assert got["engine.sweep"] == pytest.approx(2.5)
        assert got["wire.decode"] == pytest.approx(0.5)

    def test_self_times_sum_to_the_root(self):
        spans = [("a", 0.0, 6.0), ("b", 1.0, 2.0), ("c", 2.0, 5.0),
                 ("d", 3.0, 4.0)]
        total = sum(own for _, _, _, own in stats.self_times(spans))
        assert total == pytest.approx(6.0)

    def test_back_to_back_siblings_are_not_nested(self):
        spans = [("root", 0.0, 3.0), ("x", 0.5, 1.0), ("y", 1.0, 2.0)]
        got = {name: own for name, _, _, own in stats.self_times(spans)}
        assert got["x"] == pytest.approx(0.5)
        assert got["y"] == pytest.approx(1.0)
        assert got["root"] == pytest.approx(1.5)


class TestJoin:
    SPANS = [
        ("wire.decode", "r1", 7, 1.0010, 1.0020),
        ("httpd.server", "r1", 7, 1.0000, 1.0050),
        ("httpd.server", "r2", 8, 2.0000, 2.0010),
        ("shards.merge", None, 9, 0.0, 1.0),  # background work: no id
        ("httpd.server", "other", 7, 3.0, 3.1),  # not a timed request
    ]

    def test_request_id_joins_client_and_server(self):
        client = {"r1": ("ingest:v1", 0.045), "r2": ("estimate", 0.044)}
        joined = stats.join_requests(client, self.SPANS)
        assert set(joined) == {"r1", "r2"}
        r1 = joined["r1"]
        assert r1["route"] == "ingest:v1"
        assert r1["server_ms"] == pytest.approx(5.0)
        assert r1["self"]["transport.wait"] == pytest.approx(40.0)
        assert r1["self"]["httpd.server"] == pytest.approx(4.0)
        assert r1["busy"]["wire.decode"] == pytest.approx(1.0)

    def test_request_without_server_span_is_dropped(self):
        client = {"r3": ("estimate", 0.01)}
        assert stats.join_requests(client, self.SPANS) == {}

    def test_threads_are_timed_separately(self):
        spans = [
            ("httpd.server", "r", 1, 0.0, 0.010),
            ("cluster.sync", "r", 1, 0.001, 0.009),
            # same request id, another thread: never a child of thread 1
            ("shards.merge", "r", 2, 0.002, 0.003),
        ]
        joined = stats.join_requests({"r": ("estimate", 0.012)}, spans)
        own = joined["r"]["self"]
        assert own["httpd.server"] == pytest.approx(2.0)
        assert own["cluster.sync"] == pytest.approx(8.0)
        assert own["shards.merge"] == pytest.approx(1.0)


class TestAdditivity:
    def _request(self, route, client_ms, **own):
        return {"route": route, "client_ms": client_ms, "self": own}

    def test_layers_that_add_up_pass(self):
        joined = {
            i: self._request("estimate", 44.0 + i * 0.01,
                             **{"transport.wait": 43.0 + i * 0.01,
                                "httpd.server": 0.5, "engine.sweep": 0.5})
            for i in range(5)
        }
        row = stats.additivity(joined)["estimate"]
        assert row["ok"]
        assert row["unattributed_ms"] == pytest.approx(0.0, abs=1e-9)

    def test_a_missing_layer_fails(self):
        joined = {
            i: self._request("train", 100.0, **{"transport.wait": 44.0})
            for i in range(3)
        }
        row = stats.additivity(joined)["train"]
        assert not row["ok"]
        assert row["unattributed_ms"] == pytest.approx(56.0)

    def test_absent_layers_count_as_zero(self):
        joined = {
            0: self._request("ingest", 10.0, **{"transport.wait": 10.0}),
            1: self._request("ingest", 10.0, **{"transport.wait": 9.0,
                                                "wire.decompress": 1.0}),
            2: self._request("ingest", 10.0, **{"transport.wait": 10.0}),
        }
        row = stats.additivity(joined)["ingest"]
        assert row["sum_ms"] == pytest.approx(10.0)


class TestOpenLoop:
    def test_schedule_is_fixed_by_start_and_period(self):
        assert stats.due_times(10.0, 0.5, 4) == [10.0, 10.5, 11.0, 11.5]

    def test_latency_runs_from_the_due_time(self):
        latency, late = stats.paced_timing(due=1.0, sent=1.030, done=1.075)
        assert latency == pytest.approx(0.075)
        assert late == pytest.approx(0.030)

    def test_on_time_send_is_not_late(self):
        latency, late = stats.paced_timing(due=2.0, sent=2.0, done=2.001)
        assert late == 0.0
        assert latency == pytest.approx(0.001)

    def test_a_stall_is_charged_to_the_requests_behind_it(self):
        dues = stats.due_times(0.0, 0.1, 3)
        # the first reply takes 0.25 s, so the next two go out late
        sent = [0.0, 0.25, 0.26]
        done = [0.25, 0.26, 0.27]
        timings = [stats.paced_timing(d, s, e)
                   for d, s, e in zip(dues, sent, done)]
        assert [round(t[0], 6) for t in timings] == [0.25, 0.16, 0.07]
        assert [round(t[1], 6) for t in timings] == [0.0, 0.15, 0.06]


class TestBenchmarkFile:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_metrics_match_what_a_run_prints(self, spec):
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert e2e == run.END_TO_END
        assert layers == run.per_layer_units()

    def test_workloads_are_the_ones_run_accepts(self, spec):
        from workloads import WORKLOADS

        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_names_and_bounds_are_well_formed(self, spec):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        assert all(self.NAME.match(name) for name in names)
        assert len(set(names)) == len(names)
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    def test_fails_without_the_sources(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "servebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        out = subprocess.run(
            [sys.executable, "servebench/run.py", "--workload", "ingest",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode != 0
        assert out.stdout == ""
