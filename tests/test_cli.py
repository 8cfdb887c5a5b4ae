"""Tests for the ppdm command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reconstruct_defaults(self):
        args = build_parser().parse_args(["reconstruct"])
        assert args.shape == "plateau"
        assert args.noise == "uniform"

    def test_classify_args(self):
        args = build_parser().parse_args(
            ["classify", "--functions", "1", "3", "--privacy", "0.5"]
        )
        assert args.functions == [1, 3]
        assert args.privacy == 0.5

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "--strategies", "psychic"])

    def test_sweep_levels(self):
        args = build_parser().parse_args(["sweep", "--levels", "0.1", "0.9"])
        assert args.levels == [0.1, 0.9]


class TestCommands:
    def test_reconstruct_prints_table(self, capsys):
        code = main(
            ["reconstruct", "--n", "800", "--intervals", "8", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reconstructed" in out
        assert "L1(original, randomized)" in out

    def test_privacy_prints_attributes(self, capsys):
        code = main(["privacy", "--privacy", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "salary" in out
        assert "gaussian" in out

    def test_quest_info(self, capsys):
        code = main(["quest-info", "--n", "500", "--function", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Group A fraction" in out
        assert "zipcode" in out

    def test_classify_small(self, capsys):
        code = main(
            [
                "classify",
                "--functions", "1",
                "--strategies", "original", "byclass",
                "--train", "800",
                "--test", "300",
                "--privacy", "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "byclass" in out

    def test_breach_table(self, capsys):
        code = main(["breach", "--n", "2000", "--levels", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "amplification" in out
        assert "uniform" in out and "gaussian" in out

    def test_classify_valueclass_strategy(self, capsys):
        code = main(
            [
                "classify",
                "--functions", "1",
                "--strategies", "valueclass",
                "--train", "600",
                "--test", "200",
                "--privacy", "0.25",
            ]
        )
        assert code == 0
        assert "valueclass" in capsys.readouterr().out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep",
                "--function", "1",
                "--levels", "0.5",
                "--strategies", "byclass",
                "--train", "800",
                "--test", "300",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy %" in out


class TestServeIngestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.spec is None and args.snapshot is None
        assert args.max_requests is None

    def test_ingest_attribute_optional_at_parse_time(self):
        # full-row JSON column dicts name their own attributes; the
        # single-column requirement is enforced at command time
        args = build_parser().parse_args(["ingest", "values.txt"])
        assert args.attribute is None

    def test_ingest_args(self):
        args = build_parser().parse_args(
            [
                "ingest", "values.txt",
                "--attribute", "age",
                "--snapshot", "snap.json",
                "--seed", "3",
                "--estimate",
            ]
        )
        assert str(args.values) == "values.txt"
        assert args.attribute == "age"
        assert args.estimate
        assert not args.already_randomized

    def test_ingest_load_generation_defaults(self):
        args = build_parser().parse_args(
            ["ingest", "values.txt", "--attribute", "age"]
        )
        assert args.wire == "json"
        assert args.concurrency == 1
        assert args.repeat == 1

    def test_ingest_load_generation_flags(self):
        args = build_parser().parse_args(
            [
                "ingest", "values.txt",
                "--attribute", "age",
                "--url", "http://127.0.0.1:8000",
                "--wire", "columns",
                "--concurrency", "4",
                "--repeat", "32",
            ]
        )
        assert args.wire == "columns"
        assert args.concurrency == 4
        assert args.repeat == 32

    def test_ingest_rejects_unknown_wire(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["ingest", "values.txt", "--attribute", "age",
                 "--wire", "protobuf"]
            )

    def test_codec_defaults_to_none(self):
        assert build_parser().parse_args(
            ["ingest", "values.txt"]
        ).codec == "none"
        assert build_parser().parse_args(["serve"]).codec == "none"

    def test_codec_rejects_unknown_token(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["ingest", "values.txt", "--codec", "brotli"]
            )


class TestServeIngestCommands:
    @pytest.fixture
    def spec_file(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "shards": 2,
                    "attributes": [
                        {
                            "name": "age",
                            "low": 20,
                            "high": 80,
                            "noise": "uniform",
                            "privacy": 1.0,
                            "intervals": 8,
                        }
                    ],
                }
            )
        )
        return path

    def test_serve_without_spec_exits_2(self, capsys):
        code = main(["serve"])
        assert code == 2
        assert "needs --spec" in capsys.readouterr().err

    def test_serve_creates_snapshot(self, capsys, tmp_path, spec_file):
        snapshot = tmp_path / "snap.json"
        code = main(
            [
                "serve",
                "--spec", str(spec_file),
                "--snapshot", str(snapshot),
                "--port", "0",
                "--max-requests", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving 1 attribute(s)" in out
        assert snapshot.is_file()

    def test_ingest_into_snapshot_then_estimate(
        self, capsys, tmp_path, spec_file
    ):
        import numpy as np

        snapshot = tmp_path / "snap.json"
        assert main(
            [
                "serve", "--spec", str(spec_file),
                "--snapshot", str(snapshot),
                "--port", "0", "--max-requests", "0",
            ]
        ) == 0
        values = tmp_path / "ages.txt"
        rng = np.random.default_rng(4)
        np.savetxt(values, rng.normal(45, 8, 1_000))
        capsys.readouterr()

        code = main(
            [
                "ingest", str(values),
                "--attribute", "age",
                "--snapshot", str(snapshot),
                "--seed", "5",
                "--estimate",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested 1000 record(s)" in out
        assert "Estimated distribution of 'age'" in out

        # the snapshot persisted the ingested records
        code = main(
            [
                "ingest", str(values),
                "--attribute", "age",
                "--snapshot", str(snapshot),
                "--seed", "6",
            ]
        )
        assert code == 0
        assert "now holds 2000" in capsys.readouterr().out

    def test_serve_restore_applies_shards_override(
        self, capsys, tmp_path, spec_file
    ):
        snapshot = tmp_path / "snap.json"
        assert main(
            [
                "serve", "--spec", str(spec_file),
                "--snapshot", str(snapshot),
                "--port", "0", "--max-requests", "0",
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--snapshot", str(snapshot),
                "--spec", str(spec_file),
                "--shards", "8",
                "--port", "0", "--max-requests", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "with 8 shard(s)" in out
        assert "--spec ignored" in out

    def test_serve_missing_spec_file_exits_2(self, capsys, tmp_path):
        code = main(["serve", "--spec", str(tmp_path / "absent.json")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_workers_validates_count(self, capsys, spec_file):
        code = main(
            ["serve", "--spec", str(spec_file), "--workers", "0"]
        )
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_serve_workers_rejects_snapshot(self, capsys, tmp_path, spec_file):
        code = main(
            [
                "serve", "--spec", str(spec_file),
                "--snapshot", str(tmp_path / "snap.json"),
                "--workers", "2",
            ]
        )
        assert code == 2
        assert "cannot restore" in capsys.readouterr().err

    def test_serve_workers_rejects_max_requests(self, capsys, spec_file):
        code = main(
            [
                "serve", "--spec", str(spec_file),
                "--workers", "2", "--max-requests", "1",
            ]
        )
        assert code == 2
        assert "--max-requests" in capsys.readouterr().err

    def test_serve_workers_needs_spec(self, capsys):
        code = main(["serve", "--workers", "2"])
        assert code == 2
        assert "needs --spec" in capsys.readouterr().err

    def test_serve_workers_missing_spec_file_exits_2(self, capsys, tmp_path):
        code = main(
            [
                "serve", "--workers", "1",
                "--spec", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_workers_train_needs_classes(self, capsys, spec_file):
        code = main(
            [
                "serve", "--spec", str(spec_file),
                "--workers", "1", "--train",
            ]
        )
        assert code == 2
        assert "class-aware" in capsys.readouterr().err

    def test_serve_malformed_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["serve", "--spec", str(bad)])
        assert code == 2
        assert "spec file" in capsys.readouterr().err

    def test_ingest_malformed_json_values_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["ingest", str(bad), "--attribute", "age",
             "--snapshot", str(tmp_path / "snap.json")]
        )
        assert code == 2
        assert "values file" in capsys.readouterr().err

    def test_ingest_unknown_attribute_exits_2(
        self, capsys, tmp_path, spec_file
    ):
        snapshot = tmp_path / "snap.json"
        assert main(
            [
                "serve", "--spec", str(spec_file),
                "--snapshot", str(snapshot),
                "--port", "0", "--max-requests", "0",
            ]
        ) == 0
        values = tmp_path / "v.txt"
        values.write_text("1.0\n2.0\n")
        capsys.readouterr()
        code = main(
            ["ingest", str(values), "--attribute", "nope",
             "--snapshot", str(snapshot)]
        )
        assert code == 2
        assert "unknown attribute" in capsys.readouterr().err

    def test_ingest_needs_exactly_one_target(self, capsys, tmp_path):
        values = tmp_path / "v.txt"
        values.write_text("1.0\n")
        code = main(["ingest", str(values), "--attribute", "age"])
        assert code == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_ingest_missing_values_file_exits_2(self, capsys, tmp_path):
        code = main(
            [
                "ingest", str(tmp_path / "absent.txt"),
                "--attribute", "age",
                "--snapshot", str(tmp_path / "snap.json"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_ingest_load_flags_need_url(self, capsys, tmp_path):
        values = tmp_path / "ages.json"
        values.write_text("[40.0]")
        code = main(
            ["ingest", str(values), "--attribute", "age",
             "--snapshot", str(tmp_path / "snap.json"), "--wire", "columns"]
        )
        assert code == 2
        assert "--url" in capsys.readouterr().err

    def test_ingest_codec_needs_url(self, capsys, tmp_path):
        values = tmp_path / "ages.json"
        values.write_text("[40.0]")
        code = main(
            ["ingest", str(values), "--attribute", "age",
             "--snapshot", str(tmp_path / "snap.json"), "--codec", "zlib"]
        )
        assert code == 2
        assert "--url" in capsys.readouterr().err

    def test_serve_codec_needs_workers(self, capsys, spec_file):
        code = main(
            ["serve", "--spec", str(spec_file), "--port", "0",
             "--max-requests", "0", "--codec", "zlib"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_ingest_zstd_without_package_is_a_clean_error(
        self, capsys, tmp_path
    ):
        try:
            import zstandard  # noqa: F401
        except ImportError:
            values = tmp_path / "ages.json"
            values.write_text("[40.0]")
            code = main(
                ["ingest", str(values), "--attribute", "age",
                 "--url", "http://127.0.0.1:1", "--codec", "zstd",
                 "--already-randomized"]
            )
            assert code == 2
            assert "zstandard" in capsys.readouterr().err
        else:
            pytest.skip("zstandard installed; the error path is unreachable")

    def test_ingest_zlib_codec_against_live_server(
        self, capsys, tmp_path, spec_file
    ):
        """Compressed load run: every request carries Content-Encoding,
        every record lands."""
        import json
        import threading

        from repro.service import ServiceHTTPServer, service_from_spec

        service = service_from_spec(json.loads(spec_file.read_text()))
        server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            values = tmp_path / "ages.json"
            values.write_text(json.dumps([40.0, 45.0, 50.0] * 20))
            code = main(
                [
                    "ingest", str(values),
                    "--attribute", "age",
                    "--url", server.url,
                    "--wire", "columns",
                    "--codec", "zlib",
                    "--seed", "7",
                    "--repeat", "3",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "ingested 180 record(s) in 3 request(s)" in out
            assert service.n_seen("age") == 180
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_ingest_rejects_nonpositive_repeat(self, capsys, tmp_path):
        values = tmp_path / "ages.json"
        values.write_text("[40.0]")
        code = main(
            ["ingest", str(values), "--attribute", "age",
             "--url", "http://127.0.0.1:1", "--repeat", "0"]
        )
        assert code == 2
        assert ">= 1" in capsys.readouterr().err

    def test_ingest_json_values_against_live_server(self, capsys, tmp_path, spec_file):
        """Full loop: background server, URL-mode ingest, estimate."""
        import json
        import threading

        from repro.service import ServiceHTTPServer, service_from_spec

        service = service_from_spec(json.loads(spec_file.read_text()))
        server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            values = tmp_path / "ages.json"
            values.write_text(json.dumps([40.0, 45.0, 50.0] * 50))
            code = main(
                [
                    "ingest", str(values),
                    "--attribute", "age",
                    "--url", server.url,
                    "--seed", "7",
                    "--estimate",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "ingested 150 record(s)" in out
            assert "Estimated distribution of 'age'" in out
            assert service.n_seen("age") == 150
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_ingest_columnar_load_run_against_live_server(
        self, capsys, tmp_path, spec_file
    ):
        """The load-generator shape: binary wire, repeats, parallel
        persistent connections — all records land, estimates still work."""
        import json
        import threading

        from repro.service import ServiceHTTPServer, service_from_spec

        service = service_from_spec(json.loads(spec_file.read_text()))
        server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            values = tmp_path / "ages.json"
            values.write_text(json.dumps([40.0, 45.0, 50.0] * 20))
            code = main(
                [
                    "ingest", str(values),
                    "--attribute", "age",
                    "--url", server.url,
                    "--wire", "columns",
                    "--repeat", "5",
                    "--concurrency", "2",
                    "--seed", "7",
                    "--estimate",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "ingested 300 record(s) in 5 request(s) (columns wire)" in out
            assert "load run: 2 connection(s)" in out
            assert service.n_seen("age") == 300
        finally:
            server.shutdown()
            thread.join(timeout=5)


class TestTrainCommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        import json

        path = tmp_path / "plain_spec.json"
        path.write_text(
            json.dumps(
                {
                    "shards": 2,
                    "attributes": [
                        {
                            "name": "age",
                            "low": 20,
                            "high": 80,
                            "noise": "uniform",
                            "privacy": 1.0,
                            "intervals": 8,
                        }
                    ],
                }
            )
        )
        return path

    @pytest.fixture
    def class_spec_file(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "shards": 2,
                    "classes": 2,
                    "attributes": [
                        {
                            "name": "age",
                            "low": 20,
                            "high": 80,
                            "noise": "uniform",
                            "privacy": 1.0,
                            "intervals": 8,
                        }
                    ],
                }
            )
        )
        return path

    @pytest.fixture
    def train_server(self, class_spec_file):
        import json
        import threading

        from repro.service import (
            ServiceHTTPServer,
            TrainingService,
            service_from_spec,
        )

        service = service_from_spec(json.loads(class_spec_file.read_text()))
        training = TrainingService(service)
        server = ServiceHTTPServer(service, port=0, training=training)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, service, training
        server.shutdown()
        thread.join(timeout=5)

    def _feed(self, training):
        import numpy as np

        rng = np.random.default_rng(12)
        young = rng.uniform(22, 45, 300)
        old = rng.uniform(55, 78, 300)
        noise = training.service.spec("age").randomizer
        training.ingest({"age": noise.randomize(young, seed=1)}, [0] * 300)
        training.ingest({"age": noise.randomize(old, seed=2)}, [1] * 300)

    def test_train_parser_defaults(self):
        args = build_parser().parse_args(["train", "--url", "http://x"])
        assert args.strategy == "byclass"
        assert args.save is None
        assert not args.show_tree

    def test_train_against_live_server(self, capsys, tmp_path, train_server):
        from repro import serialize
        from repro.service import TrainedModel

        server, _, training = train_server
        self._feed(training)
        saved = tmp_path / "model.json"
        code = main(
            [
                "train", "--url", server.url,
                "--strategy", "byclass",
                "--save", str(saved),
                "--show-tree",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trained byclass tree on 600 labeled record(s)" in out
        assert "age <" in out  # the printed split structure
        model = serialize.load(saved)
        assert isinstance(model, TrainedModel)
        assert model.tree.identical_to(training.model("byclass").tree)

    def test_train_bad_strategy_exits_2(self, capsys):
        code = main(["train", "--url", "http://127.0.0.1:1",
                     "--strategy", "nope"])
        assert code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_train_without_training_server_exits_2(self, capsys, spec_file):
        import json
        import threading

        from repro.service import ServiceHTTPServer, service_from_spec

        service = service_from_spec(json.loads(spec_file.read_text()))
        server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            code = main(["train", "--url", server.url])
            assert code == 2
            assert "training" in capsys.readouterr().err
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_serve_train_needs_class_aware_spec(self, capsys, spec_file):
        code = main(
            ["serve", "--spec", str(spec_file), "--port", "0",
             "--max-requests", "0", "--train"]
        )
        assert code == 2
        assert "class-aware" in capsys.readouterr().err

    def test_ingest_class_label_reports_per_class(
        self, capsys, tmp_path, train_server
    ):
        import json

        server, service, _ = train_server
        values = tmp_path / "ages.json"
        values.write_text(json.dumps([30.0, 35.0, 40.0] * 10))
        code = main(
            [
                "ingest", str(values),
                "--attribute", "age",
                "--url", server.url,
                "--class-label", "1",
                "--wire", "columns",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested 30 record(s)" in out
        assert "per-class records for 'age'" in out
        assert "class 1=30" in out
        assert service.n_seen_by_class("age")["1"] == 30

    def test_ingest_class_label_into_snapshot(
        self, capsys, tmp_path, class_spec_file
    ):
        snapshot = tmp_path / "snap.json"
        assert main(
            ["serve", "--spec", str(class_spec_file),
             "--snapshot", str(snapshot), "--port", "0",
             "--max-requests", "0"]
        ) == 0
        values = tmp_path / "v.txt"
        values.write_text("30.0\n40.0\n")
        capsys.readouterr()
        code = main(
            ["ingest", str(values), "--attribute", "age",
             "--snapshot", str(snapshot), "--class-label", "0",
             "--seed", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "class 0=2" in out

    def test_full_row_dict_file_feeds_multi_attribute_training(
        self, capsys, tmp_path
    ):
        """A JSON column dict ingests full labeled rows, so --class-label
        works against a multi-attribute --train server."""
        import json
        import threading

        import numpy as np

        from repro.service import (
            ServiceHTTPServer,
            TrainingService,
            service_from_spec,
        )

        service = service_from_spec(
            {
                "classes": 2,
                "attributes": [
                    {"name": "age", "low": 20, "high": 80, "privacy": 1.0,
                     "intervals": 8},
                    {"name": "salary", "low": 0, "high": 100_000,
                     "privacy": 1.0, "intervals": 8},
                ],
            }
        )
        training = TrainingService(service)
        server = ServiceHTTPServer(service, port=0, training=training)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            rng = np.random.default_rng(5)
            rows = tmp_path / "rows.json"
            rows.write_text(
                json.dumps(
                    {
                        "age": rng.uniform(22, 44, 200).tolist(),
                        "salary": rng.uniform(10_000, 90_000, 200).tolist(),
                    }
                )
            )
            code = main(
                ["ingest", str(rows), "--url", server.url,
                 "--class-label", "0", "--wire", "columns", "--seed", "6"]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "ingested 400 record(s)" in out
            assert "per-class records for 'age'" in out
            assert "per-class records for 'salary'" in out
            assert training.n_buffered == 200
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_single_column_file_still_needs_attribute(self, capsys, tmp_path):
        values = tmp_path / "v.txt"
        values.write_text("1.0\n")
        code = main(["ingest", str(values), "--snapshot",
                     str(tmp_path / "s.json")])
        assert code == 2
        assert "--attribute is required" in capsys.readouterr().err

    def test_ragged_dict_file_rejected(self, capsys, tmp_path):
        import json

        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps({"a": [1.0, 2.0], "b": [3.0]}))
        code = main(["ingest", str(rows), "--snapshot",
                     str(tmp_path / "s.json")])
        assert code == 2
        assert "share one length" in capsys.readouterr().err

    def test_serve_with_train_announces_endpoints(
        self, capsys, tmp_path, class_spec_file
    ):
        code = main(
            ["serve", "--spec", str(class_spec_file), "--port", "0",
             "--max-requests", "0", "--train"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "/train /model" in out
        assert "2 class(es)" in out


class TestBenchParser:
    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_bench_run_defaults(self):
        args = build_parser().parse_args(["bench", "run"])
        assert args.jobs == 1
        assert args.seed is None
        assert args.tags is None
        assert str(args.out).endswith("artifacts")

    def test_bench_run_selection_args(self):
        args = build_parser().parse_args(
            ["bench", "run", "--tags", "smoke", "engine", "--jobs", "4"]
        )
        assert args.tags == ["smoke", "engine"]
        assert args.jobs == 4

    def test_bench_compare_positional_dirs(self):
        args = build_parser().parse_args(
            ["bench", "compare", "a", "b", "--fail-on-regression", "2x"]
        )
        assert str(args.baseline) == "a" and str(args.candidate) == "b"
        assert args.fail_on_regression == "2x"
        assert not args.wall_warn_only


class TestBenchCommands:
    def test_bench_list_shows_experiments(self, capsys):
        code = main(["bench", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "e1" in out and "e19_byclass" in out
        assert "smoke" in out

    def test_bench_list_filters_by_tag(self, capsys):
        code = main(["bench", "list", "--tags", "engine"])
        out = capsys.readouterr().out
        assert code == 0
        assert "e19_local" in out
        assert "\ne1 " not in out

    def test_bench_run_single_experiment(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "bench", "run",
                "--ids", "e17",
                "--out", str(out_dir),
                "--no-tables",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "e17" in out and "ok" in out
        assert (out_dir / "BENCH_e17.json").exists()

    def test_bench_run_unknown_id_exits_2(self, capsys):
        code = main(["bench", "run", "--ids", "nope"])
        assert code == 2
        assert "unknown experiment id" in capsys.readouterr().err

    def test_bench_run_invalid_scale_exits_2(self, capsys):
        code = main(["bench", "run", "--ids", "e17", "--scale", "0"])
        assert code == 2
        assert "scale must be positive" in capsys.readouterr().err

    def test_bench_run_off_seed_skips_reference_tables(self, capsys, tmp_path):
        code = main(
            ["bench", "run", "--ids", "e17", "--seed", "5", "--out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "skipping benchmarks/results" in captured.err
        assert (tmp_path / "BENCH_e17.json").exists()

    def test_bench_compare_missing_dir_exits_2(self, capsys, tmp_path):
        code = main(
            ["bench", "compare", str(tmp_path / "a"), str(tmp_path / "b")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_compare_floor_miss_fails_under_wall_warn_only(
        self, capsys, tmp_path
    ):
        from repro.bench import BenchArtifact, write_artifact

        def e20(timing):
            return BenchArtifact(
                experiment_id="e20",
                seed=7,
                scale=1.0,
                timing={"wall_seconds": 1.0, **timing},
            )

        base, met, missed, unrecorded = (
            tmp_path / name for name in ("base", "met", "missed", "unrecorded")
        )
        write_artifact(e20({"speedup_4_shards": 2.5}), base)
        write_artifact(e20({"speedup_4_shards": 1.0}), met)
        write_artifact(e20({"speedup_4_shards": 0.5}), missed)
        write_artifact(e20({}), unrecorded)

        def compare(candidate):
            return main(
                ["bench", "compare", str(base), str(candidate), "--wall-warn-only"]
            )

        assert compare(met) == 0
        assert compare(missed) == 1
        assert "speedup_4_shards = 0.5 is below its floor 1" in capsys.readouterr().out
        assert compare(unrecorded) == 1
        assert "'speedup_4_shards' was not recorded" in capsys.readouterr().out

    def test_bench_run_then_compare_round_trip(self, capsys, tmp_path):
        base = tmp_path / "base"
        assert main(
            ["bench", "run", "--ids", "e17", "--out", str(base), "--no-tables"]
        ) == 0
        code = main(
            ["bench", "compare", str(base), str(base), "--fail-on-regression", "1.1x"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out
