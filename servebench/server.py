"""Launch the server under test in its own process.

Usage (the load generator in ``run.py`` does this)::

    python3 servebench/server.py '<config json>'

The config names ``mode`` (``single``: one ``ServiceHTTPServer``;
``cluster``: a ``start_cluster`` coordinator with its workers), the
deployment ``spec``, ``train``, and ``trace``.  With ``trace`` the
layers of this process are wrapped (see ``tracing.py``).  Once serving,
the launcher prints one JSON line with the URL(s) and the pids of every
server process, then obeys stdin: ``spans`` prints and clears the
recorded spans as one JSON line; ``quit`` or end of input shuts the
server down and exits.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workers never push on their own during a run: the coordinator pulls
#: on every /estimate, and a timed push would land mid-measurement
_SYNC_INTERVAL = 3600.0


def _serve(config: dict) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    from repro.service import (
        ServiceHTTPServer,
        TrainingService,
        mining_from_spec,
        service_from_spec,
    )
    from repro.service.cluster import start_cluster

    recorder = None
    if config.get("trace"):
        recorder = tracing.Recorder()
        tracing.install(recorder)
    spec = config["spec"]
    if config["mode"] == "cluster":
        supervisor = start_cluster(
            spec, n_workers=int(config["workers"]),
            sync_interval=_SYNC_INTERVAL,
        ).wait_ready()
        ready = {
            "url": supervisor.url,
            "workers": supervisor.worker_urls(),
            "pids": [os.getpid()] + [p.pid for p in supervisor.processes],
        }
        stop = supervisor.shutdown
    else:
        service = service_from_spec(spec)
        training = TrainingService(service) if config.get("train") else None
        mining = mining_from_spec(spec["mining"]) if "mining" in spec else None
        server = ServiceHTTPServer(
            service, "127.0.0.1", 0, training=training, mining=mining
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        ready = {"url": server.url, "workers": [], "pids": [os.getpid()]}

        def stop():
            server.shutdown()
            thread.join(30.0)

    print(json.dumps(ready), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "spans":
                payload = recorder.drain() if recorder else {}
                print(json.dumps(payload), flush=True)
            elif command == "quit":
                break
    finally:
        stop()


if __name__ == "__main__":
    _serve(json.loads(sys.argv[1]))
