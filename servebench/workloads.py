"""The three workloads: seeded inputs, client loops and correctness checks.

Every input is generated from the workload seed before the server is
launched, and every client walks a fixed sequence derived from that
seed, so the order of each connection's requests never depends on
timing.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import http.client
import json
import time
from collections import Counter
from urllib.parse import urlparse

import numpy as np

import stats
from tracing import HEADER

from repro.datasets import quest
from repro.mining import (
    MaskMiner,
    RandomizedResponse,
    association_rules,
    generate_baskets,
)
from repro.serialize import from_jsonable
from repro.service import TrainingService, mining_from_spec, service_from_spec
from repro.service.wire import (
    CONTENT_TYPE_BASKETS,
    CONTENT_TYPE_COLUMNS,
    CONTENT_TYPE_NDJSON,
    WIRE_CODEC_IDENTITY,
    WIRE_CODEC_ZLIB,
    compress_payload,
    decompress_payload,
    encode_baskets,
    encode_columns,
    encode_ndjson,
    encode_quantized,
    iter_basket_frames,
    iter_labeled_frames,
    iter_labeled_ndjson,
    split_partial,
)

#: the four continuous Quest attributes, 100% privacy, uniform noise
ATTRIBUTES = [
    {"name": "salary", "low": 20_000, "high": 150_000},
    {"name": "age", "low": 20, "high": 80},
    {"name": "hvalue", "low": 50_000, "high": 1_350_000},
    {"name": "loan", "low": 0, "high": 500_000},
]
NAMES = tuple(a["name"] for a in ATTRIBUTES)
for _attr in ATTRIBUTES:
    _attr.update(noise="uniform", privacy=1.0)

N_ITEMS = 12
KEEP_PROB = 0.9
MINE_BODY = {"min_support": 0.15, "min_confidence": 0.4}
TRAIN_BODY = {"strategy": "byclass"}

SPEC = {
    "shards": 2,
    "classes": 2,
    "intervals": 24,
    "attributes": ATTRIBUTES,
    "mining": {"items": N_ITEMS, "keep_prob": KEEP_PROB, "max_size": 3,
               "shards": 2},
}

#: rows of one bulk body, and of the NDJSON body (4 lines of 128)
BULK_ROWS = 4096
NDJSON_ROWS = 512

TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Bodies
# ----------------------------------------------------------------------
class Body:
    """One encoded request body and what it carries."""

    __slots__ = ("key", "kind", "ctype", "codec", "data")

    def __init__(self, key, kind, ctype, data, codec=WIRE_CODEC_IDENTITY):
        self.key = key
        self.kind = kind
        self.ctype = ctype
        self.codec = codec
        self.data = data

    def headers(self) -> dict:
        headers = {"Content-Type": self.ctype}
        if self.codec != WIRE_CODEC_IDENTITY:
            headers["Content-Encoding"] = self.codec
        return headers


class BodyFactory:
    """Seeded disclosures encoded in every wire format the mix uses."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.service = service_from_spec(SPEC)
        self.response = RandomizedResponse(KEEP_PROB)
        self._n = 0

    def _key(self, kind: str) -> str:
        self._n += 1
        return f"{kind}#{self._n}"

    def disclosures(self, rows: int) -> tuple:
        table = quest.generate(rows, function=2, seed=self.rng)
        batch = {
            name: self.service.spec(name).randomizer.randomize(
                table.column(name), seed=self.rng
            )
            for name in NAMES
        }
        return batch, table.labels.astype(np.int64)

    def make(self, kind: str, rows: int = BULK_ROWS) -> Body:
        key = self._key(kind)
        if kind == "baskets":
            baskets = generate_baskets(rows, N_ITEMS, seed=self.rng)
            disclosed = self.response.randomize(baskets, seed=self.rng)
            return Body(key, kind, CONTENT_TYPE_BASKETS,
                        encode_baskets(disclosed))
        if kind == "ndjson":
            batch, _ = self.disclosures(NDJSON_ROWS)
            lines = [
                ({name: values[i:i + 128] for name, values in batch.items()},
                 None)
                for i in range(0, NDJSON_ROWS, 128)
            ]
            return Body(key, kind, CONTENT_TYPE_NDJSON, encode_ndjson(lines))
        batch, labels = self.disclosures(rows)
        if kind == "v1":
            data = encode_columns(batch)
        elif kind == "v2":
            data = encode_columns(batch, classes=labels)
        elif kind in ("v5", "v5z"):
            data = encode_quantized(self.service.quantize(batch))
        else:
            raise ValueError(f"unknown body kind {kind!r}")
        if kind == "v5z":
            return Body(key, kind, CONTENT_TYPE_COLUMNS,
                        compress_payload(data, WIRE_CODEC_ZLIB),
                        codec=WIRE_CODEC_ZLIB)
        return Body(key, kind, CONTENT_TYPE_COLUMNS, data)

    def sequence(self, pattern, repeats: int, rows: int = BULK_ROWS) -> list:
        """``pattern`` ``repeats`` times over, one fresh seeded body each.

        The seed picks the data, never the order of the kinds: a slow
        body's delay depends on what the connection carried before it,
        so a seeded order would make the tail move with the seed.
        """
        return [self.make(kind, rows) for kind in list(pattern) * repeats]


# ----------------------------------------------------------------------
# Offline reference
# ----------------------------------------------------------------------
class Reference:
    """An offline ``service_from_spec`` service fed the acknowledged bodies."""

    def __init__(self, spec: dict, train: bool = False) -> None:
        self.service = service_from_spec(spec)
        self.training = TrainingService(self.service) if train else None
        self.mining = mining_from_spec(spec["mining"]) if "mining" in spec else None
        self.baskets: list = []

    def absorb(self, body: Body, times: int = 1) -> None:
        raw = body.data
        if body.codec != WIRE_CODEC_IDENTITY:
            raw = decompress_payload(raw, body.codec, max_decoded=1 << 28)
        if body.ctype == CONTENT_TYPE_BASKETS:
            for matrix, _ in iter_basket_frames(raw):
                prepared = self.mining.prepare(matrix)
                for _ in range(times):
                    self.mining.ingest_prepared(prepared)
                    self.baskets.append(matrix)
            return
        frames = (
            iter_labeled_ndjson(raw)
            if body.ctype == CONTENT_TYPE_NDJSON
            else iter_labeled_frames(raw)
        )
        for batch, classes, _ in frames:
            if self.training is not None and classes is not None:
                for _ in range(times):
                    self.training.ingest(batch, classes)
                continue
            prepared = self.service.prepare(batch, classes)
            for _ in range(times):
                self.service.ingest_prepared(prepared)


def feed(reference: Reference, bodies, acked) -> None:
    """Absorb every acknowledged body as often as the server took it."""
    by_key = {body.key: body for body in bodies}
    for key, times in Counter(acked).items():
        reference.absorb(by_key[key], times)


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
class Client:
    """One persistent keep-alive ``http.client`` connection."""

    def __init__(self, url: str) -> None:
        parsed = urlparse(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.conn = http.client.HTTPConnection(
            self.host, self.port, timeout=TIMEOUT
        )

    def request(self, method, path, body=None, headers=None, rid=None):
        headers = dict(headers or {})
        if rid is not None:
            headers[HEADER] = rid
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=TIMEOUT
            )
            raise

    def json(self, method, path, payload=None, rid=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        status, data = self.request(method, path, body, headers, rid)
        return status, (json.loads(data) if data[:1] == b"{" else data)

    def close(self) -> None:
        self.conn.close()


def post_body(client: Client, body: Body, rid=None):
    """POST one body to /ingest; return ``(ok, ingested)``."""
    status, data = client.request(
        "POST", "/ingest", body.data, body.headers(), rid
    )
    if status != 200:
        return False, 0
    return True, int(json.loads(data)["ingested"])


# ----------------------------------------------------------------------
# Client loops
# ----------------------------------------------------------------------
class Record:
    """One timed request, as the client saw it."""

    __slots__ = ("rid", "route", "primary", "due", "sent", "done", "ok",
                 "ingested", "key")

    def __init__(self, rid, route, primary, due, sent, done, ok, ingested,
                 key):
        self.rid = rid
        self.route = route
        self.primary = primary
        self.due = due
        self.sent = sent
        self.done = done
        self.ok = ok
        self.ingested = ingested
        self.key = key

    @property
    def latency(self) -> float:
        """From due to reply (due = send for closed loops)."""
        return stats.paced_timing(self.due, self.sent, self.done)[0]

    @property
    def late(self) -> float:
        return stats.paced_timing(self.due, self.sent, self.done)[1]


def _send(client, step, rid):
    """Issue one step; return ``(ok, ingested, body key or None)``."""
    kind, arg = step
    if kind == "ingest":
        ok, ingested = post_body(client, arg, rid)
        return ok, ingested, arg.key if ok else None
    if kind == "estimate":
        status, _ = client.request(
            "GET", f"/estimate?attribute={arg}", rid=rid
        )
    elif kind == "mine":
        status, _ = client.json("POST", "/mine", MINE_BODY, rid=rid)
    elif kind == "train":
        status, _ = client.json("POST", "/train", TRAIN_BODY, rid=rid)
    else:
        raise ValueError(kind)
    return status == 200, 0, None


def _timed_step(client, name, i, step, primary, due) -> Record:
    """Send step ``i`` of client ``name`` now; a transport error fails it."""
    kind, arg = step
    route = f"ingest:{arg.kind}" if kind == "ingest" else kind
    rid = f"{name}-{i}"
    sent = time.perf_counter()
    try:
        ok, ingested, key = _send(client, step, rid)
    except (OSError, http.client.HTTPException):
        ok, ingested, key = False, 0, None
    return Record(rid, route, primary, due, sent, time.perf_counter(), ok,
                  ingested, key)


def closed_loop(name, url, steps, primary, clock):
    """A client that sends its next step as soon as the last one returned.

    A closed-loop request is due when the previous reply arrived.
    """

    def run(records):
        client = Client(url)
        try:
            i = 0
            due = clock.start
            while due < clock.deadline:
                record = _timed_step(client, name, i, steps[i % len(steps)],
                                     primary, due)
                records.append(record)
                due = record.done
                i += 1
        finally:
            client.close()

    return run


def open_loop(name, url, steps, period, primary, clock):
    """A client that sends step ``i`` when it is due, whatever came back."""

    def run(records):
        count = int((clock.deadline - clock.start) / period)
        client = Client(url)
        try:
            for i, due in enumerate(stats.due_times(clock.start, period, count)):
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                records.append(_timed_step(client, name, i,
                                           steps[i % len(steps)], primary, due))
        finally:
            client.close()

    return run


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _same_partials(got: dict, want: dict) -> bool:
    return set(got) == set(want) and all(
        np.array_equal(np.asarray(got[name]), want[name]) for name in want
    )


def _canonical(rule):
    return (sorted(rule.antecedent), sorted(rule.consequent))


def check_estimates(url, reference) -> list:
    """One /estimate per attribute vs one offline estimate, bit for bit."""
    client = Client(url)
    problems = []
    try:
        for name in NAMES:
            status, got = client.json("GET", f"/estimate?attribute={name}")
            want = reference.service.estimate(name, warn=False)
            if status != 200:
                problems.append(f"/estimate {name}: HTTP {status}")
            elif (got["probs"] != want.distribution.probs.tolist()
                  or got["n_iterations"] != want.n_iterations):
                problems.append(f"/estimate {name} differs from the offline one")
    finally:
        client.close()
    return problems


def check_partials(url, reference) -> list:
    """The server's GET /partial counts equal the reference's."""
    client = Client(url)
    try:
        status, body = client.request("GET", "/partial")
    finally:
        client.close()
    if status != 200:
        return [f"/partial: HTTP {status}"]
    partials, _ = split_partial(body)
    if not _same_partials(partials, reference.service.export_partial()):
        return ["/partial counts differ from the offline service"]
    return []


def check_mining(url, reference) -> list:
    """A final /mine equals offline MaskMiner + association_rules."""
    client = Client(url)
    try:
        status, _ = client.json("POST", "/mine", MINE_BODY)
        if status != 200:
            return [f"/mine: HTTP {status}"]
        status, payload = client.json("GET", "/rules")
    finally:
        client.close()
    if status != 200:
        return [f"/rules: HTTP {status}"]
    got = from_jsonable(payload)
    disclosed = np.vstack(reference.baskets)
    itemsets = MaskMiner(
        reference.mining.response, max_size=reference.mining.max_size
    ).frequent_itemsets(disclosed, MINE_BODY["min_support"])
    rules = association_rules(itemsets, MINE_BODY["min_confidence"])
    if got.itemsets != itemsets or sorted(got.rules, key=_canonical) != sorted(
        rules, key=_canonical
    ):
        return ["/mine result differs from the offline MaskMiner pipeline"]
    return []


def check_training(url, reference) -> list:
    """A final byclass /train tree is identical to the offline one."""
    client = Client(url)
    try:
        status, _ = client.json("POST", "/train", TRAIN_BODY)
        if status != 200:
            return [f"/train: HTTP {status}"]
        status, payload = client.json("GET", "/model?strategy=byclass")
    finally:
        client.close()
    if status != 200:
        return [f"/model: HTTP {status}"]
    got = from_jsonable(payload)
    want = reference.training.train(TRAIN_BODY["strategy"])
    if not got.tree.identical_to(want.tree):
        return ["/train tree differs from the offline TrainingService tree"]
    return []


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Inputs, server shape, clients and check of one workload."""

    name = ""
    mode = "single"
    train = False
    spec = SPEC
    WORKERS = 0

    def __init__(self, seed: int) -> None:
        self.factory = BodyFactory(seed)

    def preload_plan(self, server) -> list:
        """``(url, bodies)`` pairs written over HTTP at set-up."""
        return []

    def preload(self, server) -> list:
        """Set-up writes over HTTP; returns the acknowledged body keys."""
        acked = []
        for url, bodies in self.preload_plan(server):
            client = Client(url)
            try:
                for body in bodies:
                    ok, _ = post_body(client, body)
                    if not ok:
                        raise RuntimeError(f"preload body {body.key} refused")
                    acked.append(body.key)
            finally:
                client.close()
        return acked

    def server_stats(self, server) -> dict:
        """The server's ``GET /stats`` payload."""
        client = Client(server["url"])
        try:
            status, payload = client.json("GET", "/stats")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/stats answered HTTP {status}")
        return payload


class IngestWorkload(Workload):
    """Bulk providers: two closed-loop clients POST a fixed body mix."""

    name = "ingest"
    #: per 16 bodies: 3 float64 (v1), 4 labeled (v2), 4 quantized (v5),
    #: 2 zlib-compressed quantized, 2 NDJSON and 1 MASK basket frame (v4).
    #: A basket body decodes ~20x slower than the rest; at one in 16 it
    #: stays beyond p90, whose rank would otherwise sit on the edge of
    #: the baskets' own wide spread
    PATTERN = ["v1", "v2", "v5", "ndjson", "v2", "v5", "v5z", "v1",
               "v2", "v5", "ndjson", "v2", "v5", "v5z", "v1", "baskets"]

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # the second client runs half a pattern behind the first, so the
        # two never start on the slow basket bodies together
        half = len(self.PATTERN) // 2
        self.sequences = [
            self.factory.sequence(self.PATTERN, 1),
            self.factory.sequence(self.PATTERN[half:] + self.PATTERN[:half], 1),
        ]

    def inputs(self) -> dict:
        return {"clients": 2, "loop": "closed", "body_rows": BULK_ROWS,
                "ndjson_rows": NDJSON_ROWS, "attributes": len(NAMES),
                "mix": self.PATTERN}

    def bodies(self) -> list:
        return [body for seq in self.sequences for body in seq]

    def clients(self, server, clock) -> list:
        return [
            closed_loop(f"w{c}", server["url"],
                        [("ingest", body) for body in seq], True, clock)
            for c, seq in enumerate(self.sequences)
        ]

    def check(self, server, acked) -> list:
        reference = Reference(self.spec)
        feed(reference, self.bodies(), acked)
        return check_estimates(server["url"], reference)


class AnalystWorkload(Workload):
    """Reads beside paced writes on one server, training and mining on."""

    name = "analyst"
    train = True
    #: the writer's period: well below one connection's capacity, so the
    #: amount of new data between two estimates does not track server speed
    PERIOD = 0.1
    WRITER_ROWS = 256
    #: a /mine, then a /train, after every K estimates
    K = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        factory = self.factory
        # the training buffer: loaded once at set-up, never grown (the
        # writer sends unlabeled bodies), so /train costs the same
        # however fast the writer runs
        self.preload_bodies = [factory.make("v2") for _ in range(2)] + [
            factory.make("baskets") for _ in range(2)
        ]
        self.writes = factory.sequence(
            ["v1", "v1", "v1", "baskets"], 8, rows=self.WRITER_ROWS
        )
        order = factory.rng.permutation(NAMES).tolist()
        estimates = [("estimate", order[i % len(order)])
                     for i in range(2 * self.K)]
        self.steps = (
            estimates[:self.K] + [("mine", None)]
            + estimates[self.K:] + [("train", None)]
        )

    def inputs(self) -> dict:
        return {"writer": {"loop": "open", "period_s": self.PERIOD,
                           "body_rows": self.WRITER_ROWS},
                "analyst": {"loop": "closed", "steps": [k for k, _ in self.steps]},
                "training_rows": 2 * BULK_ROWS, "preload_baskets": 2 * BULK_ROWS}

    def preload_plan(self, server) -> list:
        return [(server["url"], self.preload_bodies)]

    def bodies(self) -> list:
        return self.preload_bodies + self.writes

    def clients(self, server, clock) -> list:
        url = server["url"]
        return [
            open_loop("writer", url, [("ingest", b) for b in self.writes],
                      self.PERIOD, False, clock),
            closed_loop("analyst", url, self.steps, True, clock),
        ]

    def check(self, server, acked) -> list:
        reference = Reference(self.spec, train=True)
        feed(reference, self.bodies(), acked)
        url = server["url"]
        return (
            check_partials(url, reference)
            + check_mining(url, reference)
            + check_training(url, reference)
        )


class ClusterWorkload(Workload):
    """Coordinator fan-out: two analysts poll /estimate, nothing is written."""

    name = "cluster"
    mode = "cluster"
    spec = {k: v for k, v in SPEC.items() if k != "mining"}
    WORKERS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.per_worker = [
            self.factory.sequence(["v1", "v2", "v5", "v5z"], 1)
            for _ in range(self.WORKERS)
        ]
        self.orders = [
            self.factory.rng.permutation(NAMES).tolist() for _ in range(2)
        ]

    def inputs(self) -> dict:
        return {"clients": 2, "loop": "closed", "workers": self.WORKERS,
                "rows_per_worker": 4 * BULK_ROWS}

    def preload_plan(self, server) -> list:
        return list(zip(server["workers"], self.per_worker))

    def bodies(self) -> list:
        return [body for seq in self.per_worker for body in seq]

    def clients(self, server, clock) -> list:
        return [
            closed_loop(f"a{c}", server["url"],
                        [("estimate", name) for name in order], True, clock)
            for c, order in enumerate(self.orders)
        ]

    def check(self, server, acked) -> list:
        reference = Reference(self.spec)
        feed(reference, self.bodies(), acked)
        client = Client(server["url"])
        try:
            # one more pull, then read the coordinator's union
            client.request("GET", f"/estimate?attribute={NAMES[0]}")
        finally:
            client.close()
        return check_partials(server["url"], reference)


WORKLOADS = {w.name: w for w in (IngestWorkload, AnalystWorkload,
                                 ClusterWorkload)}
