"""E22 — Decision-tree training over the live service vs the offline pipeline.

PRs 3–4 made the service ingest randomized streams at memory bandwidth,
but the paper's headline workload — ByClass reconstruction feeding
decision-tree induction — still required the offline batch pipeline.
This benchmark exercises the closed loop: labeled randomized Quest
records stream into the shards (counted per class) and the training buffer,
and ``TrainingService`` grows the tree from the buffered randomized
rows through the offline pipeline's strategy functions on the service's
engine (reconstruction, per-record correction and routing).

Asserted, at 1 and 4 shards:

* the service-trained ByClass tree is **bit-identical** — same splits,
  same thresholds, same leaf counts — to the offline
  ``PrivacyPreservingClassifier`` fed the same pre-randomized table
  (the ``experiments/classification.py`` path), and so is Global;
* accuracy on clean test records matches the offline tree exactly.

Measured: ingest wall time for the labeled stream and the train-after-
ingest latency (reconstruct + correct + grow), per shard count.
"""

from __future__ import annotations

import time

from _common import experiment, run_experiment

from repro.datasets import quest
from repro.service import AggregationService, AttributeSpec, TrainingService
from repro.tree.pipeline import PrivacyPreservingClassifier

FUNCTION = 2
N_INTERVALS = 25
PRIVACY = 1.0
NOISE = "uniform"
SHARD_COUNTS = (1, 4)
N_BATCHES = 64


def _offline_fit(strategy, train, randomized, randomizers, seed):
    """The offline pipeline (the parity anchor)."""
    classifier = PrivacyPreservingClassifier(
        strategy,
        noise=NOISE,
        privacy=PRIVACY,
        n_intervals=N_INTERVALS,
        seed=seed,
    )
    start = time.perf_counter()
    classifier.fit(train, randomized_table=randomized, randomizers=randomizers)
    return classifier, time.perf_counter() - start


def _service_train(train, randomized, randomizers, n_shards, strategy):
    """Stream the labeled randomized rows in, then train over the service."""
    names = train.attribute_names
    specs = [
        AttributeSpec(
            name, train.attribute(name).partition(N_INTERVALS), randomizers[name]
        )
        for name in names
    ]
    service = AggregationService(specs, n_shards=n_shards, classes=2)
    training = TrainingService(service)
    w = randomized.matrix()
    labels = train.labels
    n = labels.size
    per_batch = max(1, n // N_BATCHES)
    start = time.perf_counter()
    for lo in range(0, n, per_batch):
        sl = slice(lo, lo + per_batch)
        batch = {name: w[sl, j] for j, name in enumerate(names)}
        training.ingest(batch, labels[sl])
    ingest_seconds = time.perf_counter() - start
    start = time.perf_counter()
    model = training.train(strategy)
    train_seconds = time.perf_counter() - start
    return model, ingest_seconds, train_seconds


@experiment(
    "e22",
    title="Decision-tree training over the live service (parity + latency)",
    tags=("service", "classification", "smoke"),
    seed=11,
)
def run_e22(ctx):
    from repro.experiments.reporting import format_table

    n_train = ctx.scaled(6_000)
    n_test = ctx.scaled(2_000)
    train = quest.generate(n_train, function=FUNCTION, seed=ctx.seed)
    test = quest.generate(n_test, function=FUNCTION, seed=ctx.seed + 1)
    randomized, randomizers = quest.randomize(
        train, kind=NOISE, privacy=PRIVACY, seed=ctx.seed + 2
    )
    ctx.record(
        n_train=n_train,
        n_test=n_test,
        function=FUNCTION,
        n_intervals=N_INTERVALS,
        privacy=PRIVACY,
    )

    offline = {}
    offline_seconds = {}
    for strategy in ("byclass", "global"):
        offline[strategy], offline_seconds[strategy] = _offline_fit(
            strategy, train, randomized, randomizers, seed=ctx.seed + 3
        )

    rows = []
    timing = {}
    metrics = {}
    for strategy in ("byclass", "global"):
        anchor = offline[strategy]
        for n_shards in SHARD_COUNTS:
            model, ingest_s, train_s = _service_train(
                train, randomized, randomizers, n_shards, strategy
            )
            identical = model.tree.identical_to(anchor.tree_)
            accuracy = model.tree.score(test.matrix(), test.labels)
            assert identical, (
                f"service-trained {strategy} tree at {n_shards} shard(s) is "
                "not bit-identical to the offline pipeline"
            )
            assert accuracy == anchor.score(test), strategy
            rows.append(
                (
                    strategy,
                    str(n_shards),
                    str(model.tree.n_nodes),
                    str(model.tree.depth),
                    f"{100 * accuracy:.1f}",
                    f"{ingest_s * 1e3:.1f}",
                    f"{train_s * 1e3:.1f}",
                    "yes",
                )
            )
            timing[f"{strategy}_{n_shards}_shards_ingest_ms"] = ingest_s * 1e3
            timing[f"{strategy}_{n_shards}_shards_train_ms"] = train_s * 1e3
            metrics[f"{strategy}_n_nodes"] = model.tree.n_nodes
            metrics[f"{strategy}_depth"] = model.tree.depth
            metrics[f"{strategy}_accuracy"] = accuracy
        timing[f"{strategy}_offline_fit_ms"] = offline_seconds[strategy] * 1e3

    table_text = format_table(
        (
            "strategy", "shards", "nodes", "depth", "accuracy %",
            "ingest ms", "train ms", "bit-identical",
        ),
        rows,
        title=(
            f"E22: train-over-service parity and latency, Fn{FUNCTION}, "
            f"{n_train} records, privacy {PRIVACY:g}"
        ),
    )
    summary = (
        "\nevery service-trained tree is bit-identical (same splits, same "
        "leaf counts) to the offline PrivacyPreservingClassifier pipeline"
    )
    ctx.report(table_text + summary, name="e22_train_over_service")
    ctx.record_timing(**timing)

    return {"bit_identical": True, **metrics}


def test_e22_train_over_service(benchmark):
    run_experiment(benchmark, "e22")
