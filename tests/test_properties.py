"""Property-based invariants driven by a stdlib-``random`` mini-harness.

No new dependencies: each property runs >= 200 generated cases per base
seed through a seeded generator with a greedy shrinking loop.  On
failure the harness prints the base seed, the failing case index, and a
shrunk copy of the case — rerun any failure exactly with::

    PPDM_PROPERTY_SEED=<seed> python -m pytest tests/test_properties.py

``PPDM_PROPERTY_CASES`` overrides the per-property case count (the
default keeps the whole file inside a few seconds of tier-1 wall time;
CI's coverage job runs the same default).

Properties pinned here:

* randomizer round trips — shape/count preservation, hard support
  bounds, and mass conservation on the noise-expanded grid,
* reconstruction outputs — always nonnegative and normalized, whatever
  the (shape, noise, grid) draw,
* ``ShardSet`` merges — associative and commutative across random shard
  counts, ingestion orders, thread interleavings, and class columns,
* service training — trees identical to the offline pipeline fitted on
  the buffered rows across random schemas, shards, batches, wires,
  stray labeled or unlabeled traffic, and strategies,
* basket wire frames (v4) — encode/decode round trips, self-delimiting
  multi-frame bodies, and rejection of every truncation,
* ``SupportShardSet`` merges — the mining counters' associative /
  commutative / identity merge algebra, bitwise at any shard count,
* service-side Apriori — bit-identical itemsets and rules vs the
  offline ``repro.mining`` pipeline across random basket, shard, and
  threshold configurations,
* level-wise tree growth — trees identical to the depth-first oracle
  (``tests/tree_oracle.py``) across criteria, stop rules, class counts,
  single-interval attributes, chunk budgets and Local's per-node refits.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from tree_oracle import recursive_fit

from repro.core import (
    BayesReconstructor,
    GaussianRandomizer,
    Partition,
    StreamingReconstructor,
    UniformRandomizer,
)
from repro.core.engine import ReconstructionEngine
from repro.exceptions import ValidationError
from repro.service import (
    AggregationService,
    AttributeSpec,
    Domain,
    ShardSet,
    encode_columns,
    iter_labeled_frames,
)

SEED_ENV = "PPDM_PROPERTY_SEED"
CASES_ENV = "PPDM_PROPERTY_CASES"
DEFAULT_SEED = 20260728
#: >= 200 generated cases per property per seed (the issue's floor)
DEFAULT_CASES = 200


def base_seed() -> int:
    return int(os.environ.get(SEED_ENV, DEFAULT_SEED))


def n_cases() -> int:
    return int(os.environ.get(CASES_ENV, DEFAULT_CASES))


def _shrink_case(case, check, shrinkers, budget: int = 200):
    """Greedy shrink: keep taking the first smaller case that still fails."""
    if not shrinkers:
        return case
    for _ in range(budget):
        for candidate in shrinkers(case):
            try:
                check(candidate)
            except AssertionError:
                case = candidate
                break
            except Exception:  # noqa: BLE001 - shrunk into invalid input
                continue
        else:
            return case
    return case


def run_property(name, generate, check, *, shrinkers=None):
    """Run ``check(generate(rng))`` across seeded cases; shrink failures.

    The reproduction contract: every case derives deterministically from
    (base seed, case index), and a failure names both plus a shrunk
    failing case.
    """
    seed = base_seed()
    total = n_cases()
    for index in range(total):
        rng = random.Random((seed << 20) + index)
        case = generate(rng)
        try:
            check(case)
        except AssertionError as exc:
            shrunk = _shrink_case(case, check, shrinkers)
            raise AssertionError(
                f"property {name!r} failed at case {index}/{total} for base "
                f"seed {seed}.\nReproduce with: {SEED_ENV}={seed} python -m "
                f"pytest tests/test_properties.py\nShrunk failing case: "
                f"{shrunk!r}\nOriginal failure: {exc}"
            ) from exc


def _shrink_values(case):
    """Generic shrinker: halve every list-valued field, one at a time."""
    for key, value in case.items():
        if isinstance(value, list) and len(value) > 1:
            half = len(value) // 2
            for kept in (value[:half], value[half:]):
                smaller = dict(case)
                smaller[key] = kept
                yield smaller


# ----------------------------------------------------------------------
# Randomizer round trips
# ----------------------------------------------------------------------
def _gen_randomizer_case(rng: random.Random) -> dict:
    kind = rng.choice(("uniform", "gaussian"))
    low = rng.uniform(-50.0, 40.0)
    span = rng.uniform(0.5, 90.0)
    return {
        "kind": kind,
        "parameter": rng.uniform(0.05, 2.0) * span,
        "low": low,
        "high": low + span,
        "n_intervals": rng.randint(2, 16),
        "values": [rng.uniform(low, low + span) for _ in range(rng.randint(1, 40))],
        "seed": rng.randint(0, 2**31),
    }


def _check_randomizer_roundtrip(case) -> None:
    if case["kind"] == "uniform":
        noise = UniformRandomizer(half_width=case["parameter"])
    else:
        noise = GaussianRandomizer(sigma=case["parameter"])
    x = np.asarray(case["values"], dtype=float)
    w = noise.randomize(x, seed=case["seed"])
    # shape and count preservation, and determinism at a fixed seed
    assert w.shape == x.shape
    assert np.all(np.isfinite(w))
    assert np.array_equal(w, noise.randomize(x, seed=case["seed"]))
    if case["kind"] == "uniform":
        # hard support: |w - x| can never exceed the half width
        assert np.all(np.abs(w - x) <= case["parameter"] * (1 + 1e-12))
        # mass conservation: the noise-expanded grid captures every
        # disclosure, so the randomized histogram holds exactly n records
        part = Partition.uniform(case["low"], case["high"], case["n_intervals"])
        y_part = part.expanded(noise.support_half_width())
        assert y_part.histogram(w).sum() == x.size


def test_property_randomizer_roundtrip():
    run_property(
        "randomizer-roundtrip",
        _gen_randomizer_case,
        _check_randomizer_roundtrip,
        shrinkers=_shrink_values,
    )


# ----------------------------------------------------------------------
# Reconstruction outputs
# ----------------------------------------------------------------------
def _gen_reconstruction_case(rng: random.Random) -> dict:
    low = rng.uniform(-5.0, 5.0)
    span = rng.uniform(0.5, 10.0)
    centers = [rng.uniform(0.1, 0.9) for _ in range(rng.randint(1, 3))]
    values = []
    for _ in range(rng.randint(20, 150)):
        c = rng.choice(centers)
        values.append(low + span * min(max(rng.gauss(c, 0.1), 0.0), 1.0))
    return {
        "kind": rng.choice(("uniform", "gaussian")),
        "noise_scale": rng.uniform(0.05, 1.0) * span,
        "low": low,
        "high": low + span,
        "n_intervals": rng.randint(2, 12),
        "values": values,
        "seed": rng.randint(0, 2**31),
        "stopping": rng.choice(("chi2", "delta")),
    }


def _check_reconstruction(case) -> None:
    if case["kind"] == "uniform":
        noise = UniformRandomizer(half_width=case["noise_scale"])
    else:
        noise = GaussianRandomizer(sigma=case["noise_scale"])
    part = Partition.uniform(case["low"], case["high"], case["n_intervals"])
    w = noise.randomize(np.asarray(case["values"]), seed=case["seed"])
    from repro.core import EngineConfig

    engine = ReconstructionEngine(
        EngineConfig(max_iterations=40, stopping=case["stopping"])
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = engine.reconstruct(w, part, noise)
    probs = result.distribution.probs
    assert probs.shape == (case["n_intervals"],)
    assert np.all(probs >= 0.0), f"negative probability: {probs.min()}"
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-9, f"mass {probs.sum()} != 1"
    assert 1 <= result.n_iterations <= 40


def test_property_reconstruction_nonnegative_normalized():
    run_property(
        "reconstruction-nonnegative-normalized",
        _gen_reconstruction_case,
        _check_reconstruction,
        shrinkers=_shrink_values,
    )


# ----------------------------------------------------------------------
# ShardSet merge algebra
# ----------------------------------------------------------------------
def _gen_shard_case(rng: random.Random) -> dict:
    n_attributes = rng.randint(1, 3)
    attributes = []
    for j in range(n_attributes):
        low = rng.uniform(-10.0, 10.0)
        span = rng.uniform(0.5, 20.0)
        attributes.append(
            {
                "name": f"a{j}",
                "low": low,
                "high": low + span,
                "n_intervals": rng.randint(2, 10),
            }
        )
    n_classes = rng.randint(0, 3)
    batches = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(0, 25)
        batch = {
            "values": {
                a["name"]: [
                    rng.uniform(a["low"], a["high"]) for _ in range(size)
                ]
                for a in attributes
                if rng.random() < 0.8 or n_classes
            },
            "classes": (
                [rng.randrange(n_classes) for _ in range(size)]
                if n_classes and rng.random() < 0.7
                else None
            ),
        }
        if not batch["values"]:
            batch["values"] = {attributes[0]["name"]: [
                rng.uniform(attributes[0]["low"], attributes[0]["high"])
                for _ in range(size)
            ]}
        batches.append(batch)
    return {
        "attributes": attributes,
        "n_classes": n_classes,
        "batches": batches,
        "shard_counts": sorted({rng.randint(1, 7) for _ in range(3)}),
    }


def _shard_domain(case) -> Domain:
    """The case's schema, each grid disclosed under quarter-span noise."""
    return Domain(
        [
            (
                a["name"],
                Partition.uniform(a["low"], a["high"], a["n_intervals"]),
                UniformRandomizer(half_width=(a["high"] - a["low"]) / 4),
            )
            for a in case["attributes"]
        ],
        classes=case["n_classes"],
    )


def _fill(case, shard_counts_order, batch_order):
    """Ingest the case's batches into a fresh ShardSet; return merged state."""
    domain = _shard_domain(case)
    shards = ShardSet(domain, shard_counts_order)
    for index in batch_order:
        batch = case["batches"][index]
        shards.ingest(batch["values"], classes=batch["classes"])
    merged = {name: shards.merged(name) for name in domain.names}
    return merged, shards.merge()[1]


def _check_shard_merge(case) -> None:
    orders = [
        list(range(len(case["batches"]))),
        list(reversed(range(len(case["batches"])))),
    ]
    reference = None
    for shard_count in case["shard_counts"]:
        for order in orders:
            merged, seen = _fill(case, shard_count, order)
            if reference is None:
                reference = (merged, seen)
                continue
            # the per-class counters commute and ignore the shard count
            assert np.array_equal(seen, reference[1])
            for k, name in enumerate(merged):
                # commutative + shard-count independent, bitwise
                assert np.array_equal(merged[name][0], reference[0][name][0])
                assert merged[name][1] == reference[0][name][1]
                # the class counters partition the attribute's records
                assert seen[:, k].sum() == merged[name][1]
    # row 0 counts unlabeled records, row c + 1 the records of class c
    expected = np.zeros_like(reference[1])
    for batch in case["batches"]:
        for k, name in enumerate(reference[0]):
            size = len(batch["values"].get(name, ()))
            if batch["classes"] is None:
                expected[0, k] += size
            elif size:
                expected[1:, k] += np.bincount(
                    batch["classes"], minlength=case["n_classes"]
                )
    assert np.array_equal(reference[1], expected)

    # associative: any grouping of the batches into pinned shards, summed
    # in any slot order, is bitwise the same
    domain = _shard_domain(case)
    for groups in _groupings(len(case["batches"])):
        shards = ShardSet(domain, len(groups))
        for slot, group in enumerate(groups):
            for index in group:
                batch = case["batches"][index]
                shards.ingest(batch["values"], shard=slot, classes=batch["classes"])
        for counts, seen in _slot_sums(shards):
            assert np.array_equal(seen, reference[1])
            for name, (expected, _) in reference[0].items():
                assert np.array_equal(
                    counts[shards.layout.slice_of(name)], expected
                )


def _groupings(n: int) -> list:
    """Ways to deal ``n`` batch indices onto pinned shard slots: thirds,
    all in one slot beside two empty ones, and one slot per batch."""
    thirds = [list(range(k, n, 3)) for k in range(3)]
    return [thirds, [list(range(n)), [], []], [[i] for i in range(n)]]


def _slot_sums(shards) -> list:
    """``(counts, seen)`` summed over every slot: forward, backward, and
    folded from the right, plus the set's own merge."""
    reads = [shards.read_shard(i) for i in range(shards.n_shards)]
    sums = [shards.merge()]
    for order in (reads, reads[::-1]):
        sums.append((sum(r[0] for r in order), sum(r[1] for r in order)))
    right = reads[-1]
    for counts, seen in reversed(reads[:-1]):
        right = (counts + right[0], seen + right[1])
    sums.append(right)
    return sums


def test_property_shardset_merge_algebra():
    run_property(
        "shardset-merge-algebra",
        _gen_shard_case,
        _check_shard_merge,
        shrinkers=None,
    )


# ----------------------------------------------------------------------
# Differential parity fuzz: random service configurations vs the
# single-stream StreamingReconstructor
# ----------------------------------------------------------------------
def _gen_parity_case(rng: random.Random) -> dict:
    return {
        "n_shards": rng.randint(1, 6),
        "n_threads": rng.randint(1, 4),
        "wire": rng.choice(("python", "columns", "ndjson")),
        "n_records": rng.randint(200, 1200),
        "n_batches": rng.randint(1, 12),
        "labeled_fraction": rng.choice((0.0, 0.3, 1.0)),
        "class_skew": rng.uniform(0.05, 0.95),
        "pin_shards": rng.random() < 0.5,
        "seed": rng.randint(0, 2**31),
    }


def _check_service_parity(case) -> None:
    import json
    from concurrent.futures import ThreadPoolExecutor

    part = Partition.uniform(0.0, 1.0, 10)
    noise = UniformRandomizer(half_width=0.25)
    rng = np.random.default_rng(case["seed"])
    x = rng.uniform(0.1, 0.9, case["n_records"])
    w = noise.randomize(x, seed=rng)
    labels = (rng.random(case["n_records"]) < case["class_skew"]).astype(int)
    labeled = rng.random(case["n_records"]) < case["labeled_fraction"]

    service = AggregationService(
        [AttributeSpec("x", part, noise)],
        n_shards=case["n_shards"],
        classes=2,
    )
    chunks = np.array_split(np.arange(case["n_records"]), case["n_batches"])

    def ingest_chunk(args):
        thread_index, chunk_list = args
        for chunk in chunk_list:
            for subset in (chunk[labeled[chunk]], chunk[~labeled[chunk]]):
                if subset.size == 0 and case["wire"] == "python":
                    continue
                classes = (
                    labels[subset] if labeled[subset].all() and subset.size else None
                )
                shard = (
                    thread_index % case["n_shards"] if case["pin_shards"] else None
                )
                batch = {"x": w[subset]}
                if case["wire"] == "columns":
                    frame = encode_columns(batch, shard=shard, classes=classes)
                    [(dec_batch, dec_classes, dec_shard)] = iter_labeled_frames(
                        frame
                    )
                    service.ingest_prepared(
                        service.prepare(dec_batch, dec_classes), shard=dec_shard
                    )
                elif case["wire"] == "ndjson":
                    line = {"batch": {"x": w[subset].tolist()}}
                    if classes is not None:
                        line["classes"] = classes.tolist()
                    record = json.loads(json.dumps(line))
                    service.ingest(
                        record["batch"],
                        shard=shard,
                        classes=record.get("classes"),
                    )
                else:
                    service.ingest(batch, shard=shard, classes=classes)

    assignments = [
        (t, chunks[t :: case["n_threads"]]) for t in range(case["n_threads"])
    ]
    if case["n_threads"] == 1:
        ingest_chunk(assignments[0])
    else:
        with ThreadPoolExecutor(max_workers=case["n_threads"]) as pool:
            list(pool.map(ingest_chunk, assignments))

    stream = StreamingReconstructor(part, noise).update(w)
    expected = stream.estimate()
    got = service.estimate("x")
    assert service.n_seen("x") == case["n_records"]
    assert np.array_equal(expected.distribution.probs, got.distribution.probs)
    assert expected.n_iterations == got.n_iterations
    assert expected.chi2_statistic == got.chi2_statistic


def test_differential_parity_fuzz():
    """Random (shards, threads, wire, split, class skew) configurations
    keep service estimates bit-identical to the single stream —
    generalizing the hand-picked cases in tests/test_service.py."""
    run_property(
        "service-differential-parity",
        _gen_parity_case,
        _check_service_parity,
    )


# ----------------------------------------------------------------------
# Differential parity fuzz: service training vs the offline pipeline
# ----------------------------------------------------------------------
def _gen_training_case(rng: random.Random) -> dict:
    attributes = []
    for _ in range(rng.randint(1, 3)):
        discrete = rng.random() < 0.25
        low = float(rng.randint(-20, 20)) if discrete else rng.uniform(-50, 40)
        span = float(rng.randint(2, 15)) if discrete else rng.uniform(0.5, 90)
        attributes.append(
            {
                "low": low,
                "high": low + span,
                "discrete": discrete,
                "noise": rng.choice(("uniform", "gaussian")),
                "privacy": rng.uniform(0.25, 2.0),
            }
        )
    return {
        "attributes": attributes,
        "n_intervals": rng.randint(4, 16),
        "n_classes": rng.randint(2, 3),
        "n_shards": rng.randint(1, 4),
        "n_records": rng.randint(40, 120),
        "n_batches": rng.randint(1, 5),
        "pin_shards": rng.random() < 0.5,
        "wire": rng.choice(("python", "columns")),
        "unlabeled_every": rng.choice((0, 1, 2)),
        "n_around": rng.choice((0, rng.randint(1, 60))),
        "strategy": rng.choice(("global", "byclass", "local")),
        "local_min_records": rng.randint(15, 60),
        "max_iterations": rng.choice((20, 40, 80)),
        "seed": rng.randint(0, 2**31),
    }


def _check_training_parity(case) -> None:
    import warnings

    from repro.core.privacy import noise_for_privacy
    from repro.core.reconstruction import BayesReconstructor
    from repro.datasets.schema import Attribute, Table
    from repro.exceptions import ConvergenceWarning
    from repro.service import TrainingService
    from repro.tree.pipeline import PrivacyPreservingClassifier

    rng = np.random.default_rng(case["seed"])
    n_classes = case["n_classes"]
    schema = [
        Attribute(f"a{j}", a["low"], a["high"], a["discrete"])
        for j, a in enumerate(case["attributes"])
    ]
    randomizers = {
        attribute.name: noise_for_privacy(a["noise"], a["privacy"], attribute.span)
        for attribute, a in zip(schema, case["attributes"])
    }
    service = AggregationService(
        [
            AttributeSpec(
                attribute.name,
                attribute.partition(case["n_intervals"]),
                randomizers[attribute.name],
            )
            for attribute in schema
        ],
        n_shards=case["n_shards"],
        classes=n_classes,
        max_iterations=case["max_iterations"],
    )
    training = TrainingService(
        service, local_min_records=case["local_min_records"]
    )

    def draw(n):
        """Clean columns, class labels banded on a0, and disclosures."""
        clean = {
            a.name: (
                rng.integers(int(a.low), int(a.high) + 1, n).astype(float)
                if a.discrete
                else rng.uniform(a.low, a.high, n)
            )
            for a in schema
        }
        first = schema[0]
        bands = (clean[first.name] - first.low) / first.span * n_classes
        labels = np.minimum(bands.astype(np.int64), n_classes - 1)
        noisy = rng.random(n) < 0.1
        labels[noisy] = rng.integers(0, n_classes, int(noisy.sum()))
        disclosed = {
            name: randomizers[name].randomize(values, seed=rng)
            for name, values in clean.items()
        }
        return clean, labels, disclosed

    n = case["n_records"]
    clean, labels, disclosed = draw(n)
    chunks = np.array_split(np.arange(n), case["n_batches"])
    for index, rows in enumerate(chunks):
        batch = {name: values[rows] for name, values in disclosed.items()}
        classes = labels[rows]
        shard = index % case["n_shards"] if case["pin_shards"] else None
        if case["wire"] == "columns":
            frame = encode_columns(batch, shard=shard, classes=classes)
            [(batch, classes, shard)] = iter_labeled_frames(frame)
        training.ingest(batch, classes, shard=shard)
        if case["unlabeled_every"] and index % case["unlabeled_every"] == 0:
            _, _, unlabeled = draw(int(rows.size))
            service.ingest({"a0": unlabeled["a0"]})
    if case["n_around"]:
        _, around_labels, around = draw(case["n_around"])
        service.ingest(around, classes=around_labels)

    offline = PrivacyPreservingClassifier(
        case["strategy"],
        n_intervals=case["n_intervals"],
        reconstructor=BayesReconstructor(max_iterations=case["max_iterations"]),
        local_min_records=case["local_min_records"],
    )
    table = Table(clean, labels, schema)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        model = training.train(case["strategy"])
        offline.fit(
            table,
            randomized_table=table.with_columns(disclosed),
            randomizers=randomizers,
        )
    assert model.n_train == n
    assert model.tree.identical_to(offline.tree_), "service tree differs"


def test_differential_training_parity_fuzz():
    """Random (schema, classes, shards, batches, wire, unlabeled and
    around-the-buffer traffic, strategy) configurations keep the
    service-trained tree identical to the offline pipeline fitted on the
    buffered rows — generalizing the hand-picked cases in
    tests/test_training.py."""
    run_property(
        "training-differential-parity",
        _gen_training_case,
        _check_training_parity,
    )


# ----------------------------------------------------------------------
# Basket wire frames (v4): round trips and truncation rejection
# ----------------------------------------------------------------------
def _gen_basket_wire_case(rng: random.Random) -> dict:
    n_items = rng.randint(1, 20)
    density = rng.choice((0.0, 0.2, 0.7, 1.0))
    rows = [
        [rng.random() < density for _ in range(n_items)]
        for _ in range(rng.randint(1, 40))
    ]
    return {
        "n_items": n_items,
        "rows": rows,
        "shard": rng.choice((None, rng.randint(0, 7))),
        "n_frames": rng.randint(1, 4),
        "cut_seed": rng.randint(0, 2**31),
    }


def _check_basket_wire_roundtrip(case) -> None:
    from repro.service import encode_baskets, iter_basket_frames

    matrix = np.asarray(case["rows"], dtype=bool)
    body = encode_baskets(matrix, shard=case["shard"])
    [(decoded, shard)] = iter_basket_frames(body)
    assert decoded.dtype == np.bool_
    assert np.array_equal(decoded, matrix)
    assert shard == case["shard"]
    # self-delimiting: N concatenated frames come back frame by frame
    parts = list(iter_basket_frames(body * case["n_frames"]))
    assert len(parts) == case["n_frames"]
    for part_matrix, part_shard in parts:
        assert np.array_equal(part_matrix, matrix)
        assert part_shard == case["shard"]
    # every truncation is rejected — a frame is absorbed whole or not
    # at all (the body is exactly the declared bytes, so any proper
    # prefix is missing declared payload)
    cut = case["cut_seed"] % (len(body) - 1) + 1
    with pytest.raises(ValidationError):
        list(iter_basket_frames(body[:cut]))


def test_property_basket_wire_roundtrip():
    run_property(
        "basket-wire-roundtrip",
        _gen_basket_wire_case,
        _check_basket_wire_roundtrip,
        shrinkers=_shrink_values,
    )


# ----------------------------------------------------------------------
# SupportShardSet merge algebra
# ----------------------------------------------------------------------
def _gen_support_case(rng: random.Random) -> dict:
    n_items = rng.randint(1, 8)
    batches = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(0, 20)
        batches.append(
            [[rng.random() < 0.4 for _ in range(n_items)] for _ in range(size)]
        )
    return {
        "n_items": n_items,
        "batches": batches,
        "shard_counts": sorted({rng.randint(1, 6) for _ in range(3)}),
    }


def _support_batch(case, index: int) -> np.ndarray:
    return np.asarray(case["batches"][index], dtype=bool).reshape(-1, case["n_items"])


def _check_support_merge(case) -> None:
    from repro.service import SupportShardSet

    def fill(n_shards, order):
        shards = SupportShardSet(case["n_items"], n_shards=n_shards)
        for index in order:
            shards.ingest(_support_batch(case, index))
        return shards.merged_patterns()

    n = len(case["batches"])
    orders = [list(range(n)), list(reversed(range(n)))]
    reference = None
    for n_shards in case["shard_counts"]:
        for order in orders:
            merged = fill(n_shards, order)
            if reference is None:
                reference = merged
                assert int(merged.sum()) == sum(
                    len(batch) for batch in case["batches"]
                )
                continue
            # commutative + shard-count independent, bitwise
            assert np.array_equal(merged, reference)

    # associative: any grouping of the batches into pinned shards, summed
    # in any slot order, is bitwise the same; empty slots add nothing
    for groups in _groupings(n):
        shards = SupportShardSet(case["n_items"], n_shards=len(groups))
        for slot, group in enumerate(groups):
            for index in group:
                shards.ingest(_support_batch(case, index), shard=slot)
        for counts, seen in _slot_sums(shards):
            assert np.array_equal(counts, reference)
            assert seen.tolist() == [int(reference.sum())]


def test_property_supportshard_merge_algebra():
    run_property(
        "supportshard-merge-algebra",
        _gen_support_case,
        _check_support_merge,
        shrinkers=None,
    )


# ----------------------------------------------------------------------
# Differential parity fuzz: service-side Apriori vs the offline miner
# ----------------------------------------------------------------------
def _gen_mining_parity_case(rng: random.Random) -> dict:
    return {
        "n_items": rng.randint(2, 8),
        "n_rows": rng.randint(50, 600),
        "n_shards": rng.randint(1, 5),
        "n_batches": rng.randint(1, 8),
        "keep_prob": rng.choice((0.7, 0.8, 0.9, 0.95)),
        "min_support": rng.uniform(0.05, 0.5),
        "min_confidence": rng.uniform(0.1, 0.9),
        "max_size": rng.randint(1, 3),
        "seed": rng.randint(0, 2**31),
    }


def _check_mining_parity(case) -> None:
    from repro.mining import MaskMiner, RandomizedResponse, association_rules
    from repro.service import MiningService

    rng = np.random.default_rng(case["seed"])
    clean = rng.random((case["n_rows"], case["n_items"])) < rng.random(
        case["n_items"]
    )
    response = RandomizedResponse(keep_prob=case["keep_prob"])
    disclosed = response.randomize(clean, seed=rng)

    service = MiningService(
        response,
        case["n_items"],
        n_shards=case["n_shards"],
        max_size=case["max_size"],
    )
    for chunk in np.array_split(np.arange(case["n_rows"]), case["n_batches"]):
        if chunk.size:
            service.ingest(disclosed[chunk])
    result = service.mine(case["min_support"], case["min_confidence"])

    miner = MaskMiner(response, max_size=case["max_size"])
    expected_sets = miner.frequent_itemsets(disclosed, case["min_support"])
    expected_rules = association_rules(expected_sets, case["min_confidence"])

    # bit-identical supports (dict equality compares exact floats)
    assert result.itemsets == expected_sets
    assert result.n_baskets == case["n_rows"]

    def canonical(rule):
        return (sorted(rule.antecedent), sorted(rule.consequent))

    assert sorted(result.rules, key=canonical) == sorted(
        expected_rules, key=canonical
    )


def test_differential_mining_parity_fuzz():
    """Random (baskets, shards, thresholds) configurations keep the
    service-side miner bit-identical to the offline ``repro.mining``
    pipeline — generalizing the hand-picked cases in
    tests/test_service_mining.py."""
    run_property(
        "mining-differential-parity",
        _gen_mining_parity_case,
        _check_mining_parity,
    )


# ----------------------------------------------------------------------
# Level-wise tree growth vs the depth-first oracle
# ----------------------------------------------------------------------
def _gen_tree_case(rng: random.Random) -> dict:
    n_attributes = rng.randint(1, 4)
    n_classes = rng.randint(1, 4)
    return {
        "n": rng.randint(1, 300),
        "intervals": [rng.choice((1, 2, 3, 5, 9, 16)) for _ in range(n_attributes)],
        # a random subset of the labels 0 .. C-1, the top one always
        "labels": sorted(
            {n_classes - 1}
            | {c for c in range(n_classes - 1) if rng.random() < 0.7}
        ),
        "signal": rng.random(),
        "criterion": rng.choice(("gini", "entropy")),
        "max_depth": rng.choice((None, None, 0, 1, 2, 4)),
        "min_records_split": rng.choice((2, 2, 3, 8, 25)),
        "min_gain": rng.choice((0.0, 0.0, 1e-3, 0.03)),
        # None keeps the library's budget; the others split wide levels
        "chunk_cells": rng.choice((None, 1, 10, 100)),
        "local": rng.random() < 0.2,
        "seed": rng.randint(0, 2**31),
    }


def _check_tree_matches_oracle(case) -> None:
    from repro.tree import tree as tree_module
    from repro.tree.pipeline import local_refit
    from repro.tree.tree import DecisionTreeClassifier

    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    partitions = [Partition.uniform(0.0, 1.0, m) for m in case["intervals"]]
    x = rng.random((n, len(partitions)))
    intervals = np.column_stack([p.locate(x[:, j]) for j, p in enumerate(partitions)])
    label_set = np.asarray(case["labels"])
    # labels follow the first attribute with probability `signal`
    follows = rng.random(n) < case["signal"]
    labels = np.where(
        follows,
        label_set[intervals[:, 0] % label_set.size],
        rng.choice(label_set, n),
    )

    def make():
        return DecisionTreeClassifier(
            partitions,
            criterion=case["criterion"],
            max_depth=case["max_depth"],
            min_records_split=case["min_records_split"],
            min_gain=case["min_gain"],
        )

    fits = []  # (tree, node_transformer calls) per builder
    for builder in ("level-wise", "oracle"):
        kwargs, calls = {}, []
        if case["local"]:
            noise = UniformRandomizer(half_width=0.2)
            raw = np.column_stack(
                [noise.randomize(x[:, j], seed=case["seed"] + j) for j in range(x.shape[1])]
            )
            randomizers = [noise if p.n_intervals > 1 else None for p in partitions]
            refit = local_refit(partitions, randomizers, BayesReconstructor(), 5)

            def transform(raw, labels, intervals, used, refit=refit, calls=calls):
                out = refit(raw, labels, intervals, used)
                calls.append((
                    tuple(sorted(used)), raw.tobytes(), labels.tobytes(),
                    intervals.tobytes(), intervals.dtype.str,
                    intervals.flags.c_contiguous, out.tobytes(),
                ))
                return out

            kwargs = {"raw_values": raw, "node_transformer": transform}
        if builder == "oracle":
            tree = recursive_fit(make(), intervals, labels, **kwargs)
        else:
            budget = tree_module._CHUNK_CELLS
            if case["chunk_cells"] is not None:
                tree_module._CHUNK_CELLS = case["chunk_cells"]
            try:
                tree = make().fit_intervals(intervals, labels, **kwargs)
            finally:
                tree_module._CHUNK_CELLS = budget
        fits.append((tree, sorted(calls)))
    (grown, calls), (expected, oracle_calls) = fits
    assert grown.identical_to(expected), "trees differ"
    assert calls == oracle_calls, "node_transformer calls differ"


def test_level_wise_trees_match_the_recursive_oracle():
    """Random tree problems grow the same tree level by level as depth
    first, and Local's per-node hook sees the oracle's exact calls."""
    run_property(
        "level-wise-tree-oracle",
        _gen_tree_case,
        _check_tree_matches_oracle,
        shrinkers=_shrink_values,
    )


def test_properties_print_reproduction_seed():
    """A failing property names the seed + env var to rerun it."""
    def generate(rng):
        return {"value": rng.randint(0, 100)}

    def check(case):
        assert case["value"] < 0, "always fails"

    with pytest.raises(AssertionError) as excinfo:
        run_property("always-fails", generate, check)
    message = str(excinfo.value)
    assert SEED_ENV in message
    assert str(base_seed()) in message
    assert "Shrunk failing case" in message


def test_shrinker_reduces_failing_case():
    def generate(rng):
        return {"values": list(range(10))}

    def check(case):
        assert 7 not in case["values"]

    with pytest.raises(AssertionError) as excinfo:
        run_property("shrinks", generate, check, shrinkers=_shrink_values)
    # the shrunk case kept 7 but dropped (at least) half the rest
    assert "7" in str(excinfo.value)
