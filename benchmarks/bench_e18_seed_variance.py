"""E18 — Methodology: seed variance of the headline comparison.

EXPERIMENTS.md repeatedly cites seed-to-seed variance when reconciling
absolute numbers with the paper.  This bench quantifies it: the headline
Fn-level comparison (ByClass vs Randomized at 100 % privacy) repeated
over independent seeds, reporting mean ± spread.  The measured picture:
ByClass beats Randomized on average for every function and is several
times more stable (std 0.2–2.2 vs 2.6–6.3 points); the margin is wide and
seed-independent where the structure favours reconstruction (Fn1, Fn5),
while Fn3 at 100 % privacy is a genuinely close race whose winner can
flip on individual seeds.
"""

from __future__ import annotations

import numpy as np
from _common import experiment, run_experiment

from repro.datasets import quest
from repro.experiments import format_table
from repro.tree import PrivacyPreservingClassifier

SEED_OFFSETS = (1, 45, 99)
FUNCTIONS = (1, 3, 5)


@experiment(
    "e18",
    title="Seed variance of ByClass vs Randomized at 100% privacy",
    tags=("classification", "variance", "paper"),
    seed=1800,
)
def run_e18(ctx):
    n_train, n_test = ctx.scaled(10_000), ctx.scaled(3_000)
    ctx.record(
        n_train=n_train, n_test=n_test, n_seeds=len(SEED_OFFSETS), privacy=1.0
    )
    results: dict = {fn: {"byclass": [], "randomized": []} for fn in FUNCTIONS}
    for offset in SEED_OFFSETS:
        seed = ctx.seed + offset
        for fn in FUNCTIONS:
            train = quest.generate(n_train, function=fn, seed=seed)
            test = quest.generate(n_test, function=fn, seed=seed + 7)
            randomized, randomizers = quest.randomize(
                train, privacy=1.0, seed=seed + 13
            )
            for strategy in ("byclass", "randomized"):
                clf = PrivacyPreservingClassifier(
                    strategy, privacy=1.0, seed=seed + 29
                )
                clf.fit(train, randomized_table=randomized, randomizers=randomizers)
                results[fn][strategy].append(clf.score(test))

    rows = []
    for fn in FUNCTIONS:
        for strategy in ("byclass", "randomized"):
            accs = np.asarray(results[fn][strategy])
            rows.append(
                (
                    f"Fn{fn}",
                    strategy,
                    f"{100 * accs.mean():.1f}",
                    f"{100 * accs.std():.1f}",
                    f"{100 * accs.min():.1f}",
                    f"{100 * accs.max():.1f}",
                )
            )
    table = format_table(
        ("function", "strategy", "mean %", "std %", "min %", "max %"),
        rows,
        title=f"E18: accuracy across {len(SEED_OFFSETS)} seeds "
        "(100% privacy, uniform)",
    )
    ctx.report(table, name="e18_seed_variance")

    metrics = {}
    for fn in FUNCTIONS:
        for strategy in ("byclass", "randomized"):
            accs = np.asarray(results[fn][strategy])
            metrics[f"fn{fn}_{strategy}_mean"] = float(accs.mean())
            metrics[f"fn{fn}_{strategy}_std"] = float(accs.std())

    for fn in FUNCTIONS:
        byclass = np.asarray(results[fn]["byclass"])
        randomized = np.asarray(results[fn]["randomized"])
        # the ordering conclusion holds on average for every function ...
        assert byclass.mean() > randomized.mean(), fn
        # ... and ByClass is the far more *stable* method
        assert byclass.std() <= randomized.std() + 0.01, fn
    # where the gap is structural (Fn1 single-attribute, Fn5 joint), it
    # holds with wide margin on every individual seed
    for fn in (1, 5):
        byclass = np.asarray(results[fn]["byclass"])
        randomized = np.asarray(results[fn]["randomized"])
        assert byclass.mean() > randomized.mean() + 0.05, fn
        assert np.all(byclass > randomized), fn
    return metrics


def test_e18_seed_variance(benchmark):
    run_experiment(benchmark, "e18")
