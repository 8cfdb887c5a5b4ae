"""E7 — Accuracy vs privacy sweep (paper §5's tradeoff figure).

For each function, ByClass accuracy as privacy rises from 10 % to 200 %
of the attribute range, with the Randomized baseline alongside.  Paper
shape: graceful degradation for ByClass; the Randomized baseline falls
off a cliff as noise grows; Fn1 stays nearly flat for ByClass.
"""

from __future__ import annotations

from _common import experiment, run_experiment

from repro.experiments import (
    ClassificationConfig,
    format_table,
    run_privacy_sweep,
)

LEVELS = (0.1, 0.25, 0.5, 1.0, 2.0)
FUNCTIONS = (1, 2, 3, 4, 5)
STRATEGIES = ("randomized", "byclass")


@experiment(
    "e7",
    title="Accuracy vs privacy sweep, ByClass vs Randomized",
    tags=("classification", "sweep", "paper"),
    seed=700,
)
def run_e7(ctx):
    config = ClassificationConfig(
        functions=FUNCTIONS,
        strategies=STRATEGIES,
        noise="uniform",
        n_train=ctx.scaled(10_000),
        n_test=ctx.scaled(3_000),
        seed=ctx.seed,
    )
    ctx.record(
        noise=config.noise,
        n_train=config.n_train,
        n_test=config.n_test,
        levels=",".join(f"{level:g}" for level in LEVELS),
    )
    rows = run_privacy_sweep(config, LEVELS)

    acc = {(r.function, r.strategy, r.privacy): r.accuracy for r in rows}
    table_rows = []
    for fn in FUNCTIONS:
        for strategy in STRATEGIES:
            cells = [f"Fn{fn}", strategy] + [
                f"{100 * acc[(fn, strategy, level)]:.1f}" for level in LEVELS
            ]
            table_rows.append(tuple(cells))
    table = format_table(
        ("function", "strategy") + tuple(f"p={level:g}" for level in LEVELS),
        table_rows,
        title=f"E7: accuracy (%) vs privacy, uniform noise, n_train={config.n_train}",
    )
    ctx.report(table, name="e7_accuracy_vs_privacy")

    metrics = {
        f"fn{fn}_{strategy}_p{level:g}": float(acc[(fn, strategy, level)])
        for fn in FUNCTIONS
        for strategy in STRATEGIES
        for level in LEVELS
    }
    for fn in FUNCTIONS:
        # byclass degrades gracefully: low-privacy beats the 200% point
        assert acc[(fn, "byclass", 0.1)] > acc[(fn, "byclass", 2.0)] - 0.02
        # at high privacy byclass clearly beats the randomized baseline
        assert acc[(fn, "byclass", 2.0)] > acc[(fn, "randomized", 2.0)]
    # Fn1 stays essentially flat for byclass (single-attribute concept)
    assert acc[(1, "byclass", 2.0)] > 0.85
    return metrics


def test_e7_accuracy_vs_privacy(benchmark):
    run_experiment(benchmark, "e7")
