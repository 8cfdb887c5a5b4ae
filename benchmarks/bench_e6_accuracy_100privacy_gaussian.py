"""E6 — Classification accuracy at 100 % privacy, Gaussian noise (paper §5).

The Gaussian twin of E5.  At matched 95 %-confidence privacy, Gaussian
noise concentrates most of its mass near zero, so the Randomized baseline
is much less damaged than under uniform noise and the reconstruction gap
narrows — consistent with the paper's observation that Gaussian noise is
the gentler randomizer per unit of stated privacy.  The shape to hold:
ByClass at least matches Randomized overall and clearly wins on some
functions, while tracking Original on Fn1.
"""

from __future__ import annotations

from _common import experiment, run_experiment

from repro.experiments import ClassificationConfig, run_strategy_comparison
from repro.experiments.reporting import accuracy_matrix

FUNCTIONS = (1, 2, 3, 4, 5)
STRATEGIES = ("original", "randomized", "global", "byclass")


@experiment(
    "e6",
    title="Accuracy at 100% privacy, Gaussian noise",
    tags=("classification", "paper"),
    seed=600,
)
def run_e6(ctx):
    config = ClassificationConfig(
        functions=FUNCTIONS,
        strategies=STRATEGIES,
        noise="gaussian",
        privacy=1.0,
        n_train=ctx.scaled(10_000),
        n_test=ctx.scaled(3_000),
        seed=ctx.seed,
    )
    ctx.record(
        noise=config.noise,
        privacy=config.privacy,
        n_train=config.n_train,
        n_test=config.n_test,
        strategies=",".join(STRATEGIES),
    )
    rows = run_strategy_comparison(config)
    ctx.report(
        "E6: accuracy (%) at 100% privacy, gaussian noise, "
        f"n_train={config.n_train}\n" + accuracy_matrix(rows),
        name="e6_accuracy_100privacy_gaussian",
    )

    acc = {(r.function, r.strategy): r.accuracy for r in rows}
    metrics = {
        f"fn{fn}_{strategy}": float(acc[(fn, strategy)])
        for fn in FUNCTIONS
        for strategy in STRATEGIES
    }
    wins = 0
    for fn in FUNCTIONS:
        # never materially worse than the randomized baseline ...
        assert acc[(fn, "byclass")] > acc[(fn, "randomized")] - 0.07, fn
        wins += acc[(fn, "byclass")] > acc[(fn, "randomized")]
    # ... and clearly better on several functions
    assert wins >= 2
    assert acc[(1, "byclass")] > acc[(1, "original")] - 0.08
    metrics["byclass_wins"] = int(wins)
    return metrics


def test_e6_accuracy_100privacy_gaussian(benchmark):
    run_experiment(benchmark, "e6")
