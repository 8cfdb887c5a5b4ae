"""E5 — Classification accuracy at 100 % privacy, uniform noise (paper §5).

The paper's headline figure: for each function Fn1–Fn5, the accuracy of
Original, Randomized, Global, ByClass, and Local.  Paper shape:

* every reconstruction-based strategy beats training on raw randomized
  values, dramatically so on the harder functions;
* ByClass and Local are close to each other;
* Fn1 (single attribute) is essentially unharmed by ByClass/Local.
"""

from __future__ import annotations

from _common import experiment, run_experiment

from repro.experiments import ClassificationConfig, run_strategy_comparison
from repro.experiments.reporting import accuracy_matrix

FUNCTIONS = (1, 2, 3, 4, 5)
STRATEGIES = ("original", "randomized", "global", "byclass", "local")


@experiment(
    "e5",
    title="Accuracy at 100% privacy, uniform noise, all five strategies",
    tags=("classification", "paper"),
    seed=500,
)
def run_e5(ctx):
    config = ClassificationConfig(
        functions=FUNCTIONS,
        strategies=STRATEGIES,
        noise="uniform",
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
        "E5: accuracy (%) at 100% privacy, uniform noise, "
        f"n_train={config.n_train}\n" + accuracy_matrix(rows),
        name="e5_accuracy_100privacy_uniform",
    )

    acc = {(r.function, r.strategy): r.accuracy for r in rows}
    metrics = {
        f"fn{fn}_{strategy}": float(acc[(fn, strategy)])
        for fn in FUNCTIONS
        for strategy in STRATEGIES
    }
    for fn in FUNCTIONS:
        # reconstruction-based training beats the randomized baseline
        assert acc[(fn, "byclass")] > acc[(fn, "randomized")], fn
        # and the original is the (approximate) upper bound
        assert acc[(fn, "original")] >= acc[(fn, "byclass")] - 0.03, fn
    # Fn1: single-attribute concept survives ByClass nearly unchanged
    assert acc[(1, "byclass")] > acc[(1, "original")] - 0.08
    # ByClass and Local land close together (the paper's observation)
    for fn in FUNCTIONS:
        assert abs(acc[(fn, "byclass")] - acc[(fn, "local")]) < 0.15, fn
    return metrics


def test_e5_accuracy_100privacy_uniform(benchmark):
    run_experiment(benchmark, "e5")
