"""E8 — Uniform vs Gaussian noise tradeoff (paper §5 observation).

At matched *95 %-confidence* privacy levels, Gaussian noise concentrates
more mass near zero than uniform noise, so reconstruction-based training
retains more accuracy per unit privacy at the higher privacy levels —
the paper's stated reason for preferring Gaussian when privacy demands
are strict.  We sweep Fn3 with ByClass under both kinds.
"""

from __future__ import annotations

from _common import experiment, run_experiment

from repro.experiments import ClassificationConfig, format_table, run_privacy_sweep

LEVELS = (0.5, 1.0, 2.0, 4.0)


@experiment(
    "e8",
    title="Uniform vs Gaussian noise, Fn3 ByClass privacy sweep",
    tags=("classification", "sweep", "paper"),
    seed=800,
)
def run_e8(ctx):
    n_train, n_test = ctx.scaled(10_000), ctx.scaled(3_000)
    ctx.record(
        function=3,
        n_train=n_train,
        n_test=n_test,
        levels=",".join(f"{level:g}" for level in LEVELS),
    )
    results = {}
    for noise in ("uniform", "gaussian"):
        config = ClassificationConfig(
            functions=(3,),
            strategies=("byclass",),
            noise=noise,
            n_train=n_train,
            n_test=n_test,
            seed=ctx.seed,
        )
        rows = run_privacy_sweep(config, LEVELS)
        results[noise] = {r.privacy: r.accuracy for r in rows}

    table_rows = [
        (noise,) + tuple(f"{100 * results[noise][level]:.1f}" for level in LEVELS)
        for noise in ("uniform", "gaussian")
    ]
    table = format_table(
        ("noise",) + tuple(f"p={level:g}" for level in LEVELS),
        table_rows,
        title="E8: Fn3 ByClass accuracy (%), uniform vs gaussian noise",
    )
    ctx.report(table, name="e8_uniform_vs_gaussian")

    metrics = {
        f"{noise}_p{level:g}": float(results[noise][level])
        for noise in ("uniform", "gaussian")
        for level in LEVELS
    }
    # both kinds must be usable at moderate privacy
    assert results["uniform"][0.5] > 0.8
    assert results["gaussian"][0.5] > 0.8
    # in the paper's regime (up to 100% privacy) Gaussian retains at
    # least comparable accuracy per unit of stated privacy
    assert results["gaussian"][1.0] > results["uniform"][1.0] - 0.03
    # at the extreme levels both decay toward the majority-class floor
    assert results["gaussian"][4.0] > 0.5
    assert results["uniform"][4.0] > 0.5
    return metrics


def test_e8_uniform_vs_gaussian(benchmark):
    run_experiment(benchmark, "e8")
