"""E15 — membership inference against ML models (Shokri [40]).

Two sweeps on the logistic-regression substrate:

* **overfitting axis** — the attack's AUC/advantage against training-set
  size: small training sets overfit and leak, large ones generalize and
  don't (the mechanism behind [40]'s results);
* **defense axis** — DP-SGD noise vs attack AUC vs the epsilon report:
  membership advantage decays as the privacy budget tightens, the
  quantitative face of Theorem 2.9's qualitative promise.
"""

from __future__ import annotations

from repro.attacks.ml_membership import ml_membership_experiment
from repro.experiments.runner import ExperimentResult, register
from repro.ml import DpSgdConfig
from repro.utils.rng import derive_rng
from repro.utils.tables import Table


@register("E15")
def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Membership AUC across overfitting and DP-noise sweeps."""
    repeats = 2 if quick else 6

    def averaged(train_size: int, dp: DpSgdConfig | None, tag: str):
        results = [
            ml_membership_experiment(
                train_size=train_size,
                dp=dp,
                rng=derive_rng(seed, "e15", tag, repeat),
            )
            for repeat in range(repeats)
        ]

        def mean(key: str) -> float:
            return sum(getattr(r, key) for r in results) / len(results)

        return (
            mean("auc"),
            mean("advantage"),
            mean("generalization_gap"),
            results[0].epsilon,
        )

    overfit_table = Table(
        ["train size", "attack AUC", "advantage", "generalization gap"],
        title="E15a: membership inference vs overfitting (no defense)",
    )
    auc_small = auc_large = 0.5
    sizes = [50, 400] if quick else [30, 50, 100, 400, 1000]
    for train_size in sizes:
        auc, advantage, gap, _eps = averaged(train_size, None, f"size{train_size}")
        overfit_table.add_row([train_size, auc, advantage, gap])
        if train_size == sizes[0]:
            auc_small = auc
        if train_size == sizes[-1]:
            auc_large = auc

    defense_table = Table(
        ["training", "reported eps", "attack AUC", "advantage", "generalization gap"],
        title="E15b: DP-SGD vs the attack (train size 50)",
    )
    auc_dp_strong = 0.5
    noise_levels = [(None, "non-private")] + [
        (DpSgdConfig(noise_multiplier=nm), f"DP-SGD sigma={nm}")
        for nm in ((30.0,) if quick else (10.0, 30.0, 80.0))
    ]
    for dp, label in noise_levels:
        auc, advantage, gap, eps = averaged(50, dp, label)
        defense_table.add_row(
            [label, "-" if eps is None else eps, auc, advantage, gap]
        )
        if dp is not None:
            auc_dp_strong = auc  # last (strongest) noise level

    return ExperimentResult(
        experiment_id="E15",
        title="Membership inference against ML models",
        paper_claim=(
            "membership attacks against machine learning models allow to infer "
            "whether a person's data was included in the training set "
            "(Section 1, citing Shokri et al. [40])"
        ),
        tables=(overfit_table, defense_table),
        headline={
            "auc_overfit": auc_small,
            "auc_generalizing": auc_large,
            "auc_dp_strongest": auc_dp_strong,
        },
    )
