"""Experiment registry and result type.

Every experiment module registers a ``run(seed=..., quick=...)`` callable
under its DESIGN.md identifier.  ``quick=True`` shrinks the workload for the
tier-1 tests, which pin each quick, seed-0 output; the default scale is what
EXPERIMENTS.md records.

Experiments are independent given the master seed (each derives its own
sub-streams by id), so :func:`run_experiments` can fan experiment ids out
across forked workers (``jobs > 1``); experiments whose ``run`` accepts a
``jobs`` parameter additionally parallelize their inner Monte-Carlo trials
when run one at a time.  Either way the numbers are identical to a serial
run for a fixed seed.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Protocol, Sequence

from repro.utils.parallel import effective_jobs, parallel_map
from repro.utils.tables import Table


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's reproduction outcome.

    Attributes:
        experiment_id: the DESIGN.md identifier (e.g. ``"E4"``).
        title: short human title.
        paper_claim: the claim from the paper, quoted or paraphrased.
        tables: the measured series, as renderable tables.
        headline: named headline numbers (what EXPERIMENTS.md quotes).
        figures: ASCII charts for claims that are curves (optional).
        timings: wall-clock measurements.  ``render`` prints them last;
            they are not reproducible, so the golden output digests skip
            them.
    """

    experiment_id: str
    title: str
    paper_claim: str
    tables: tuple[Table, ...]
    headline: dict[str, object] = field(default_factory=dict)
    figures: tuple[str, ...] = ()
    timings: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Full text report: claim, headline, tables, figures, timings."""
        lines = [
            f"{self.experiment_id}: {self.title}",
            f"Paper claim: {self.paper_claim}",
        ]
        if self.headline:
            lines.append("Headline:")
            lines.extend(f"  {key} = {value}" for key, value in self.headline.items())
        for table in self.tables:
            lines.append("")
            lines.append(table.render())
        for figure in self.figures:
            lines.append("")
            lines.append(figure)
        if self.timings:
            lines.append("")
            lines.append("Timings (wall-clock):")
            lines.extend(f"  {key} = {value:,.2f}" for key, value in self.timings.items())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class ExperimentFn(Protocol):
    """An experiment entry point (may additionally accept ``jobs``)."""

    def __call__(self, seed: int = 0, quick: bool = False) -> ExperimentResult: ...


#: The registry, keyed by experiment id.
EXPERIMENTS: dict[str, ExperimentFn] = {}


def experiment_sort_key(experiment_id: str) -> tuple:
    """Numeric-aware id ordering: E2 before E10 (lexicographic would not)."""
    match = re.fullmatch(r"([A-Za-z]*)(\d+)", experiment_id)
    if match:
        return (match.group(1), int(match.group(2)))
    return (experiment_id, 0)


def registered_ids() -> list[str]:
    """All registered experiment ids in numeric order."""
    return sorted(EXPERIMENTS, key=experiment_sort_key)


@lru_cache(maxsize=None)
def _accepts_jobs(fn: ExperimentFn) -> bool:
    try:
        return "jobs" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def register(experiment_id: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator registering an experiment under ``experiment_id``."""

    def decorator(fn: ExperimentFn) -> ExperimentFn:
        if experiment_id in EXPERIMENTS:
            raise ValueError(f"duplicate experiment id: {experiment_id}")
        EXPERIMENTS[experiment_id] = fn
        return fn

    return decorator


def run_experiment(
    experiment_id: str, seed: int = 0, quick: bool = False, jobs: int = 1
) -> ExperimentResult:
    """Run one registered experiment.

    ``jobs`` is forwarded to the experiment when its ``run`` accepts it
    (the Monte-Carlo-heavy experiments parallelize their trial loops) and
    ignored otherwise, so legacy two-argument experiments keep working.
    """
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {registered_ids()}"
        ) from None
    if jobs != 1 and _accepts_jobs(fn):
        return fn(seed=seed, quick=quick, jobs=jobs)
    return fn(seed=seed, quick=quick)


def run_experiments(
    experiment_ids: Sequence[str],
    seed: int = 0,
    quick: bool = False,
    jobs: int = 1,
) -> list[ExperimentResult]:
    """Run the given experiments, optionally fanning ids out across workers.

    With ``jobs > 1`` and several ids, whole experiments run concurrently
    (one per forked worker, see :func:`repro.utils.parallel.parallel_map`)
    and their inner estimators stay serial — nesting pools would
    oversubscribe.  With a single id the ``jobs`` budget is passed down
    into the experiment's own trial loops instead.  Results return in
    input order and match a serial run exactly.
    """
    ids = list(experiment_ids)
    workers = effective_jobs(jobs)
    if workers <= 1 or len(ids) <= 1:
        return [run_experiment(i, seed=seed, quick=quick, jobs=jobs) for i in ids]

    def one_experiment(experiment_id: str) -> ExperimentResult:
        return run_experiment(experiment_id, seed=seed, quick=quick, jobs=1)

    return parallel_map(one_experiment, ids, jobs=workers)
