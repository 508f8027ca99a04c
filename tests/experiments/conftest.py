"""Shared fixtures for the experiment tests."""

from functools import cache

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="session")
def quick_run():
    """``quick_run(experiment_id)``: one quick, seed-0 run per experiment.

    Tests that only read a quick run share it, so each experiment runs
    once per session however many tests check it.
    """
    return cache(lambda experiment_id: run_experiment(experiment_id, seed=0, quick=True))
