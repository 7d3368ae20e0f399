"""Shared fixtures: small grids and generators used across the suite, and
the experiment records the acceptance and golden-number tests read."""

import json

import numpy as np
import pytest

from maxreg_lab import TorusGrid, uniform_time_grid
from maxreg_lab.harness import load_config, run_experiment


@pytest.fixture
def grid1d():
    return TorusGrid(dimension=1, points_per_axis=16)


@pytest.fixture
def grid2d():
    return TorusGrid(dimension=2, points_per_axis=16)


@pytest.fixture
def grid3d():
    return TorusGrid(dimension=3, points_per_axis=8)


@pytest.fixture
def short_time():
    return uniform_time_grid(1.0, 33)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def records():
    """Memoised experiment runner keyed by the full config."""
    cache = {}

    def get(name, **overrides):
        key = json.dumps({"experiment": name, **overrides}, sort_keys=True)
        if key not in cache:
            cache[key] = run_experiment(load_config({"experiment": name, **overrides}))
        return cache[key]

    return get
