"""Peak traced memory of whole Navier–Stokes runs, in trajectories.

A Picard step needs the base, the current iterate and one map evaluation;
the Lipschitz sampler needs one pair.  Every trajectory that outlives its
last use adds its spectrum and its cached samples to the peak, so the
peak is measured in units of one trajectory's spectrum plus samples.

The bounds sit half a unit above the peaks of the release that holds only
live trajectories (4.6 units on ``ns-exist``, 5.8 on ``ns-unique``): a
single stray trajectory with its samples crosses them.  Keeping every
dead trajectory alive read 6.8 and 8.5 units.
"""

import json
import tracemalloc

import pytest

from maxreg_lab import cli

CASES = {
    # (config, dimension, points per axis, time nodes, bound in units)
    "ns-exist": (
        {
            "experiment": "ns-exist",
            "grid": {"points_per_axis": 32},
            "time": {"num_nodes": 33},
            "params": {"eta_grid": [0.0, 0.32, 2.56]},
        },
        2,
        32,
        33,
        5.1,
    ),
    "ns-unique": (
        {"experiment": "ns-unique", "grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}},
        3,
        8,
        17,
        6.3,
    ),
}


def trajectory_bytes(n, N, nodes):
    """Half spectrum (complex) plus real samples of an ``n``-component field
    at every node."""
    points = N**n
    return nodes * n * (16 * points // N * (N // 2 + 1) + 8 * points)


@pytest.mark.parametrize("name", sorted(CASES))
def test_peak_in_trajectories(tmp_path, name):
    config, n, N, nodes, bound = CASES[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert code == 0
    assert peak / trajectory_bytes(n, N, nodes) <= bound
