"""Peak traced memory of whole Navier–Stokes runs, in trajectories.

A Picard step needs the base's spectrum, the current iterate and one map
evaluation, and writes the next iterate into the step's own array; the
Lipschitz sampler, which serves both the gate's constant and the
bootstrap's ratio, needs one pair, takes the pair's side of both ratios
before mapping, and frees each trajectory once its image exists.  Every trajectory that outlives its last use adds its spectrum and
its cached samples to the peak, so the peak is measured in units of one
trajectory's spectrum plus samples.

The bounds sit about half a unit above the peaks of the release that holds
only live trajectories (4.13 units on ``ns-exist``, 5.79 on ``ns-unique``):
a single stray trajectory with its samples crosses them.  Keeping the
base's samples, both trajectories of a sampled pair and a new array for
each iterate read 4.6 units on ``ns-exist``; keeping every dead trajectory
alive read 6.8 and 8.5 units.

The linear runs read their forcing ensemble one member at a time: a
member is drawn when its solve starts and dropped when it ends, and at
most ``threads`` solves are in flight.  Their peak is measured in units of
one member's half spectrum, and each bound sits about half a unit above
the peak of that release (5.05 units for ``maxreg`` at ``threads`` 1, up
to 9.98 at ``threads`` 2, where it depends on how the two solves overlap,
and 5.38 for ``desimon``).  Forming the spectrum of ``f - A u`` read 6.05
and up to 11.94 units; drawing the whole ensemble of eight members up
front read 13.1, 16.0 and 10.2 units.
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
        4.6,
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


def member_bytes(n, N, nodes):
    """Half spectrum (complex) of a scalar forcing at every node."""
    return nodes * 16 * N ** (n - 1) * (N // 2 + 1)


def traced_peak(tmp_path, config):
    """The exit code of a run of ``config`` and its peak traced memory."""
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
    return code, peak


@pytest.mark.parametrize("name", sorted(CASES))
def test_peak_in_trajectories(tmp_path, name):
    config, n, N, nodes, bound = CASES[name]
    code, peak = traced_peak(tmp_path, config)
    assert code == 0
    assert peak / trajectory_bytes(n, N, nodes) <= bound


_LINEAR = {"grid": {"points_per_axis": 32}, "time": {"num_nodes": 33}, "params": {"ensemble_size": 8}}

MEMBER_CASES = {
    # (config, bound in units of one member on the 32^2 grid at 33 nodes)
    "maxreg-threads-1": ({"experiment": "maxreg", **_LINEAR}, 5.5),
    "maxreg-threads-2": ({"experiment": "maxreg", "threads": 2, **_LINEAR}, 10.5),
    "desimon": ({"experiment": "desimon", **_LINEAR}, 5.9),
}


@pytest.mark.parametrize("name", sorted(MEMBER_CASES))
def test_peak_in_members(tmp_path, name):
    config, bound = MEMBER_CASES[name]
    code, peak = traced_peak(tmp_path, config)
    assert code == 0
    assert peak / member_bytes(2, 32, 33) <= bound
