"""Peak traced memory of whole Navier–Stokes runs and of their phases, in
trajectories.

A Picard step needs the base's spectrum, the current iterate and one map
evaluation, and writes the next iterate into the step's own array; the
Lipschitz sampler, which serves both the gate's constant and the
bootstrap's ratio, needs one pair, takes the pair's side of both ratios
before mapping, and frees each trajectory once its image exists.  Every
trajectory that outlives its last use adds its spectrum and its cached
samples to the peak, so the peak is measured in units of one trajectory's
spectrum plus samples.

The whole-run bounds sit about half a unit above the peaks of the release
that holds only live trajectories (4.13 units on ``ns-exist``, 5.79 on
``ns-unique``).  Both peaks lie inside ``besov_heat_norm`` (its damping
table on a 513-node time grid), not in the sampler or a Picard run, so one
stray trajectory in those phases stays under them.  Keeping the base's samples,
both trajectories of a sampled pair and a new array for each iterate read
4.6 units on ``ns-exist``; keeping every dead trajectory alive read 6.8
and 8.5 units.

So on ``ns-exist`` the peak of the sampler (``problems._sampled_constants``)
and of each Picard run (``problems.run_picard``) is bounded on its own: the
peak is reset when each call starts and read, above the memory traced when
the run started, when it returns.  They read 3.02 and 3.07 units.  A
sampler that keeps both images bound across pairs reads 4.52 units, and
forming each iterate as ``u + change`` in a new state reads 3.82 units in
the Picard runs, while both stay at 4.11 over the whole run.

On ``ns-unique`` the sampler's peak is bounded the same way (3.59 units;
3.76 when each pair is scaled into a second spectrum and samples array),
and so is each momentum map's own peak, read above the memory traced when
the map's call started.  A map forms, transforms and contracts the
products of 8 time nodes at a time, so its peak is the samples it caches
on its input, the forcing and the Duhamel solve: 1.95 units.  The map
that formed the products of all 17 nodes at once, and their spectra,
read 2.12 units.  A sampler that keeps a reference to a pair's last
field, or both images across pairs, fails these bounds too.

The uniqueness bootstrap's peak on ``ns-unique`` (``uniqueness_bootstrap``,
4.58 units) and route one's (the first ``run_picard``, 3.52 units) are
bounded above the memory traced when the run started, each in a run of
its own, as a nested call would reset the outer one's peak.  The base
holds no samples: each route's gate caches them on a copy of it, and
route two's start is scaled from a copy that holds them.  Caching them on
the base, for route two's start and for both routes, read 5.08 and 4.04
units.  Route two's peak (the second ``run_picard``, 4.84 units) is read
by a profile hook instead, as the wrapper would hold its ``start`` for the
whole call; a route two that keeps its ``start`` past the first step
reads 5.86 units.

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
import sys
import tracemalloc

import pytest

from maxreg_lab import cli, problems

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


def traced_peak(tmp_path, config, phases=None):
    """The exit code of a run of ``config`` and its peak traced memory.

    ``phases`` maps names of ``problems`` functions to lists: the peak is
    reset when each call of one starts, and the call's peak is appended to
    its list as a pair, measured above the memory traced when the run
    started and above the memory traced when the call started.  The run's
    peak then counts from the last such call only.  The wrapper holds the
    call's arguments until it returns, so a ``start`` given to
    ``run_picard`` would count as live throughout.
    """
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]

    def watched(name, call):
        def reset_around(*args, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return call(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                phases[name].append((peak - before, peak - start))

        return reset_around

    try:
        with pytest.MonkeyPatch.context() as patch:
            for name in phases or ():
                patch.setattr(problems, name, watched(name, getattr(problems, name)))
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


PHASE_BOUNDS = {
    # bound in units on the ``ns-exist`` case, per call
    "_sampled_constants": 4.0,
    "run_picard": 3.5,
}


def test_phase_peaks_in_trajectories(tmp_path):
    config, n, N, nodes, _ = CASES["ns-exist"]
    phases = {name: [] for name in PHASE_BOUNDS}
    code, _ = traced_peak(tmp_path, config, phases)
    assert code == 0
    for name, peaks in phases.items():
        peak = max(run for run, _ in peaks)
        assert peak / trajectory_bytes(n, N, nodes) <= PHASE_BOUNDS[name]


#: bound in units on the ``ns-unique`` case of the sampler's peak per call,
#: above the memory traced when the run started
NS_UNIQUE_SAMPLER_BOUND = 4.1
#: bound in units on the ``ns-unique`` case of the map's own peak per call,
#: above the memory traced when the call started
NS_UNIQUE_MAP_BOUND = 2.0


def test_ns_unique_phase_peaks_in_trajectories(tmp_path):
    config, n, N, nodes, _ = CASES["ns-unique"]
    phases = {"_sampled_constants": [], "ns_rhs_map": []}
    code, _ = traced_peak(tmp_path, config, phases)
    assert code == 0
    unit = trajectory_bytes(n, N, nodes)
    assert len(phases["_sampled_constants"]) == 1 and phases["ns_rhs_map"]
    assert phases["_sampled_constants"][0][0] / unit <= NS_UNIQUE_SAMPLER_BOUND
    assert max(own for _, own in phases["ns_rhs_map"]) / unit <= NS_UNIQUE_MAP_BOUND


#: bounds in units on the ``ns-unique`` case of the bootstrap's peak and of
#: route one's, above the memory traced when the run started
NS_UNIQUE_BOOTSTRAP_BOUNDS = {"uniqueness_bootstrap": 4.8, "run_picard": 3.8}


@pytest.mark.parametrize("name", sorted(NS_UNIQUE_BOOTSTRAP_BOUNDS))
def test_ns_unique_bootstrap_peaks_in_trajectories(tmp_path, name):
    config, n, N, nodes, _ = CASES["ns-unique"]
    phases = {name: []}
    code, _ = traced_peak(tmp_path, config, phases)
    assert code == 0
    # one bootstrap; two routes, of which the first is route one
    assert len(phases[name]) == (1 if name == "uniqueness_bootstrap" else 2)
    peak = phases[name][0][0]
    assert peak / trajectory_bytes(n, N, nodes) <= NS_UNIQUE_BOOTSTRAP_BOUNDS[name]


def hooked_peaks(tmp_path, config, function):
    """The exit code of a run of ``config`` and, for each call of
    ``function``, its peak traced memory above the memory traced when the
    run started.

    A ``sys.setprofile`` hook resets the peak when a call starts and reads
    it when the call returns.  Unlike the wrapper of :func:`traced_peak` it
    holds no reference to the call's arguments, so a ``start`` given to
    ``run_picard`` counts only while the call itself keeps it.
    """
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    target, peaks = function.__code__, []
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]

    def hook(frame, event, arg):
        if frame.f_code is target and event == "call":
            tracemalloc.reset_peak()
        elif frame.f_code is target and event == "return":
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    sys.setprofile(hook)
    try:
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    finally:
        sys.setprofile(None)
        if started:
            tracemalloc.stop()
    return code, peaks


#: bound in units on the ``ns-unique`` case of route two's peak (the second
#: ``run_picard``), above the memory traced when the run started
NS_UNIQUE_ROUTE_TWO_BOUND = 5.3


def test_ns_unique_route_two_peak_in_trajectories(tmp_path):
    config, n, N, nodes, _ = CASES["ns-unique"]
    code, peaks = hooked_peaks(tmp_path, config, problems.run_picard)
    assert code == 0 and len(peaks) == 2
    assert peaks[1] / trajectory_bytes(n, N, nodes) <= NS_UNIQUE_ROUTE_TWO_BOUND


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
