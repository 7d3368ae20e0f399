"""The stacked operators act on a trajectory exactly as on each of its nodes."""

import numpy as np
import pytest

from maxreg_lab import (
    SpectralField,
    Trajectory,
    divergence,
    helmholtz_project,
    pointwise_power_nonlinearity,
    spatial_lq_norm,
    tensor_divergence,
    uniform_time_grid,
)
from maxreg_lab.norms import _node_spatial_norms


def random_trajectory(grid, rng, components):
    time_grid = uniform_time_grid(1.0, 3)
    fields = [
        SpectralField.from_physical(grid, rng.standard_normal((components,) + grid.shape))
        for _ in range(time_grid.num_nodes)
    ]
    return Trajectory.from_fields(time_grid, fields)


def assert_nodewise(op, *trajs):
    """``op`` on the stack equals ``op`` on every node, bit for bit."""
    batched = op(*trajs)
    assert isinstance(batched, Trajectory)
    nodes = [op(*(t.state(i) for t in trajs)) for i in range(trajs[0].time_grid.num_nodes)]
    assert all(isinstance(f, SpectralField) for f in nodes)
    assert np.array_equal(batched.coefficients, np.stack([f.coefficients for f in nodes]))


@pytest.fixture(params=["grid2d", "grid3d"])
def grid(request):
    return request.getfixturevalue(request.param)


class TestStackedOperators:
    def test_vector_operators(self, grid, rng):
        u = random_trajectory(grid, rng, grid.dimension)
        v = random_trajectory(grid, rng, grid.dimension)
        assert_nodewise(divergence, u)
        assert_nodewise(helmholtz_project, u)
        assert_nodewise(lambda a: tensor_divergence(a, a), u)
        assert_nodewise(tensor_divergence, u, v)

    @pytest.mark.parametrize("variant", ["signed", "unsigned"])
    def test_pointwise_power(self, grid, rng, variant):
        u = random_trajectory(grid, rng, 1)
        assert_nodewise(lambda a: pointwise_power_nonlinearity(a, 2.5, variant), u)

    @pytest.mark.parametrize("q", [2.0, 3.0, np.inf])
    def test_nodewise_norm(self, grid, rng, q):
        u = random_trajectory(grid, rng, grid.dimension)
        expected = [spatial_lq_norm(u.state(i), q) for i in range(u.time_grid.num_nodes)]
        assert np.array_equal(_node_spatial_norms(u, q), expected)
