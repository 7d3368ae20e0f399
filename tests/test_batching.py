"""The stacked operators act on a trajectory exactly as on each of its nodes."""

import numpy as np
import pytest

from maxreg_lab import (
    SpectralField,
    TorusGrid,
    Trajectory,
    dealias,
    divergence,
    fractional_laplacian_apply,
    gradient,
    heat_semigroup_apply,
    helmholtz_project,
    pointwise_power_nonlinearity,
    spatial_lq_norm,
    tensor_divergence,
    uniform_time_grid,
)
from maxreg_lab.norms import _node_spatial_norms


def random_trajectory(grid, rng, components, mean_free=False):
    time_grid = uniform_time_grid(1.0, 3)
    spatial = tuple(range(1, grid.dimension + 1))
    fields = []
    for _ in range(time_grid.num_nodes):
        values = rng.standard_normal((components,) + grid.shape)
        if mean_free:
            values -= values.mean(axis=spatial, keepdims=True)
        fields.append(SpectralField.from_physical(grid, values))
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

    def test_scalar_operators(self, grid, rng):
        u = random_trajectory(grid, rng, 1)
        assert_nodewise(lambda a: heat_semigroup_apply(a, 0.3), u)
        assert_nodewise(gradient, u)
        assert_nodewise(dealias, random_trajectory(grid, rng, grid.dimension))

    @pytest.mark.parametrize("s", [0.0, 0.5, -0.5])
    def test_fractional_laplacian(self, grid, rng, s):
        u = random_trajectory(grid, rng, 1, mean_free=True)
        assert u.is_mean_free()
        assert_nodewise(lambda a: fractional_laplacian_apply(a, s), u)

    def test_negative_power_needs_every_node_mean_free(self, grid, rng):
        u = random_trajectory(grid, rng, 1, mean_free=True)
        coefficients = u.coefficients.copy()
        coefficients[1, (0,) * (grid.dimension + 1)] = 0.3
        shifted = Trajectory(u.time_grid, grid, coefficients)
        assert not shifted.is_mean_free()
        with pytest.raises(ValueError, match="mean-free"):
            fractional_laplacian_apply(shifted, -0.5)

    @pytest.mark.parametrize("variant", ["signed", "unsigned"])
    def test_pointwise_power(self, grid, rng, variant):
        u = random_trajectory(grid, rng, 1)
        assert_nodewise(lambda a: pointwise_power_nonlinearity(a, 2.5, variant), u)

    @pytest.mark.parametrize("q", [2.0, 3.0, np.inf])
    def test_nodewise_norm(self, grid, rng, q):
        u = random_trajectory(grid, rng, grid.dimension)
        expected = [spatial_lq_norm(u.state(i), q) for i in range(u.time_grid.num_nodes)]
        assert np.array_equal(_node_spatial_norms(u, q), expected)


class TestSharedConstructor:
    """The field and the trajectory check their coefficients in one place."""

    def test_trajectory_with_wrong_node_count(self, grid2d):
        with pytest.raises(ValueError, match=r"incompatible with \(3,\) \+ grid shape"):
            Trajectory(uniform_time_grid(1.0, 3), grid2d, np.zeros((4, 1) + grid2d.shape))

    def test_field_with_wrong_spatial_shape(self, grid2d):
        with pytest.raises(ValueError, match=r"incompatible with \(\) \+ grid shape"):
            SpectralField(grid2d, np.zeros((1, 16, 15)))

    def test_sum_on_different_time_nodes(self, grid2d):
        a = Trajectory.zeros(uniform_time_grid(1.0, 3), grid2d)
        b = Trajectory.zeros(uniform_time_grid(2.0, 3), grid2d)
        with pytest.raises(ValueError, match="different grids"):
            _ = a + b

    def test_component_axis_is_optional(self, grid2d, rng):
        coefficients = rng.standard_normal((3,) + grid2d.shape) + 0j
        u = Trajectory(uniform_time_grid(1.0, 3), grid2d, coefficients)
        assert u.components == 1
        assert SpectralField(grid2d, coefficients[0]).components == 1
        assert np.array_equal(u.coefficients[:, 0], coefficients)


@pytest.mark.parametrize("shape", [(33, 3, 16), (65, 2, 64)], ids=["33x3x16^3", "65x2x64^2"])
@pytest.mark.parametrize("q", [3.0, 4.0])
def test_nodewise_norm_on_long_stacks(rng, shape, q):
    """On long stacks the stacked and per-node norms agree to rounding only.

    ``_lq_magnitude`` ends in ``** (1/q)``: numpy's array ``pow`` on a stack,
    the scalar ``pow`` on one field.  The two differ by one ulp at some
    nodes, which the 3-node stacks above happen not to hit.
    """
    nodes, components, points = shape
    grid = TorusGrid(dimension=components, points_per_axis=points)
    coefficients = rng.standard_normal((nodes, components) + grid.shape) + 0j
    u = Trajectory(uniform_time_grid(1.0, nodes), grid, coefficients)
    expected = [spatial_lq_norm(u.state(i), q) for i in range(nodes)]
    np.testing.assert_allclose(_node_spatial_norms(u, q), expected, rtol=1e-15, atol=0)
