"""The stacked operators act on a trajectory exactly as on each of its nodes."""

import operator

import numpy as np
import pytest

from maxreg_lab import (
    SpectralField,
    TorusGrid,
    Trajectory,
    apply_multiplier,
    constant_multiplier,
    divergence,
    heat_extension,
    heat_semigroup_apply,
    helmholtz_project,
    laplacian_multiplier,
    momentum_forcing,
    pointwise_power_nonlinearity,
    random_mean_free_field,
    resolvent_scalar_multiplier,
    sector_multiplier,
    spatial_lq_norm,
    tensor_divergence,
    uniform_time_grid,
)
from maxreg_lab import spectral
from maxreg_lab.norms import _node_spatial_norms
from test_picard_step import gather_tensor_divergence


def random_trajectory(grid, rng, components, mean_free=False, nodes=3):
    time_grid = uniform_time_grid(1.0, nodes)
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
        assert_nodewise(divergence, u)
        assert_nodewise(helmholtz_project, u)
        assert_nodewise(tensor_divergence, u)

    def test_scalar_operators(self, grid, rng):
        u = random_trajectory(grid, rng, 1)
        assert_nodewise(lambda a: heat_semigroup_apply(a, 0.3), u)

    @pytest.mark.parametrize(
        "op",
        [
            laplacian_multiplier(),
            sector_multiplier(0.4),
            constant_multiplier(2.5),
            resolvent_scalar_multiplier(1.5),
        ],
        ids=["laplacian", "sector", "constant", "resolvent"],
    )
    def test_multiplier(self, grid, rng, op):
        u = random_trajectory(grid, rng, 2)
        assert_nodewise(lambda a: apply_multiplier(a, op), u)

    def test_mean_free_check_sees_every_node(self, grid, rng):
        """A trajectory is mean-free only if each of its nodes is."""
        u = random_trajectory(grid, rng, 1, mean_free=True)
        assert u.is_mean_free()
        assert all(u.state(i).is_mean_free() for i in range(u.time_grid.num_nodes))
        coefficients = u.coefficients.copy()
        coefficients[1, (0,) * (grid.dimension + 1)] = 0.3
        shifted = Trajectory(u.time_grid, grid, coefficients)
        assert not shifted.is_mean_free()
        assert [shifted.state(i).is_mean_free() for i in range(3)] == [True, False, True]

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

    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.iadd, operator.isub],
        ids=["add", "sub", "iadd", "isub"],
    )
    @pytest.mark.parametrize("field_first", [False, True], ids=["traj-field", "field-traj"])
    def test_field_and_trajectory_do_not_mix(self, grid, rng, op, field_first):
        """A field and a trajectory, in either order, are refused before
        any arithmetic: the left operand is left as it was."""
        traj = random_trajectory(grid, rng, grid.dimension)
        field = traj.state(0)
        left, right = (field, traj) if field_first else (traj, field)
        before = left.spectrum.copy()
        with pytest.raises(ValueError, match="different grids"):
            op(left, right)
        assert np.array_equal(left.spectrum, before)

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


# -- node blocks of the nonlinear maps ---------------------------------

BLOCK = spectral._NODE_BLOCK
#: a trajectory has at least two nodes; a single field, the one-node case,
#: is each per-node reference
NODE_COUNTS = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]

MAPS = {
    # (components: vector or scalar, map)
    "momentum_forcing": ("vector", momentum_forcing),
    "tensor_divergence-uu": ("vector", tensor_divergence),
    "power-signed": ("scalar", lambda u: pointwise_power_nonlinearity(u, 2.5, "signed")),
    "power-unsigned": ("scalar", lambda u: pointwise_power_nonlinearity(u, 3.0, "unsigned")),
}


def map_operand(grid, rng, kind, nodes, band_limited):
    """A real trajectory of ``nodes`` nodes: random samples at every node
    (the masked transform path) or a heat flow inside the dealias mask (the
    cached samples path)."""
    components = grid.dimension if kind == "vector" else 1
    if not band_limited:
        return random_trajectory(grid, rng, components, nodes=nodes)
    u0 = random_mean_free_field(
        grid, seed=3, components=components, band_limit=2, divergence_free=kind == "vector"
    )
    return heat_extension(u0, uniform_time_grid(0.5, nodes))


@pytest.mark.parametrize("band_limited", [False, True], ids=["rough", "band-limited"])
@pytest.mark.parametrize("nodes", NODE_COUNTS)
@pytest.mark.parametrize("name", sorted(MAPS))
def test_maps_equal_their_nodes_at_every_block_count(grid, rng, name, nodes, band_limited):
    """Each map of a trajectory equals the map of each of its nodes (a
    single field, which has no node axis), stacked, bit for bit, whether
    the nodes fill their last block or not."""
    kind, op = MAPS[name]
    assert_nodewise(op, map_operand(grid, rng, kind, nodes, band_limited))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_maps_do_not_depend_on_the_block_size(grid3d, rng, name, monkeypatch):
    """One node per block, or every node in one block, gives the bits of
    the module's block size."""
    kind, op = MAPS[name]
    u = map_operand(grid3d, rng, kind, 2 * BLOCK + 3, band_limited=False)
    want = op(u).spectrum
    for size in (1, 4 * BLOCK):
        monkeypatch.setattr(spectral, "_NODE_BLOCK", size)
        assert np.array_equal(op(u).spectrum, want)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_maps_hold_no_whole_trajectory_product_stack(grid3d, rng, name, monkeypatch):
    """Every product stack a map transforms holds at most one block of nodes."""
    kind, op = MAPS[name]
    u = map_operand(grid3d, rng, kind, 2 * BLOCK + 3, band_limited=False)
    sizes = []
    forward = spectral._fourier_coefficients

    def watched(values, grid):
        sizes.append(values.shape[0])
        return forward(values, grid)

    monkeypatch.setattr(spectral, "_fourier_coefficients", watched)
    op(u)
    assert sizes == [BLOCK, BLOCK, 3]


@pytest.mark.parametrize("band_limited", [False, True], ids=["rough", "band-limited"])
@pytest.mark.parametrize("nodes", NODE_COUNTS)
def test_tensor_divergence_matches_all_pairs_at_every_block_count(grid, rng, nodes, band_limited):
    """The ``n(n+1)/2`` products ``u_i u_j``, ``i <= j``, each standing for
    ``u_j u_i`` too, give the divergence of all ``n**2`` products, whether
    the nodes fill their last block or not."""
    u = map_operand(grid, rng, "vector", nodes, band_limited)
    expected = gather_tensor_divergence(u, u)
    out = tensor_divergence(u).spectrum
    assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))
