"""A real field is stored as its half spectrum; any other field in full.

The stored array's last axis says which layout a field has.  Conjugate
symmetry is checked once, when a full array enters a constructor; the
operators that map real fields to real fields keep the half spectrum, and
the others give a full-layout field with complex samples.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from maxreg_lab import (
    LinearProblem,
    MixedNormParams,
    NlheProblem,
    NsProblem,
    SpectralField,
    TorusGrid,
    Trajectory,
    apply_multiplier,
    constant_multiplier,
    de_simon_multiplier_solve,
    divergence,
    heat_extension,
    helmholtz_project,
    laplacian_multiplier,
    nlhe_rhs_map,
    ns_rhs_map,
    pointwise_power_nonlinearity,
    random_mean_free_field,
    sector_multiplier,
    solve_linear_duhamel,
    spatial_lq_norm,
    synthetic_forcing_ensemble,
    taylor_green_field,
    tensor_divergence,
    uniform_time_grid,
)
from maxreg_lab.norms import _node_spatial_norms, _parseval_l2


@pytest.fixture(params=["grid2d", "grid3d"])
def grid(request):
    return request.getfixturevalue(request.param)


def is_half(u):
    return u.spectrum.shape[-u.grid.dimension :] == u.grid.half_shape


def random_real_trajectory(grid, rng, components=1, nodes=3):
    fields = [
        SpectralField.from_physical(grid, rng.standard_normal((components,) + grid.shape))
        for _ in range(nodes)
    ]
    return Trajectory.from_fields(uniform_time_grid(1.0, nodes), fields)


@pytest.mark.parametrize(
    "grid", [TorusGrid(2, 64), TorusGrid(3, 16)], ids=["64^2", "16^3"]
)
def test_half_parseval_equals_quadrature(grid, rng):
    """``L^2`` by Parseval on the half spectrum counts the interior columns
    twice and the ``k = 0`` and Nyquist columns once."""
    u = random_real_trajectory(grid, rng, components=2)
    assert is_half(u)
    assert np.min(np.abs(u.spectrum[..., 0])) > 0  # k = 0 column
    assert np.min(np.abs(u.spectrum[..., -1])) > 0  # Nyquist column
    np.testing.assert_allclose(_parseval_l2(u.spectrum, grid), _node_spatial_norms(u, 2.0), rtol=1e-13)
    field = u.state(1)
    assert float(_parseval_l2(field.spectrum, grid)) == pytest.approx(spatial_lq_norm(field, 2.0), rel=1e-13)


class TestConstructorLayout:
    def test_hermitian_full_array_is_stored_half(self, grid, rng):
        values = rng.standard_normal((2, 1) + grid.shape)
        full = scipy.fft.fftn(values, axes=tuple(range(2, 2 + grid.dimension)), norm="forward")
        u = Trajectory(uniform_time_grid(1.0, 2), grid, full)
        assert u.spectrum.shape == (2, 1) + grid.half_shape
        np.testing.assert_allclose(u.coefficients, full, rtol=0, atol=1e-15)
        assert u.samples.dtype == np.float64
        np.testing.assert_allclose(u.samples, values, rtol=0, atol=1e-14)
        w = replace(u, coefficients=u.coefficients)
        assert np.array_equal(w.spectrum, u.spectrum)

    def test_non_hermitian_array_stays_full(self, grid, rng):
        coeff = rng.standard_normal((1,) + grid.shape) + 1j * rng.standard_normal((1,) + grid.shape)
        f = SpectralField(grid, coeff)
        assert f.spectrum.shape == (1,) + grid.shape
        assert np.array_equal(f.coefficients, coeff)
        assert np.iscomplexobj(f.samples)

    def test_coefficients_are_read_only(self, grid, rng):
        f = random_real_trajectory(grid, rng, nodes=2).state(0)
        with pytest.raises(ValueError):
            f.coefficients[(0,) * (grid.dimension + 1)] = 1.0


class TestMultiplierLayout:
    @pytest.mark.parametrize("op", [constant_multiplier(1j), sector_multiplier(0.4)], ids=["1j", "sector"])
    def test_non_conjugate_symmetric_symbol_promotes(self, grid, rng, op):
        f = random_real_trajectory(grid, rng, nodes=2).state(0)
        g = apply_multiplier(f, op)
        assert not is_half(g)
        assert np.iscomplexobj(g.samples)
        np.testing.assert_allclose(g.coefficients, f.coefficients * op.evaluate(grid)[np.newaxis], atol=1e-13)

    def test_real_even_symbol_keeps_half(self, grid, rng):
        f = random_real_trajectory(grid, rng, nodes=2).state(0)
        g = apply_multiplier(f, laplacian_multiplier())
        assert is_half(g)
        np.testing.assert_allclose(g.coefficients, f.coefficients * grid.xi_sq[np.newaxis], atol=1e-12)

    def test_trajectory_matches_each_state(self, grid, rng):
        """A symbol acts on every node of a trajectory as on each state alone."""
        u = random_real_trajectory(grid, rng, components=2)
        for op in (laplacian_multiplier(), sector_multiplier(0.4)):
            out = apply_multiplier(u, op)
            assert isinstance(out, Trajectory) and out.time_grid is u.time_grid
            for i in range(u.time_grid.num_nodes):
                expect = apply_multiplier(u.state(i), op)
                assert out.spectrum[i].shape == expect.spectrum.shape
                np.testing.assert_allclose(out.spectrum[i], expect.spectrum, rtol=1e-15, atol=0)

    def test_complex_scalar_promotes(self, grid, rng):
        u = random_real_trajectory(grid, rng)
        assert not is_half(u * 1j)
        assert is_half(u * 2.5)


class TestNyquistOddDerivatives:
    """``i xi`` is not conjugate symmetric on a Nyquist row of any axis, the
    last axis's Nyquist column included: an odd derivative of a real field
    with energy there is not real and is taken in full."""

    @pytest.fixture(params=["grid1d", "grid2d", "grid3d"])
    def any_grid(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def last_nyquist_field(grid, rng, components):
        """A real field with energy on the last axis's Nyquist column and
        none on the Nyquist rows of the other axes."""
        u = SpectralField.from_physical(grid, rng.standard_normal((components,) + grid.shape))
        half = u.spectrum.copy()
        for axis in range(1, grid.dimension):
            half[(slice(None),) * axis + (grid.points_per_axis // 2,)] = 0.0
        assert np.any(half[..., -1])
        return SpectralField(grid, half)

    def test_divergence_and_leray_match_full_layout(self, any_grid, rng):
        grid = any_grid
        n = grid.dimension
        u = self.last_nyquist_field(grid, rng, n)
        full = u.coefficients
        div = 1j * np.sum(grid.xi * full, axis=0)[np.newaxis]
        xi_sq = np.where(grid.xi_sq > 0, grid.xi_sq, 1.0)
        leray = full - grid.xi * (np.sum(grid.xi * full, axis=0) / xi_sq)[np.newaxis]
        axes = tuple(range(1, 1 + n))
        for out, expected in ((divergence(u), div), (helmholtz_project(u), leray)):
            np.testing.assert_allclose(out.coefficients, expected, rtol=0, atol=1e-12)
            physical = scipy.fft.ifftn(expected, axes=axes, norm="forward")
            np.testing.assert_allclose(out.samples, physical, rtol=0, atol=1e-12)


class TestOperatorsKeepHalf:
    @pytest.fixture
    def tg(self):
        return uniform_time_grid(0.5, 3)

    def test_linear_operations(self, grid, rng):
        u = random_real_trajectory(grid, rng)
        v = random_real_trajectory(grid, rng)
        assert all(is_half(w) for w in (u + v, u - v, -u, u * 0.5, 0.5 * u))

    @pytest.mark.parametrize("combine", [lambda u: u * 0.0, lambda u: u - u], ids=["times0", "minus_self"])
    def test_real_result_of_full_operands_has_real_samples(self, grid, rng, combine):
        """Full-layout operands whose result is real give a half-layout
        result, whose samples are real float64 and not the operands'."""
        shape = (3, 1) + grid.shape
        u = Trajectory(uniform_time_grid(1.0, 3), grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert not is_half(u) and np.iscomplexobj(u.samples)
        w = combine(u)
        assert is_half(w)
        assert w.samples.dtype == np.float64
        assert not np.any(w.samples)
        assert not np.any(pointwise_power_nonlinearity(w, 2.0).samples)

    def test_heat_extension_and_duhamel(self, grid, tg):
        u0 = random_mean_free_field(grid, seed=1, band_limit=2)
        a = heat_extension(u0, tg)
        assert is_half(u0) and is_half(a)
        u = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), a))
        assert is_half(u)

    def test_momentum_map_and_leray(self, grid, tg):
        params = MixedNormParams(p=4.0, q=4.0)
        ns = NsProblem(params=params, u0=taylor_green_field(grid) * 0.1, time_grid=tg)
        u = heat_extension(ns.u0, tg)
        assert is_half(helmholtz_project(tensor_divergence(u)))
        assert is_half(ns_rhs_map(u, ns))

    def test_power_map(self, grid, tg):
        params = MixedNormParams(p=4.0, q=4.0)
        u0 = random_mean_free_field(grid, seed=2, band_limit=2)
        nlhe = NlheProblem(nu=2.0, params=params, u0=u0, time_grid=tg)
        u = heat_extension(u0, tg)
        assert is_half(pointwise_power_nonlinearity(u, 2.0))
        assert is_half(nlhe_rhs_map(u, nlhe))


def dense_de_simon(forcing, pad_factor=4):
    """``A u`` for ``A = -Laplacian`` with every stored column of the forcing
    padded, transformed in time, multiplied by ``lam/(i tau + lam)`` and
    transformed back."""
    f = forcing.spectrum
    lam = forcing.grid.layout(f).xi_sq
    k1 = f.shape[0]
    n_pad = scipy.fft.next_fast_len(pad_factor * k1)
    h = float(forcing.time_grid.nodes[1] - forcing.time_grid.nodes[0])
    padded = np.zeros((n_pad,) + f.shape[1:], dtype=np.complex128)
    padded[:k1] = f
    tau = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=h)
    denom = 1j * tau.reshape((n_pad,) + (1,) * lam.ndim) + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        multiplier = np.where(lam == 0.0, 0.0, lam / denom)
    spectrum = scipy.fft.fft(padded, axis=0) * multiplier[:, np.newaxis]
    return scipy.fft.ifft(spectrum, axis=0)[:k1]


def test_de_simon_matches_dense_and_keeps_no_state(grid):
    """Transforming only the forcing's nonzero columns gives the dense
    result bit for bit, in the half layout, and stores nothing on the
    operator."""
    tg = uniform_time_grid(2.0, 17)
    op = laplacian_multiplier()
    before = dict(vars(op))
    for forcing in synthetic_forcing_ensemble(grid, tg, 2, seed=5):
        au = de_simon_multiplier_solve(LinearProblem(op, forcing))
        assert np.array_equal(au.spectrum, dense_de_simon(forcing))
        assert is_half(au)
    assert vars(op) == before


class TestDeSimonSupport:
    @pytest.fixture
    def tg(self):
        return uniform_time_grid(2.0, 17)

    def solve(self, forcing):
        return de_simon_multiplier_solve(LinearProblem(laplacian_multiplier(), forcing))

    def test_zero_forcing_gives_zeros(self, grid, tg):
        forcing = Trajectory(tg, grid, np.zeros((tg.num_nodes, 1) + grid.half_shape, dtype=complex))
        au = self.solve(forcing)
        assert au.spectrum.shape == forcing.spectrum.shape
        assert not np.any(au.spectrum)

    def test_mean_column_gives_zero(self, grid, rng, tg):
        """The ``k = 0`` column has ``lam = 0``: its solution is 0 there, and
        the other forced column is the dense one's."""
        coeff = np.zeros((tg.num_nodes, 1) + grid.half_shape, dtype=complex)
        mean = (0,) * grid.dimension
        mode = (0,) * (grid.dimension - 1) + (1,)
        coeff[(slice(None), 0) + mean] = rng.standard_normal(tg.num_nodes)
        coeff[(slice(None), 0) + mode] = rng.standard_normal(tg.num_nodes)
        forcing = Trajectory(tg, grid, coeff)
        au = self.solve(forcing)
        assert not np.any(au.spectrum[(slice(None), 0) + mean])
        assert np.any(au.spectrum[(slice(None), 0) + mode])
        assert np.array_equal(au.spectrum, dense_de_simon(forcing))

    def test_two_components_use_their_own_columns(self, grid, tg):
        first, second = synthetic_forcing_ensemble(grid, tg, 2, seed=7)
        forcing = Trajectory(tg, grid, np.concatenate([first.spectrum, second.spectrum], axis=1))
        au = self.solve(forcing)
        assert au.components == 2
        assert np.array_equal(au.spectrum, dense_de_simon(forcing))
