"""Every field is real and stores its half spectrum.

A constructor refuses a full FFT array and ``from_physical`` complex
samples; a symbol that is not real and even, and a complex scalar, are
refused too, each with its cause named.  The odd derivatives take the
Nyquist wavenumber as 0, so they map real fields to real fields.
"""

import numpy as np
import pytest
import scipy.fft

from maxreg_lab import (
    FourierMultiplier,
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


def sector_multiplier(theta):
    """The rotated Laplacian ``|xi|**2 exp(i theta)``: complex, so not real."""
    return FourierMultiplier(lambda xi: np.sum(xi**2, axis=0) * np.exp(1j * theta), "sector")


class TestConstructorLayout:
    def test_full_array_rejected(self, grid, rng):
        """The full FFT array of a real field is refused: the half spectrum
        is the one layout."""
        values = rng.standard_normal((2, 1) + grid.shape)
        full = scipy.fft.fftn(values, axes=tuple(range(2, 2 + grid.dimension)), norm="forward")
        with pytest.raises(ValueError, match="a full FFT array"):
            Trajectory(uniform_time_grid(1.0, 2), grid, full)
        with pytest.raises(ValueError, match="a full FFT array"):
            SpectralField(grid, full[0])
        u = Trajectory(uniform_time_grid(1.0, 2), grid, full[..., : grid.points_per_axis // 2 + 1])
        assert u.samples.dtype == np.float64
        np.testing.assert_allclose(u.samples, values, rtol=0, atol=1e-14)

    def test_complex_samples_rejected(self, grid, rng):
        values = rng.standard_normal((1,) + grid.shape) + 1j * rng.standard_normal((1,) + grid.shape)
        with pytest.raises(ValueError, match="complex samples"):
            SpectralField.from_physical(grid, values)

    def test_spectrum_is_the_given_array(self, grid, rng):
        f = random_real_trajectory(grid, rng, nodes=2).state(0)
        assert SpectralField(grid, f.spectrum).spectrum is f.spectrum


class TestMultiplierLayout:
    @pytest.mark.parametrize(
        "op, cause",
        [
            (constant_multiplier(1j), "not real"),
            (sector_multiplier(0.4), "not real"),
            (FourierMultiplier(lambda xi: xi[-1] ** 3 + 1.0, "odd"), "not even"),
        ],
        ids=["1j", "sector", "odd"],
    )
    def test_symbol_that_breaks_reality_rejected(self, grid, rng, op, cause):
        """A symbol that is not real and even would not keep a real field
        real: ``apply_multiplier`` and the Duhamel solve refuse it, with
        its cause named."""
        u = random_real_trajectory(grid, rng, nodes=2)
        with pytest.raises(ValueError, match=cause):
            apply_multiplier(u.state(0), op)
        with pytest.raises(ValueError, match=cause):
            apply_multiplier(u, op)
        with pytest.raises(ValueError, match=cause):
            solve_linear_duhamel(LinearProblem(op, u))

    def test_real_even_symbol_keeps_half(self, grid, rng):
        f = random_real_trajectory(grid, rng, nodes=2).state(0)
        g = apply_multiplier(f, laplacian_multiplier())
        np.testing.assert_allclose(g.spectrum, f.spectrum * grid.layout.xi_sq[np.newaxis], atol=1e-12)

    def test_trajectory_matches_each_state(self, grid, rng):
        """A symbol acts on every node of a trajectory as on each state alone."""
        u = random_real_trajectory(grid, rng, components=2)
        for op in (laplacian_multiplier(), constant_multiplier(-0.5)):
            out = apply_multiplier(u, op)
            assert isinstance(out, Trajectory) and out.time_grid is u.time_grid
            for i in range(u.time_grid.num_nodes):
                expect = apply_multiplier(u.state(i), op)
                np.testing.assert_allclose(out.spectrum[i], expect.spectrum, rtol=1e-15, atol=0)

    def test_complex_scalar_rejected(self, grid, rng):
        u = random_real_trajectory(grid, rng)
        for scale in (1j, 2.0 + 0j):
            with pytest.raises(ValueError, match="is not real"):
                _ = u * scale
            with pytest.raises(ValueError, match="is not real"):
                _ = scale * u
        assert is_half(u * 2.5)


def dense_derivatives(full, grid):
    """Divergence and Leray projection of the full FFT array ``full`` with
    the wavevectors' Nyquist entries set to 0, in full."""
    N = grid.points_per_axis
    k = grid.wavenumbers.copy()
    k[N // 2] = 0.0
    xi = np.stack(np.meshgrid(*([k] * grid.dimension), indexing="ij"))
    xi_sq = np.sum(xi**2, axis=0)
    xi_dot = np.sum(xi * full, axis=0)
    leray = full - xi * (xi_dot / np.where(xi_sq > 0, xi_sq, 1.0))[np.newaxis]
    return 1j * xi_dot[np.newaxis], leray


class TestNyquistOddDerivatives:
    """On a Nyquist row of any axis, the last axis's Nyquist column included,
    the wavenumbers ``N/2`` and ``-N/2`` meet; the odd derivatives take it as
    0, so they map a real field with energy only there to a real field."""

    @staticmethod
    def nyquist_field(grid, rng, axis):
        """A real field whose energy lies only on the Nyquist row of ``axis``."""
        N = grid.points_per_axis
        values = rng.standard_normal((grid.dimension,) + grid.shape)
        full = scipy.fft.fftn(values, axes=tuple(range(1, 1 + grid.dimension)), norm="forward")
        row = np.zeros(grid.shape, dtype=bool)
        row[(slice(None),) * axis + (N // 2,)] = True
        full *= row
        return full, SpectralField(grid, full[..., : N // 2 + 1])

    def test_divergence_and_leray_match_dense_reference(self, grid, rng):
        axes = tuple(range(1, 1 + grid.dimension))
        N = grid.points_per_axis
        for axis in range(grid.dimension):  # the last one is the Nyquist column
            full, u = self.nyquist_field(grid, rng, axis)
            assert np.any(u.spectrum)
            div, leray = dense_derivatives(full, grid)
            for out, expected in ((divergence(u), div), (helmholtz_project(u), leray)):
                assert is_half(out)
                np.testing.assert_allclose(out.spectrum, expected[..., : N // 2 + 1], rtol=0, atol=1e-12)
                physical = scipy.fft.ifftn(expected, axes=axes, norm="forward")
                assert np.max(np.abs(physical.imag)) <= 1e-12  # the dense reference is real
                assert out.samples.dtype == np.float64
                np.testing.assert_allclose(out.samples, physical.real, rtol=0, atol=1e-12)

    def test_leray_projection_is_divergence_free_there(self, grid, rng):
        for axis in range(grid.dimension):
            _, u = self.nyquist_field(grid, rng, axis)
            assert np.max(np.abs(divergence(helmholtz_project(u)).spectrum)) <= 1e-12


class TestOperatorsKeepHalf:
    @pytest.fixture
    def tg(self):
        return uniform_time_grid(0.5, 3)

    def test_linear_operations(self, grid, rng):
        u = random_real_trajectory(grid, rng)
        v = random_real_trajectory(grid, rng)
        assert all(is_half(w) for w in (u + v, u - v, -u, u * 0.5, 0.5 * u))

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
    lam = forcing.grid.layout.xi_sq
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
