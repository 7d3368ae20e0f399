"""Tests for the torus grid, spectral fields and Fourier multipliers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg_lab import (
    FourierMultiplier,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    constant_multiplier,
    divergence,
    heat_semigroup_apply,
    helmholtz_project,
    laplacian_multiplier,
    pointwise_power_nonlinearity,
    random_mean_free_field,
    resolvent_scalar_multiplier,
    sector_multiplier,
    spatial_lq_norm,
    tensor_divergence,
)


def random_real_field(grid, rng, components=1):
    return SpectralField.from_physical(
        grid, rng.standard_normal((components,) + grid.shape)
    )


class TestTorusGrid:
    def test_rejects_non_power_of_two(self):
        """Point counts must be powers of two for clean FFT semantics."""
        with pytest.raises(ValueError, match="power of two"):
            TorusGrid(dimension=2, points_per_axis=12)

    def test_rejects_tiny_grid(self):
        """Fewer than four points per axis cannot carry a dealias band."""
        with pytest.raises(ValueError, match="at least 4"):
            TorusGrid(dimension=1, points_per_axis=2)

    def test_rejects_bad_dimension_and_period(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            TorusGrid(dimension=0, points_per_axis=8)
        with pytest.raises(ValueError, match="period must be positive"):
            TorusGrid(dimension=1, points_per_axis=8, period=-1.0)

    def test_wavenumbers_match_fft_convention(self, grid1d):
        """xi_k = 2 pi k / L in standard FFT ordering."""
        expect = 2 * np.pi * np.fft.fftfreq(16, d=grid1d.period / 16)
        np.testing.assert_allclose(grid1d.wavenumbers, expect)
        assert grid1d.wavenumbers[1] == pytest.approx(1.0)  # L = 2 pi

    def test_laplacian_spectrum_sorted_nonnegative(self, grid2d):
        lam = grid2d.laplacian_spectrum
        assert lam[0] == 0.0
        assert np.all(np.diff(lam) > 0)
        # second eigenvalue of -Laplacian on the 2-pi torus is 1
        assert lam[1] == pytest.approx(1.0)

    def test_dealias_mask_keeps_low_modes_only(self, grid1d):
        """The 2/3 rule keeps |k| < N/3 and drops the rest."""
        mask = grid1d.dealias_mask
        k = np.fft.fftfreq(16, d=1 / 16)
        np.testing.assert_array_equal(mask, np.abs(k) < 16 / 3)

    def test_cell_and_total_volume(self):
        g = TorusGrid(dimension=2, points_per_axis=8, period=4.0)
        assert g.volume == pytest.approx(16.0)
        assert g.cell_volume == pytest.approx(16.0 / 64)

    def test_coordinates_cover_half_open_period(self, grid2d):
        x = grid2d.coordinates
        assert x.shape == (2, 16, 16)
        assert x.min() == 0.0
        assert x.max() < grid2d.period


class TestSpectralField:
    def test_physical_roundtrip(self, grid2d, rng):
        """from_physical followed by to_physical is the identity."""
        values = rng.standard_normal((1,) + grid2d.shape)
        f = SpectralField.from_physical(grid2d, values)
        np.testing.assert_allclose(f.to_physical(), values, atol=1e-12)

    def test_normalized_coefficient_convention(self, grid1d):
        """A plain cosine has two coefficients of exactly 1/2."""
        x = grid1d.coordinates[0]
        f = SpectralField.from_physical(grid1d, np.cos(x)[np.newaxis])
        c = f.coefficients[0]
        assert c[1] == pytest.approx(0.5)
        assert c[-1] == pytest.approx(0.5)
        assert np.sum(np.abs(c)) == pytest.approx(1.0)

    def test_mean_free_detection(self, grid1d):
        coeff = np.zeros((1, 16), dtype=complex)
        coeff[0, 0] = 0.3
        assert not SpectralField(grid1d, coeff).is_mean_free()
        coeff[0, 0] = 0.0
        coeff[0, 2] = coeff[0, -2] = 0.5
        assert SpectralField(grid1d, coeff).is_mean_free()

    def test_broken_symmetry_gives_complex_samples(self, grid1d):
        """A lone positive-frequency mode is not a real field: its samples
        are the complex exponential ``exp(3ix)``."""
        coeff = np.zeros((1, 16), dtype=complex)
        coeff[0, 3] = 1.0
        values = SpectralField(grid1d, coeff).to_physical()
        assert np.iscomplexobj(values)
        x = grid1d.coordinates[0]
        np.testing.assert_allclose(values[0], np.exp(3j * x), atol=1e-13)

    def test_arithmetic_matches_physical_space(self, grid2d, rng):
        f = random_real_field(grid2d, rng)
        g = random_real_field(grid2d, rng)
        lhs = (f + g - f * 0.5).to_physical()
        rhs = f.to_physical() * 0.5 + g.to_physical()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_incompatible_fields_raise(self, grid1d, grid2d, rng):
        f = random_real_field(grid1d, rng)
        g = random_real_field(grid2d, rng)
        with pytest.raises(ValueError, match="different grids or component counts"):
            _ = f + g

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_parseval_identity(self, seed):
        """L2 norm equals L^{n/2} times the coefficient 2-norm for any field."""
        grid = TorusGrid(dimension=2, points_per_axis=8)
        rng = np.random.default_rng(seed)
        f = random_real_field(grid, rng)
        lhs = spatial_lq_norm(f, 2)
        rhs = grid.period * np.linalg.norm(f.coefficients)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestMultipliers:
    def test_identity_leaves_field_alone(self, grid2d, rng):
        f = random_real_field(grid2d, rng)
        g = apply_multiplier(f, constant_multiplier(1.0))
        np.testing.assert_array_equal(f.coefficients, g.coefficients)

    def test_laplacian_symbol_on_single_mode(self, grid2d):
        """-Laplacian multiplies mode (1, 2) by 1 + 4 = 5."""
        coeff = np.zeros((1,) + grid2d.shape, dtype=complex)
        coeff[0, 1, 2] = 1.0
        coeff[0, -1, -2] = 1.0
        f = SpectralField(grid2d, coeff)
        g = apply_multiplier(f, laplacian_multiplier())
        np.testing.assert_allclose(g.coefficients, 5.0 * coeff)

    def test_heat_multiplier_zero_time_is_identity(self, grid2d, rng):
        f = random_real_field(grid2d, rng)
        g = heat_semigroup_apply(f, 0.0)
        np.testing.assert_allclose(g.coefficients, f.coefficients)

    def test_heat_decay_rate_per_mode(self, grid1d):
        """e^{-t(-Laplacian)} damps mode k by exp(-k^2 t)."""
        coeff = np.zeros((1, 16), dtype=complex)
        coeff[0, 3] = coeff[0, -3] = 0.5
        f = SpectralField(grid1d, coeff)
        g = heat_semigroup_apply(f, 0.25)
        np.testing.assert_allclose(
            g.coefficients, coeff * np.exp(-9 * 0.25), atol=1e-15
        )

    def test_heat_semigroup_property(self, grid2d, rng):
        """e^{t Laplacian} e^{s Laplacian} = e^{(t+s) Laplacian}."""
        f = random_real_field(grid2d, rng)
        twice = heat_semigroup_apply(heat_semigroup_apply(f, 0.2), 0.3)
        once = heat_semigroup_apply(f, 0.5)
        np.testing.assert_allclose(twice.coefficients, once.coefficients, rtol=0, atol=1e-15)

    def test_negative_heat_time_rejected(self, grid1d, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            heat_semigroup_apply(random_real_field(grid1d, rng), -0.1)

    def test_sector_multiplier_rotates_symbol(self, grid1d):
        theta = 0.3
        sym = sector_multiplier(theta).evaluate(grid1d)
        np.testing.assert_allclose(sym, grid1d.xi_sq * np.exp(1j * theta))

    def test_constant_multiplier_scales(self, grid2d, rng):
        f = random_real_field(grid2d, rng)
        g = apply_multiplier(f, constant_multiplier(2.5))
        np.testing.assert_allclose(g.coefficients, 2.5 * f.coefficients)

    def test_resolvent_inverts_shifted_laplacian(self, grid2d, rng):
        """``w = i sigma (i sigma + A)^{-1} f`` solves ``i sigma w + A w = i sigma f``."""
        sigma = 1.5
        f = random_real_field(grid2d, rng)
        w = apply_multiplier(f, resolvent_scalar_multiplier(sigma))
        lhs = w * (1j * sigma) + apply_multiplier(w, laplacian_multiplier())
        np.testing.assert_allclose(lhs.coefficients, 1j * sigma * f.coefficients, atol=1e-13)

    def test_matrix_symbol_rejected(self, grid2d, rng):
        """Symbols are scalar: an ``(m, m)`` matrix symbol does not match the grid."""
        f = random_real_field(grid2d, rng, components=2)
        matrix = FourierMultiplier(lambda xi: np.stack([xi, xi]), "matrix")
        with pytest.raises(ValueError, match="does not match grid shape"):
            apply_multiplier(f, matrix)

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_multiplier_linearity(self, a, b):
        """Multipliers act linearly on fields."""
        grid = TorusGrid(dimension=1, points_per_axis=8)
        rng = np.random.default_rng(99)
        f = random_real_field(grid, rng)
        g = random_real_field(grid, rng)
        op = laplacian_multiplier()
        lhs = apply_multiplier(f * a + g * b, op)
        rhs = apply_multiplier(f, op) * a + apply_multiplier(g, op) * b
        np.testing.assert_allclose(lhs.coefficients, rhs.coefficients, atol=1e-10)


class TestVectorCalculus:
    def test_divergence_needs_matching_components(self, grid2d, rng):
        with pytest.raises(ValueError, match="one component per dimension"):
            divergence(random_real_field(grid2d, rng, components=3))

    def test_divergence_of_sine_field_is_cosine(self, grid2d):
        """div (sin x, sin 2y) = cos x + 2 cos 2y."""
        x, y = grid2d.coordinates
        u = SpectralField.from_physical(grid2d, np.stack([np.sin(x), np.sin(2 * y)]))
        np.testing.assert_allclose(
            divergence(u).to_physical()[0], np.cos(x) + 2 * np.cos(2 * y), atol=1e-12
        )

    def test_gradient_field_projects_to_zero(self, grid2d):
        """For ``phi = sin x cos 2y`` the field ``grad phi`` has divergence
        ``Laplacian phi = -5 phi`` and no divergence-free part."""
        x, y = grid2d.coordinates
        phi = np.sin(x) * np.cos(2 * y)
        grad = np.stack([np.cos(x) * np.cos(2 * y), -2 * np.sin(x) * np.sin(2 * y)])
        u = SpectralField.from_physical(grid2d, grad)
        np.testing.assert_allclose(divergence(u).to_physical()[0], -5 * phi, atol=1e-12)
        assert np.max(np.abs(helmholtz_project(u).coefficients)) < 1e-14

    def test_helmholtz_output_is_divergence_free(self, grid2d, rng):
        u = helmholtz_project(random_real_field(grid2d, rng, components=2))
        div = divergence(u)
        assert np.max(np.abs(div.coefficients)) < 1e-12

    def test_helmholtz_is_idempotent(self, grid2d, rng):
        u = random_real_field(grid2d, rng, components=2)
        once = helmholtz_project(u)
        twice = helmholtz_project(once)
        np.testing.assert_allclose(once.coefficients, twice.coefficients, atol=1e-13)

    def test_helmholtz_plus_gradient_recovers_field(self, grid2d, rng):
        """Leray projection and a gradient part decompose the field."""
        u = random_real_field(grid2d, rng, components=2)
        sol = helmholtz_project(u)
        residual = u - sol
        # the remainder is curl-free: in 2-D, d_x r_y - d_y r_x = 0
        rx, ry = residual.coefficients
        curl = 1j * (grid2d.xi[0] * ry - grid2d.xi[1] * rx)
        assert np.max(np.abs(curl)) < 1e-12

    def test_helmholtz_dimension_check(self, grid2d, rng):
        with pytest.raises(ValueError, match="projection needs 2 components"):
            helmholtz_project(random_real_field(grid2d, rng, components=1))


class TestNonlinearities:
    def test_quadratic_power_of_band_limited_field_is_exact(self, grid1d):
        """u -> u|u| on a nonnegative low mode equals the physical square."""
        x = grid1d.coordinates[0]
        u_phys = 1.5 + np.cos(x)  # strictly positive, modes 0 and 1
        u = SpectralField.from_physical(grid1d, u_phys[np.newaxis])
        w = pointwise_power_nonlinearity(u, 2.0, variant="signed")
        np.testing.assert_allclose(
            w.to_physical()[0], u_phys**2, atol=1e-12
        )

    # band_limit 5 keeps the field inside the 2/3 mask |k| < 16/3 of grid2d
    def test_signed_variant_is_odd(self, grid2d):
        u = random_mean_free_field(grid2d, seed=1, band_limit=5)
        w_pos = pointwise_power_nonlinearity(u, 1.5, variant="signed")
        w_neg = pointwise_power_nonlinearity(-u, 1.5, variant="signed")
        np.testing.assert_allclose(
            w_neg.coefficients, -w_pos.coefficients, atol=1e-12
        )

    def test_unsigned_variant_is_even(self, grid2d):
        u = random_mean_free_field(grid2d, seed=2, band_limit=5)
        w_pos = pointwise_power_nonlinearity(u, 1.5, variant="unsigned")
        w_neg = pointwise_power_nonlinearity(-u, 1.5, variant="unsigned")
        np.testing.assert_allclose(w_neg.coefficients, w_pos.coefficients, atol=1e-12)

    def test_power_homogeneity(self, grid2d):
        """F(c u) = c^nu F(u) for c > 0: exact degree-nu homogeneity."""
        u = random_mean_free_field(grid2d, seed=3, band_limit=5)
        w1 = pointwise_power_nonlinearity(u * 3.0, 2.0)
        w2 = pointwise_power_nonlinearity(u, 2.0) * 9.0
        np.testing.assert_allclose(w1.coefficients, w2.coefficients, rtol=1e-12)

    def test_rejects_bad_exponent_and_variant(self, grid1d, rng):
        u = random_real_field(grid1d, rng)
        with pytest.raises(ValueError, match="nu must exceed 1"):
            pointwise_power_nonlinearity(u, 1.0)
        with pytest.raises(ValueError, match="unknown variant"):
            pointwise_power_nonlinearity(u, 2.0, variant="absolute")

    def test_rejects_field_with_broken_symmetry(self, grid1d):
        """The power of a field that is not real is refused."""
        coeff = np.zeros((1, 16), dtype=complex)
        coeff[0, 3] = 1.0
        with pytest.raises(ValueError, match="conjugate symmetry is broken"):
            pointwise_power_nonlinearity(SpectralField(grid1d, coeff), 2.0)

    def test_tensor_divergence_matches_hand_computation(self, grid2d):
        """div(u (x) u) for u = (sin y, 0): pure y-transport of sin y."""
        x, y = grid2d.coordinates
        u_phys = np.stack([np.sin(y), np.zeros_like(y)])
        u = SpectralField.from_physical(grid2d, u_phys)
        w = tensor_divergence(u)
        # component j: d_i (u_i u_j): u_x u_x depends only on y -> d_x kills it
        np.testing.assert_allclose(
            w.to_physical(), np.zeros((2,) + grid2d.shape), atol=1e-12
        )

    def test_tensor_divergence_shape_check(self, grid2d, rng):
        u = random_real_field(grid2d, rng, components=3)
        with pytest.raises(ValueError, match="one component per dimension"):
            tensor_divergence(u)
