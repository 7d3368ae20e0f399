"""Tests for time grids, mixed norms, heat-extension norms and profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from maxreg_lab import (
    DivergentNormError,
    InverseSqrtRadialProfile,
    MixedNormParams,
    ParabolicGaussianProfile,
    ScalingLaw,
    SeparableGaussianProfile,
    SpectralField,
    TimeGrid,
    TorusGrid,
    Trajectory,
    WeightParams,
    besov_heat_norm,
    bochner_mixed_norm,
    continuum_mixed_norm,
    heat_extension,
    heat_semigroup_apply,
    log_time_grid,
    nlhe_scaling_law,
    ns_scaling_law,
    scaling_transform,
    spatial_lq_norm,
    uniform_time_grid,
    weighted_bochner_norm,
)


def single_mode_field(grid, mode=1, weight=0.5):
    """Real field cos(mode * x_1) as a spectral object."""
    coeff = np.zeros((1,) + grid.shape, dtype=complex)
    idx_pos = (mode,) + (0,) * (grid.dimension - 1)
    idx_neg = (-mode % grid.points_per_axis,) + (0,) * (grid.dimension - 1)
    coeff[(0,) + idx_pos] = weight
    coeff[(0,) + idx_neg] = weight
    return SpectralField(grid, coeff)


class TestTimeGrid:
    def test_uniform_grid_shape_and_weights(self):
        """Trapezoid weights sum to the horizon."""
        tg = uniform_time_grid(2.0, 9)
        assert tg.num_nodes == 9
        assert tg.horizon == pytest.approx(2.0)
        assert tg.is_uniform
        assert np.sum(tg.weights) == pytest.approx(2.0)
        assert tg.weights[0] == pytest.approx(tg.weights[1] / 2)

    def test_log_grid_is_zero_anchored_and_flagged(self):
        tg = log_time_grid(1e-4, 10.0, num_nodes=65)
        assert tg.nodes[0] == 0.0
        assert not tg.is_uniform
        assert np.all(np.diff(tg.nodes) > 0)

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            TimeGrid(nodes=np.array([0.0]), weights=np.array([1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeGrid(nodes=np.array([0.0, 0.0]), weights=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="positive and match"):
            TimeGrid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="horizon must be positive"):
            uniform_time_grid(0.0)
        with pytest.raises(ValueError, match="0 < t_min < t_max"):
            log_time_grid(1.0, 0.5)

    @pytest.mark.parametrize(
        "nodes, weights",
        [
            ([0.0, np.nan], [0.5, 0.5]),
            ([0.0, np.inf], [0.5, 0.5]),
            ([0.0, 1.0], [np.nan, 0.5]),
            ([0.0, 1.0], [0.5, np.inf]),
        ],
    )
    def test_rejects_non_finite_grids(self, nodes, weights):
        with pytest.raises(ValueError, match="must be finite"):
            TimeGrid(nodes=np.array(nodes), weights=np.array(weights))

    def test_uniform_grid_needs_two_nodes(self):
        for num_nodes in (1, 0):
            with pytest.raises(ValueError, match="num_nodes must be at least 2"):
                uniform_time_grid(1.0, num_nodes)

    def test_same_nodes_comparison(self):
        a = uniform_time_grid(1.0, 17)
        b = uniform_time_grid(1.0, 17)
        c = uniform_time_grid(1.0, 33)
        assert a.same_nodes(b)
        assert not a.same_nodes(c)


class TestSpatialNorm:
    def test_l2_parseval(self, grid2d, rng):
        f = SpectralField.from_physical(grid2d, rng.standard_normal((1,) + grid2d.shape))
        direct = np.sqrt(
            np.sum(f.to_physical(require_real=True) ** 2) * grid2d.cell_volume
        )
        assert spatial_lq_norm(f, 2) == pytest.approx(direct, rel=1e-12)

    def test_sine_norms_match_closed_forms(self):
        """||sin||_q on [0, 2pi): exact values pi^(1/2) and (3 pi/4)^(1/4)."""
        grid = TorusGrid(dimension=1, points_per_axis=64)
        x = grid.coordinates[0]
        f = SpectralField.from_physical(grid, np.sin(x)[np.newaxis])
        assert spatial_lq_norm(f, 2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert spatial_lq_norm(f, 4) == pytest.approx(
            (3 * math.pi / 4) ** 0.25, rel=1e-12
        )
        # odd power: int |sin|^3 = 8/3, converges at spectral rate
        assert spatial_lq_norm(f, 3) == pytest.approx((8 / 3) ** (1 / 3), rel=1e-6)

    def test_sup_norm(self, grid1d):
        f = single_mode_field(grid1d)
        assert spatial_lq_norm(f, math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_vector_magnitude_enters_norm(self, grid2d):
        """Component fields combine through the Euclidean magnitude."""
        ones = np.ones((2,) + grid2d.shape)
        f = SpectralField.from_physical(grid2d, ones)
        expect = math.sqrt(2.0) * grid2d.volume ** (1 / 4)
        assert spatial_lq_norm(f, 4) == pytest.approx(expect, rel=1e-12)

    def test_rejects_q_below_one(self, grid1d):
        with pytest.raises(ValueError, match="q must be at least 1"):
            spatial_lq_norm(single_mode_field(grid1d), 0.5)

    @given(c=st.floats(-10, 10, allow_nan=False), q=st.floats(1.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, q):
        """||c f||_q = |c| ||f||_q exactly up to rounding."""
        grid = TorusGrid(dimension=1, points_per_axis=8)
        f = single_mode_field(grid)
        assert spatial_lq_norm(f * c, q) == pytest.approx(
            abs(c) * spatial_lq_norm(f, q), rel=1e-9, abs=1e-12
        )


class TestBochnerNorm:
    def make_separable(self, grid, time_grid, envelope):
        base = single_mode_field(grid)
        coeff = envelope[:, np.newaxis, np.newaxis] * base.coefficients[np.newaxis]
        return Trajectory(time_grid, grid, coeff)

    def test_separable_closed_form(self, grid1d):
        """Exponential envelope: norm = (int e^{-3t})^(1/3) ||cos||_3."""
        tg = uniform_time_grid(1.0, 257)
        traj = self.make_separable(grid1d, tg, np.exp(-tg.nodes))
        time_part = ((1 - math.exp(-3.0)) / 3.0) ** (1 / 3)
        space_part = spatial_lq_norm(single_mode_field(grid1d), 3)
        got = bochner_mixed_norm(traj, MixedNormParams(p=3.0, q=3.0))
        assert got == pytest.approx(time_part * space_part, rel=1e-4)

    def test_sup_in_time(self, grid1d):
        tg = uniform_time_grid(1.0, 33)
        traj = self.make_separable(grid1d, tg, 2.0 - tg.nodes)
        got = bochner_mixed_norm(traj, MixedNormParams(p=math.inf, q=2.0))
        assert got == pytest.approx(2.0 * spatial_lq_norm(single_mode_field(grid1d), 2))

    def test_weighted_mu_one_is_exactly_unweighted(self, grid1d, rng):
        """mu = 1 makes the weight identically one, bit for bit."""
        tg = uniform_time_grid(1.0, 33)
        coeff = rng.standard_normal((33, 1, 16)) + 0j
        traj = Trajectory(tg, grid1d, coeff)
        params = MixedNormParams(p=2.0, q=2.0)
        assert weighted_bochner_norm(traj, params, WeightParams(mu=1.0)) == (
            bochner_mixed_norm(traj, params)
        )

    def test_weighted_norm_against_quadrature_oracle(self, grid1d):
        """Weight t^{(1-mu)p} checked against scipy.integrate.quad."""
        tg = uniform_time_grid(1.0, 513)
        traj = self.make_separable(grid1d, tg, np.exp(-tg.nodes))
        params = MixedNormParams(p=2.0, q=2.0)
        mu = 0.6
        space = spatial_lq_norm(single_mode_field(grid1d), 2)
        oracle, _ = integrate.quad(lambda t: t ** 0.8 * math.exp(-2 * t), 0.0, 1.0)
        expect = (oracle) ** 0.5 * space
        got = weighted_bochner_norm(traj, params, WeightParams(mu=mu))
        assert got == pytest.approx(expect, rel=1e-3)

    def test_weight_validation(self, grid1d, rng):
        tg = uniform_time_grid(1.0, 33)
        traj = Trajectory(tg, grid1d, np.zeros((33, 1, 16), complex))
        with pytest.raises(ValueError, match="mu must satisfy 1/p < mu <= 1"):
            weighted_bochner_norm(traj, MixedNormParams(2.0, 2.0), WeightParams(mu=0.4))
        with pytest.raises(ValueError, match="weighted norms require finite p"):
            weighted_bochner_norm(
                traj, MixedNormParams(math.inf, 2.0), WeightParams(mu=0.9)
            )

    def test_param_validation(self):
        with pytest.raises(ValueError, match="p must exceed 1"):
            MixedNormParams(p=1.0, q=2.0)
        with pytest.raises(ValueError, match="q must lie in"):
            MixedNormParams(p=2.0, q=math.inf)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        """Mixed norms are subadditive on trajectories."""
        grid = TorusGrid(dimension=1, points_per_axis=8)
        tg = uniform_time_grid(1.0, 9)
        rng = np.random.default_rng(seed)
        a = Trajectory(tg, grid, rng.standard_normal((9, 1, 8)) + 0j)
        b = Trajectory(tg, grid, rng.standard_normal((9, 1, 8)) + 0j)
        params = MixedNormParams(p=2.5, q=3.0)
        assert bochner_mixed_norm(a + b, params) <= (
            bochner_mixed_norm(a, params) + bochner_mixed_norm(b, params) + 1e-10
        )


class TestTrajectory:
    def test_from_fields_and_state_access(self, grid1d):
        tg = uniform_time_grid(1.0, 3)
        fields = [single_mode_field(grid1d, weight=w) for w in (0.1, 0.2, 0.3)]
        traj = Trajectory.from_fields(tg, fields)
        assert traj.components == 1
        np.testing.assert_array_equal(
            traj.state(1).coefficients, fields[1].coefficients
        )

    def test_from_fields_count_mismatch(self, grid1d):
        tg = uniform_time_grid(1.0, 3)
        with pytest.raises(ValueError, match="one field per time node"):
            Trajectory.from_fields(tg, [single_mode_field(grid1d)] * 2)

    def test_zeros_and_arithmetic(self, grid1d):
        tg = uniform_time_grid(1.0, 5)
        z = Trajectory.zeros(tg, grid1d)
        f = heat_extension(single_mode_field(grid1d), tg)
        np.testing.assert_array_equal((z + f).coefficients, f.coefficients)
        np.testing.assert_array_equal((-f).coefficients, (f * -1.0).coefficients)

    def test_mismatched_trajectories_raise(self, grid1d):
        a = Trajectory.zeros(uniform_time_grid(1.0, 5), grid1d)
        b = Trajectory.zeros(uniform_time_grid(2.0, 5), grid1d)
        with pytest.raises(ValueError, match="different grids"):
            _ = a + b


class TestHeatExtension:
    def test_matches_semigroup_nodewise(self, grid2d, rng):
        u0 = SpectralField.from_physical(grid2d, rng.standard_normal((1,) + grid2d.shape))
        tg = uniform_time_grid(0.5, 9)
        traj = heat_extension(u0, tg)
        for i, t in enumerate(tg.nodes):
            expect = heat_semigroup_apply(u0, float(t))
            np.testing.assert_allclose(
                traj.state(i).coefficients, expect.coefficients, atol=1e-14
            )


class TestBesovHeatNorm:
    def test_single_mode_closed_form(self, grid2d):
        """One Fourier mode integrates to (p lam)^(-1/p) ||mode||_q."""
        f = single_mode_field(grid2d)
        for p, q in [(2.0, 2.0), (4.0, 4.0), (3.0, 2.0)]:
            got = besov_heat_norm(f, MixedNormParams(p, q))
            expect = p ** (-1.0 / p) * spatial_lq_norm(f, q)  # lam = 1
            assert got == pytest.approx(expect, rel=1e-3)

    def test_quadrature_refinement_tightens(self, grid2d):
        f = single_mode_field(grid2d)
        params = MixedNormParams(2.0, 2.0)
        exact = 2.0 ** (-0.5) * spatial_lq_norm(f, 2)
        coarse = abs(besov_heat_norm(f, params) / exact - 1.0)
        fine = abs(besov_heat_norm(f, params, num_nodes=8193) / exact - 1.0)
        assert fine < 1e-5 < coarse * 10
        assert fine < coarse

    def test_tail_bound_reported_small(self, grid2d):
        f = single_mode_field(grid2d)
        res = besov_heat_norm(f, MixedNormParams(2.0, 2.0), details=True)
        assert res.tail_bound < 1e-12 * res.value**2

    def test_zero_field_gives_zero(self, grid2d):
        z = SpectralField.zeros(grid2d)
        assert besov_heat_norm(z, MixedNormParams(2.0, 2.0)) == 0.0

    def test_mean_component_rejected(self, grid2d):
        coeff = np.zeros((1,) + grid2d.shape, dtype=complex)
        coeff[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="requires a mean-free field"):
            besov_heat_norm(SpectralField(grid2d, coeff), MixedNormParams(2.0, 2.0))

    def test_infinite_exponents_rejected(self, grid2d):
        f = single_mode_field(grid2d)
        with pytest.raises(ValueError, match="finite exponents"):
            besov_heat_norm(f, MixedNormParams(math.inf, 2.0))

    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("num_nodes", [513, 40])  # 514 and 41 nodes: partial last block
    @pytest.mark.parametrize("fixture, components", [("grid2d", 1), ("grid3d", 3)])
    def test_blocked_extension_matches_whole_extension(
        self, request, rng, fixture, components, num_nodes, q
    ):
        """Sampling the heat extension block by block gives the norm of the
        whole extension bit for bit."""
        grid = request.getfixturevalue(fixture)
        values = rng.standard_normal((components,) + grid.shape)
        spatial = tuple(range(1, values.ndim))
        u0 = SpectralField.from_physical(grid, values - values.mean(axis=spatial, keepdims=True))
        params = MixedNormParams(2.5, q)
        res = besov_heat_norm(u0, params, num_nodes=num_nodes, details=True)
        assert res.time_grid.num_nodes % 32 != 0
        assert res.value == bochner_mixed_norm(heat_extension(u0, res.time_grid), params)


class TestScalingLaws:
    def test_named_laws(self):
        assert nlhe_scaling_law(2.0).exponent == pytest.approx(2.0)
        assert nlhe_scaling_law(3.0).exponent == pytest.approx(1.0)
        assert ns_scaling_law().exponent == pytest.approx(1.0)

    def test_nlhe_law_needs_nu_above_one(self):
        for nu in (1.0, 0.5):
            with pytest.raises(ValueError, match="nu must exceed 1"):
                nlhe_scaling_law(nu)

    def test_degenerate_gamma(self):
        with pytest.raises(ValueError, match="gamma = 1"):
            ScalingLaw(alpha=2.0, beta=0.0, gamma=1.0)
        law = ScalingLaw(alpha=2.0, beta=2.0, gamma=1.0)  # alpha == beta is fine
        with pytest.raises(ValueError, match="exponent undefined"):
            _ = law.exponent


class TestContinuumProfiles:
    def test_parabolic_gaussian_spatial_norm_vs_radial_quadrature(self):
        """Closed-form L^q of the Gaussian against an independent integral."""
        prof = ParabolicGaussianProfile(amplitude=1.3, offset=2.0, sigma=1.0)
        t, q, n = 0.7, 3.0, 2
        s = t + 2.0
        # profile value at radius r: A (t+a)^{-sigma} exp(-r^2 / (4(t+a)))
        integrand = (
            lambda r: (1.3 / s * math.exp(-(r**2) / (4 * s))) ** q * 2 * math.pi * r
        )
        oracle, _ = integrate.quad(integrand, 0, np.inf)
        assert prof.spatial_lq(t, q, n) == pytest.approx(oracle ** (1 / q), rel=1e-9)

    def test_inverse_sqrt_spatial_norm_vs_radial_quadrature(self):
        prof = InverseSqrtRadialProfile(amplitude=0.8)
        t, q, n = 0.5, 4.0, 2
        integrand = lambda r: (0.8 * (t + r**2) ** -0.5) ** q * 2 * math.pi * r
        oracle, _ = integrate.quad(integrand, 0, np.inf)
        assert prof.spatial_lq(t, q, n) == pytest.approx(oracle ** (1 / q), rel=1e-9)

    def test_inverse_sqrt_needs_q_above_n(self):
        prof = InverseSqrtRadialProfile()
        with pytest.raises(DivergentNormError, match="diverges for this profile"):
            prof.spatial_lq(1.0, 2.0, 2)
        with pytest.raises(ValueError, match="only defined for t > 0"):
            prof.spatial_lq(0.0, 4.0, 2)

    def test_parabolic_gaussian_full_norm_closed_form(self):
        """sigma = 3/2, p = q = 2, n = 2: norm is exactly sqrt(2 pi)."""
        prof = ParabolicGaussianProfile(sigma=1.5)
        got = continuum_mixed_norm(prof, MixedNormParams(2.0, 2.0), 2)
        assert got == pytest.approx(math.sqrt(2 * math.pi), rel=1e-8)

    def test_separable_gaussian_full_norm_closed_form(self):
        """Separable profile: time and space integrals factor exactly."""
        prof = SeparableGaussianProfile()
        got = continuum_mixed_norm(prof, MixedNormParams(2.0, 2.0), 2)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_divergence_at_infinity_detected(self):
        prof = ParabolicGaussianProfile(sigma=0.5)
        with pytest.raises(DivergentNormError, match="diverges at t -> inf"):
            continuum_mixed_norm(prof, MixedNormParams(2.0, 2.0), 2)

    def test_inverse_sqrt_critical_window_only(self):
        """The scale-invariant profile is log-divergent on (0, inf)."""
        prof = InverseSqrtRadialProfile()
        # p = 2 decays too slowly in t for an infinite window but is fine at 0
        with pytest.raises(DivergentNormError, match="use a finite window"):
            continuum_mixed_norm(prof, MixedNormParams(2.0, 4.0), 2)
        # p = q = 4 in n = 2 makes the time integrand exactly t^{-1}
        params = MixedNormParams(4.0, 4.0)
        with pytest.raises(DivergentNormError, match="diverges at t -> 0"):
            continuum_mixed_norm(prof, params, 2)
        c1 = prof.spatial_lq(1.0, 4.0, 2)
        got = continuum_mixed_norm(prof, params, 2, t_window=(1.0, 4.0))
        assert got == pytest.approx(c1 * math.log(4.0) ** 0.25, rel=1e-8)

    def test_head_divergence_detected(self):
        prof = InverseSqrtRadialProfile()
        with pytest.raises(DivergentNormError, match="diverges at t -> 0"):
            continuum_mixed_norm(prof, MixedNormParams(8.0, 3.0), 2, t_window=(0.0, 1.0))

    def test_sup_norm_paths(self):
        prof = ParabolicGaussianProfile(sigma=1.5)
        got = continuum_mixed_norm(prof, MixedNormParams(math.inf, 2.0), 2)
        assert got == pytest.approx(prof.spatial_lq(0.0, 2.0, 2), rel=1e-6)
        with pytest.raises(DivergentNormError, match="sup over"):
            continuum_mixed_norm(
                InverseSqrtRadialProfile(), MixedNormParams(math.inf, 4.0), 2
            )

    def test_bad_window_rejected(self):
        prof = ParabolicGaussianProfile(sigma=1.5)
        with pytest.raises(ValueError, match="time window must satisfy"):
            continuum_mixed_norm(prof, MixedNormParams(2.0, 2.0), 2, t_window=(2.0, 1.0))


class TestScalingTransform:
    def test_parabolic_gaussian_transform_parameters(self):
        law = nlhe_scaling_law(2.0)  # exponent rho = 2
        prof = ParabolicGaussianProfile(amplitude=1.0, offset=1.0, sigma=1.5)
        out = scaling_transform(prof, 2.0, law)
        assert out.amplitude == pytest.approx(2.0 ** (2 - 3.0))
        assert out.offset == pytest.approx(0.25)

    def test_inverse_sqrt_is_exactly_ns_invariant(self):
        """The (t+|x|^2)^(-1/2) profile is a fixed point of the NS scaling."""
        prof = InverseSqrtRadialProfile(amplitude=0.7)
        out = scaling_transform(prof, 3.7, ns_scaling_law())
        assert out == prof

    def test_separable_profile_not_closed(self):
        with pytest.raises(TypeError, match="not closed under rescaling"):
            scaling_transform(SeparableGaussianProfile(), 2.0, ns_scaling_law())

    def test_bad_factor_and_laws(self):
        prof = ParabolicGaussianProfile(sigma=1.5)
        with pytest.raises(ValueError, match="must be positive"):
            scaling_transform(prof, 0.0, ns_scaling_law())
        with pytest.raises(ValueError, match="gamma = 1"):
            scaling_transform(prof, 2.0, ScalingLaw(2.0, 2.0, 1.0))
        with pytest.raises(NotImplementedError, match="alpha = 2"):
            scaling_transform(prof, 2.0, ScalingLaw(1.0, 0.0, 2.0))
