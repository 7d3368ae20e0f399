"""Tests for time grids, mixed norms, heat-extension norms and profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import logsumexp

from maxreg_lab import (
    DivergentNormError,
    InverseSqrtRadialProfile,
    MixedNormParams,
    ParabolicGaussianProfile,
    ScalingLaw,
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
    random_mean_free_field,
    scaling_transform,
    spatial_lq_norm,
    uniform_time_grid,
)


def single_mode_field(grid, mode=1, weight=0.5):
    """Real field cos(mode * x_1) as a spectral object."""
    coeff = np.zeros((1,) + grid.half_shape, dtype=complex)
    idx_pos = (mode,) + (0,) * (grid.dimension - 1)
    idx_neg = (-mode % grid.points_per_axis,) + (0,) * (grid.dimension - 1)
    coeff[(0,) + idx_pos] = weight
    if grid.dimension > 1:  # in one dimension the half spectrum holds k >= 0 only
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
            np.sum(f.to_physical() ** 2) * grid2d.cell_volume
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

    def test_large_q_scaled_by_sup(self, grid2d, rng):
        """At ``q = 1000`` the direct sum of ``|u|**q`` underflows when
        ``max |u| = 1e-3``; the norm still lies between the sup norm times
        ``cell_volume**(1/q)`` and the sup norm times ``volume**(1/q)``."""
        values = rng.standard_normal((1,) + grid2d.shape)
        f = SpectralField.from_physical(grid2d, 1e-3 * values / np.max(np.abs(values)))
        sup = spatial_lq_norm(f, math.inf)
        got = spatial_lq_norm(f, 1000.0)
        assert 0 < got <= sup * grid2d.volume ** (1 / 1000) * (1 + 1e-12)
        assert got >= sup * grid2d.cell_volume ** (1 / 1000) * (1 - 1e-12)

    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0, 2.5, math.inf])
    @pytest.mark.parametrize("size", [1e-170, 1e-100, 1e100, 1e160, 1e300])
    def test_out_of_range_sizes_scale_back(self, grid2d, rng, q, size):
        """``|u|**q`` under- or overflows for these sizes; the norm is then
        ``size`` times the unit field's norm, not 0 or ``inf``."""
        values = rng.standard_normal((2,) + grid2d.shape)
        unit = SpectralField.from_physical(grid2d, values)
        sized = SpectralField.from_physical(grid2d, values * size)
        assert spatial_lq_norm(sized, q) == pytest.approx(
            size * spatial_lq_norm(unit, q), rel=1e-12, abs=0
        )

    #: ``spatial_lq_norm`` of a fixed field times ``size``, as the two-pass
    #: form (the plain sum of powers first, then the scaled pass for every
    #: row out of range) gives them.
    TWO_PASS = {
        (2.5, 1e-170): 6.617741463662697e-170,
        (2.5, 1.0): 6.617741463662698,
        (2.5, 1e160): 6.617741463662697e160,
        (2.5, 1e300): 6.617741463662698e300,
        (3000.0, 1e-170): 3.2433065324236574e-170,
        (3000.0, 1.0): 3.2433065324236567,
        (3000.0, 1e160): 3.2433065324236574e160,
        (3000.0, 1e300): 3.243306532423657e300,
    }

    @pytest.mark.parametrize("q, size", list(TWO_PASS))
    def test_large_q_in_one_pass_matches_two_pass(self, grid2d, q, size):
        """A row whose largest ``|u|**q`` leaves the normal range goes
        straight to the scaled pass; the norm is the two-pass one."""
        values = np.random.default_rng(24).standard_normal((2,) + grid2d.shape)
        field = SpectralField.from_physical(grid2d, values * size)
        expect = self.TWO_PASS[q, size]
        assert spatial_lq_norm(field, q) == pytest.approx(expect, rel=1e-15, abs=0)

    @pytest.mark.parametrize("grid_name, q", [("grid2d", 2100.0), ("grid3d", 1300.0)])
    def test_component_sum_out_of_range(self, request, grid_name, q):
        """Each component is 1, so ``|u|**2`` is ``m`` and ``m**(q/2)``
        overflows even after dividing by the largest component; the norm of
        the constant field is ``|u| * volume**(1/q)``."""
        grid = request.getfixturevalue(grid_name)
        m = grid.dimension
        f = SpectralField.from_physical(grid, np.ones((m,) + grid.shape))
        expect = math.sqrt(m) * grid.volume ** (1 / q)
        assert spatial_lq_norm(f, q) == pytest.approx(expect, rel=1e-12)

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
        coeff = envelope[:, np.newaxis, np.newaxis] * base.spectrum[np.newaxis]
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

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_large_p_matches_scaled_reference(self, grid1d, scale):
        """At ``p = 1000`` the direct time sum of the nodal norms ``g`` under-
        or overflows; the norm is ``max g * (sum w (g/max g)**p)**(1/p)``."""
        tg = uniform_time_grid(1.0, 33)
        traj = self.make_separable(grid1d, tg, scale * np.exp(-tg.nodes))
        g = np.array([spatial_lq_norm(traj.state(i), 2.0) for i in range(tg.num_nodes)])
        expect = g.max() * np.sum(tg.weights * (g / g.max()) ** 1000) ** (1 / 1000)
        got = bochner_mixed_norm(traj, MixedNormParams(p=1000.0, q=2.0))
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_weighted_norm_with_largest_value_at_zero_weight(self, grid1d, scale):
        """The nodal norms peak at ``t = 0``, where the weight ``t**500`` is 0,
        and every weighted term ``w g**1000`` underflows (``0 * inf`` at the
        peak for the larger scale); the norm is still the positive
        ``(sum w g**p)**(1/p)``, summed here in logarithms."""
        tg = uniform_time_grid(1.0, 33)
        traj = self.make_separable(grid1d, tg, scale * np.exp(-10 * tg.nodes))
        params, weight = MixedNormParams(p=1000.0, q=2.0), WeightParams(mu=0.5)
        g = scale * np.exp(-10 * tg.nodes) * spatial_lq_norm(single_mode_field(grid1d), 2.0)
        w = tg.weights * tg.nodes**500
        log_terms = np.log(w[w > 0]) + 1000 * np.log(g[w > 0])
        expect = math.exp(logsumexp(log_terms) / 1000)
        got = bochner_mixed_norm(traj, params, weight=weight)
        assert got > 0
        assert got == pytest.approx(expect, rel=1e-12)

    def test_weighted_mu_one_is_exactly_unweighted(self, grid1d, rng):
        """mu = 1 makes the weight identically one, bit for bit."""
        tg = uniform_time_grid(1.0, 33)
        coeff = rng.standard_normal((33, 1, 9)) + 0j
        traj = Trajectory(tg, grid1d, coeff)
        params = MixedNormParams(p=2.0, q=2.0)
        assert bochner_mixed_norm(traj, params, weight=WeightParams(mu=1.0)) == (
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
        got = bochner_mixed_norm(traj, params, weight=WeightParams(mu=mu))
        assert got == pytest.approx(expect, rel=1e-3)

    def test_weight_validation(self, grid1d, rng):
        tg = uniform_time_grid(1.0, 33)
        traj = Trajectory(tg, grid1d, np.zeros((33, 1, 9), complex))
        with pytest.raises(ValueError, match="mu must satisfy 1/p < mu <= 1"):
            bochner_mixed_norm(traj, MixedNormParams(2.0, 2.0), weight=WeightParams(mu=0.4))
        with pytest.raises(ValueError, match="weighted norms require finite p"):
            bochner_mixed_norm(
                traj, MixedNormParams(math.inf, 2.0), weight=WeightParams(mu=0.9)
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
        a = Trajectory(tg, grid, rng.standard_normal((9, 1, 5)) + 0j)
        b = Trajectory(tg, grid, rng.standard_normal((9, 1, 5)) + 0j)
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
            traj.state(1).spectrum, fields[1].spectrum
        )

    def test_from_fields_count_mismatch(self, grid1d):
        tg = uniform_time_grid(1.0, 3)
        with pytest.raises(ValueError, match="one field per time node"):
            Trajectory.from_fields(tg, [single_mode_field(grid1d)] * 2)

    def test_zeros_and_arithmetic(self, grid1d):
        tg = uniform_time_grid(1.0, 5)
        z = Trajectory.zeros(tg, grid1d)
        f = heat_extension(single_mode_field(grid1d), tg)
        np.testing.assert_array_equal((z + f).spectrum, f.spectrum)
        np.testing.assert_array_equal((-f).spectrum, (f * -1.0).spectrum)

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
                traj.state(i).spectrum, expect.spectrum, atol=1e-14
            )

    @pytest.mark.parametrize("dimension, points", [(1, 16), (2, 16), (3, 8)])
    @pytest.mark.parametrize("band_limit", [None, 2, 3])
    @pytest.mark.parametrize(
        "time_grid", [uniform_time_grid(1.0, 17), log_time_grid(1e-3, 1.0, 16)], ids=["uniform", "log"]
    )
    def test_nodal_norms_do_not_increase(self, dimension, points, band_limit, time_grid):
        """The heat semigroup contracts every ``L^q``, ``q >= 1``, so the
        nodal norms of a heat extension never rise; the uniqueness walk
        bounds the mollified heat flow by its initial norms on this premise.
        ``q = inf`` is left out: the max over grid points misses the
        continuum sup and can rise in time, and the walk never takes it."""
        grid = TorusGrid(dimension=dimension, points_per_axis=points)
        u0 = random_mean_free_field(grid, seed=dimension, band_limit=band_limit)
        traj = heat_extension(u0, time_grid)
        for q in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
            vals = [spatial_lq_norm(traj.state(i), q) for i in range(time_grid.num_nodes)]
            assert np.all(np.diff(vals) <= 0), q


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

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_large_field_scales_back(self, grid2d, p):
        """The tail bound's ``amp**p`` overflows for a 1e300-sized field; the
        norm is still 1e300 times the unit field's."""
        f = single_mode_field(grid2d)
        params = MixedNormParams(p, 4.0)
        assert besov_heat_norm(f * 1e300, params) == pytest.approx(
            1e300 * besov_heat_norm(f, params), rel=1e-12
        )

    def test_zero_field_gives_zero(self, grid2d):
        z = SpectralField.zeros(grid2d)
        assert besov_heat_norm(z, MixedNormParams(2.0, 2.0)) == 0.0

    def test_mean_component_rejected(self, grid2d):
        coeff = np.zeros((1,) + grid2d.half_shape, dtype=complex)
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


def spatial_lq(prof, t, q, n):
    """A catalogue profile's spatial ``L^q`` norm ``k * (t + a)**e`` at time ``t``."""
    k, a, e = prof.power_law(q, n)
    return k * (t + a) ** e


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
        assert spatial_lq(prof, t, q, n) == pytest.approx(oracle ** (1 / q), rel=1e-9)

    def test_inverse_sqrt_spatial_norm_vs_radial_quadrature(self):
        prof = InverseSqrtRadialProfile(amplitude=0.8)
        t, q, n = 0.5, 4.0, 2
        integrand = lambda r: (0.8 * (t + r**2) ** -0.5) ** q * 2 * math.pi * r
        oracle, _ = integrate.quad(integrand, 0, np.inf)
        assert spatial_lq(prof, t, q, n) == pytest.approx(oracle ** (1 / q), rel=1e-9)

    @pytest.mark.parametrize(
        "prof, q, n",
        [
            (ParabolicGaussianProfile(amplitude=1.3, offset=2.0, sigma=1.0), 3.0, 1),
            (ParabolicGaussianProfile(amplitude=1.3, offset=2.0, sigma=1.0), 1.5, 2),
            (ParabolicGaussianProfile(amplitude=1.3, offset=2.0, sigma=1.0), 2.5, 3),
            (InverseSqrtRadialProfile(amplitude=0.8), 4.0, 1),
            (InverseSqrtRadialProfile(amplitude=0.8), 5.0, 3),
        ],
        ids=["parabolic-1d", "parabolic-2d-q1.5", "parabolic-3d", "inverse-sqrt-1d", "inverse-sqrt-3d"],
    )
    def test_spatial_norm_vs_radial_quadrature_in_n_dimensions(self, prof, q, n):
        """``power_law`` against ``|S^{n-1}| * int_0^inf u(t, r)**q r**(n-1) dr``."""
        t = 0.7
        if isinstance(prof, ParabolicGaussianProfile):
            s = t + prof.offset
            value = lambda r: prof.amplitude * s**-prof.sigma * math.exp(-(r**2) / (4 * s))
        else:
            value = lambda r: prof.amplitude * (t + r**2) ** -0.5
        sphere = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
        radial, _ = integrate.quad(lambda r: value(r) ** q * r ** (n - 1), 0, np.inf)
        assert spatial_lq(prof, t, q, n) == pytest.approx((sphere * radial) ** (1 / q), rel=1e-9)

    def test_inverse_sqrt_needs_q_above_n(self):
        prof = InverseSqrtRadialProfile()
        with pytest.raises(DivergentNormError, match="diverges for this profile"):
            prof.power_law(2.0, 2)

    def test_parabolic_gaussian_full_norm_closed_form(self):
        """sigma = 3/2, p = q = 2, n = 2: norm is exactly sqrt(2 pi)."""
        prof = ParabolicGaussianProfile(sigma=1.5)
        got = continuum_mixed_norm(prof, MixedNormParams(2.0, 2.0), 2)
        assert got == pytest.approx(math.sqrt(2 * math.pi), rel=1e-8)

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
        c1 = spatial_lq(prof, 1.0, 4.0, 2)
        got = continuum_mixed_norm(prof, params, 2, t_window=(1.0, 4.0))
        assert got == pytest.approx(c1 * math.log(4.0) ** 0.25, rel=1e-8)

    def test_head_divergence_detected(self):
        prof = InverseSqrtRadialProfile()
        with pytest.raises(DivergentNormError, match="diverges at t -> 0"):
            continuum_mixed_norm(prof, MixedNormParams(8.0, 3.0), 2, t_window=(0.0, 1.0))

    def test_sup_norm_paths(self):
        prof = ParabolicGaussianProfile(sigma=1.5)
        got = continuum_mixed_norm(prof, MixedNormParams(math.inf, 2.0), 2)
        assert got == pytest.approx(spatial_lq(prof, 0.0, 2.0, 2), rel=1e-6)
        with pytest.raises(DivergentNormError, match="sup over"):
            continuum_mixed_norm(
                InverseSqrtRadialProfile(), MixedNormParams(math.inf, 4.0), 2
            )

    def test_bad_window_rejected(self):
        prof = ParabolicGaussianProfile(sigma=1.5)
        with pytest.raises(ValueError, match="time window must satisfy"):
            continuum_mixed_norm(prof, MixedNormParams(2.0, 2.0), 2, t_window=(2.0, 1.0))


class TestContinuumClosedForms:
    """The closed-form continuum norms against scipy.integrate.quad, and the
    windowed supremum against a dense sample that includes both ends."""

    PARABOLIC = ParabolicGaussianProfile(amplitude=1.3, offset=0.7, sigma=1.5)
    INVERSE_SQRT = InverseSqrtRadialProfile(amplitude=0.8)

    @staticmethod
    def quad_norm(prof, params, n, t0, t1):
        def integrand(t):
            return spatial_lq(prof, t, params.q, n) ** params.p

        value, _ = integrate.quad(integrand, t0, t1, epsabs=0.0, epsrel=1e-13, limit=200)
        return value ** (1.0 / params.p)

    @pytest.mark.parametrize(
        "prof, params, n",
        [
            (PARABOLIC, MixedNormParams(2.5, 3.0), 2),
            (PARABOLIC, MixedNormParams(2.0, 2.0), 3),
            (PARABOLIC, MixedNormParams(2.0, 2.0), 1),
        ],
        ids=["parabolic-2d", "parabolic-3d", "parabolic-1d"],
    )
    def test_whole_half_line(self, prof, params, n):
        got = continuum_mixed_norm(prof, params, n)
        assert got == pytest.approx(self.quad_norm(prof, params, n, 0.0, np.inf), rel=1e-12)

    @pytest.mark.parametrize(
        "prof, params, window",
        [
            (PARABOLIC, MixedNormParams(2.5, 3.0), (0.3, 2.5)),
            (PARABOLIC, MixedNormParams(2.5, 3.0), (0.0, 1e-3)),
            # e = n / (2q) - sigma = 0: the spatial norm is constant in time
            (ParabolicGaussianProfile(sigma=0.5), MixedNormParams(2.5, 2.0), (0.3, 2.5)),
            (INVERSE_SQRT, MixedNormParams(2.0, 4.0), (0.0, 2.0)),
            # p e + 1 = 0: the time integrand is t**-1 and the norm a logarithm
            (INVERSE_SQRT, MixedNormParams(4.0, 4.0), (0.5, 3.0)),
            # p e + 1 = -2.5e-7: a power law next to the logarithm
            (INVERSE_SQRT, MixedNormParams(4.000001, 4.0), (0.5, 3.0)),
            (INVERSE_SQRT, MixedNormParams(3.0, 4.0), (1.0, 1.0 + 1e-6)),
        ],
        ids=["parabolic", "parabolic-short", "parabolic-constant", "inverse-sqrt-from-0",
             "inverse-sqrt-log", "inverse-sqrt-near-log", "inverse-sqrt-narrow"],
    )
    def test_finite_window(self, prof, params, window):
        got = continuum_mixed_norm(prof, params, 2, t_window=window)
        assert got == pytest.approx(self.quad_norm(prof, params, 2, *window), rel=1e-12)

    @pytest.mark.parametrize(
        "prof, q, window",
        [
            (PARABOLIC, 3.0, (0.0, 2.5)),  # decreasing: the sup is at t = 0
            (ParabolicGaussianProfile(sigma=0.25), 2.0, (0.5, 2.5)),  # increasing
            (ParabolicGaussianProfile(sigma=0.5), 2.0, (0.5, 2.5)),  # constant
            (INVERSE_SQRT, 4.0, (0.5, 3.0)),
        ],
        ids=["parabolic-decreasing", "parabolic-increasing", "parabolic-constant", "inverse-sqrt"],
    )
    def test_windowed_sup_is_exact(self, prof, q, window):
        got = continuum_mixed_norm(prof, MixedNormParams(math.inf, q), 2, t_window=window)
        sampled = max(spatial_lq(prof, t, q, 2) for t in np.linspace(*window, 1001))
        assert got == pytest.approx(sampled, rel=1e-12)

    def test_sup_diverges_at_the_open_end(self):
        with pytest.raises(DivergentNormError, match="sup over the window diverges at t -> 0"):
            continuum_mixed_norm(
                self.INVERSE_SQRT, MixedNormParams(math.inf, 4.0), 2, t_window=(0.0, 1.0)
            )
        with pytest.raises(DivergentNormError, match="sup over the window diverges at t -> inf"):
            continuum_mixed_norm(
                ParabolicGaussianProfile(sigma=0.25), MixedNormParams(math.inf, 2.0), 2
            )


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
        """A profile outside the catalogue, such as a separable
        ``exp(-b t) g(x)``, has no closed rescaling."""

        class SeparableProfile:
            pass

        with pytest.raises(TypeError, match="SeparableProfile is not closed under rescaling"):
            scaling_transform(SeparableProfile(), 2.0, ns_scaling_law())

    def test_bad_factor_and_laws(self):
        prof = ParabolicGaussianProfile(sigma=1.5)
        with pytest.raises(ValueError, match="must be positive"):
            scaling_transform(prof, 0.0, ns_scaling_law())
        with pytest.raises(ValueError, match="gamma = 1"):
            scaling_transform(prof, 2.0, ScalingLaw(2.0, 2.0, 1.0))
        with pytest.raises(NotImplementedError, match="alpha = 2"):
            scaling_transform(prof, 2.0, ScalingLaw(1.0, 0.0, 2.0))
