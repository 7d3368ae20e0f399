"""Tests for model problems, scaling checks, smoothing and the
existence/uniqueness experiments at desk scale."""

import math

import numpy as np
import pytest

from maxreg_lab import (
    MixedNormParams,
    NlheProblem,
    NsProblem,
    SpectralField,
    TorusGrid,
    criticality_check,
    default_smoothing_radii,
    heat_extension,
    helmholtz_project,
    max_node_divergence,
    existence_sweep,
    measured_lipschitz_M,
    nlhe_rhs_map,
    nlhe_scaling_law,
    nonlinearity_lipschitz_check,
    ns_rhs_map,
    ns_scaling_law,
    random_mean_free_field,
    scaling_invariance_test,
    smoothing_estimate_check,
    spatial_lq_norm,
    taylor_green_field,
    tensor_divergence,
    uniform_time_grid,
    uniqueness_bootstrap,
)
from maxreg_lab import bochner_mixed_norm, harness, problems
from maxreg_lab.harness import load_config, run_experiment


def scalar_data(grid, seed=0, band_limit=3):
    return random_mean_free_field(grid, seed=seed, band_limit=band_limit)


def divfree_data(grid, seed=0, band_limit=3):
    return random_mean_free_field(
        grid,
        seed=seed,
        components=grid.dimension,
        band_limit=band_limit,
        divergence_free=True,
    )


def small_nlhe(grid, *, eta=0.05, p=2.0, q=2.0, num_nodes=33):
    u0 = scalar_data(grid) * eta
    return NlheProblem(
        nu=2.0,
        params=MixedNormParams(p, q),
        u0=u0,
        time_grid=uniform_time_grid(1.0, num_nodes),
        critical=(abs(2.0 - grid.dimension / q - 2.0 / p) < 1e-12),
    )


class TestProblemValidation:
    def test_nlhe_rejects_bad_exponent(self, grid2d):
        with pytest.raises(ValueError, match="nu must exceed 1"):
            NlheProblem(
                nu=1.0,
                params=MixedNormParams(2.0, 2.0),
                u0=scalar_data(grid2d),
                time_grid=uniform_time_grid(1.0, 9),
            )

    def test_nlhe_rejects_vector_data(self, grid2d):
        with pytest.raises(ValueError, match="must be scalar"):
            NlheProblem(
                nu=2.0,
                params=MixedNormParams(2.0, 2.0),
                u0=divfree_data(grid2d),
                time_grid=uniform_time_grid(1.0, 9),
            )

    def test_nlhe_rejects_unknown_variant(self, grid2d):
        with pytest.raises(ValueError, match="'signed' or 'unsigned'"):
            NlheProblem(
                nu=2.0,
                params=MixedNormParams(2.0, 2.0),
                u0=scalar_data(grid2d),
                time_grid=uniform_time_grid(1.0, 9),
                variant="absolute",
            )

    def test_nlhe_critical_flag_checks_exponents(self, grid2d):
        """nu = 2 in n = 2 demands n/q + 2/p = 2; p = 3 misses it."""
        with pytest.raises(ValueError, match="exponents are not critical"):
            NlheProblem(
                nu=2.0,
                params=MixedNormParams(3.0, 2.0),
                u0=scalar_data(grid2d),
                time_grid=uniform_time_grid(1.0, 9),
                critical=True,
            )
        prob = small_nlhe(grid2d)  # p = q = 2 is critical there
        assert prob.critical
        assert prob.epsilon == 1.0

    def test_ns_rejects_low_dimension(self, grid1d):
        with pytest.raises(ValueError, match="dimension at least 2"):
            NsProblem(
                params=MixedNormParams(4.0, 4.0),
                u0=scalar_data(grid1d),
                time_grid=uniform_time_grid(1.0, 9),
            )

    def test_ns_rejects_component_mismatch(self, grid2d):
        with pytest.raises(ValueError, match="one component per dimension"):
            NsProblem(
                params=MixedNormParams(4.0, 4.0),
                u0=scalar_data(grid2d),
                time_grid=uniform_time_grid(1.0, 9),
            )

    def test_ns_rejects_compressible_data(self, grid2d):
        bad = random_mean_free_field(grid2d, components=2, band_limit=2)
        with pytest.raises(ValueError, match="not divergence-free"):
            NsProblem(
                params=MixedNormParams(4.0, 4.0),
                u0=bad,
                time_grid=uniform_time_grid(1.0, 9),
            )

    def test_ns_critical_flag(self, grid2d):
        with pytest.raises(ValueError, match="exponents are not critical"):
            NsProblem(
                params=MixedNormParams(2.0, 2.0),
                u0=divfree_data(grid2d, band_limit=2),
                time_grid=uniform_time_grid(1.0, 9),
                critical=True,
            )
        prob = NsProblem(
            params=MixedNormParams(4.0, 4.0),
            u0=divfree_data(grid2d, band_limit=2),
            time_grid=uniform_time_grid(1.0, 9),
            critical=True,
        )
        assert prob.nu == 2.0 and prob.epsilon == 1.0


class TestRhsMaps:
    def test_nlhe_map_vanishes_at_zero(self, grid2d):
        prob = small_nlhe(grid2d)
        from maxreg_lab import Trajectory

        zero = Trajectory.zeros(prob.time_grid, grid2d)
        out = nlhe_rhs_map(zero, prob)
        assert float(np.max(np.abs(out.coefficients))) == 0.0

    def test_nlhe_map_is_homogeneous(self, grid2d):
        """Signed power with nu = 2: F(c u) = c^2 F(u) for c > 0."""
        prob = small_nlhe(grid2d)
        u = heat_extension(prob.u0, prob.time_grid)
        f1 = nlhe_rhs_map(u, prob)
        f2 = nlhe_rhs_map(u * 2.0, prob)
        np.testing.assert_allclose(
            f2.coefficients, 4.0 * f1.coefficients, atol=1e-12
        )

    def test_nlhe_map_needs_scalar_trajectory(self, grid2d):
        prob = small_nlhe(grid2d)
        vec = heat_extension(divfree_data(grid2d), prob.time_grid)
        with pytest.raises(ValueError, match="must be scalar"):
            nlhe_rhs_map(vec, prob)

    def test_ns_map_output_is_divergence_free(self, grid2d):
        prob = NsProblem(
            params=MixedNormParams(4.0, 4.0),
            u0=divfree_data(grid2d, band_limit=2) * 0.1,
            time_grid=uniform_time_grid(1.0, 17),
            critical=True,
        )
        u = heat_extension(prob.u0, prob.time_grid)
        out = ns_rhs_map(u, prob)
        assert max_node_divergence(out) < 1e-12

    def test_ns_map_rejects_compressible_input(self, grid2d):
        prob = NsProblem(
            params=MixedNormParams(4.0, 4.0),
            u0=divfree_data(grid2d, band_limit=2),
            time_grid=uniform_time_grid(1.0, 17),
        )
        bad_state = random_mean_free_field(grid2d, components=2, seed=4)
        bad = heat_extension(bad_state, prob.time_grid)
        with pytest.raises(ValueError, match="not divergence-free"):
            ns_rhs_map(bad, prob)


class TestCriticality:
    def test_nlhe_critical_tuples(self):
        assert criticality_check(nlhe_scaling_law(2.0), MixedNormParams(2.0, 2.0), 2) == 0.0
        # nu = 3 in n = 1: 1/q + 2/p = 1 at p = 4, q = 2
        assert criticality_check(nlhe_scaling_law(3.0), MixedNormParams(4.0, 2.0), 1) == (
            pytest.approx(0.0, abs=1e-15)
        )

    def test_ns_critical_tuple(self):
        assert criticality_check(ns_scaling_law(), MixedNormParams(4.0, 4.0), 2) == 0.0
        assert criticality_check(ns_scaling_law(), MixedNormParams(2.0, 3.0), 3) == (
            pytest.approx(-1.0)
        )

    def test_sup_norm_counts_no_time_exponent(self):
        got = criticality_check(ns_scaling_law(), MixedNormParams(math.inf, 2.0), 2)
        assert got == pytest.approx(0.0)

    def test_dimension_validated(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            criticality_check(ns_scaling_law(), MixedNormParams(2.0, 2.0), 0)


class TestScalingInvariance:
    def test_critical_tuple_is_invariant(self):
        report = scaling_invariance_test(
            nlhe_scaling_law(2.0), MixedNormParams(2.0, 2.0), 2, [0.5, 2.0]
        )
        assert report.defect == 0.0
        assert report.max_ratio_deviation < 1e-9

    def test_off_critical_exponent_recovered(self):
        """p = 2.5 leaves defect 0.2; measured log-log slope matches."""
        report = scaling_invariance_test(
            nlhe_scaling_law(2.0), MixedNormParams(2.5, 2.0), 2, [0.25, 0.5, 2.0, 4.0]
        )
        assert report.defect == pytest.approx(0.2)
        assert report.max_exponent_error < 1e-6

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError, match="factors must be positive"):
            scaling_invariance_test(
                nlhe_scaling_law(2.0), MixedNormParams(2.0, 2.0), 2, [0.0]
            )


class TestNonlinearityInequality:
    @pytest.mark.parametrize("nu", [1.5, 2.0, 3.0])
    def test_no_violation_found(self, nu):
        """Two-sided power bound holds on random and adversarial pairs."""
        assert nonlinearity_lipschitz_check(nu, 10_000) <= 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="nu must exceed 1"):
            nonlinearity_lipschitz_check(1.0, 10)
        with pytest.raises(ValueError, match="at least one sample"):
            nonlinearity_lipschitz_check(2.0, 0)


class TestSmoothing:
    def test_default_radii_ladder(self, grid2d):
        radii = default_smoothing_radii(grid2d, octaves=4)
        assert len(radii) == 5
        assert all(r > 0 for r in radii)
        np.testing.assert_allclose(np.diff(np.log2(radii)), 1.0)

    def test_ratios_form_plateau(self, grid2d):
        """On broadband fields the gain ratio is flat across the ladder."""
        report = smoothing_estimate_check(
            grid2d, 4.0, default_smoothing_radii(grid2d), num_fields=4
        )
        assert report.max_spread <= 3.0
        assert 0 < report.max_ratio < 10.0
        assert report.source_exponent == pytest.approx(8.0 / 6.0)

    def test_sub_resolution_radius_warns(self, grid2d):
        with pytest.warns(UserWarning, match="below the action scale"):
            smoothing_estimate_check(grid2d, 4.0, [1e-6], num_fields=1)

    def test_source_exponent_must_be_lebesgue(self, grid2d):
        """n = q = 2 drives the source space to L^1, outside scope."""
        with pytest.raises(ValueError, match="must exceed 1"):
            smoothing_estimate_check(grid2d, 2.0, [0.01])

    def test_radii_must_be_positive(self, grid2d):
        # a negative entry also drags the minimum under the resolution warning
        with pytest.warns(UserWarning, match="below the action scale"):
            with pytest.raises(ValueError, match="radii must be positive"):
                smoothing_estimate_check(grid2d, 4.0, [0.01, -0.1])


class TestSampleFields:
    def test_random_field_is_mean_free_and_deterministic(self, grid2d):
        f = random_mean_free_field(grid2d, seed=3, stream=1)
        assert f.coefficients[(0,) + (0,) * 2] == 0.0
        g = random_mean_free_field(grid2d, seed=3, stream=1)
        np.testing.assert_array_equal(f.coefficients, g.coefficients)
        h = random_mean_free_field(grid2d, seed=3, stream=2)
        assert np.any(f.coefficients != h.coefficients)

    def test_band_limit_empties_high_modes(self, grid2d):
        f = random_mean_free_field(grid2d, band_limit=2)
        k = np.fft.fftfreq(16, d=1 / 16)
        outside = np.abs(k) > 2
        assert np.all(f.coefficients[0][outside, :] == 0)
        assert np.all(f.coefficients[0][:, outside] == 0)

    def test_band_limit_zero_rejected(self, grid2d):
        """Only the mean mode has ``|k| <= 0``, and it is removed: the field
        would be zero."""
        with pytest.raises(ValueError, match="band_limit must be at least 1"):
            random_mean_free_field(grid2d, band_limit=0)

    def test_divergence_free_projection(self, grid3d):
        f = random_mean_free_field(grid3d, components=3, divergence_free=True)
        from maxreg_lab import divergence

        assert spatial_lq_norm(divergence(f), 2) < 1e-12

    def test_taylor_green_2d_is_steady(self, grid2d):
        """The 2-D cellular flow's advection term is a pure gradient:
        after projection the nonlinearity vanishes identically."""
        u = taylor_green_field(grid2d)
        b = helmholtz_project(tensor_divergence(u, u))
        assert spatial_lq_norm(b, 2) < 1e-12

    def test_taylor_green_3d_is_not_steady(self, grid3d):
        u = taylor_green_field(grid3d)
        b = helmholtz_project(tensor_divergence(u, u))
        assert spatial_lq_norm(b, 2) > 1e-3

    def test_taylor_green_needs_flow_dimension(self, grid1d):
        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            taylor_green_field(grid1d)


class TestMeasuredLipschitz:
    def test_nlhe_constant_positive_and_deterministic(self, grid2d):
        prob = small_nlhe(grid2d)
        m1 = measured_lipschitz_M(prob, seed=5)
        m2 = measured_lipschitz_M(prob, seed=5)
        assert m1 == m2 > 0
        assert math.isfinite(m1)

    def test_ns_constant_positive(self, grid2d):
        prob = NsProblem(
            params=MixedNormParams(4.0, 4.0),
            u0=divfree_data(grid2d, band_limit=2),
            time_grid=uniform_time_grid(1.0, 17),
        )
        assert measured_lipschitz_M(prob) > 0


class TestExistenceExperiments:
    def test_nlhe_sweep_shape_and_monotonicity(self, grid2d):
        """Small sizes converge, a huge one diverges, order is monotone."""
        prob = small_nlhe(grid2d)
        report = existence_sweep(prob, [0.01, 0.1, 50.0], max_iter=40)
        assert report.M_used > 0
        assert [e.eta for e in report.entries] == [0.01, 0.1, 50.0]
        assert report.entries[0].certificate.converged
        assert not report.entries[-1].certificate.converged
        assert report.threshold == 0.1
        assert report.monotone

    def test_nlhe_converged_runs_stay_in_ball(self, grid2d):
        prob = small_nlhe(grid2d)
        report = existence_sweep(prob, [0.05], max_iter=40)
        entry = report.entries[0]
        cert = entry.certificate
        assert cert.converged and cert.smallness_ok
        assert all(nrm <= 2 * cert.delta + 1e-12 for nrm in cert.iterate_norms)

    def test_nlhe_validation(self, grid2d):
        prob = small_nlhe(grid2d)
        with pytest.raises(ValueError, match="sizes must be nonnegative"):
            existence_sweep(prob, [-0.1])
        zero_prob = NlheProblem(
            nu=2.0,
            params=MixedNormParams(2.0, 2.0),
            u0=SpectralField.zeros(grid2d),
            time_grid=uniform_time_grid(1.0, 9),
        )
        with pytest.raises(ValueError, match="initial field must be nonzero"):
            existence_sweep(zero_prob, [0.1])

    def test_ns_sweep_tracks_divergence(self, grid2d):
        prob = NsProblem(
            params=MixedNormParams(4.0, 4.0),
            u0=divfree_data(grid2d, band_limit=2),
            time_grid=uniform_time_grid(1.0, 33),
            critical=True,
        )
        report = existence_sweep(prob, [0.02, 0.2], max_iter=40)
        assert report.entries[0].certificate.converged
        for entry in report.entries:
            assert entry.max_divergence is not None
            assert entry.max_divergence <= 1e-10


class TestUniqueness:
    def make_problem(self, grid):
        return NlheProblem(
            nu=2.0,
            params=MixedNormParams(4.0, 4.0),
            u0=scalar_data(grid, seed=2) * 0.3,
            time_grid=uniform_time_grid(1.0, 65),
        )

    def test_two_routes_converge_to_same_solution(self, grid2d):
        report = uniqueness_bootstrap(self.make_problem(grid2d), tol=1e-10)
        cu, cv = report.routes
        assert cu.converged and cv.converged
        assert cu.iterate_norms[0] != cv.iterate_norms[0]  # distinct orbits
        assert 0 < report.max_separation < 1e-8  # same fixed point

    def test_bootstrap_completes_on_identical_data(self, grid2d):
        report = uniqueness_bootstrap(self.make_problem(grid2d), tol=1e-10)
        assert report.status == "complete"
        assert report.max_factor <= 0.75
        assert report.max_separation <= 1e-9
        assert report.segments[0][0] == 0.0
        assert report.segments[-1][1] == pytest.approx(1.0)
        assert len(report.factors) == len(report.segments)

    def test_unconverged_route_is_inconclusive(self, grid2d, monkeypatch):
        """A route that does not converge ends the run before the probe."""
        probes = []
        monkeypatch.setattr(problems, "smoothing_estimate_check", lambda *a, **k: probes.append(a))
        report = uniqueness_bootstrap(self.make_problem(grid2d), tol=1e-10, max_iter=2)
        assert not all(cert.converged for cert in report.routes)
        assert report.status == "inconclusive"
        assert report.segments == () and report.smoothing is None and probes == []
        assert math.isnan(report.C_used)

    def test_ns_dimension_restriction_recorded(self, grid3d):
        """q = n = 3 satisfies the endpoint the argument needs."""
        prob = NsProblem(
            params=MixedNormParams(2.0, 3.0),
            u0=divfree_data(grid3d, band_limit=1) * 0.2,
            time_grid=uniform_time_grid(0.5, 33),
        )
        report = uniqueness_bootstrap(prob, tol=1e-10)
        assert all(cert.converged for cert in report.routes)
        assert report.dimension_restriction_met
        assert report.status == "complete"


def bootstrap_ratio_by_resampling(prob, bootstrap_p, seed=0):
    """The bootstrap's sampled Lipschitz ratio measured on its own pairs:
    the sample fields drawn again and scaled in the bootstrap's norm."""
    q, nu = prob.params.q, prob.nu
    boot = MixedNormParams(bootstrap_p, q)
    norm = lambda traj: bochner_mixed_norm(traj, boot)
    amplitude = max(spatial_lq_norm(prob.u0, q), 1e-3)
    grid = prob.u0.grid
    vector = isinstance(prob, NsProblem)
    c1 = 0.0
    for i, scale in enumerate(np.geomspace(0.1, 1.0, 4) * amplitude):
        pair = []
        for j in range(2):
            f = random_mean_free_field(
                grid,
                seed=seed,
                stream=100 + 2 * i + j,
                components=grid.dimension if vector else 1,
                band_limit=max(2, grid.points_per_axis // 8),
                divergence_free=vector,
            )
            h = heat_extension(f, prob.time_grid)
            pair.append(h * (scale / norm(h)))
        uu, vv = pair
        sups = [
            max(spatial_lq_norm(w.state(k), q) for k in range(w.time_grid.num_nodes))
            for w in pair
        ]
        denom = norm(uu - vv) * (sups[0] ** (nu - 1.0) + sups[1] ** (nu - 1.0))
        rhs = (lambda w: ns_rhs_map(w, prob)) if vector else (lambda w: nlhe_rhs_map(w, prob))
        if denom > 0:
            c1 = max(c1, norm(rhs(uu) - rhs(vv)) / denom)
    return c1


class TestSharedSampling:
    """One pass over the sampled pairs gives both constants of a uniqueness run."""

    @staticmethod
    def make_problem(kind, grid):
        if kind == "ns":
            return NsProblem(
                params=MixedNormParams(4.0, 3.0),
                u0=divfree_data(grid, band_limit=2) * 0.2,
                time_grid=uniform_time_grid(0.5, 17),
            )
        return NlheProblem(
            nu=2.5,
            params=MixedNormParams(3.0, 4.0),
            u0=scalar_data(grid) * 0.3,
            time_grid=uniform_time_grid(1.0, 17),
            variant=kind,
        )

    @pytest.mark.parametrize("kind", ["signed", "unsigned", "ns"])
    @pytest.mark.parametrize("bootstrap_p", [2.0, 3.0])
    def test_constants_match_separate_measurements(self, grid2d, kind, bootstrap_p):
        """``M`` is the gate's own constant bit for bit; ``c1`` is the ratio
        measured on the bootstrap's own pairs up to rounding."""
        prob = self.make_problem(kind, grid2d)
        M, c1 = problems._sampled_constants(prob, bootstrap_p, seed=3)
        assert M == measured_lipschitz_M(prob, seed=3)
        expect = bootstrap_ratio_by_resampling(prob, bootstrap_p, seed=3)
        assert c1 == pytest.approx(expect, rel=1e-12)

    def test_ns_unique_run_draws_each_sample_field_once(self, monkeypatch):
        streams = []
        draw = problems.random_mean_free_field

        def counted(grid, **kwargs):
            streams.append(kwargs.get("stream", 0))
            return draw(grid, **kwargs)

        monkeypatch.setattr(problems, "random_mean_free_field", counted)
        tiny = {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}}
        record = run_experiment(load_config({"experiment": "ns-unique", **tiny}))
        assert record.metrics["segments"] > 0  # the bootstrap ran
        assert sorted(s for s in streams if s >= 100) == list(range(100, 108))

    def test_public_call_maps_and_draws_once(self, monkeypatch):
        """One ``uniqueness_bootstrap`` call on the tiny ``ns-unique`` problem
        maps each of the 8 sampled fields once, zero once (the drift check)
        and each route's iterates plus its residual: 25 calls."""
        cfg = load_config(
            {"experiment": "ns-unique", "grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}}
        )
        (prob,) = harness._set_up(cfg)
        maps, streams = [], []
        rhs, draw = problems.ns_rhs_map, problems.random_mean_free_field
        monkeypatch.setattr(problems, "ns_rhs_map", lambda u, prob: maps.append(1) or rhs(u, prob))
        monkeypatch.setattr(
            problems,
            "random_mean_free_field",
            lambda grid, **kw: streams.append(kw.get("stream", 0)) or draw(grid, **kw),
        )
        p = cfg.params
        report = uniqueness_bootstrap(
            prob,
            p=p["bootstrap_p"],
            tol=p["picard_tol"],
            max_iter=p["max_iter"],
            seed=cfg.rng_seed,
        )
        assert report.status == "complete" and report.segments
        assert len(maps) == 8 + 1 + sum(cert.iterations + 1 for cert in report.routes) == 25
        assert sorted(s for s in streams if s >= 100) == list(range(100, 108))
