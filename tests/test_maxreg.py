"""Tests for the linear solver, regularity estimators and operator checks."""

import math

import numpy as np
import pytest

from maxreg_lab import (
    FourierMultiplier,
    LinearProblem,
    MixedNormParams,
    SpectralField,
    TorusGrid,
    Trajectory,
    WeightParams,
    apply_multiplier,
    constant_multiplier,
    de_simon_multiplier_solve,
    estimate_maxreg_constant,
    hormander_check,
    laplacian_multiplier,
    log_time_grid,
    multiplier_sup_norm,
    rbound_estimate,
    resolvent_scalar_multiplier,
    resolvent_via_maxreg,
    sector_multiplier,
    solve_linear_duhamel,
    synthetic_forcing_ensemble,
    uniform_time_grid,
)
from maxreg_lab import maxreg


def cosine_forcing(grid, time_grid, envelope):
    """Trajectory envelope(t) * cos(x_1)."""
    coeff = np.zeros((1,) + grid.shape, dtype=complex)
    idx0 = (0,) * (grid.dimension - 1)
    coeff[(0, 1) + idx0] = 0.5
    coeff[(0, -1 % grid.points_per_axis) + idx0] = 0.5
    stacked = envelope[(slice(None),) + (np.newaxis,) * (grid.dimension + 1)] * coeff
    return Trajectory(time_grid, grid, stacked)


def mode_amplitude(traj, node):
    """Coefficient of e^{i x_1} at a time node (real for cosine data)."""
    idx0 = (0,) * (traj.grid.dimension - 1)
    return traj.coefficients[(node, 0, 1) + idx0]


class TestDuhamelSolver:
    def test_constant_forcing_closed_form(self, grid1d):
        """f = cos(x): each node matches (1 - e^{-t}) cos(x) exactly."""
        tg = uniform_time_grid(2.0, 17)
        forcing = cosine_forcing(grid1d, tg, np.ones(17))
        u = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))
        for i, t in enumerate(tg.nodes):
            expect = 0.5 * (1.0 - math.exp(-t))  # lam = |xi|^2 = 1
            assert mode_amplitude(u, i) == pytest.approx(expect, abs=1e-14)

    def test_linear_forcing_is_exact(self, grid1d):
        """Piecewise-linear forcing is integrated without discretisation error."""
        tg = uniform_time_grid(1.5, 7)  # deliberately coarse
        a, b = 0.8, -0.3
        forcing = cosine_forcing(grid1d, tg, a + b * tg.nodes)
        u = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))
        for i, t in enumerate(tg.nodes):
            # u' + u = a + b t with u(0) = 0, lam = 1
            expect = 0.5 * (a * (1 - math.exp(-t)) + b * (t - 1 + math.exp(-t)))
            assert mode_amplitude(u, i) == pytest.approx(expect, abs=1e-14)

    def test_smooth_forcing_second_order(self, grid1d):
        """Error against sin(2t) closed form shrinks ~4x per node doubling."""
        exact = (math.sin(2.0) - 2 * math.cos(2.0) + 2 * math.exp(-1.0)) / 5.0

        def error(num_nodes):
            tg = uniform_time_grid(1.0, num_nodes)
            forcing = cosine_forcing(grid1d, tg, np.sin(2 * tg.nodes))
            u = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))
            return abs(mode_amplitude(u, num_nodes - 1) - 0.5 * exact)

        ratio = error(33) / error(65)
        assert 3.5 < ratio < 4.5

    def test_nonuniform_grid_supported(self, grid1d):
        """Log-spaced nodes integrate the same constant-forcing solution."""
        tg = log_time_grid(1e-3, 1.0, num_nodes=257)
        forcing = cosine_forcing(grid1d, tg, np.ones(tg.num_nodes))
        u = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))
        expect = 0.5 * (1.0 - math.exp(-1.0))
        assert mode_amplitude(u, tg.num_nodes - 1) == pytest.approx(expect, abs=1e-13)

    def test_nonaccretive_operator_rejected(self, grid1d):
        tg = uniform_time_grid(1.0, 9)
        forcing = cosine_forcing(grid1d, tg, np.ones(9))
        with pytest.raises(ValueError, match="nonnegative real part"):
            LinearProblem(constant_multiplier(-1.0), forcing)

    def test_matrix_symbol_rejected(self, grid1d):
        """The symbol check of ``apply_multiplier`` guards the solver too."""
        tg = uniform_time_grid(1.0, 9)
        forcing = cosine_forcing(grid1d, tg, np.ones(9))
        matrix = FourierMultiplier(lambda xi: np.stack([xi[0] ** 2, xi[0] ** 2]), "matrix")
        with pytest.raises(ValueError, match="does not match grid shape"):
            LinearProblem(matrix, forcing)

    def test_sectorial_rotation_allowed_up_to_boundary(self, grid1d):
        """Rotations with Re e^{i theta} >= 0 stay admissible."""
        tg = uniform_time_grid(1.0, 9)
        forcing = cosine_forcing(grid1d, tg, np.ones(9))
        LinearProblem(sector_multiplier(1.5), forcing)  # ~85.9 degrees: fine
        with pytest.raises(ValueError, match="nonnegative real part"):
            LinearProblem(sector_multiplier(1.8), forcing)


class TestMaxRegEstimate:
    def test_heat_constant_below_one(self, grid2d):
        """-Laplacian at p = q = 2: empirical constant sits in (0, 1]."""
        tg = uniform_time_grid(2.0, 65)
        ensemble = synthetic_forcing_ensemble(grid2d, tg, 6, seed=7)
        report = estimate_maxreg_constant(
            laplacian_multiplier(), MixedNormParams(2.0, 2.0), ensemble
        )
        assert 0.0 < report.C_estimate <= 1.0 + 1e-9
        assert report.ensemble_size == 6
        assert all(m.forcing > 0 for m in report.members)

    def test_threads_do_not_change_floats(self, grid2d):
        tg = uniform_time_grid(1.0, 33)
        ensemble = synthetic_forcing_ensemble(grid2d, tg, 5, seed=3)
        params = MixedNormParams(2.0, 2.0)
        serial = estimate_maxreg_constant(laplacian_multiplier(), params, ensemble)
        pooled = estimate_maxreg_constant(
            laplacian_multiplier(), params, ensemble, threads=3
        )
        assert serial.C_estimate == pooled.C_estimate
        assert [m.ratio for m in serial.members] == [m.ratio for m in pooled.members]

    @pytest.mark.parametrize("operator", [laplacian_multiplier(), sector_multiplier(0.5)])
    def test_derivative_profile_is_that_of_the_difference(self, grid2d, operator):
        """The nodal norms of ``u' = f - A u`` are those of the trajectory
        ``f - A u`` formed after the norms of ``f`` and ``A u``, bit for bit:
        from the samples when ``A u`` keeps the half layout, from the
        difference when a sector symbol makes it full."""
        tg = uniform_time_grid(1.0, 9)
        ensemble = synthetic_forcing_ensemble(grid2d, tg, 2, seed=4)
        profiles = maxreg._member_profiles(operator, 3.0, ensemble, threads=1)
        for f, (_, nodal) in zip(ensemble, profiles):
            au = apply_multiplier(solve_linear_duhamel(LinearProblem(operator, f)), operator)
            f.samples, au.samples  # as the norms of f and A u leave them
            expect = maxreg._node_spatial_norms(f - au, 3.0)
            assert np.array_equal(nodal[1], expect)

    def test_zero_members_skipped_with_warning(self, grid2d):
        tg = uniform_time_grid(1.0, 17)
        good = synthetic_forcing_ensemble(grid2d, tg, 1, seed=5)[0]
        zero = Trajectory.zeros(tg, grid2d)
        with pytest.warns(UserWarning, match="skipped 1 zero-norm"):
            report = estimate_maxreg_constant(
                laplacian_multiplier(), MixedNormParams(2.0, 2.0), [good, zero]
            )
        assert report.ensemble_size == 1

    def test_all_zero_ensemble_rejected(self, grid2d):
        tg = uniform_time_grid(1.0, 17)
        zeros = [Trajectory.zeros(tg, grid2d)] * 3
        with pytest.warns(UserWarning, match="skipped 3 zero-norm"):
            with pytest.raises(ValueError, match="degenerate ensemble"):
                estimate_maxreg_constant(
                    laplacian_multiplier(), MixedNormParams(2.0, 2.0), zeros
                )

    def test_derivative_recovered_from_equation(self, grid1d):
        """The reported derivative norm is the norm of f - A u."""
        tg = uniform_time_grid(1.0, 33)
        forcing = cosine_forcing(grid1d, tg, np.exp(-tg.nodes))
        params = MixedNormParams(2.0, 2.0)
        report = estimate_maxreg_constant(laplacian_multiplier(), params, [forcing])
        u = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))
        au = apply_multiplier(u, laplacian_multiplier())
        from maxreg_lab import bochner_mixed_norm

        assert report.members[0].derivative == pytest.approx(
            bochner_mixed_norm(forcing - au, params), rel=1e-12
        )

    def test_weighted_mu_one_matches_unweighted(self, grid2d):
        tg = uniform_time_grid(1.0, 33)
        ensemble = synthetic_forcing_ensemble(grid2d, tg, 4, seed=2)
        params = MixedNormParams(2.0, 2.0)
        plain = estimate_maxreg_constant(laplacian_multiplier(), params, ensemble)
        weighted = estimate_maxreg_constant(
            laplacian_multiplier(), params, ensemble, weight=WeightParams(mu=1.0)
        )
        assert weighted.C_estimate == plain.C_estimate

    def test_weighted_constant_finite_for_admissible_mu(self, grid2d):
        tg = uniform_time_grid(1.0, 33)
        ensemble = synthetic_forcing_ensemble(grid2d, tg, 4, seed=2)
        report = estimate_maxreg_constant(
            laplacian_multiplier(),
            MixedNormParams(2.0, 2.0),
            ensemble,
            weight=WeightParams(mu=0.7),
        )
        assert math.isfinite(report.C_estimate) and report.C_estimate > 0

    def test_weighted_rejects_bad_mu(self, grid2d):
        tg = uniform_time_grid(1.0, 17)
        ensemble = synthetic_forcing_ensemble(grid2d, tg, 1, seed=1)
        with pytest.raises(ValueError, match="mu must satisfy"):
            estimate_maxreg_constant(
                laplacian_multiplier(),
                MixedNormParams(2.0, 2.0),
                ensemble,
                weight=WeightParams(mu=0.4),
            )

    def test_bad_weight_rejected_before_any_solve(self, grid2d, monkeypatch):
        """The weight is checked before the members are solved."""
        tg = uniform_time_grid(1.0, 17)
        ensemble = synthetic_forcing_ensemble(grid2d, tg, 2, seed=1)
        solves = []
        monkeypatch.setattr(maxreg, "solve_linear_duhamel", lambda prob: solves.append(prob))
        with pytest.raises(ValueError, match="mu must satisfy"):
            estimate_maxreg_constant(
                laplacian_multiplier(),
                MixedNormParams(2.0, 2.0),
                ensemble,
                weight=WeightParams(mu=0.4),
            )
        assert solves == []


class TestResolventProbe:
    def test_matches_symbol_division(self, grid1d, rng):
        """Time-integrated resolvent agrees with the exact (z+A)^{-1}."""
        x = SpectralField.from_physical(grid1d, rng.standard_normal((1,) + grid1d.shape))
        for z in (1.0, 1.0 + 10.0j, 100.0):
            probe = resolvent_via_maxreg(laplacian_multiplier(), z, x)
            assert probe.deviation < 1e-6
            np.testing.assert_allclose(
                probe.value.coefficients, probe.exact.coefficients, atol=1e-7
            )

    def test_sectorial_bound(self, grid1d, rng):
        """||R_z x|| (1 + |z|) / ||x|| stays order one on the right half-plane."""
        x = SpectralField.from_physical(grid1d, rng.standard_normal((1,) + grid1d.shape))
        probe = resolvent_via_maxreg(laplacian_multiplier(), 1.0 + 10.0j, x)
        assert probe.bound_constant <= 2.1

    def test_left_half_plane_rejected(self, grid1d, rng):
        x = SpectralField.from_physical(grid1d, rng.standard_normal((1,) + grid1d.shape))
        with pytest.raises(ValueError, match="requires Re z > 0"):
            resolvent_via_maxreg(laplacian_multiplier(), -1.0, x)


class TestHormanderCheck:
    def test_single_rate_closed_form(self, grid1d):
        """Constant symbol lam: integral is e^{-s lam}(1 - e^{-s lam})."""
        op = constant_multiplier(2.0)
        shifts = [0.05, 0.3, 1.0]
        report = hormander_check(op, shifts, grid1d)
        for s, got in zip(shifts, report.integrals):
            expect = math.exp(-2 * s) * (1 - math.exp(-2 * s))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_envelope_walk_against_quadrature_oracle(self, grid1d):
        """Exact envelope integration vs. dense log-spaced trapezoid."""
        spectrum = grid1d.laplacian_spectrum
        lams = spectrum[spectrum > 0]
        report = hormander_check(laplacian_multiplier(), [0.02, 0.5], grid1d)
        for s, got in zip(report.shifts, report.integrals):
            span = 60.0 / lams.min()
            u = np.concatenate([[0.0], np.geomspace(1e-9 * span, span, 200001)])
            t = 2 * s + u
            vals = np.max(
                lams[:, None] * np.exp(-(t[None, :] - s) * lams[:, None])
                * (1 - np.exp(-s * lams[:, None])),
                axis=0,
            )
            oracle = float(np.trapezoid(vals, t))
            assert got == pytest.approx(oracle, rel=1e-6)

    def test_joint_rescaling_invariance(self, grid1d):
        """Integrals depend on s and the spectrum only through s * lam."""
        shifts = np.array([0.05, 0.2, 1.0])
        base = hormander_check(laplacian_multiplier(), shifts, grid1d)
        c = 4.0
        scaled_op = FourierMultiplier(
            lambda xi: c * np.sum(xi**2, axis=0), "scaled laplacian"
        )
        scaled = hormander_check(scaled_op, shifts / c, grid1d)
        np.testing.assert_allclose(scaled.integrals, base.integrals, rtol=1e-12)

    def test_c_estimate_is_max_and_bounded(self, grid1d):
        report = hormander_check(laplacian_multiplier(), [0.05, 0.2, 1.0], grid1d)
        assert report.c_estimate == max(report.integrals)
        # scalar bound: e^{-x}(1 - e^{-x}) <= 1/4, envelopes of all rates
        assert report.c_estimate < 1.0

    def test_input_validation(self, grid1d):
        with pytest.raises(ValueError, match="shift samples must be nonzero"):
            hormander_check(laplacian_multiplier(), [0.0], grid1d)
        with pytest.raises(ValueError, match="real nonnegative symbol"):
            hormander_check(sector_multiplier(0.5), [0.1], grid1d)


class TestDeSimonRoute:
    def test_agrees_with_duhamel_route(self, grid1d):
        """Independent A u computations coincide on a long window."""
        tg = uniform_time_grid(8.0, 4097)
        envelope = tg.nodes**2 * np.exp(-2 * tg.nodes)
        forcing = cosine_forcing(grid1d, tg, envelope)
        prob = LinearProblem(laplacian_multiplier(), forcing)
        au_fourier = de_simon_multiplier_solve(prob)
        au_time = apply_multiplier(solve_linear_duhamel(prob), laplacian_multiplier())
        num = np.sqrt(np.sum(np.abs(au_fourier.coefficients - au_time.coefficients) ** 2))
        den = np.sqrt(np.sum(np.abs(au_time.coefficients) ** 2))
        assert num / den < 2e-6

    def test_requires_uniform_grid(self, grid1d):
        tg = log_time_grid(1e-3, 1.0, num_nodes=65)
        forcing = cosine_forcing(grid1d, tg, np.ones(tg.num_nodes))
        with pytest.raises(ValueError, match="uniform time grid"):
            de_simon_multiplier_solve(LinearProblem(laplacian_multiplier(), forcing))

    def test_pad_factor_floor(self, grid1d):
        tg = uniform_time_grid(1.0, 17)
        forcing = cosine_forcing(grid1d, tg, np.ones(17))
        prob = LinearProblem(laplacian_multiplier(), forcing)
        with pytest.raises(ValueError, match="pad_factor must be at least 2"):
            de_simon_multiplier_solve(prob, pad_factor=1)

    def test_multiplier_sup_is_exactly_one_for_heat(self, grid2d):
        """|i s (i s + lam)^{-1}| -> 1 as s -> inf; the sup is attained."""
        sigma = np.linspace(-64, 64, 257)
        assert multiplier_sup_norm(laplacian_multiplier(), sigma, grid2d) == 1.0

    def test_rotated_symbol_unbounded(self, grid1d):
        """A frequency on the rotated spectrum blows the multiplier up."""
        op = FourierMultiplier(lambda xi: 1j * np.sum(xi**2, axis=0), "i*laplacian")
        assert multiplier_sup_norm(op, [-1.0], grid1d) == math.inf
        # the float-rotated version lands within rounding of the pole
        assert multiplier_sup_norm(sector_multiplier(math.pi / 2), [-1.0], grid1d) > 1e12


class TestRBoundEstimate:
    def test_scalar_family_pins_largest_coefficient(self, grid1d):
        family = [constant_multiplier(c) for c in (2.0, -0.5, 1.0, 0.25)]
        est = rbound_estimate(family, 4, grid=grid1d, seed=0)
        assert est.exact_signs  # 4 <= 12 operators: all 16 sign patterns
        assert est.uniform_bound == 2.0
        assert est.estimate == pytest.approx(2.0, rel=0.05)

    def test_identity_family(self, grid1d):
        est = rbound_estimate([constant_multiplier(1.0)], 2, grid=grid1d)
        assert est.estimate == pytest.approx(1.0, rel=0.02)

    def test_prefix_families_share_samples(self, grid1d):
        """Shared per-(trial, index) streams make prefix runs nested."""
        family = [constant_multiplier(c) for c in (1.0, -0.5, 2.0)]
        full = rbound_estimate(family, 3, grid=grid1d, seed=9)
        prefix = rbound_estimate(family[:2], 3, grid=grid1d, seed=9)
        assert prefix.estimate <= full.estimate + 1e-12

    def test_estimate_dominates_individual_norms(self, grid1d):
        family = [resolvent_scalar_multiplier(s) for s in (0.5, 1.0, 2.0, 4.0)]
        est = rbound_estimate(family, 4, grid=grid1d)
        assert est.estimate >= est.uniform_bound - 1e-12
        assert est.uniform_bound <= 1.0 + 1e-12

    def test_validation(self, grid1d):
        with pytest.raises(ValueError, match="at least one operator"):
            rbound_estimate([], 1, grid=grid1d)
        with pytest.raises(ValueError, match="at least one trial"):
            rbound_estimate([constant_multiplier(1.0)], 0, grid=grid1d)
