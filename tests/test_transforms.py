"""Every transform runs on ``scipy.fft``; the shortcuts it allows change no bit.

The symmetric tensor product ``u (x) u`` is transformed once with only its
``i <= j`` entries, and the De Simon time axis is padded to a fast length;
neither may change what the unshortened computation gives.  A state's
physical samples are computed once and carried through its linear
combinations, so one Picard step transforms each component once.
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
    Trajectory,
    bochner_mixed_norm,
    FixedPointProblem,
    de_simon_multiplier_solve,
    heat_extension,
    laplacian_multiplier,
    max_node_divergence,
    nlhe_rhs_map,
    ns_rhs_map,
    pointwise_power_nonlinearity,
    random_mean_free_field,
    run_picard,
    spatial_lq_norm,
    synthetic_forcing_ensemble,
    taylor_green_field,
    tensor_divergence,
    uniform_time_grid,
)
from maxreg_lab import norms, spectral
from maxreg_lab.spectral import _physical_values


@pytest.fixture(params=["grid2d", "grid3d"])
def grid(request):
    return request.getfixturevalue(request.param)


def random_vector_trajectory(grid, rng, nodes=4):
    fields = [
        SpectralField.from_physical(grid, rng.standard_normal((grid.dimension,) + grid.shape))
        for _ in range(nodes)
    ]
    return Trajectory.from_fields(uniform_time_grid(1.0, nodes), fields)


class TestDeSimonPadding:
    @pytest.fixture
    def problem(self, grid2d):
        (forcing,) = synthetic_forcing_ensemble(grid2d, uniform_time_grid(8.0, 257), 1, seed=3)
        return LinearProblem(laplacian_multiplier(), forcing)

    def test_norm_does_not_depend_on_the_padding(self, problem):
        """The ``L^2(L^2)`` norm of ``A u``, which the ``desimon`` ratio uses,
        is the same at 4x and 8x padding (both rounded up to fast lengths)."""
        params = MixedNormParams(p=2.0, q=2.0)
        coarse = de_simon_multiplier_solve(problem, pad_factor=4)
        fine = de_simon_multiplier_solve(problem, pad_factor=8)
        assert coarse.coefficients.shape == fine.coefficients.shape
        assert fine.coefficients.shape == problem.forcing.coefficients.shape
        ratio = bochner_mixed_norm(coarse, params) / bochner_mixed_norm(fine, params)
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_result_owns_its_rows(self, problem):
        """``A u`` holds its own rows, not a view that keeps the padded buffer alive."""
        au = de_simon_multiplier_solve(problem)
        assert au.coefficients.base is None

    def test_only_forced_columns_transformed(self, problem, monkeypatch):
        """One solve transforms ``n_pad`` points per spatial column the
        forcing reaches, not per stored column."""
        points = []
        for name in ("fft", "ifft"):
            original = getattr(scipy.fft, name)

            def counted(x, *args, _original=original, **kwargs):
                points.append(np.size(x))
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counted)
        de_simon_multiplier_solve(problem)
        stored = problem.forcing.spectrum
        k1 = stored.shape[0]
        n_pad = scipy.fft.next_fast_len(4 * k1)
        forced = np.count_nonzero(np.any(stored.reshape(k1, -1) != 0, axis=0))
        assert 0 < forced < stored[0].size
        assert points == [n_pad * forced] * 2

    def test_pad_factor_one_rejected(self, problem):
        with pytest.raises(ValueError, match="pad_factor must be at least 2"):
            de_simon_multiplier_solve(problem, pad_factor=1)


class TestOneTransformBackend:
    """With the ``numpy.fft`` transforms disabled, every layer still runs."""

    @pytest.fixture(autouse=True)
    def no_numpy_transforms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft transform called")

        for name in ("fft", "ifft", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, refuse)

    def test_layers_run(self, grid2d):
        tg = uniform_time_grid(0.5, 5)
        params = MixedNormParams(p=4.0, q=4.0)
        field = SpectralField.from_physical(grid2d, np.cos(grid2d.coordinates[:1]))
        assert field.to_physical().shape == (1,) + grid2d.shape
        assert spatial_lq_norm(field, 3.0) > 0

        ns = NsProblem(params=params, u0=taylor_green_field(grid2d), time_grid=tg)
        u = heat_extension(ns.u0, tg)
        assert ns_rhs_map(u, ns).coefficients.shape == u.coefficients.shape
        assert bochner_mixed_norm(u, params) > 0

        u0 = random_mean_free_field(grid2d, seed=1, band_limit=3)
        nlhe = NlheProblem(nu=2.0, params=params, u0=u0, time_grid=tg)
        assert nlhe_rhs_map(heat_extension(u0, tg), nlhe).components == 1

        (forcing,) = synthetic_forcing_ensemble(grid2d, tg, 1)
        au = de_simon_multiplier_solve(LinearProblem(laplacian_multiplier(), forcing))
        assert au.coefficients.shape == forcing.coefficients.shape


def assert_fresh_samples(traj):
    """``traj.samples`` matches a fresh transform of its coefficients."""
    fresh = _physical_values(traj.coefficients, traj.grid)
    assert np.max(np.abs(traj.samples - fresh)) <= 1e-15 * np.max(np.abs(fresh))


class TestCachedSamples:
    def test_real_samples_own_their_memory(self, grid, rng):
        u = random_vector_trajectory(grid, rng)
        assert u.samples.dtype == np.float64
        assert u.samples.flags.owndata
        assert u.samples is u.samples
        assert_fresh_samples(u)

    def test_linear_operations_carry_samples(self, grid, rng, monkeypatch):
        u = random_vector_trajectory(grid, rng)
        v = random_vector_trajectory(grid, rng)
        u.samples, v.samples
        combinations = (u + v, u - v, u * 0.7, 0.7 * u, -u)
        calls = count_transforms(monkeypatch, grid, nodes=4)
        for w in combinations:
            assert w.samples.dtype == np.float64
        assert calls == []
        monkeypatch.undo()
        for w in combinations:
            assert_fresh_samples(w)

    def test_carried_only_when_every_operand_holds_samples(self, grid, rng, monkeypatch):
        u = random_vector_trajectory(grid, rng)
        v = random_vector_trajectory(grid, rng)
        u.samples
        combinations = (u + v, v - u, u * 1j)
        calls = count_transforms(monkeypatch, grid, nodes=4)
        for w in combinations:
            w.samples
        assert calls == [grid.dimension] * 3
        monkeypatch.undo()
        for w in combinations:
            assert_fresh_samples(w)

    def test_replace_carries_no_stale_samples(self, grid, rng):
        u = random_vector_trajectory(grid, rng)
        u.samples
        w = replace(u, coefficients=2.0 * u.coefficients)
        assert_fresh_samples(w)

    def test_complex_trajectory_keeps_its_imaginary_part(self, grid, rng):
        tg = uniform_time_grid(1.0, 3)
        values = rng.standard_normal((3, 1) + grid.shape) + 1j * rng.standard_normal((3, 1) + grid.shape)
        u = Trajectory(tg, grid, scipy.fft.fftn(values, axes=tuple(range(2, 2 + grid.dimension)), norm="forward"))
        assert np.iscomplexobj(u.samples)
        np.testing.assert_allclose(u.samples, values, rtol=0, atol=1e-14)
        params = MixedNormParams(p=2.0, q=3.0)
        direct = (np.sum(np.abs(values) ** 3, axis=tuple(range(1, 2 + grid.dimension))) * grid.cell_volume) ** (1 / 3)
        expected = np.sum(tg.weights * direct**2) ** 0.5
        assert bochner_mixed_norm(u, params) == pytest.approx(expected, rel=1e-13)
        w = u * 0.5 + u
        assert np.iscomplexobj(w.samples)
        assert_fresh_samples(w)


class TestDealiasedInput:
    """A nonlinear map reads cached samples only for an input inside the
    dealias mask; any other input takes the masked transform, bit for bit."""

    def test_outside_mask_tensor_divergence_unchanged(self, grid, rng):
        u = random_vector_trajectory(grid, rng)
        u.samples
        w = replace(u, coefficients=u.coefficients.copy())
        assert np.array_equal(tensor_divergence(u).coefficients, tensor_divergence(w).coefficients)

    def test_outside_mask_power_unchanged(self, grid, rng):
        fields = [SpectralField.from_physical(grid, rng.standard_normal(grid.shape)) for _ in range(3)]
        u = Trajectory.from_fields(uniform_time_grid(1.0, 3), fields)
        u.samples
        mask = grid.dealias_mask[..., : grid.half_shape[-1]]
        axes = tuple(range(2, 2 + grid.dimension))
        values = scipy.fft.irfftn(u.spectrum * mask, s=grid.shape, axes=axes, norm="forward")
        expected = scipy.fft.rfftn(values**2, axes=axes, norm="forward") * mask
        out = pointwise_power_nonlinearity(u, 2.0, "unsigned")
        assert np.array_equal(out.spectrum, expected)

    def test_inside_mask_reads_the_cache(self, grid, rng, monkeypatch):
        u = dealias_trajectory(random_vector_trajectory(grid, rng))
        w = replace(u, coefficients=u.coefficients.copy())
        with monkeypatch.context() as patch:  # the masked transform of an input outside the mask
            patch.setattr(spectral, "_negligible", lambda *args: False)
            expected = tensor_divergence(w).coefficients
        assert "_samples" not in vars(w)
        u.samples
        calls = count_transforms(monkeypatch, grid, nodes=4)
        out = tensor_divergence(u).coefficients
        assert calls == [grid.dimension * (grid.dimension + 1) // 2]
        assert np.array_equal(out, expected)

    def test_complex_input_to_power_rejected(self, grid):
        tg = uniform_time_grid(1.0, 2)
        u = Trajectory(tg, grid, np.zeros((2, 1) + grid.shape, dtype=complex))
        coeff = u.coefficients.copy()
        coeff[(Ellipsis,) + (1,) * grid.dimension] = 1.0  # e^{ix}: complex, inside the mask
        with pytest.raises(ValueError, match="not real"):
            pointwise_power_nonlinearity(replace(u, coefficients=coeff), 2.0)


def dealias_trajectory(u):
    return replace(u, coefficients=u.coefficients * u.grid.dealias_mask)


def count_transforms(monkeypatch, grid, nodes):
    """Record the number of components each spatial transform call covers
    on a stack of ``nodes`` time nodes, in either storage layout."""
    calls = []
    for name in ("ifftn", "fftn", "irfftn", "rfftn"):
        original = getattr(scipy.fft, name)

        def counted(x, *args, _original=original, **kwargs):
            calls.append(int(np.prod(np.shape(x)[: -grid.dimension])) // nodes)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


class TestPicardTransformBudget:
    @pytest.fixture
    def problem(self, grid):
        tg = uniform_time_grid(0.5, 3)
        params = MixedNormParams(p=4.0, q=4.0)
        ns = NsProblem(params=params, u0=taylor_green_field(grid) * 0.1, time_grid=tg)
        return FixedPointProblem(
            base=heat_extension(ns.u0, tg),
            map_F=lambda traj: ns_rhs_map(traj, ns),
            norm=lambda traj: bochner_mixed_norm(traj, params),
            epsilon=1.0,
        )

    def test_one_step_transforms_each_component_once(self, grid, problem, monkeypatch):
        """A step on an ``n``-component iterate transforms ``n`` components
        back to physical space and the ``n(n+1)/2 - 1`` products of
        ``u (x) u - u_n**2 I`` forward: 4 in 2-D, 8 in 3-D."""
        totals = []
        for steps in (1, 2):
            calls = count_transforms(monkeypatch, grid, nodes=3)
            _, cert = run_picard(problem, steps, 1e-300, lipschitz_M=1e-6)
            assert cert.iterations == steps and not cert.diverged
            totals.append(sum(calls))
            monkeypatch.undo()
        n = grid.dimension
        assert totals[1] - totals[0] == n + n * (n + 1) // 2 - 1

    def test_divergence_evaluated_once_per_iterate(self, grid, problem, monkeypatch):
        evaluated = []
        original = norms.divergence
        monkeypatch.setattr(norms, "divergence", lambda traj: evaluated.append(traj) or original(traj))
        seen = []
        _, cert = run_picard(
            problem, 3, 1e-300, lipschitz_M=1e-6,
            iterate_callback=lambda _k, traj: seen.append(max_node_divergence(traj)),
        )
        # every iterate is checked by the callback and by the map it is fed
        # to (the last one by the residual's); its divergence is computed once
        assert len(seen) == cert.iterations + 1
        assert len({id(traj) for traj in evaluated}) == len(evaluated) == len(seen)
