"""Every transform runs on ``scipy.fft``; the shortcuts it allows change no bit.

The symmetric tensor product ``u (x) u`` is transformed once with only its
``i <= j`` entries, and the De Simon time axis is padded to a fast length;
neither may change what the unshortened computation gives.
"""

from dataclasses import replace

import numpy as np
import pytest

from maxreg_lab import (
    LinearProblem,
    MixedNormParams,
    NlheProblem,
    NsProblem,
    SpectralField,
    Trajectory,
    bochner_mixed_norm,
    de_simon_multiplier_solve,
    heat_extension,
    laplacian_multiplier,
    nlhe_rhs_map,
    ns_rhs_map,
    random_mean_free_field,
    spatial_lq_norm,
    synthetic_forcing_ensemble,
    taylor_green_field,
    tensor_divergence,
    uniform_time_grid,
)


@pytest.fixture(params=["grid2d", "grid3d"])
def grid(request):
    return request.getfixturevalue(request.param)


def random_vector_trajectory(grid, rng, nodes=4):
    fields = [
        SpectralField.from_physical(grid, rng.standard_normal((grid.dimension,) + grid.shape))
        for _ in range(nodes)
    ]
    return Trajectory.from_fields(uniform_time_grid(1.0, nodes), fields)


class TestSymmetricTensorDivergence:
    def test_trajectory(self, grid, rng):
        u = random_vector_trajectory(grid, rng)
        w = replace(u, coefficients=u.coefficients.copy())
        assert w is not u
        assert np.array_equal(tensor_divergence(u, u).coefficients, tensor_divergence(u, w).coefficients)

    def test_single_field(self, grid, rng):
        u = random_vector_trajectory(grid, rng, nodes=2).state(1)
        w = replace(u, coefficients=u.coefficients.copy())
        assert np.array_equal(tensor_divergence(u, u).coefficients, tensor_divergence(u, w).coefficients)


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
        assert field.to_physical(require_real=True).shape == (1,) + grid2d.shape
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
