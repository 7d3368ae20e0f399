"""The Navier–Stokes Picard step in fewer passes.

The momentum forcing ``-P div(u (x) u)`` is one contraction of the product
spectra with a per-mode kernel kept on the grid's layout; the Duhamel
recurrence runs in place on precombined coefficients; the nodewise ``L^q``
norms reduce ``|u|**2`` without full-size temporaries; the heat damping
table is kept on its time grid; the existence sweep maps zero once; and the next iterate
is written into the step's own array.  Each new path is checked against
the formula it replaced, kept here as the reference.
"""

import gc
import operator
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from maxreg_lab import (
    FixedPointProblem,
    LinearProblem,
    MixedNormParams,
    NlheProblem,
    NsProblem,
    TorusGrid,
    Trajectory,
    besov_heat_norm,
    heat_extension,
    helmholtz_project,
    laplacian_multiplier,
    log_time_grid,
    momentum_forcing,
    random_mean_free_field,
    run_picard,
    solve_linear_duhamel,
    tensor_divergence,
    uniform_time_grid,
)
from maxreg_lab import problems, spectral
from maxreg_lab.harness import load_config, run_experiment
from maxreg_lab.maxreg import _phi12
from maxreg_lab.norms import _lq_magnitude
from test_memory_budget import CASES

STACKS = [(TorusGrid(2, 64), 65), (TorusGrid(3, 16), 33)]
STACK_IDS = ["65x64^2", "33x16^3"]


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def band_limited_stack(grid, nodes):
    """A divergence-free heat flow inside the dealias mask (cached samples path)."""
    u0 = random_mean_free_field(
        grid,
        seed=2,
        components=grid.dimension,
        band_limit=grid.points_per_axis // 8,
        divergence_free=True,
    )
    return heat_extension(u0, uniform_time_grid(0.5, nodes))


def rough_stack(grid, nodes, rng):
    """Real samples with energy on every mode (masked transform path)."""
    values = rng.standard_normal((nodes, grid.dimension) + grid.shape)
    spectrum = scipy.fft.rfftn(values, axes=tuple(range(2, 2 + grid.dimension)), norm="forward")
    return Trajectory(uniform_time_grid(1.0, nodes), grid, spectrum)


def half_mask(grid):
    return grid.dealias_mask[..., : grid.half_shape[-1]]


def gather_tensor_divergence(u, v):
    """``div(u (x) v)`` as it was formed before the kernels: all ``n**2``
    dealiased products gathered into an ``(..., n, n)`` stack and contracted
    with the dealiased wavevectors."""
    grid = u.grid
    n = grid.dimension
    axes = tuple(range(-n, 0))
    mask = half_mask(grid)
    up, vp = (
        scipy.fft.irfftn(w.spectrum * mask, s=grid.shape, axes=axes, norm="forward") for w in (u, v)
    )
    products = up[:, :, np.newaxis] * vp[:, np.newaxis, :]  # [t, i, j] = u_i v_j
    coeff = scipy.fft.rfftn(products, axes=axes, norm="forward")
    dealiased_xi = grid.xi[..., : grid.half_shape[-1]] * mask
    return 1j * np.einsum("i...,tij...->tj...", dealiased_xi, coeff)


@pytest.mark.parametrize("grid, nodes", STACKS, ids=STACK_IDS)
class TestContractionKernels:
    @pytest.mark.parametrize("band_limited", [True, False], ids=["band-limited", "rough"])
    def test_forcing_equals_projected_divergence(self, grid, nodes, band_limited, rng):
        u = band_limited_stack(grid, nodes) if band_limited else rough_stack(grid, nodes, rng)
        forcing = momentum_forcing(u)
        expected = -helmholtz_project(tensor_divergence(u)).spectrum
        assert max_rel(forcing.spectrum, expected) <= 1e-15

    def test_forcing_keeps_half_layout_and_mask(self, grid, nodes):
        forcing = momentum_forcing(band_limited_stack(grid, nodes))
        assert forcing.spectrum.shape[2:] == grid.half_shape
        assert np.any(forcing.spectrum)
        assert not np.any(forcing.spectrum[..., ~half_mask(grid)])

    def test_two_operand_divergence_matches_gather(self, grid, nodes, rng):
        u = rough_stack(grid, nodes, rng)
        out = tensor_divergence(u).spectrum
        assert max_rel(out, gather_tensor_divergence(u, u)) <= 1e-15
        assert not np.any(out[..., ~half_mask(grid)])

    def test_kernels_built_once_per_layout(self, grid, nodes):
        u = band_limited_stack(grid, nodes)
        momentum_forcing(u)
        kernel = grid.layout.forcing_kernel
        momentum_forcing(u * 0.5)
        assert grid.layout.forcing_kernel is kernel

    def test_product_slots_built_once(self, grid, nodes, monkeypatch):
        """Every node block of a map reads the same read-only operand indices."""
        n = grid.dimension
        u = band_limited_stack(grid, nodes)
        rows, cols = spectral._product_slots(n)
        built = []
        monkeypatch.setattr(np, "triu_indices", lambda *args: built.append(args))
        momentum_forcing(u)
        assert not built and spectral._product_slots(n)[0] is rows
        assert not rows.flags.writeable and not cols.flags.writeable
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        assert list(zip(rows.tolist(), cols.tolist())) == pairs


@pytest.mark.parametrize("n", [2, 3])
def test_forcing_at_four_points(n, rng):
    """At 4 points per axis, where every mode but ``k = 0, +-1`` lies on a
    Nyquist row, the forcing of a rough stack still matches the projected
    divergence."""
    grid = TorusGrid(n, 4)
    u = rough_stack(grid, 5, rng)
    assert np.any(u.spectrum[..., -1])
    forcing = momentum_forcing(u)
    expected = -helmholtz_project(tensor_divergence(u)).spectrum
    assert forcing.spectrum.shape == expected.shape
    assert max_rel(forcing.spectrum, expected) <= 1e-15


def test_forcing_in_one_dimension_is_zero(rng):
    """In 1-D ``u (x) u - u_1**2 I`` is zero, no product is formed, and
    ``P`` removes every nonzero mode of the divergence."""
    grid = TorusGrid(1, 8)
    u = Trajectory(uniform_time_grid(1.0, 3), grid, rng.standard_normal((3, 1, 5)) + 0j)
    assert not np.any(momentum_forcing(u).spectrum)
    assert not np.any(helmholtz_project(tensor_divergence(u)).spectrum[..., 1:])


class TestStateEnergy:
    @pytest.fixture
    def prob(self, grid2d):
        u0 = random_mean_free_field(
            grid2d, seed=0, components=2, band_limit=2, divergence_free=True
        )
        time_grid = uniform_time_grid(1.0, 9)
        return NsProblem(params=MixedNormParams(4.0, 4.0), u0=u0, time_grid=time_grid)

    def test_map_sums_its_input_once(self, prob, monkeypatch):
        """The amplitude and both guards of a map evaluation read one total
        energy of the input, kept on it and released with it."""
        u = heat_extension(prob.u0, prob.time_grid)
        whole = []
        energy = spectral._energy

        def counting(block, *args):
            whole.append(block is u.spectrum)
            return energy(block, *args)

        monkeypatch.setattr(spectral, "_energy", counting)
        problems.ns_rhs_map(u, prob)
        problems.ns_rhs_map(u, prob)
        assert sum(whole) == 1
        ref = weakref.ref(u._node_energy)
        assert ref().shape == (prob.time_grid.num_nodes,)
        del u
        gc.collect()
        assert ref() is None

    def test_plus_minus_is_sum_then_difference(self, grid2d, rng):
        a, f, u = (rough_stack(grid2d, 5, rng) for _ in range(3))
        for holding in ((a, u), (a, f, u)):
            for x in holding:
                x.samples
            got = total = a + f
            got -= u
            want = a + f - u
            assert got is total
            assert np.array_equal(got.spectrum, want.spectrum)
            assert ("_samples" in vars(got)) == ("_samples" in vars(want))
            assert np.array_equal(got.samples, want.samples)


def reference_duhamel(lam, f, nodes):
    """The recurrence ``solve_linear_duhamel`` ran before its coefficients were precombined."""
    u = np.zeros_like(f)
    for i, h in enumerate(np.diff(nodes)):
        z = -lam * h
        decay = np.exp(z)
        phi1, phi2 = _phi12(z)
        u[i + 1] = decay * u[i] + h * (phi1 * f[i] + phi2 * (f[i + 1] - f[i]))
    return u


@pytest.mark.parametrize(
    "time_grid", [uniform_time_grid(2.0, 33), log_time_grid(1e-3, 2.0, 24)], ids=["uniform", "log"]
)
def test_duhamel_matches_reference_recurrence(grid2d, time_grid, rng):
    values = rng.standard_normal((time_grid.num_nodes, 2) + grid2d.shape)
    forcing = Trajectory(time_grid, grid2d, scipy.fft.rfftn(values, axes=(2, 3), norm="forward"))
    out = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))
    lam = grid2d.layout.xi_sq
    assert max_rel(out.spectrum, reference_duhamel(lam, forcing.spectrum, time_grid.nodes)) <= 1e-14


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0, np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("components", [1, 3])
def test_lq_magnitude_matches_direct_formula(grid3d, rng, q, dtype, components):
    """A complex field is measured as its real and imaginary parts, stacked
    as real components (the resolvent probe's fields)."""
    values = rng.standard_normal((5, components) + grid3d.shape).astype(dtype)
    measured = values
    if dtype is complex:
        values += 1j * rng.standard_normal(values.shape)
        measured = np.concatenate([values.real, values.imag], axis=1)
    magnitude = np.sqrt(np.sum(np.abs(values) ** 2, axis=1)).reshape(5, -1)
    if np.isinf(q):
        expected = np.max(magnitude, axis=-1)
    else:
        expected = (np.sum(magnitude**q, axis=-1) * grid3d.cell_volume) ** (1.0 / q)
    np.testing.assert_allclose(_lq_magnitude(measured, grid3d, q), expected, rtol=1e-14, atol=0)


def test_heat_damping_kept_on_its_time_grid(grid2d):
    """The heat extensions on one time grid share one damping table, which
    goes when the time grid does."""
    time_grid = uniform_time_grid(1.0, 9)
    u0 = random_mean_free_field(grid2d, seed=1, band_limit=3)
    a = heat_extension(u0, time_grid)
    table = vars(time_grid)["_heat_damping"][1]
    b = heat_extension(u0 * 2.0, time_grid)
    assert vars(time_grid)["_heat_damping"][1] is table
    xi_sq = grid2d.layout.xi_sq
    damp = np.exp(-np.multiply.outer(time_grid.nodes, xi_sq))
    expected = u0.spectrum[np.newaxis] * damp[:, np.newaxis]
    assert np.array_equal(a.spectrum, expected)
    assert np.array_equal(b.spectrum, 2.0 * expected)
    gone = weakref.ref(table)
    del time_grid, a, b, table
    gc.collect()
    assert gone() is None


class TestZeroMapOncePerSweep:
    @pytest.fixture
    def prob(self, grid2d):
        u0 = random_mean_free_field(
            grid2d, seed=0, components=2, band_limit=2, divergence_free=True
        )
        time_grid = uniform_time_grid(1.0, 9)
        return NsProblem(params=MixedNormParams(4.0, 4.0), u0=u0, time_grid=time_grid)

    def test_three_sizes_map_zero_once(self, prob, monkeypatch):
        zero_inputs = []
        ns_rhs_map = problems.ns_rhs_map

        def counting(u, p):
            if not np.any(u.spectrum):
                zero_inputs.append(u)
            return ns_rhs_map(u, p)

        monkeypatch.setattr(problems, "ns_rhs_map", counting)
        report = problems.existence_sweep(prob, [0.01, 0.02, 0.04])
        assert len(report.entries) == 3
        assert len(zero_inputs) == 1

    def test_zero_size_maps_zero_only_for_the_drift(self, prob, monkeypatch):
        """The ``eta = 0`` run is the zero data path: neither its step nor
        its residual evaluates the map."""
        zero_inputs = []
        ns_rhs_map = problems.ns_rhs_map

        def counting(u, p):
            zero_inputs.append(not np.any(u.spectrum))
            return ns_rhs_map(u, p)

        monkeypatch.setattr(problems, "ns_rhs_map", counting)
        report = problems.existence_sweep(prob, [0.0, 0.01])
        assert sum(zero_inputs) == 1
        cert = report.entries[0].certificate
        assert cert.converged and cert.iterations == 1 and cert.final_norm == 0.0

    def test_map_not_vanishing_at_zero_is_rejected(self, prob, monkeypatch):
        offset = heat_extension(prob.u0 * 1e-3, prob.time_grid)
        ns_rhs_map = problems.ns_rhs_map
        monkeypatch.setattr(problems, "ns_rhs_map", lambda u, p: ns_rhs_map(u, p) + offset)
        with pytest.raises(ValueError, match=r"map_F\(0\) must vanish"):
            problems.existence_sweep(prob, [0.01, 0.02, 0.04])


class Plain:
    """A trajectory behind ``+``, ``-`` and ``*`` only, so each ``-=`` and
    ``+=`` of ``run_picard`` on it forms a new state: ``a + F(u) - u``,
    ``change + u`` and ``u - a - F(u)``."""

    def __init__(self, traj):
        self.traj = traj

    def __add__(self, other):
        return type(self)(self.traj + other.traj)

    def __sub__(self, other):
        return type(self)(self.traj - other.traj)

    def __mul__(self, scalar):
        return type(self)(self.traj * scalar)


class Counted(Plain):
    """:class:`Plain` with ``+=`` and ``-=`` written through the
    trajectory's own, each call counted."""

    calls = 0

    def __iadd__(self, other):
        Counted.calls += 1
        self.traj += other.traj
        return self

    def __isub__(self, other):
        Counted.calls += 1
        self.traj -= other.traj
        return self


def picard_problems(prob, base):
    """The same fixed-point problem over trajectories and over :class:`Plain`."""
    direct = FixedPointProblem(base=base, map_F=prob.rhs, norm=prob.norm, epsilon=prob.epsilon)
    plain = FixedPointProblem(
        base=Plain(replace(base, coefficients=base.spectrum)),
        map_F=lambda w: Plain(prob.rhs(w.traj)),
        norm=lambda w: prob.norm(w.traj),
        epsilon=prob.epsilon,
    )
    return direct, plain


def ns_problem(grid):
    u0 = random_mean_free_field(
        grid, seed=0, components=grid.dimension, band_limit=2, divergence_free=True
    )
    params = MixedNormParams(4.0, 4.0)
    u0 = u0 * (0.3 / besov_heat_norm(u0, params))
    return NsProblem(params=params, u0=u0, time_grid=uniform_time_grid(1.0, 9))


class TestIterateInPlace:
    """The next iterate is written into the step's own array, the residual
    is one new array, and the base keeps no samples; every bit is that of
    ``+`` and ``-`` alone."""

    @pytest.fixture(params=["ns-16^2", "ns-4^2", "nlhe-16^2"])
    def prob(self, request):
        if request.param == "nlhe-16^2":
            u0 = random_mean_free_field(TorusGrid(2, 16), seed=0, band_limit=3) * 0.3
            return NlheProblem(
                nu=2.0, params=MixedNormParams(4.0, 4.0), u0=u0, time_grid=uniform_time_grid(1.0, 9)
            )
        return ns_problem(TorusGrid(2, 4 if request.param == "ns-4^2" else 16))

    @pytest.mark.parametrize("routed", [False, True], ids=["from-base", "from-start"])
    def test_bits_of_the_generic_path(self, prob, routed):
        """Certificate and solution equal those over :class:`Plain`, from the base
        and from a start that carries the base's samples times 1.001 (route
        two of the uniqueness run)."""
        a = heat_extension(prob.u0, prob.time_grid)
        direct, plain = picard_problems(prob, a)
        start, plain_start = None, None
        if routed:
            start = problems._inflated(a, 1.001)
            plain_start = Plain(problems._inflated(plain.base.traj, 1.001))
        u, cert = run_picard(direct, 12, 1e-12, lipschitz_M=0.01, start=start)
        w, want = run_picard(plain, 12, 1e-12, lipschitz_M=0.01, start=plain_start)
        assert cert == want and cert.iterations > 1
        assert np.array_equal(u.spectrum, w.traj.spectrum)
        assert np.array_equal(u.samples, w.traj.samples)

    def test_iterate_at_four_points_written_in_place(self, monkeypatch):
        """At 4 points per axis, where the momentum map's input carries energy
        on Nyquist rows, the iterate stays a half spectrum: every ``-=`` and
        ``+=`` of a step and of the residual writes into its state."""
        written = []
        in_place = spectral._CoefficientArithmetic._in_place

        def recorded(self, op, other):
            out = in_place(self, op, other)
            written.append(out is self)
            return out

        monkeypatch.setattr(spectral._CoefficientArithmetic, "_in_place", recorded)
        prob = ns_problem(TorusGrid(2, 4))
        direct, plain = picard_problems(prob, heat_extension(prob.u0, prob.time_grid))
        u, cert = run_picard(direct, 12, 1e-12, lipschitz_M=0.01)
        w, want = run_picard(plain, 12, 1e-12, lipschitz_M=0.01)
        assert len(written) == 2 * cert.iterations + 1 and all(written)
        assert cert == want and np.array_equal(u.spectrum, w.traj.spectrum)

    def test_in_place_operators_counted(self, prob):
        """A state with ``+=`` and ``-=`` has them applied twice per step
        and once for the residual, and gets the certificate of one without."""
        a = heat_extension(prob.u0, prob.time_grid)
        _, plain = picard_problems(prob, a)
        counted = replace(
            plain, base=Counted(plain.base.traj), map_F=lambda w: Counted(prob.rhs(w.traj))
        )
        Counted.calls = 0
        _, cert = run_picard(counted, 12, 1e-12, lipschitz_M=0.01)
        _, want = run_picard(plain, 12, 1e-12, lipschitz_M=0.01)
        assert Counted.calls == 2 * cert.iterations + 1
        assert cert == want and cert.converged

    def test_handed_out_iterates_are_never_written(self, prob):
        """Neither the base, a given start nor any iterate handed to the
        callback is written by the run."""
        a = heat_extension(prob.u0, prob.time_grid)
        direct, _ = picard_problems(prob, a)
        for start in (None, a * 1.001):
            handed = []

            def keep(_k, traj):
                handed.append((traj, traj.spectrum.copy(), vars(traj).get("_samples").copy()))

            given = [(x, x.spectrum.copy()) for x in (a, start) if x is not None]
            _, cert = run_picard(
                direct, 12, 1e-12, lipschitz_M=0.01, start=start, iterate_callback=keep
            )
            assert len(handed) == cert.iterations + 1 > 2
            assert len({id(traj) for traj, _, _ in handed}) == len(handed)
            for traj, spectrum, samples in handed:
                assert np.array_equal(traj.spectrum, spectrum)
                assert np.array_equal(traj.samples, samples)
            for x, spectrum in given:
                assert np.array_equal(x.spectrum, spectrum)

    def test_base_keeps_no_samples(self, prob):
        """The gate's norm caches the samples on the first iterate, which
        the first step replaces, and not on the base the caller holds."""
        a = heat_extension(prob.u0, prob.time_grid)
        direct, _ = picard_problems(prob, a)
        seen = []
        run_picard(
            direct, 12, 1e-12, lipschitz_M=0.01,
            iterate_callback=lambda k, traj: seen.append(traj is a or "_samples" in vars(a)),
        )
        assert seen and not any(seen) and "_samples" not in vars(a)

    def test_base_keeps_no_samples_beside_a_start(self, prob):
        """With a ``start``, the gate's norm caches the samples on a copy
        of the base, which goes before the start's own norm."""
        a = heat_extension(prob.u0, prob.time_grid)
        direct, _ = picard_problems(prob, a)
        _, cert = run_picard(direct, 12, 1e-12, lipschitz_M=0.01, start=a * 1.001)
        assert cert.iterations > 1 and "_samples" not in vars(a)

    def test_inflated_start_carries_scaled_samples(self, prob):
        """Route two's start holds ``a.samples * 1.001`` bit for bit, and
        ``a`` no samples."""
        a = heat_extension(prob.u0, prob.time_grid)
        start = problems._inflated(a, 1.001)
        assert "_samples" not in vars(a)
        assert np.array_equal(start.spectrum, (a * 1.001).spectrum)
        assert np.array_equal(vars(start)["_samples"], a.samples * 1.001)

    def test_residual_is_one_array(self, grid2d, rng):
        a, f, u = (rough_stack(grid2d, 5, rng) for _ in range(3))
        for x in (a, u):
            x.samples
        got = gap = u - a
        got -= f
        want = u - a - f
        assert got is gap
        assert np.array_equal(got.spectrum, want.spectrum)
        assert "_samples" not in vars(got)


class TestInPlaceOperators:
    def test_state_with_itself(self, grid2d, rng):
        """``u += u`` and ``u -= u`` give the spectrum and samples of
        ``u + u`` and ``u - u`` bit for bit, in ``u``'s own arrays."""
        for op, iop in ((operator.add, operator.iadd), (operator.sub, operator.isub)):
            u = rough_stack(grid2d, 5, rng)
            u.samples
            want = op(u, u)
            got = iop(u, u)
            assert got is u
            assert np.array_equal(got.spectrum, want.spectrum)
            assert "_samples" in vars(got)
            assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("other", ["grid", "components", "time-grid"])
    def test_incompatible_operand_refused_before_any_write(self, other, rng):
        """``+=`` with a state on another grid, component count or time grid
        raises and leaves the left operand as it was."""
        grid, time_grid = TorusGrid(2, 8), uniform_time_grid(1.0, 3)
        x = rough_stack(grid, 3, rng)
        y = {
            "grid": rough_stack(TorusGrid(2, 16), 3, rng),
            "components": Trajectory.zeros(time_grid, grid, components=1),
            "time-grid": Trajectory.zeros(uniform_time_grid(2.0, 3), grid, components=2),
        }[other]
        x.samples
        kept = x.spectrum.copy(), x.samples.copy()
        with pytest.raises(ValueError, match="different grids"):
            x += y
        assert np.array_equal(x.spectrum, kept[0]) and np.array_equal(x.samples, kept[1])

    def test_real_scale_writes_spectrum_and_samples(self, rng):
        """``u *= r`` for a real ``r`` gives the spectrum and samples of
        ``u * r`` bit for bit, in ``u``'s own arrays, and drops the node
        energy and ``max_divergence``."""
        grid = TorusGrid(2, 16)
        u, twin = (rough_stack(grid, 5, np.random.default_rng(7)) for _ in range(2))
        for w in (u, twin):
            w.samples, w._node_energy, w.max_divergence
        want = twin * 0.37
        arrays = u.spectrum, u.samples
        got = u
        got *= 0.37
        assert got is u
        assert got.spectrum is arrays[0] and vars(got)["_samples"] is arrays[1]
        assert np.array_equal(got.spectrum, want.spectrum)
        assert np.array_equal(got.samples, want.samples)
        assert "_energy" not in vars(got) and "max_divergence" not in vars(got)

    def test_real_scale_without_samples_transforms_nothing(self, rng):
        u = rough_stack(TorusGrid(2, 16), 5, rng)
        want = u * 2.5
        got = u
        got *= 2.5
        assert got is u and "_samples" not in vars(got)
        assert np.array_equal(got.spectrum, want.spectrum)

    @pytest.mark.parametrize("scalar", [0.5j, 1.0 + 0.0j], ids=["imaginary", "complex-one"])
    def test_complex_scale_is_refused(self, scalar, rng):
        """``u *= c`` for a complex ``c`` would not keep ``u`` real: it raises
        and writes nothing."""
        u = rough_stack(TorusGrid(2, 16), 5, rng)
        u.samples
        kept = u.spectrum.copy(), u.samples.copy()
        with pytest.raises(ValueError, match="is not real"):
            u *= scalar
        assert np.array_equal(u.spectrum, kept[0]) and np.array_equal(u.samples, kept[1])

    def test_real_scale_by_zero_writes_zeros(self, rng):
        """``u *= 0`` zeroes ``u``'s own spectrum and samples."""
        u = rough_stack(TorusGrid(2, 8), 3, rng)
        u.samples
        got = u
        got *= 0.0
        assert got is u
        assert not np.any(u.spectrum) and not np.any(u.samples)


def temporaries_duhamel(lam, f, nodes):
    """The recurrence ``solve_linear_duhamel`` ran before its node buffers:
    the same operations, each into a fresh array."""
    u = np.empty_like(f)
    u[0] = 0.0
    for i, h in enumerate(np.diff(nodes)):
        z = -lam * h
        decay = np.exp(z)
        phi1, phi2 = _phi12(z)
        c0, c1 = h * (phi1 - phi2), h * phi2
        u[i + 1] = c1 * f[i + 1]
        step = decay * u[i]
        step += c0 * f[i]
        u[i + 1] += step
    return u


@pytest.mark.parametrize(
    "time_grid", [uniform_time_grid(2.0, 33), log_time_grid(1e-3, 2.0, 24)], ids=["uniform", "log"]
)
def test_duhamel_buffers_keep_the_bits(grid2d, time_grid, rng):
    values = rng.standard_normal((time_grid.num_nodes, 2) + grid2d.shape)
    forcing = Trajectory(time_grid, grid2d, scipy.fft.rfftn(values, axes=(2, 3), norm="forward"))
    out = solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))
    lam = grid2d.layout.xi_sq
    assert np.array_equal(out.spectrum, temporaries_duhamel(lam, forcing.spectrum, time_grid.nodes))


def test_lq_magnitude_at_three_keeps_the_bits(grid3d, rng):
    """``q = 3`` sums ``sqrt(|u|**2) * |u|**2``, formed in place, with the
    bits of the product of two arrays."""
    values = rng.standard_normal((5, 3) + grid3d.shape)
    flat = values.reshape(5, 3, -1)
    mag_sq = np.einsum("...cp,...cp->...p", flat, flat)
    total = np.sum(mag_sq * np.sqrt(mag_sq), axis=-1)
    expected = (total * grid3d.cell_volume) ** (1 / 3)
    assert np.array_equal(_lq_magnitude(values, grid3d, 3.0), expected)


def test_only_the_walk_subtracts_samples(monkeypatch):
    """On the ``ns-unique`` memory-budget case neither route's residual
    ``u - a`` forms samples, as the base holds none: the one subtraction
    that carries them is the walk's ``u - v`` of two iterates."""
    config = CASES["ns-unique"][0]
    carrying = []
    sub = spectral._CoefficientArithmetic.__sub__

    def recorded(self, other):
        out = sub(self, other)
        if "_samples" in vars(out):
            carrying.append(sys._getframe(1).f_code.co_name)
        return out

    monkeypatch.setattr(spectral._CoefficientArithmetic, "__sub__", recorded)
    record = run_experiment(load_config(config))
    assert record.status == "pass"
    assert carrying == ["_segment_walk"]
