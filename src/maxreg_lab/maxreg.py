"""Maximal-regularity laboratory for diagonal parabolic problems.

The central object is the abstract Cauchy problem ``u' + A u = f``,
``u(0) = 0``, with ``A`` a nonnegative Fourier multiplier on the torus.
Modes decouple, so the mild solution is integrated exactly per mode with
phi-function quadrature for piecewise-linear forcing.  On top of that
solver sit several quantitative probes:

* empirical maximal-regularity constants ``||u|| + ||u'|| + ||A u||``
  versus ``||f||`` in mixed (optionally power-weighted) norms,
* reconstruction of the resolvent ``(z + A)**(-1)`` from solutions with
  truncated exponential forcing,
* the singular-kernel smoothness integral for ``k(t) = A e^{-tA}``,
* the bounded time-Fourier multiplier ``A (i tau + A)**(-1)`` route,
* Rademacher-average estimates of R-bounds for multiplier families.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.fft

from .norms import (
    MixedNormParams,
    TimeGrid,
    Trajectory,
    WeightParams,
    _node_spatial_norms,
    _parseval_l2,
    _time_lp,
    _time_weights,
    spatial_lq_norm,
    uniform_time_grid,
)
from .spectral import FourierMultiplier, SpectralField, TorusGrid, _on_layout, apply_multiplier

__all__ = [
    "LinearProblem",
    "MaxRegMember",
    "MaxRegReport",
    "ResolventProbe",
    "HormanderReport",
    "RBoundEstimate",
    "solve_linear_duhamel",
    "estimate_maxreg_constant",
    "resolvent_via_maxreg",
    "hormander_check",
    "de_simon_multiplier_solve",
    "multiplier_sup_norm",
    "rbound_estimate",
]


def _phi12(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable ``phi_1(z) = (e^z-1)/z`` and ``phi_2(z) = (e^z-1-z)/z**2``.

    A truncated Taylor series takes over below ``|z| = 0.5`` where the
    direct formulas lose digits to cancellation.  Real ``z`` gives real
    values.
    """
    z = np.asarray(z, dtype=np.result_type(z, np.float64))
    phi1 = np.empty_like(z)
    phi2 = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs = z[small]
    p1 = np.zeros_like(zs)
    p2 = np.zeros_like(zs)
    for k in range(18, -1, -1):
        p1 = p1 * zs + 1.0 / math.factorial(k + 1)
        p2 = p2 * zs + 1.0 / math.factorial(k + 2)
    phi1[small] = p1
    phi2[small] = p2
    zl = z[~small]
    el = np.exp(zl)
    phi1[~small] = (el - 1.0) / zl
    phi2[~small] = (el - 1.0 - zl) / zl**2
    return phi1, phi2


def _scalar_symbol(op: FourierMultiplier, grid: TorusGrid) -> np.ndarray:
    """The symbol on the full grid, in its own (real or complex) dtype."""
    sym = op.evaluate(grid)
    if sym.shape != grid.shape:
        raise ValueError("operation requires a scalar (non-matrix) symbol")
    return np.asarray(sym, dtype=np.result_type(sym, np.float64))


def _accretive_symbol(op: FourierMultiplier, grid: TorusGrid) -> np.ndarray:
    sym = _scalar_symbol(op, grid)
    if np.min(sym.real) < -1e-12 * max(1.0, float(np.max(np.abs(sym)))):
        raise ValueError("operator symbol must have nonnegative real part")
    return sym


def _real_nonnegative_symbol(op: FourierMultiplier, grid: TorusGrid, purpose: str) -> np.ndarray:
    sym = _scalar_symbol(op, grid)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(sym))))
    if np.max(np.abs(sym.imag)) > tol or np.min(sym.real) < -tol:
        raise ValueError(f"{purpose} requires a real nonnegative symbol")
    return sym.real


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """Forced problem ``u' + A u = f`` with zero initial state.

    ``operator`` must act through a scalar symbol with nonnegative real
    part on the forcing's grid.
    """

    operator: FourierMultiplier
    forcing: Trajectory

    def __post_init__(self) -> None:
        _accretive_symbol(self.operator, self.forcing.grid)


def solve_linear_duhamel(prob: LinearProblem) -> Trajectory:
    """Mild solution of ``u' + A u = f`` on the forcing's time grid, exact per
    mode for the piecewise-linear interpolant of the forcing samples.

    The recursion is second-order accurate in the node spacing for smooth
    forcing and exact when the forcing really is piecewise linear.  A real
    forcing and a symbol that maps real fields to real fields (the real
    even ``|xi|**2``, say) keep the half spectrum.
    """
    grid = prob.forcing.time_grid
    lam, f = _on_layout(_accretive_symbol(prob.operator, prob.forcing.grid), prob.forcing)
    u = np.empty_like(f)
    u[0] = 0.0
    uniform = grid.is_uniform
    for i, h in enumerate(np.diff(grid.nodes)):
        if i == 0 or not uniform:
            z = -lam * h
            decay = np.exp(z)
            phi1, phi2 = _phi12(z)
            # h (phi1 f_i + phi2 (f_{i+1} - f_i)) = c0 f_i + c1 f_{i+1}
            c0 = h * (phi1 - phi2)
            c1 = h * phi2
        step = u[i + 1]  # a view: ``u[i + 1] += ...`` would also write it back
        np.multiply(decay, u[i], out=step)
        step += c0 * f[i]
        step += c1 * f[i + 1]
    return Trajectory(grid, prob.forcing.grid, u)


@dataclass(frozen=True)
class MaxRegMember:
    """Norm quadruple for one ensemble member."""

    solution: float
    derivative: float
    operator_term: float
    forcing: float

    @property
    def ratio(self) -> float:
        return max(self.solution, self.derivative, self.operator_term) / self.forcing


@dataclass(frozen=True)
class MaxRegReport:
    """Empirical maximal-regularity constant over a forcing ensemble.

    ``C_estimate`` is the max over members of
    ``max(||u||, ||u'||, ||A u||) / ||f||`` and is a lower bound for the
    true constant in the chosen norm.
    """

    params: MixedNormParams
    weight: WeightParams | None
    members: tuple[MaxRegMember, ...]
    ensemble_size: int

    @property
    def C_estimate(self) -> float:
        return max(m.ratio for m in self.members)


def _member_profiles(
    operator: FourierMultiplier, q: float, ensemble: Sequence[Trajectory], threads: int
) -> list[tuple[TimeGrid, list[np.ndarray]]]:
    """One Duhamel solve per nonzero member and the nodal ``L^q`` norms of
    ``u``, ``u' = f - A u``, ``A u`` and ``f``, in that order."""

    def member(f_traj: Trajectory) -> tuple[TimeGrid, list[np.ndarray]] | None:
        if float(np.max(np.abs(f_traj.spectrum))) == 0.0:
            return None
        u = solve_linear_duhamel(LinearProblem(operator, f_traj))
        au = apply_multiplier(u, operator)
        u_q = _node_spatial_norms(u, q)
        del u  # with the samples its norm cached
        # The norm caches the forcing's samples on a local alias, so they go
        # with this member instead of living on in the ensemble; with those
        # of ``A u`` they give the samples of ``f - A u`` without a transform.
        f = replace(f_traj, coefficients=f_traj.spectrum)
        f_q, au_q = _node_spatial_norms(f, q), _node_spatial_norms(au, q)
        return f_traj.time_grid, [u_q, _node_spatial_norms(f - au, q), au_q, f_q]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(member, ensemble))
    else:
        raw = [member(f) for f in ensemble]
    profiles = [m for m in raw if m is not None]
    skipped = len(raw) - len(profiles)
    if skipped:
        warnings.warn(f"skipped {skipped} zero-norm forcing member(s)", stacklevel=3)
    if not profiles:
        raise ValueError("degenerate ensemble: no nonzero forcing members")
    return profiles


def _reduce_profiles(
    profiles: list[tuple[TimeGrid, list[np.ndarray]]],
    params: MixedNormParams,
    weight: WeightParams | None,
) -> MaxRegReport:
    """Reduce :func:`_member_profiles` in ``L^p_t``, power-weighted if ``weight`` is given."""
    members = []
    for time_grid, profile in profiles:
        weights = _time_weights(time_grid, params, weight)
        members.append(MaxRegMember(*(_time_lp(g, weights, params.p) for g in profile)))
    return MaxRegReport(params, weight, tuple(members), len(members))


def estimate_maxreg_constant(
    operator: FourierMultiplier,
    params: MixedNormParams,
    ensemble: Sequence[Trajectory],
    *,
    weight: WeightParams | None = None,
    threads: int = 1,
) -> MaxRegReport:
    """Measure ``max(||u||, ||u'||, ||A u||) / ||f||`` over an ensemble.

    The time derivative is recovered exactly from the equation as
    ``u' = f - A u``.  Zero-norm members are skipped with a warning; an
    ensemble with no usable member is degenerate and rejected.  With
    ``weight`` the norms are power-weighted in time (``weight`` must suit
    ``params``); ``mu = 1`` gives exactly the unweighted report.
    """
    if weight is not None:  # the rule _reduce_profiles applies, before any member is solved
        weight.validate_against(params)
    profiles = _member_profiles(operator, params.q, ensemble, threads)
    return _reduce_profiles(profiles, params, weight)


@dataclass(frozen=True, eq=False)
class ResolventProbe:
    """Resolvent applied through time integration versus the exact symbol."""

    z: complex
    value: SpectralField
    exact: SpectralField
    deviation: float
    bound_constant: float


def resolvent_via_maxreg(
    operator: FourierMultiplier,
    z: complex,
    x: SpectralField,
    *,
    num_nodes: int = 8193,
) -> ResolventProbe:
    """Reconstruct ``(z + A)**(-1) x`` from the forced evolution problem.

    Solves ``u' + A u = e^{z t} x`` on ``[0, 1/Re z]``, then evaluates
    ``Re(z) * int_0^inf e^{-z t} u(t) dt``; past the forcing support the
    solution decays by the exact semigroup and the tail integral is summed
    in closed form.
    """
    z = complex(z)
    if z.real <= 0:
        raise ValueError("resolvent probe requires Re z > 0")
    lam = _accretive_symbol(operator, x.grid)
    t_star = 1.0 / z.real
    tgrid = uniform_time_grid(t_star, num_nodes)
    nodes = tgrid.nodes[(slice(None),) + (np.newaxis,) * (x.grid.dimension + 1)]
    forcing = Trajectory(tgrid, x.grid, np.exp(z * nodes) * x.coefficients[np.newaxis])
    u = solve_linear_duhamel(LinearProblem(operator, forcing))
    lam_u, u_coeff = _on_layout(lam, u)
    integral = np.tensordot(tgrid.weights, np.exp(-z * nodes) * u_coeff, axes=(0, 0))
    # after t* the forcing vanishes: u(t) = e^{-lam (t - t*)} u(t*), so the
    # remaining weighted integral is u(t*) e^{-z t*} / (z + lam) exactly
    integral += u_coeff[-1] * np.exp(-z * t_star) / (z + lam_u)
    value = SpectralField(x.grid, z.real * integral)
    exact = SpectralField(x.grid, x.coefficients / (z + lam))
    deviation = spatial_lq_norm(value - exact, 2)
    x_norm = spatial_lq_norm(x, 2)
    bound = spatial_lq_norm(value, 2) * (1.0 + abs(z)) / x_norm if x_norm > 0 else 0.0
    return ResolventProbe(z, value, exact, deviation, bound)


@dataclass(frozen=True)
class HormanderReport:
    """Singular-kernel smoothness integrals for ``k(t) = A e^{-t A}``."""

    shifts: tuple[float, ...]
    integrals: tuple[float, ...]

    @property
    def c_estimate(self) -> float:
        return max(self.integrals)


def _kernel_shift_integral(lams: np.ndarray, s: float) -> float:
    """``int_{t > 2s} max_j lam_j e^{-(t-s) lam_j} (1 - e^{-s lam_j}) dt``.

    The integrand is the upper envelope of decaying exponentials; the
    envelope's breakpoints are walked explicitly (the leader can only ever
    hand over to a smaller rate), and each exponential piece integrates in
    closed form, so the value is exact to rounding.
    """
    if lams.size == 0:
        return 0.0
    # amplitudes c_j = lam_j (1 - e^{-s lam_j}); log form for stable crossings
    log_c = np.log(lams) + np.log(-np.expm1(-s * lams))
    t = 2.0 * s
    log_vals = log_c - (t - s) * lams
    # ties go to the smallest rate: it still dominates just after the tie
    near_top = log_vals >= np.max(log_vals) - 1e-12 * max(1.0, abs(np.max(log_vals)))
    leader = int(np.nonzero(near_top)[0][np.argmin(lams[near_top])])
    total = 0.0
    while True:
        lam_a = lams[leader]
        smaller = np.nonzero(lams < lam_a)[0]
        t_next = None
        nxt = None
        if smaller.size:
            cross = s + (log_c[leader] - log_c[smaller]) / (lam_a - lams[smaller])
            future = cross > t * (1 + 1e-15)
            if np.any(future):
                cand = smaller[future]
                times = cross[future]
                t_min = float(np.min(times))
                tied = times <= t_min * (1 + 1e-12)
                pick = np.argmin(lams[cand[tied]])
                t_next = float(times[tied][pick])
                nxt = int(cand[tied][pick])
        start = math.exp(log_c[leader] - (t - s) * lam_a)
        if t_next is None:
            total += start / lam_a
            return total
        total += (start - math.exp(log_c[leader] - (t_next - s) * lam_a)) / lam_a
        t = t_next
        leader = nxt


def hormander_check(
    operator: FourierMultiplier, s_samples: Sequence[float], grid: TorusGrid
) -> HormanderReport:
    """Translation-smoothness integrals of the semigroup kernel.

    For each shift ``s`` the integral of
    ``||k(t - s) - k(t)||_op`` over ``|t| > 2|s|`` is computed, with the
    operator norm read off the grid spectrum.  The result depends on ``s``
    and the spectrum only through the products ``s * lam``, so it is
    invariant under joint rescaling.
    """
    sym = _real_nonnegative_symbol(operator, grid, "kernel check")
    scale = max(1.0, float(np.max(np.abs(sym))))
    lams = np.unique(sym.ravel())
    lams = lams[lams > 1e-14 * scale]
    integrals = []
    for s in s_samples:
        if s == 0:
            raise ValueError("shift samples must be nonzero")
        integrals.append(_kernel_shift_integral(lams, abs(float(s))))
    return HormanderReport(tuple(float(s) for s in s_samples), tuple(integrals))


def de_simon_multiplier_solve(prob: LinearProblem, *, pad_factor: int = 4) -> Trajectory:
    """``A u`` through the bounded time-Fourier multiplier ``lam/(i tau + lam)``.

    The multiplier acts one spatial mode at a time, so a mode whose forcing
    is zero at every node gives zero.  Only the forcing's nonzero spatial
    columns (uniform grid required) are zero-padded to at least
    ``pad_factor`` times their length, rounded up to a length with small
    prime factors (``scipy.fft.next_fast_len``), transformed in time,
    multiplied modewise and transformed back.  A real forcing is
    transformed as its half spectrum.  Independent of the time-stepping
    route; agreement between the two validates both.
    """
    forcing = prob.forcing
    time_grid = forcing.time_grid
    if not time_grid.is_uniform:
        raise ValueError("multiplier route requires a uniform time grid")
    lam = _real_nonnegative_symbol(prob.operator, forcing.grid, "multiplier route")
    lam, f = _on_layout(lam, forcing)
    k1 = f.shape[0]
    if pad_factor < 2:
        raise ValueError("pad_factor must be at least 2")
    n_pad = scipy.fft.next_fast_len(pad_factor * k1)
    h = float(time_grid.nodes[1] - time_grid.nodes[0])
    flat = f.reshape(k1, -1)
    support = np.flatnonzero(np.any(flat != 0, axis=0))
    lam = np.broadcast_to(lam, f.shape[1:]).reshape(-1)[support]
    padded = np.zeros((n_pad, support.size), dtype=np.complex128)
    padded[:k1] = flat[:, support]
    spectrum = scipy.fft.fft(padded, axis=0, overwrite_x=True)
    tau = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=h)
    with np.errstate(divide="ignore", invalid="ignore"):
        spectrum *= np.where(lam == 0.0, 0.0, lam / (1j * tau[:, np.newaxis] + lam))
    au = np.zeros(f.shape, dtype=np.complex128)
    au.reshape(k1, -1)[:, support] = scipy.fft.ifft(spectrum, axis=0, overwrite_x=True)[:k1]
    return Trajectory(time_grid, forcing.grid, au)


def multiplier_sup_norm(
    operator: FourierMultiplier, sigma_grid: Sequence[float], grid: TorusGrid
) -> float:
    """``max |i sigma (i sigma + lam)**(-1)|`` over the frequency grid and
    the operator's grid spectrum.

    Bounded by 1 for nonnegative real spectra; returns ``inf`` when a
    sampled frequency hits the spectrum of a rotated operator.
    """
    lam = _scalar_symbol(operator, grid).ravel()
    sigma = np.asarray(sigma_grid, dtype=float)
    denom = np.abs(1j * sigma[:, np.newaxis] + lam[np.newaxis, :])
    num = np.abs(sigma)[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(denom == 0.0, np.where(num == 0.0, 0.0, np.inf), num / denom)
    return float(np.max(vals))


@dataclass(frozen=True)
class RBoundEstimate:
    """Sampled lower estimate of a multiplier family's R-bound."""

    family: tuple[str, ...]
    trials: int
    sign_samples: int
    exact_signs: bool
    estimate: float
    uniform_bound: float


def rbound_estimate(
    family: Sequence[FourierMultiplier],
    trials: int,
    vectors_per_trial: int,
    *,
    grid: TorusGrid,
    seed: int = 0,
) -> RBoundEstimate:
    """Randomised-sum estimate of the R-bound of a multiplier family.

    For each sampled tuple ``(x_1, ..., x_n)`` the ratio of Rademacher
    averages ``E||sum r_j T_j x_j|| / E||sum r_j x_j||`` is evaluated for
    every prefix subfamily — with exact enumeration of all ``2**n`` sign
    patterns for families of size at most 12, Monte Carlo (at least 4096
    sign vectors) beyond.  Singleton tuples concentrated on each
    operator's worst mode are probed as well, which pins the estimate
    above the largest individual operator norm.  Fields are drawn from
    per-(trial, index) seeded streams so nested families share samples.
    """
    n_ops = len(family)
    if n_ops == 0:
        raise ValueError("family must contain at least one operator")
    if trials < 1:
        raise ValueError("at least one trial is required")
    symbols = [_scalar_symbol(op, grid) for op in family]
    flat = [s.ravel() for s in symbols]
    uniform_bound = max(float(np.max(np.abs(s))) for s in flat)

    exact = n_ops <= 12
    if exact:
        patterns = 1 - 2.0 * (
            (np.arange(2**n_ops)[:, np.newaxis] >> np.arange(n_ops)) & 1
        )
        n_signs = patterns.shape[0]
    else:
        n_signs = max(vectors_per_trial, 4096)

    ratios = [max(float(np.max(np.abs(s))), 0.0) for s in flat]  # worst-mode singletons
    field_shape = (1,) + grid.shape  # one scalar field per operator
    for trial in range(trials):
        fields = []
        for j in range(n_ops):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial, j]))
            while True:
                coeff = rng.standard_normal(field_shape) + 1j * rng.standard_normal(field_shape)
                if np.any(coeff != 0):
                    break
            fields.append(coeff)
        if exact:
            signs = patterns
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial, n_ops]))
            signs = rng.choice([-1.0, 1.0], size=(n_signs, n_ops))
        shape = (n_signs,) + (1,) * (grid.dimension + 1)
        run_x = np.zeros((n_signs,) + field_shape, dtype=np.complex128)
        run_t = np.zeros_like(run_x)
        for j in range(n_ops):
            sj = signs[:, j].reshape(shape)
            run_x = run_x + sj * fields[j][np.newaxis]
            run_t = run_t + sj * (symbols[j] * fields[j])[np.newaxis]
            mean_x = float(np.mean(_parseval_l2(run_x, grid)))
            mean_t = float(np.mean(_parseval_l2(run_t, grid)))
            if mean_x > 0:
                ratios.append(mean_t / mean_x)
    return RBoundEstimate(
        family=tuple(op.descriptor for op in family),
        trials=trials,
        sign_samples=n_signs,
        exact_signs=exact,
        estimate=float(max(ratios)),
        uniform_bound=uniform_bound,
    )
