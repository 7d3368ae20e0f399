"""Semilinear heat and incompressible momentum problems on the torus.

The abstract fixed-point machinery is instantiated here: the nonlinear
heat equation ``u' - Lap u = |u|**(nu-1) u`` (``nlhe``) and the
incompressible equation ``u' - Lap u + P div(u (x) u) = 0`` (``ns``) are
written as ``u = a + F(u)`` with ``a`` the heat extension of the data and
``F`` the Duhamel term of the nonlinearity.  Criticality of exponent
pairs, parabolic-rescaling invariance of the continuum norms, small-data
existence sweeps, the pointwise power-difference inequality, the
``L^{nq/(n+q)} -> L^q`` heat smoothing bound and a segment-by-segment
uniqueness bootstrap all live here.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .maxreg import LinearProblem, solve_linear_duhamel
from .norms import (
    MixedNormParams,
    ParabolicGaussianProfile,
    ScalingLaw,
    TimeGrid,
    Trajectory,
    _lq_magnitude,
    _node_spatial_norms,
    _parseval_l2,
    _time_lp,
    _trapezoid_weights,
    besov_heat_norm,
    bochner_mixed_norm,
    continuum_mixed_norm,
    heat_extension,
    nlhe_scaling_law,
    ns_scaling_law,
    scaling_transform,
    spatial_lq_norm,
)
from .picard import (
    FixedPointProblem,
    PicardCertificate,
    run_picard,
)
from .spectral import (
    SpectralField,
    TorusGrid,
    _physical_values,
    divergence,
    heat_semigroup_apply,
    helmholtz_project,
    laplacian_multiplier,
    momentum_forcing,
    pointwise_power_nonlinearity,
)

__all__ = [
    "NlheProblem",
    "NsProblem",
    "nlhe_rhs_map",
    "ns_rhs_map",
    "criticality_check",
    "ScalingReport",
    "scaling_invariance_test",
    "nonlinearity_lipschitz_check",
    "SmoothingReport",
    "default_smoothing_radii",
    "smoothing_estimate_check",
    "ExistenceEntry",
    "ExistenceReport",
    "measured_lipschitz_M",
    "existence_sweep",
    "taylor_green_field",
    "random_mean_free_field",
    "Segment",
    "UniquenessReport",
    "uniqueness_bootstrap",
]


# -- problem descriptions ----------------------------------------------


class _SemilinearProblem:
    """What every nonlinear run asks of a problem ``u = a + F(u)``.  A
    subclass's ``rhs`` calls its module-level map by name, so a replaced
    binding of that map (a tracer's, a test's) is the one called."""

    divergence_free = False

    def _check_data(self, law: ScalingLaw) -> None:
        """Reject non-finite data, and exponents ``critical`` wrongly claims are."""
        if not np.isfinite(self.u0.spectrum).all():
            raise ValueError("initial field must have finite coefficients")
        if self.critical:
            defect = criticality_check(law, self.params, self.dimension)
            if abs(defect) > 1e-12:
                raise ValueError(f"exponents are not critical: defect {defect:.3e}")

    @property
    def dimension(self) -> int:
        return self.u0.grid.dimension

    @property
    def epsilon(self) -> float:
        """Nonlinearity exponent in the contraction estimate."""
        return self.nu - 1.0

    def norm(self, traj: Trajectory) -> float:
        """The problem's ``L^p_t(L^q_x)`` norm."""
        return bochner_mixed_norm(traj, self.params)


@dataclass(frozen=True, eq=False)
class NlheProblem(_SemilinearProblem):
    """Nonlinear heat problem data: exponent, norms, initial field, horizon.

    ``critical`` asserts that ``n/q + 2/p = 2/(nu - 1)`` holds exactly;
    the admissibility condition ``nu < p, q`` of the small-data existence
    theory is exposed as :attr:`existence_regime` rather than enforced,
    since critical desk-scale runs in low dimension sit outside it.
    """

    nu: float
    params: MixedNormParams
    u0: SpectralField
    time_grid: TimeGrid
    variant: str = "signed"
    critical: bool = False

    def __post_init__(self) -> None:
        if not 1 < self.nu < math.inf:
            raise ValueError("nonlinearity exponent nu must exceed 1 and be finite")
        if self.u0.components != 1:
            raise ValueError("nlhe initial data must be scalar")
        if self.variant not in ("signed", "unsigned"):
            raise ValueError("variant must be 'signed' or 'unsigned'")
        self._check_data(nlhe_scaling_law(self.nu))

    @property
    def existence_regime(self) -> bool:
        return self.nu < self.params.p and self.nu < self.params.q

    @property
    def q_endpoint(self) -> float:
        """The uniqueness argument's endpoint ``q = n (nu - 1) / 2``."""
        return self.dimension * (self.nu - 1.0) / 2.0

    def rhs(self, u: Trajectory) -> Trajectory:
        return nlhe_rhs_map(u, self)


@dataclass(frozen=True, eq=False)
class NsProblem(_SemilinearProblem):
    """Incompressible momentum problem data on the torus.

    The initial field must be divergence-free; ``critical`` asserts
    ``2/p + n/q = 1`` exactly.
    """

    params: MixedNormParams
    u0: SpectralField
    time_grid: TimeGrid
    critical: bool = False

    divergence_free = True

    def __post_init__(self) -> None:
        grid = self.u0.grid
        if grid.dimension < 2:
            raise ValueError("momentum problem needs dimension at least 2")
        if self.u0.components != grid.dimension:
            raise ValueError("initial field must have one component per dimension")
        self._check_data(ns_scaling_law())
        div_norm = float(_parseval_l2(divergence(self.u0).spectrum, grid))
        scale = max(1.0, float(_parseval_l2(self.u0.spectrum, grid)))
        if div_norm > 1e-10 * scale:
            raise ValueError(f"initial field is not divergence-free: ||div u0|| = {div_norm:.3e}")

    @property
    def nu(self) -> float:
        """Effective nonlinearity degree (quadratic)."""
        return 2.0

    @property
    def q_endpoint(self) -> float:
        """The uniqueness argument's endpoint ``q = n``."""
        return float(self.dimension)

    def rhs(self, u: Trajectory) -> Trajectory:
        return ns_rhs_map(u, self)


# -- right-hand-side maps ----------------------------------------------


def nlhe_rhs_map(u: Trajectory, prob: NlheProblem) -> Trajectory:
    """Duhamel term ``F(u)(t) = int_0^t e^{(t-s) Lap} |u|**(nu-1) u (s) ds``."""
    if u.components != 1:
        raise ValueError("nlhe trajectory must be scalar")
    forcing = pointwise_power_nonlinearity(u, prob.nu, prob.variant)
    return solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))


def max_node_divergence(u: Trajectory) -> float:
    """Largest nodewise ``L^2`` norm of the divergence along a trajectory.

    Read from the trajectory's cached ``max_divergence``, so the map's input
    check and the existence sweep's iterate callback share one evaluation.
    """
    return u.max_divergence


def ns_rhs_map(u: Trajectory, prob: NsProblem) -> Trajectory:
    """Duhamel term ``F(u)(t) = -int_0^t e^{(t-s) Lap} P div(u (x) u)(s) ds``.

    Input and output are divergence-free; a drifting input is rejected.
    """
    n = u.grid.dimension
    if u.components != n:
        raise ValueError("momentum trajectory needs one component per dimension")
    amp = math.sqrt(u.grid.volume * float(np.max(u._node_energy)))  # Parseval, as cached
    if max_node_divergence(u) > 1e-8 * max(1.0, amp):
        raise ValueError("input trajectory is not divergence-free")
    forcing = momentum_forcing(u)  # -P div(u (x) u): the sign of F is in the forcing
    return solve_linear_duhamel(LinearProblem(laplacian_multiplier(), forcing))


# -- criticality and rescaling -----------------------------------------


def criticality_check(law: ScalingLaw, params: MixedNormParams, n: int) -> float:
    """Defect ``(alpha-beta)/(gamma-1) - n/q - alpha/p``; zero iff the norm
    is invariant under the law's rescaling."""
    if n < 1:
        raise ValueError("dimension must be positive")
    time_part = 0.0 if math.isinf(params.p) else law.alpha / params.p
    return law.exponent - n / params.q - time_part


@dataclass(frozen=True)
class ScalingReport:
    """Continuum-norm response to a family of parabolic rescalings."""

    defect: float
    lams: tuple[float, ...]
    norms: tuple[float, ...]
    base_norm: float
    max_ratio_deviation: float
    measured_exponents: tuple[float, ...]

    @property
    def max_exponent_error(self) -> float:
        return max(abs(m - self.defect) for m in self.measured_exponents)


def scaling_invariance_test(
    law: ScalingLaw,
    params: MixedNormParams,
    n: int,
    lam_set: Sequence[float],
    profile: ParabolicGaussianProfile | None = None,
) -> ScalingReport:
    """Compare rescaled continuum norms against the predicted power law.

    At a critical exponent pair the rescaled norms reproduce the base norm
    (defect zero); off criticality the ratio follows ``lam**defect`` and
    the measured log-log exponent is reported per ``lam``.
    """
    if profile is None:
        profile = ParabolicGaussianProfile(amplitude=1.0, offset=1.0, sigma=1.5)
    defect = criticality_check(law, params, n)
    base = continuum_mixed_norm(profile, params, n)
    norms = []
    deviations = []
    exponents = []
    for lam in lam_set:
        if lam <= 0:
            raise ValueError("scaling factors must be positive")
        value = continuum_mixed_norm(scaling_transform(profile, lam, law), params, n)
        norms.append(value)
        ratio = value / base
        deviations.append(abs(ratio - lam**defect))
        if lam != 1.0:
            exponents.append(math.log(ratio) / math.log(lam))
    if not exponents:
        exponents = [defect]
    return ScalingReport(
        defect=defect,
        lams=tuple(float(l) for l in lam_set),
        norms=tuple(norms),
        base_norm=base,
        max_ratio_deviation=float(max(deviations)),
        measured_exponents=tuple(exponents),
    )


# -- pointwise nonlinearity inequality ---------------------------------


def nonlinearity_lipschitz_check(nu: float, samples: int, *, seed: int = 0) -> float:
    """Max violation of
    ``| |x|**(nu-1) x - |y|**(nu-1) y | <= nu (|x|**(nu-1) + |y|**(nu-1)) |x-y|``
    over random and adversarial scalar pairs.  Nonpositive means the
    inequality held everywhere.
    """
    if nu <= 1:
        raise ValueError("nu must exceed 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    quarter = max(samples // 4, 1)
    xs = [rng.uniform(-3.0, 3.0, quarter), rng.standard_normal(quarter)]
    ys = [rng.uniform(-3.0, 3.0, quarter), rng.standard_normal(quarter)]
    # near-zero and opposite-sign pairs are the delicate cases; coincident
    # pairs are not probed, as both sides vanish there
    xs.append(rng.uniform(-1e-8, 1e-8, quarter))
    ys.append(rng.uniform(-1e-8, 1e-8, quarter))
    xs.append(np.abs(rng.standard_normal(quarter)))
    ys.append(-np.abs(rng.standard_normal(quarter)))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    power = lambda t: np.abs(t) ** (nu - 1.0) * t
    lhs = np.abs(power(x) - power(y))
    rhs = nu * (np.abs(x) ** (nu - 1.0) + np.abs(y) ** (nu - 1.0)) * np.abs(x - y)
    return float(np.max(lhs - rhs))


# -- heat smoothing ----------------------------------------------------


@dataclass(frozen=True)
class SmoothingReport:
    """Measured ``||e^{r Lap} f||_{L^q} sqrt(r) / ||f||_{L^{nq/(n+q)}}`` ratios."""

    q: float
    source_exponent: float
    r_values: tuple[float, ...]
    ratios: tuple[tuple[float, ...], ...]  # one row per sample field

    @property
    def max_ratio(self) -> float:
        return max(max(row) for row in self.ratios)

    @property
    def max_spread(self) -> float:
        """Worst per-field max/min ratio across the ``r`` range."""
        return max(max(row) / min(row) for row in self.ratios)


def default_smoothing_radii(grid: TorusGrid, octaves: int = 4) -> list[float]:
    """Geometric ``r`` ladder centred on the white-noise smoothing plateau.

    For a broadband field the ratio measured by
    :func:`smoothing_estimate_check` is flat for ``r`` near the inverse
    mean Laplacian eigenvalue; the ladder starts there and doubles
    ``octaves`` times.
    """
    mean_eig = (
        grid.dimension
        * (grid.points_per_axis / 2) ** 2
        / 3.0
        * (2.0 * math.pi / grid.period) ** 2
    )
    base = 0.5 / mean_eig
    return [base * 2.0**j for j in range(octaves + 1)]


def smoothing_estimate_check(
    grid: TorusGrid,
    q: float,
    r_values: Sequence[float],
    *,
    num_fields: int = 5,
    seed: int = 0,
) -> SmoothingReport:
    """Probe the parabolic smoothing bound on random mean-free fields.

    The exponent pair is the one the uniqueness argument uses: source
    space ``L^{nq/(n+q)}``, target ``L^q``, gain ``r**(-1/2)``.  Radii
    below the grid resolution scale ``(L/N)**2`` are flagged.
    """
    n = grid.dimension
    q_src = n * q / (n + q)
    if q_src <= 1:
        raise ValueError("source exponent nq/(n+q) must exceed 1")
    lam_max = n * (math.pi * grid.points_per_axis / grid.period) ** 2
    if min(r_values) < 0.5 / lam_max:
        warnings.warn(
            "smoothing radius below the action scale of the resolved spectrum; "
            "ratios degenerate there",
            stacklevel=2,
        )
    rows = []
    for i in range(num_fields):
        f = random_mean_free_field(grid, seed=seed, stream=i)
        src = spatial_lq_norm(f, q_src)
        row = []
        for r in r_values:
            if r <= 0:
                raise ValueError("smoothing radii must be positive")
            top = spatial_lq_norm(heat_semigroup_apply(f, r), q)
            row.append(top * math.sqrt(r) / src)
        rows.append(tuple(row))
    return SmoothingReport(
        q=q,
        source_exponent=q_src,
        r_values=tuple(float(r) for r in r_values),
        ratios=tuple(rows),
    )


# -- sample fields -----------------------------------------------------


def random_mean_free_field(
    grid: TorusGrid,
    *,
    seed: int = 0,
    stream: int = 0,
    components: int = 1,
    band_limit: int | None = None,
    divergence_free: bool = False,
) -> SpectralField:
    """Random real mean-free field from a deterministic substream.

    ``band_limit`` keeps only integer modes with ``|k| <= band_limit`` per
    axis; ``divergence_free`` applies the Leray projection (components
    must match the dimension then).
    """
    if band_limit is not None and band_limit < 1:
        # only the mean mode has |k| < 1, and it is removed
        raise ValueError("band_limit must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7, stream]))
    values = rng.standard_normal((components,) + grid.shape)
    coeff = SpectralField.from_physical(grid, values).spectrum.copy()
    if band_limit is not None:
        k = np.fft.fftfreq(grid.points_per_axis, d=1.0 / grid.points_per_axis)
        keep = np.abs(k) <= band_limit
        for axis in range(grid.dimension):
            idx = [np.newaxis] * grid.dimension
            idx[axis] = slice(0, coeff.shape[1 + axis])
            coeff *= keep[tuple(idx)][np.newaxis]
    coeff[(slice(None),) + (0,) * grid.dimension] = 0.0
    out = SpectralField(grid, coeff)
    if divergence_free:
        out = helmholtz_project(out)
    return out


def taylor_green_field(grid: TorusGrid) -> SpectralField:
    """Classical divergence-free cellular flow on the 2- or 3-torus."""
    if grid.dimension == 2:
        x, y = grid.coordinates * (2.0 * np.pi / grid.period)
        values = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    elif grid.dimension == 3:
        x, y, z = grid.coordinates * (2.0 * np.pi / grid.period)
        values = np.stack(
            [
                np.sin(x) * np.cos(y) * np.cos(z),
                -np.cos(x) * np.sin(y) * np.cos(z),
                np.zeros_like(x),
            ]
        )
    else:
        raise ValueError("cellular flow defined for dimensions 2 and 3")
    return SpectralField.from_physical(grid, values)


# -- existence sweeps --------------------------------------------------


@dataclass(frozen=True)
class ExistenceEntry:
    """One data-size sample of a small-data sweep."""

    eta: float
    certificate: PicardCertificate
    max_divergence: float | None = None


@dataclass(frozen=True)
class ExistenceReport:
    """Small-data sweep: certificates per ``eta`` and empirical threshold."""

    epsilon: float
    M_used: float
    entries: tuple[ExistenceEntry, ...]

    @property
    def threshold(self) -> float:
        """Largest sampled data size whose run converged."""
        converged = [e.eta for e in self.entries if e.certificate.converged]
        return max(converged) if converged else 0.0

    @property
    def monotone(self) -> bool:
        """No converged run above a diverged smaller data size."""
        entries = sorted(self.entries, key=lambda e: e.eta)
        seen_failure = False
        for e in entries:
            if not e.certificate.converged:
                seen_failure = True
            elif seen_failure:
                return False
        return True


def _sample_trajectory_pairs(
    prob: _SemilinearProblem, *, seed: int = 0
) -> Iterator[list[Trajectory]]:
    """Four pairs of random heat-flow trajectories at a 10x range of
    amplitudes in the problem's norm, each holding the samples its norm
    cached.

    The trajectories have the problem's component count and, for the
    incompressible problem, are divergence-free.  The pairs are drawn one
    at a time, so only the pair in use is held, and each comes as a
    two-item list that the consumer may empty to release a trajectory
    before the next pair is drawn.
    """
    grid = prob.u0.grid
    for i, scale in enumerate(np.geomspace(0.1, 1.0, 4)):
        fields = []
        for j in range(2):
            f = random_mean_free_field(
                grid,
                seed=seed,
                stream=100 + 2 * i + j,
                components=prob.u0.components,
                band_limit=max(2, grid.points_per_axis // 8),
                divergence_free=prob.divergence_free,
            )
            traj = heat_extension(f, prob.time_grid)
            traj *= scale / prob.norm(traj)  # in the arrays the norm transformed
            fields.append(traj)
            del traj  # the list the consumer may empty holds the only reference
        yield fields


def _pair_denominator(
    prob: NlheProblem | NsProblem, u: Trajectory, v: Trajectory
) -> tuple[float, float] | None:
    """The gate ratio's denominator ``||u - v|| (||u||**e + ||v||**e)`` on a
    sampled pair and the pair's amplitude ``max(||u||, ||v||)``; ``None`` for
    a degenerate pair.  ``||u - v||`` is taken from ``u.samples - v.samples``,
    the samples ``u - v`` would carry, with no difference trajectory built."""
    gap = _lq_magnitude(u.samples - v.samples, u.grid, prob.params.q)
    diff = _time_lp(gap, u.time_grid.weights, prob.params.p)
    if diff == 0.0:
        return None
    nu_, nv = prob.norm(u), prob.norm(v)
    denom = diff * (nu_**prob.epsilon + nv**prob.epsilon)
    if denom == 0.0:
        return None
    return denom, max(nu_, nv)


def measured_lipschitz_M(prob: NlheProblem | NsProblem, *, seed: int = 0) -> float:
    """Contraction constant of the problem's Duhamel map from sampled pairs,
    with :func:`_lipschitz_bound`'s 1.5x safety factor."""
    return _sampled_constants(prob, None, seed=seed)[0]


def _sampled_constants(
    prob: NlheProblem | NsProblem, bootstrap_p: float | None, *, seed: int = 0
) -> tuple[float, float]:
    """The Picard gate's constant ``M`` and, for a ``bootstrap_p``, the
    uniqueness bootstrap's sampled Lipschitz ratio ``c1`` (0 without one),
    from one pass over the sampled pairs.

    ``c1`` is measured on the same fields at the bootstrap's scale (see
    :func:`_bootstrap_denominator`), from the images the gate computed.
    The pass holds only the pair in use: each field's part of both ratios
    is taken before its image exists, each field goes once its image
    exists, and both images go before the next pair is drawn.
    """
    if bootstrap_p is not None:
        amplitude = max(spatial_lq_norm(prob.u0, prob.params.q), 1e-3)
    ratios: list[float] = []
    amplitudes: list[float] = []
    c1 = 0.0
    for pair in _sample_trajectory_pairs(prob, seed=seed):
        u, v = pair
        pair.clear()
        scale = _pair_denominator(prob, u, v)
        if scale is None:
            del u, v  # before the next pair is drawn
            continue
        if bootstrap_p is not None:
            boot = _bootstrap_denominator(prob, bootstrap_p, amplitude, u, v)
        fu = prob.rhs(u)
        del u
        fv = prob.rhs(v)
        del v
        ratios.append(prob.norm(fu - fv) / scale[0])
        amplitudes.append(scale[1])
        if bootstrap_p is not None:
            c1 = max(c1, _bootstrap_ratio(prob, bootstrap_p, fu, fv, boot))
        del fu, fv  # before the next pair is drawn
    return _lipschitz_bound(ratios, amplitudes), c1


def _lipschitz_bound(ratios: list[float], amplitudes: list[float]) -> float:
    """Empirical constant for ``||F(u)-F(v)|| <= M ||u-v|| (||u||**e + ||v||**e)``
    from the ratios sampled on nondegenerate pairs and the pairs' amplitudes.

    Returns the max ratio times a 1.5 safety factor; a NaN ratio makes it
    NaN.  This is a sampled lower bound dressed up for gate use, not a
    proof.  When the ratios grow systematically as the pair amplitude
    shrinks — the signature of a misspecified exponent, e.g. a linear map
    probed with ``epsilon > 0`` — a warning is emitted.
    """
    if not ratios:
        raise ValueError("no usable sample pairs (all degenerate)")
    if len(ratios) >= 4:
        la = np.log(np.asarray(amplitudes))
        lr = np.log(np.maximum(np.asarray(ratios), 1e-300))
        if np.ptp(la) > 0:
            slope = float(np.polyfit(la, lr, 1)[0])
            if slope < -0.5:
                warnings.warn(
                    "ratio grows as amplitude shrinks; nonlinearity exponent "
                    "may be misspecified",
                    stacklevel=3,
                )
    return float(np.max(ratios)) * 1.5


def _bootstrap_denominator(
    prob: NlheProblem | NsProblem,
    bootstrap_p: float,
    amplitude: float,
    u: Trajectory,
    v: Trajectory,
) -> tuple[float, float, float] | None:
    """The pair's side of the bootstrap's Lipschitz ratio on a gate pair
    brought to the bootstrap's scale: the ratio's denominator and the lifts
    ``r_u**nu``, ``r_v**nu`` of the images; ``None`` when a power leaves
    floating-point range (the ratio is then ``inf``).

    The bootstrap samples each field at ``amplitude`` in the
    ``(bootstrap_p, q)`` norm: the gate's field ``w`` times
    ``r = amplitude ||w||_gate / ||w||_boot``.  The ratio is
    ``||F(r_u u) - F(r_v v)||_boot`` over ``||r_u u - r_v v||_boot`` times
    the sum of ``(max_t ||r w||_q)**(nu-1)`` over the pair.  Both maps are
    positively homogeneous of degree ``nu``, so ``F(r w) = r**nu F(w)``
    comes from the gate's images.  The gap's norm is taken from
    ``ru * u.samples - rv * v.samples``, with no trajectory built.
    """
    nu, q = prob.nu, prob.params.q
    scales, peaks = [], []
    for traj in (u, v):
        nodal = _node_spatial_norms(traj, q)
        weights = traj.time_grid.weights
        gate, own = _time_lp(nodal, weights, prob.params.p), _time_lp(nodal, weights, bootstrap_p)
        r = amplitude * gate / own
        scales.append(r)
        peaks.append(float(r * np.max(nodal)))
    ru, rv = scales
    try:
        powers = peaks[0] ** (nu - 1.0) + peaks[1] ** (nu - 1.0)
        lifts = ru**nu, rv**nu
    except OverflowError:
        return None
    gap = _lq_magnitude(ru * u.samples - rv * v.samples, u.grid, q)
    return _time_lp(gap, u.time_grid.weights, bootstrap_p) * powers, *lifts


def _bootstrap_ratio(
    prob: NlheProblem | NsProblem,
    bootstrap_p: float,
    fu: Trajectory,
    fv: Trajectory,
    boot: tuple[float, float, float] | None,
) -> float:
    """The bootstrap's Lipschitz ratio from the gate's images and the pair's
    side :func:`_bootstrap_denominator`: ``inf`` past floating-point range,
    0 for a vanishing gap.  The images' gap's norm is taken from one array
    of spectra, with no trajectory built."""
    if boot is None:
        return math.inf
    denom, lift_u, lift_v = boot
    if denom > 0:
        grid, weights = fu.grid, fu.time_grid.weights
        image_gap = _physical_values(fu.spectrum * lift_u - fv.spectrum * lift_v, grid)
        return _time_lp(_lq_magnitude(image_gap, grid, prob.params.q), weights, bootstrap_p) / denom
    return 0.0


def existence_sweep(
    prob: NlheProblem | NsProblem,
    eta_grid: Sequence[float],
    *,
    tol: float = 1e-9,
    max_iter: int = 60,
    seed: int = 0,
) -> ExistenceReport:
    """Small-data sweep for the nonlinear heat or the incompressible problem.

    The initial field is rescaled so its heat-extension norm equals each
    ``eta``; the Picard gate uses an empirical contraction constant
    measured once on sampled trajectory pairs (the ratio is invariant
    under amplitude rescaling for the homogeneous power nonlinearity).
    For the incompressible problem the worst nodewise divergence over all
    Picard iterates of each run is tracked alongside the certificate.
    """
    etas = sorted(float(e) for e in eta_grid)
    if any(eta < 0 for eta in etas):
        raise ValueError("data sizes must be nonnegative")
    base_size = besov_heat_norm(prob.u0, prob.params)
    if base_size == 0.0:
        raise ValueError("initial field must be nonzero")
    u0_hat = prob.u0 * (1.0 / base_size)
    M = measured_lipschitz_M(prob, seed=seed)
    entries = []
    fp = None
    for eta in etas:
        a = heat_extension(u0_hat * eta, prob.time_grid)
        # one evaluation of the map at zero serves every eta
        if fp is None:
            fp = FixedPointProblem(base=a, map_F=prob.rhs, norm=prob.norm, epsilon=prob.epsilon)
        else:
            fp = fp.with_base(a)
        worst_div = [0.0]

        def track(_k: int, traj: Trajectory) -> None:
            worst_div[0] = max(worst_div[0], max_node_divergence(traj))

        # the solution is not bound: it is gone before the next run starts
        cert = run_picard(
            fp,
            max_iter,
            tol,
            lipschitz_M=M,
            iterate_callback=track if prob.divergence_free else None,
        )[1]
        entries.append(
            ExistenceEntry(
                eta=eta,
                certificate=cert,
                max_divergence=worst_div[0] if prob.divergence_free else None,
            )
        )
    return ExistenceReport(epsilon=prob.epsilon, M_used=M, entries=tuple(entries))


# -- uniqueness bootstrap ----------------------------------------------


class Segment(NamedTuple):
    """One accepted segment of the uniqueness walk, in the CSV's column
    order: its span, its slice's mollification error and cutoff radius, the
    three bracket quantities of the contraction bound, the factor
    ``C * (q1 + q2 + q3)`` (at most 3/4) and the measured separation."""

    t_start: float
    t_end: float
    moll_error: float
    cutoff_radius: float
    q1: float
    q2: float
    q3: float
    factor: float
    separation: float


@dataclass(frozen=True)
class UniquenessReport:
    """Two Picard routes to a mild solution and the segmented uniqueness
    bootstrap along them.

    ``routes`` holds the certificates of both Picard runs and ``segments``
    one :class:`Segment` per accepted segment.  ``smoothing`` is the
    heat-smoothing probe that enters the constant, or ``None`` when its
    source exponent ``nq/(n+q)`` is not above 1.  When a route does not
    converge, the run is inconclusive: no probe, no constant (``C_used`` is
    NaN) and no segments.
    """

    status: str  # 'complete' | 'inconclusive'
    routes: tuple[PicardCertificate, PicardCertificate]
    C_used: float
    dimension_restriction_met: bool
    smoothing: SmoothingReport | None
    segments: tuple[Segment, ...] = ()

    @property
    def max_factor(self) -> float:
        return max((s.factor for s in self.segments), default=float("nan"))

    @property
    def max_separation(self) -> float:
        return max((s.separation for s in self.segments), default=float("nan"))


def _mollify_by_cutoff(
    u0: SpectralField, target: float, nu: float, q: float
) -> tuple[SpectralField, float, float]:
    """Coarsest spectral cutoff whose power-of-norm defect stays below ``target``.

    Returns the mollified field, the ``L^q`` mollification error and the
    chosen cutoff radius.  The full-resolution cutoff always qualifies, so
    a choice exists.
    """
    grid = u0.grid
    mags = np.sqrt(grid.layout(u0.spectrum).xi_sq)
    radii = np.unique(mags)
    full = spatial_lq_norm(u0, q) ** (nu - 1.0)
    for radius in radii:
        keep = mags <= radius + 1e-12
        cand = SpectralField(grid, u0.spectrum * keep[np.newaxis])
        defect = abs(full - spatial_lq_norm(cand, q) ** (nu - 1.0))
        if defect <= target:
            err = spatial_lq_norm(u0 - cand, q)
            return cand, err, float(radius)
    return u0, 0.0, float(radii[-1])


def _inflated(a: Trajectory, factor: float) -> Trajectory:
    """``a * factor`` carrying the samples ``a.samples * factor``, scaled from
    a copy that holds ``a``'s own transform, so ``a`` caches no samples."""
    twin = copy.copy(a)
    twin.samples
    return twin * factor


def uniqueness_bootstrap(
    prob: NlheProblem | NsProblem,
    *,
    p: float = 2.0,
    tol: float = 1e-9,
    max_iter: int = 60,
    seed: int = 0,
) -> UniquenessReport:
    """Two mild solutions of the same problem, driven into agreement segment
    by segment.

    One pass over sampled pairs measures the Picard gate's constant and the
    bootstrap's Lipschitz ratio in the ``(p, q)`` norm.  Route one iterates
    from the heat extension ``a``, route two from a slightly inflated copy of
    it.  (Starting route two from zero would retrace route one's orbit
    shifted by a step, since the first iterate of zero is ``a`` itself.)
    Both solutions start from ``a(0)``, where the Duhamel term vanishes.
    When both routes converge, the smoothing probe fixes the constant and
    :func:`_segment_walk` runs; otherwise the run is inconclusive.
    """
    if not p > 1:
        raise ValueError("the bootstrap's time exponent p must exceed 1")
    n, q = prob.dimension, prob.params.q
    dim_ok = math.isclose(q, prob.q_endpoint, rel_tol=1e-12)
    lipschitz_M, c1 = _sampled_constants(prob, p, seed=seed)
    a = heat_extension(prob.u0, prob.time_grid)
    fp = FixedPointProblem(base=a, map_F=prob.rhs, norm=prob.norm, epsilon=prob.epsilon)
    u, cert_u = run_picard(fp, max_iter, tol, lipschitz_M=lipschitz_M)
    v, cert_v = run_picard(fp, max_iter, tol, lipschitz_M=lipschitz_M, start=_inflated(a, 1.001))
    del fp, a  # before the probe and the walk
    routes = (cert_u, cert_v)
    if not (cert_u.converged and cert_v.converged):
        return UniquenessReport("inconclusive", routes, float("nan"), dim_ok, None)
    smoothing = None
    if n * q / (n + q) > 1:  # the probe's source exponent
        radii = default_smoothing_radii(prob.u0.grid)
        smoothing = smoothing_estimate_check(prob.u0.grid, q, radii, num_fields=3, seed=seed)
    # the segment inequality's constant, with a 2x safety factor: the
    # sampled Lipschitz ratio of the Duhamel term against the smoothing ratio
    C = 2.0 * max(c1, 0.0 if smoothing is None else smoothing.max_ratio, 1e-6)
    status, segments = _segment_walk(prob, u, v, C, p)
    return UniquenessReport(status, routes, float(C), dim_ok, smoothing, segments)


def _segment_walk(
    prob: NlheProblem | NsProblem, u: Trajectory, v: Trajectory, C: float, p: float
) -> tuple[str, tuple[Segment, ...]]:
    """The bootstrap's walk along two solutions with the same initial slice.

    On each segment the initial slice is mollified by a spectral cutoff
    tight enough that the power-of-norm defect stays below ``1/(8C)``, and
    the segment length ``tau`` shrinks until the three bracket quantities
    (sup-norm defects of both solutions against the mollified heat flow,
    and ``sqrt(tau)`` times the auxiliary norm of that flow) each drop
    below ``1/(4C)``; the flow's sup norms are the mollified slice's own,
    as the heat semigroup contracts every ``L^r``.  The resulting factor
    is at most 3/4, and the segment then advances; a segment that cannot
    be shrunk far enough renders the run inconclusive.  Returns the status
    and the accepted segments.
    """
    q = prob.params.q
    nu = prob.nu
    u_q = _node_spatial_norms(u, q)
    gap_q = _node_spatial_norms(u - v, q)
    v_q = _node_spatial_norms(v, q)
    aux_q = prob.dimension / (nu - 1.0)
    nodes = u.time_grid.nodes
    last = len(nodes) - 1
    i0 = 0
    segments: list[Segment] = []
    while i0 < last:
        u0_eps, moll_err, radius = _mollify_by_cutoff(
            u.state(i0), 1.0 / (8.0 * C), nu, q
        )
        # the heat semigroup contracts every L^r, r >= 1, so the sup over
        # time of the mollified flow's norms is the datum's own norm
        sup_flow_q = spatial_lq_norm(u0_eps, q)
        sup_flow_aux = spatial_lq_norm(u0_eps, aux_q)
        t0 = nodes[i0]
        i1 = last
        while True:
            tau = nodes[i1] - t0
            seg = slice(i0, i1 + 1)
            q1 = abs(float(np.max(u_q[seg])) ** (nu - 1.0) - sup_flow_q ** (nu - 1.0))
            q2 = abs(float(np.max(v_q[seg])) ** (nu - 1.0) - sup_flow_q ** (nu - 1.0))
            q3 = math.sqrt(tau) * sup_flow_aux ** (nu - 1.0)
            accepted = max(q1, q2, q3) <= 1.0 / (4.0 * C)
            if accepted or i1 == i0 + 1:
                break
            i1 = i0 + (i1 - i0) // 2
        if not accepted:
            break
        separation = _time_lp(gap_q[seg], _trapezoid_weights(nodes[seg]), p)
        factor = C * (q1 + q2 + q3)
        span = (float(t0), float(nodes[i1]))
        segments.append(Segment(*span, moll_err, radius, q1, q2, q3, factor, separation))
        i0 = i1
    return ("complete" if i0 == last else "inconclusive"), tuple(segments)
