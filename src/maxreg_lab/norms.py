"""Space-time norms on trajectories and closed-form continuum profiles.

Two worlds meet here.  On the discrete side, a :class:`Trajectory` is a
time-indexed stack of spectral fields and the mixed norms
``L^p_t(L^q_x)`` (plain or power-weighted in time) are quadratures over
the trajectory's time grid.  On the continuum side, a small fixed
catalogue of space-time profiles on ``(0, inf) x R^n`` carries spatial
``L^q`` norms of the form ``k * (t + a)**e``, so their mixed norms are
closed forms too, with no quadrature, and parabolic rescaling can be
tested against exact predictions.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import InitVar, dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .spectral import (
    SpectralField,
    TorusGrid,
    _NODE_BLOCK,
    _CoefficientArithmetic,
    _energy,
    _physical_values,
    divergence,
)

__all__ = [
    "TimeGrid",
    "Trajectory",
    "MixedNormParams",
    "WeightParams",
    "ScalingLaw",
    "DivergentNormError",
    "uniform_time_grid",
    "log_time_grid",
    "spatial_lq_norm",
    "bochner_mixed_norm",
    "heat_extension",
    "besov_heat_norm",
    "BesovHeatResult",
    "ParabolicGaussianProfile",
    "InverseSqrtRadialProfile",
    "continuum_mixed_norm",
    "scaling_transform",
    "nlhe_scaling_law",
    "ns_scaling_law",
]


class DivergentNormError(ArithmeticError):
    """Raised when a continuum space-time norm fails to converge."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes with positive quadrature weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("time grid needs at least two nodes")
        # every comparison below is false for NaN, and inf passes them
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("time nodes and weights must be finite")
        if nodes[0] < 0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("time nodes must be nonnegative and strictly increasing")
        if weights.shape != nodes.shape or np.any(weights <= 0):
            raise ValueError("weights must be positive and match the nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def is_uniform(self) -> bool:
        h = np.diff(self.nodes)
        return bool(np.allclose(h, h[0], rtol=1e-12, atol=0.0))

    def same_nodes(self, other: "TimeGrid") -> bool:
        return self.nodes.shape == other.nodes.shape and bool(
            np.array_equal(self.nodes, other.nodes)
        )


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.empty_like(nodes)
    w[1:-1] = (nodes[2:] - nodes[:-2]) / 2.0
    w[0] = (nodes[1] - nodes[0]) / 2.0
    w[-1] = (nodes[-1] - nodes[-2]) / 2.0
    return w


def uniform_time_grid(horizon: float, num_nodes: int = 257) -> TimeGrid:
    """Uniform trapezoid grid on ``[0, horizon]``."""
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")
    if horizon / (num_nodes - 1) < sys.float_info.min:
        raise ValueError("the node spacing horizon/(num_nodes - 1) must not be subnormal")
    nodes = np.linspace(0.0, horizon, num_nodes)
    return TimeGrid(nodes, _trapezoid_weights(nodes))


def log_time_grid(t_min: float, t_max: float, num_nodes: int = 513) -> TimeGrid:
    """Trapezoid grid on ``t = 0`` and ``num_nodes`` log-spaced nodes from
    ``t_min`` to ``t_max``.

    Used for integrals over ``(0, inf)`` truncated at ``t_max``; the caller
    accounts for the tail.
    """
    if not 0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    nodes = np.concatenate([[0.0], np.geomspace(t_min, t_max, num_nodes)])
    return TimeGrid(nodes, _trapezoid_weights(nodes))


@dataclass(frozen=True, eq=False)
class Trajectory(_CoefficientArithmetic):
    """Time-indexed stack of spectral fields on a shared grid.

    ``coefficients`` is the half spectrum of every node, shaped
    ``(num_nodes, m) + grid.half_shape``, and is stored as
    :class:`SpectralField` stores it (``spectrum``).  The
    linear operations mirror :class:`SpectralField` so trajectories can be
    fed to generic fixed-point iterations.  A trajectory is immutable: its
    derived views ``samples`` and ``max_divergence`` are computed at most
    once, and ``samples`` is carried through ``+``, ``-`` and real ``*``.
    """

    time_grid: TimeGrid
    grid: TorusGrid
    coefficients: InitVar[np.ndarray]
    spectrum: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self, coefficients: np.ndarray) -> None:
        self._store(coefficients, (self.time_grid.num_nodes,))

    @classmethod
    def from_fields(cls, time_grid: TimeGrid, fields: Sequence[SpectralField]) -> "Trajectory":
        if len(fields) != time_grid.num_nodes:
            raise ValueError("one field per time node required")
        for f in fields[1:]:
            fields[0]._check_compatible(f)
        return cls(time_grid, fields[0].grid, np.stack([f.spectrum for f in fields]))

    @classmethod
    def zeros(cls, time_grid: TimeGrid, grid: TorusGrid, components: int = 1) -> "Trajectory":
        shape = (time_grid.num_nodes, components) + grid.half_shape
        return cls(time_grid, grid, np.zeros(shape, dtype=np.complex128))

    @cached_property
    def max_divergence(self) -> float:
        """Largest nodewise ``L^2`` norm of the divergence, computed once."""
        return float(np.max(_parseval_l2(divergence(self).spectrum, self.grid)))

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.spectrum[i])

    def _check_compatible(self, other: "Trajectory") -> None:
        super()._check_compatible(other)
        if not self.time_grid.same_nodes(other.time_grid):
            raise ValueError("trajectories live on different grids")


@dataclass(frozen=True)
class MixedNormParams:
    """Exponent pair for ``L^p_t(L^q_x)``; ``p`` may be ``inf``."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 1):
            raise ValueError("time exponent p must exceed 1")
        if not (1 < self.q < math.inf):
            raise ValueError("space exponent q must lie in (1, inf)")


@dataclass(frozen=True)
class WeightParams:
    """Power weight ``t**((1-mu)*p)`` for weighted-in-time norms."""

    mu: float

    def validate_against(self, params: MixedNormParams) -> None:
        if not math.isfinite(params.p):
            raise ValueError("weighted norms require finite p")
        if not (1.0 / params.p < self.mu <= 1.0):
            raise ValueError("mu must satisfy 1/p < mu <= 1")


@dataclass(frozen=True)
class ScalingLaw:
    """Parabolic-type rescaling ``u -> lam**rho u(lam**alpha t, lam x)``.

    ``alpha`` scales time, ``beta`` is the forcing-degree offset and
    ``gamma`` the nonlinearity degree; ``rho = (alpha-beta)/(gamma-1)``.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if self.alpha != self.beta and self.gamma == 1:
            raise ValueError("gamma = 1 with alpha != beta leaves the exponent undefined")

    @property
    def exponent(self) -> float:
        if self.gamma == 1:
            raise ValueError("exponent undefined for gamma = 1")
        return (self.alpha - self.beta) / (self.gamma - 1.0)


def nlhe_scaling_law(nu: float) -> ScalingLaw:
    """Scaling of the heat equation with a degree-``nu`` power source."""
    if not 1 < nu < math.inf:
        raise ValueError("nonlinearity exponent nu must exceed 1 and be finite")
    return ScalingLaw(alpha=2.0, beta=0.0, gamma=nu)


def ns_scaling_law() -> ScalingLaw:
    """Scaling ``lam u(lam**2 t, lam x)`` of the incompressible momentum equation."""
    return ScalingLaw(alpha=2.0, beta=1.0, gamma=2.0)


# -- discrete norms ----------------------------------------------------


def _lq_magnitude(values: np.ndarray, grid: TorusGrid, q: float) -> np.ndarray:
    """``L^q`` norms of the Euclidean magnitude of ``(..., m) + grid.shape`` samples.

    ``|u|**2`` is one contraction over the components (fused with the grid
    sum for ``q = 2``), and ``|u|**q`` is taken as ``(|u|**2)**(q/2)``: for
    ``q = 4`` a dot product of ``|u|**2`` with itself, for ``q = 3`` the
    product ``|u|**2 * sqrt(|u|**2)``, and a power only for other ``q``.
    A nonzero finite field whose sum of powers (or largest ``|u|**2``, for
    ``q = inf``) under- or overflows is measured with its components
    divided by the largest one, by :func:`_scaled_lp`, and scaled back; for
    other ``q`` that is decided from its largest power, before the sum.
    """
    n = grid.dimension
    flat = values.reshape(values.shape[:-n] + (-1,))
    with np.errstate(over="ignore", under="ignore"):
        if q == 2:
            total = np.einsum("...cp,...cp->...", flat, flat)
        else:
            mag_sq = np.einsum("...cp,...cp->...p", flat, flat)
            if math.isinf(q):
                total = np.max(mag_sq, axis=-1)
            elif q == 4:
                total = np.einsum("...p,...p->...", mag_sq, mag_sq)
            elif q == 3:
                # elementwise, not a dot product: a batched reduction then agrees
                # bit for bit with the same field's own
                root = np.sqrt(mag_sq)
                root *= mag_sq
                total = np.sum(root, axis=-1)
            else:
                # a row whose largest |u|**q leaves the normal range is not
                # summed: its 0 sends it to the scaled pass below
                peak = np.max(mag_sq, axis=-1)
                top_q = peak ** (q / 2.0)
                kept = (top_q >= sys.float_info.min) & (top_q * mag_sq.shape[-1] < math.inf)
                kept |= ~(peak < math.inf)  # inf or NaN: the plain sum says so
                total = np.zeros(peak.shape)
                total[kept] = np.sum(mag_sq[kept] ** (q / 2.0), axis=-1)
    norms = np.sqrt(total) if math.isinf(q) else (total * grid.cell_volume) ** (1.0 / q)
    # a sum below the smallest normal float has lost its precision
    suspect = ~(total >= sys.float_info.min) | (total == math.inf)
    if np.any(suspect):
        # scan only the suspect rows, and an all-suspect (say zero) stack uncopied
        rows = flat.reshape((-1,) + flat.shape[-2:])
        where = np.flatnonzero(suspect)
        scan = rows if where.size == len(rows) else rows[where]
        top = np.maximum(np.max(scan, axis=(1, 2)), -np.min(scan, axis=(1, 2)))
        lost = (top > 0) & np.isfinite(top)
        if np.any(lost):
            top, where = top[lost], where[lost]
            # components at most 1 in size: the largest square is at least 1
            unit = rows[where] / top[:, np.newaxis, np.newaxis]
            magnitude = np.sqrt(np.einsum("rcp,rcp->rp", unit, unit))
            norms = np.array(norms).reshape(-1)
            norms[where] = top * _scaled_lp(magnitude, grid.cell_volume, q)
            norms = norms.reshape(total.shape)
    return norms


def _scaled_lp(terms: np.ndarray, weights: np.ndarray | float, p: float) -> np.ndarray:
    """``(sum weights * terms**p)**(1/p)`` over the last axis, for sums out of
    floating-point range: each row is divided by its largest weighted term
    ``weights**(1/p) * terms``, so its sum of powers lies between 1 and the
    row length, and scaled back.  A term with weight 0 never sets the scale."""
    scaled = weights ** (1.0 / p) * terms
    top = np.max(scaled, axis=-1, keepdims=True)
    unit = np.where((top > 0) & (top < math.inf), top, 1.0)
    # only a row whose largest term is not finite overflows: it sums to inf or NaN
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum((scaled / unit) ** p, axis=-1)
    return top[..., 0] * total ** (1.0 / p)


def _parseval_l2(stored: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """``L^2`` norms by Parseval over the last ``n + 1`` axes of a stored half
    spectrum ``(..., m) + grid.half_shape``; its columns count as often as
    they occur in the full spectrum."""
    lead = stored.ndim - grid.dimension - 1
    return np.sqrt(grid.volume * _energy(stored, grid.layout.weights, lead))


def spatial_lq_norm(field: SpectralField, q: float) -> float:
    """``L^q`` norm of the pointwise Euclidean magnitude, by grid quadrature."""
    if q < 1:
        raise ValueError("spatial exponent q must be at least 1")
    return float(_lq_magnitude(field.to_physical(), field.grid, q))


def _node_spatial_norms(traj: Trajectory, q: float) -> np.ndarray:
    return _lq_magnitude(traj.samples, traj.grid, q)


def _time_lp(g: np.ndarray, weights: np.ndarray, p: float) -> float:
    """``(sum weights * g**p)**(1/p)`` over nodal norms ``g``, by
    :func:`_scaled_lp` when the sum under- or overflows; ``max g`` for
    ``p = inf``."""
    if math.isinf(p):
        return float(np.max(g))
    # 0 * inf, an overflowed power at a zero weight, leaves the range as NaN
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        total = np.sum(weights * g**p)
    if sys.float_info.min <= total < math.inf:
        return float(total ** (1.0 / p))
    return float(_scaled_lp(g, weights, p))


def _time_weights(
    time_grid: TimeGrid, params: MixedNormParams, weight: WeightParams | None
) -> np.ndarray:
    """Quadrature weights of the plain or, given ``weight``, power-weighted time norm."""
    if weight is None:
        return time_grid.weights
    weight.validate_against(params)
    return time_grid.weights * time_grid.nodes ** ((1.0 - weight.mu) * params.p)


def bochner_mixed_norm(
    traj: Trajectory, params: MixedNormParams, *, weight: WeightParams | None = None
) -> float:
    """``L^p_t(L^q_x)`` norm by time quadrature of nodewise spatial norms.

    For ``p = inf`` the maximum over nodes is returned.  Given ``weight``,
    the power-weighted norm ``|| t**(1-mu) u ||_{L^p_t(L^q_x)}``; ``mu = 1``
    reproduces the plain norm exactly (the weight array is identically one).
    """
    weights = _time_weights(traj.time_grid, params, weight)
    return _time_lp(_node_spatial_norms(traj, params.q), weights, params.p)


def heat_extension(u0: SpectralField, time_grid: TimeGrid) -> Trajectory:
    """Trajectory ``t -> exp(t*Laplacian) u0`` sampled on ``time_grid``."""
    coeff = u0.spectrum[np.newaxis] * _heat_damping(time_grid, u0)[:, np.newaxis]
    return Trajectory(time_grid, u0.grid, coeff)


def _heat_damping(time_grid: TimeGrid, u0: SpectralField) -> np.ndarray:
    """``exp(-t |xi|**2)`` on the nodes of ``time_grid`` and the modes of
    ``u0``'s half spectrum, shaped ``(num_nodes,) + grid.half_shape``, read-only.

    The time grid keeps the last table it was built for (keyed by the
    spatial grid), so the heat extensions of one sweep build it once, and
    it goes when the time grid does.
    """
    cached = vars(time_grid).get("_heat_damping")
    if cached is not None and cached[0] == u0.grid:
        return cached[1]
    damp = np.exp(-np.multiply.outer(time_grid.nodes, u0.grid.layout.xi_sq))
    damp.flags.writeable = False
    vars(time_grid)["_heat_damping"] = (u0.grid, damp)
    return damp


def _heat_node_norms(u0: SpectralField, time_grid: TimeGrid, q: float) -> np.ndarray:
    """Nodal ``L^q`` norms of :func:`heat_extension`, equal to
    ``_node_spatial_norms(heat_extension(u0, time_grid), q)``.

    The extension is built and sampled ``_NODE_BLOCK`` nodes at a time, the
    block of the nonlinear maps, so only one block of it is ever held (a
    514-node extension of a 16^3 vector field would otherwise hold about
    100 MB of coefficients and samples).
    """
    damp = _heat_damping(time_grid, u0)
    norms = []
    for start in range(0, len(damp), _NODE_BLOCK):
        block = u0.spectrum[np.newaxis] * damp[start : start + _NODE_BLOCK, np.newaxis]
        norms.append(_lq_magnitude(_physical_values(block, u0.grid), u0.grid, q))
    return np.concatenate(norms)


@dataclass(frozen=True)
class BesovHeatResult:
    """Value of a heat-extension norm plus its truncation-tail bound."""

    value: float
    tail_bound: float
    time_grid: TimeGrid


def besov_heat_norm(
    u0: SpectralField,
    params: MixedNormParams,
    *,
    num_nodes: int = 513,
    details: bool = False,
) -> float | BesovHeatResult:
    """Size of ``u0`` measured through its heat extension on ``(0, inf)``.

    Computes ``|| t -> exp(t*Laplacian) u0 ||_{L^p_t(L^q_x)}`` on a
    log-spaced grid from ``t = 1e-6``, truncated where an analytic bound
    certifies the tail contributes less than ``1e-10`` relatively.
    Requires finite ``p, q`` and a mean-free ``u0`` (a nonzero spatial mean
    does not decay, so the norm over ``(0, inf)`` diverges).
    """
    if math.isinf(params.p):
        raise ValueError("heat-extension norm requires finite exponents")
    t_min = 1e-6
    if not u0.is_mean_free():
        raise ValueError("heat-extension norm over (0, inf) requires a mean-free field")
    stored = u0.spectrum
    columns = np.sum(np.abs(stored), axis=tuple(range(stored.ndim - 1)))
    amp = float(columns @ u0.grid.layout.weights)  # sum |c_k| over the full spectrum
    if amp == 0.0:
        grid = log_time_grid(t_min, 2 * t_min, 3)
        return BesovHeatResult(0.0, 0.0, grid) if details else 0.0
    p, q = params.p, params.q
    n = u0.grid.dimension
    lam_min = (2.0 * np.pi / u0.grid.period) ** 2
    # ||exp(t Lap) u0||_q <= L**(n/q) * sum|c_k| * exp(-lam_min t) for mean-free u0
    bound_amp = u0.grid.period ** (n / q) * amp
    t_max = 45.0 / (p * lam_min)
    for _ in range(3):
        tgrid = log_time_grid(t_min, t_max, num_nodes)
        value = _time_lp(_heat_node_norms(u0, tgrid, q), tgrid.weights, p)
        try:
            tail = bound_amp**p * np.exp(-p * lam_min * t_max) / (p * lam_min)
            small = tail <= 1e-10 * p * value**p
        except OverflowError:  # a large field's powers: compare their logarithms
            log_tail = p * (math.log(bound_amp) - lam_min * t_max) - math.log(p * lam_min)
            tail = math.inf
            small = log_tail <= math.log(1e-10 * p) + p * math.log(value)
        if small:
            break
        t_max *= 2.0
    result = BesovHeatResult(float(value), float(tail), tgrid)
    return result if details else result.value


# -- continuum profiles ------------------------------------------------


@dataclass(frozen=True)
class ParabolicGaussianProfile:
    """``A * (t+a)**(-sigma) * exp(-|x|**2 / (4*(t+a)))`` on ``(0,inf) x R^n``.

    Closed under parabolic rescaling: ``lam**rho u(lam**2 t, lam x)`` is the
    profile with amplitude ``A*lam**(rho-2*sigma)`` and offset ``a/lam**2``.
    """

    amplitude: float = 1.0
    offset: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.offset < math.inf:
            raise ValueError("offset must be positive and finite")

    def power_law(self, q: float, n: int) -> tuple[float, float, float]:
        """``(k, a, e)`` with spatial ``L^q`` norm ``k * (t + a)**e``."""
        e = n / (2.0 * q)
        return abs(self.amplitude) * (4.0 * np.pi / q) ** e, self.offset, e - self.sigma


@dataclass(frozen=True)
class InverseSqrtRadialProfile:
    """``A * (t + |x|**2)**(-1/2)``, invariant under ``lam u(lam**2 t, lam x)``.

    The spatial ``L^q`` norm reduces radially and needs ``q > n``; the full
    space-time norm over ``(0, inf)`` is log-divergent at the critical pair
    and must be taken over a finite time window.
    """

    amplitude: float = 1.0

    def power_law(self, q: float, n: int) -> tuple[float, float, float]:
        """``(k, 0, e)`` with spatial ``L^q`` norm ``k * t**e``."""
        if q <= n:
            raise DivergentNormError(
                f"spatial L^{q} norm diverges for this profile in dimension {n}"
            )
        # integral of (1 + |y|**2)**(-q/2) over R^n
        radial = math.pi ** (n / 2.0) * math.exp(
            math.lgamma((q - n) / 2.0) - math.lgamma(q / 2.0)
        )
        return abs(self.amplitude) * radial ** (1.0 / q), 0.0, n / (2.0 * q) - 0.5


ContinuumProfile = ParabolicGaussianProfile | InverseSqrtRadialProfile


def continuum_mixed_norm(
    profile: ContinuumProfile,
    params: MixedNormParams,
    n: int,
    t_window: tuple[float, float] | None = None,
) -> float:
    """``L^p_t(L^q_x)`` norm of a catalogue profile, in closed form.

    ``t_window`` restricts the time norm to ``[t0, t1]``; the default is all
    of ``(0, inf)``.  The spatial norm is ``k * (t + a)**e``, so its
    ``p``-th power integrates in closed form, and it is monotone in time,
    so for ``p = inf`` the supremum sits at an end of the window.  A norm that
    diverges raises :class:`DivergentNormError`.
    """
    p, q = params.p, params.q
    t0, t1 = (0.0, math.inf) if t_window is None else t_window
    if not 0 <= t0 < t1:
        raise ValueError("time window must satisfy 0 <= t0 < t1")
    k, a, e = profile.power_law(q, n)
    s0, s1 = t0 + a, t1 + a
    if math.isinf(p):
        end, side = (s1, "inf") if e > 0 else (s0, "0")
        if e != 0 and end in (0.0, math.inf):
            raise DivergentNormError(f"sup over the window diverges at t -> {side}")
        return k * end**e
    c = e * p + 1.0  # the time integrand is (k * s**e)**p = k**p * s**(c - 1)
    if s0 == 0 and c <= 0:
        raise DivergentNormError("time integral diverges at t -> 0 for this profile")
    if math.isinf(s1) and c >= 0:
        raise DivergentNormError("time integral diverges at t -> inf; use a finite window")
    # integral of s**(c-1) over [s0, s1] = end**c * expm1(c_end * L) / c_end with
    # L = log(s1/s0), taken from the finite nonzero end: no power difference cancels
    log_ratio = math.log(s1 / s0) if s0 > 0 else math.inf
    end, c_end = (s0, c) if math.isinf(s1) else (s1, -c)
    factor = math.expm1(c_end * log_ratio) / c_end if c != 0 else log_ratio
    return k * end ** (e + 1.0 / p) * factor ** (1.0 / p)


def scaling_transform(
    profile: ContinuumProfile, lam: float, law: ScalingLaw
) -> ContinuumProfile:
    """Rescaled profile ``lam**rho u(lam**alpha t, lam x)`` with ``rho`` from ``law``.

    The catalogue is closed under parabolic scaling only (``alpha = 2``).
    """
    if lam <= 0:
        raise ValueError("scaling factor must be positive")
    if law.gamma == 1:
        raise ValueError("gamma = 1 leaves the scaling exponent undefined")
    if law.alpha != 2.0:
        raise NotImplementedError("profile catalogue is closed under alpha = 2 only")
    rho = law.exponent
    if isinstance(profile, ParabolicGaussianProfile):
        return replace(
            profile,
            amplitude=profile.amplitude * lam ** (rho - 2.0 * profile.sigma),
            offset=profile.offset / lam**2,
        )
    if isinstance(profile, InverseSqrtRadialProfile):
        # u(lam**2 t, lam x) = lam**(-1) u(t, x) exactly
        return replace(profile, amplitude=profile.amplitude * lam ** (rho - 1.0))
    raise TypeError(f"profile {type(profile).__name__} is not closed under rescaling")
