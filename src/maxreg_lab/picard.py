"""Quantitative Picard iteration with an explicit smallness certificate.

Works over any vector-like state supporting ``+``, ``-`` and scalar
multiplication together with a norm callable — plain floats for sanity
checks, full space-time trajectories for PDE runs.  The contraction
argument assumes the nonlinear map satisfies

    ||F(u) - F(v)||  <=  M ||u - v|| (||u||**eps + ||v||**eps),

from which smallness of the affine term ``a`` below
``delta = (1 - margin) / (2 (2 M)**(1/eps))`` guarantees that
``u -> a + F(u)`` contracts on the ball of radius ``2 delta`` with rate
``2 M (2 delta)**eps < 1``.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "FixedPointProblem",
    "PicardCertificate",
    "estimate_lipschitz_M",
    "smallness_gate",
    "run_picard",
]

#: Safety margin keeping the certified ball strictly inside the contraction regime.
GATE_MARGIN = 1e-3


@dataclass(frozen=True, eq=False)
class FixedPointProblem:
    """Fixed-point problem ``u = base + map_F(u)`` in a normed state space.

    ``map_F`` must vanish at zero (checked on construction up to ``1e-12``
    relative to the base norm); ``epsilon`` is the nonlinearity exponent in
    the two-sided Lipschitz estimate.
    """

    base: Any
    map_F: Callable[[Any], Any]
    norm: Callable[[Any], float]
    epsilon: float
    #: ``norm(map_F(0))``, measured once on construction
    drift: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("nonlinearity exponent epsilon must be positive")
        object.__setattr__(self, "drift", self.norm(self.map_F(self.base * 0.0)))
        self._check_drift()

    def _check_drift(self) -> None:
        if self.drift > 1e-12 * max(1.0, self.norm(self.base)):
            raise ValueError(f"map_F(0) must vanish; got norm {self.drift:.3e}")

    def with_base(self, base: Any) -> "FixedPointProblem":
        """The same map with another ``base`` from the same state space.

        The drift measured on construction is checked against the new
        base's own bound, so the map is not evaluated at zero again.
        """
        prob = copy.copy(self)
        object.__setattr__(prob, "base", base)
        prob._check_drift()
        return prob


def estimate_lipschitz_M(
    map_F: Callable[[Any], Any],
    norm: Callable[[Any], float],
    epsilon: float,
    sample_pairs: Iterable[tuple[Any, Any]],
) -> float:
    """Empirical constant for ``||F(u)-F(v)|| <= M ||u-v|| (||u||**e + ||v||**e)``.

    Returns the max ratio over the sampled pairs times a 1.5 safety factor.
    This is a sampled lower bound dressed up for gate use, not a proof.
    Pairs with ``u = v`` are skipped.  When the ratios grow systematically
    as the pair amplitude shrinks — the signature of a misspecified
    exponent, e.g. a linear map probed with ``epsilon > 0`` — a warning is
    emitted.
    """
    ratios: list[float] = []
    amplitudes: list[float] = []
    for u, v in sample_pairs:
        sample = _pair_ratio(map_F, norm, epsilon, u, v)
        if sample is not None:
            ratios.append(sample[0])
            amplitudes.append(sample[1])
        del sample  # and its images, before the next pair is drawn
    return _lipschitz_bound(ratios, amplitudes)


def _pair_ratio(
    map_F: Callable[[Any], Any], norm: Callable[[Any], float], epsilon: float, u: Any, v: Any
) -> tuple[float, float, tuple[Any, Any]] | None:
    """One pair's ratio ``||F(u)-F(v)|| / (||u-v|| (||u||**e + ||v||**e))``,
    its amplitude ``max(||u||, ||v||)`` and the images ``(F(u), F(v))``;
    ``None`` for a degenerate pair, whose images are not computed."""
    diff = norm(u - v)
    if diff == 0.0:
        return None
    nu_, nv = norm(u), norm(v)
    denom = diff * (nu_**epsilon + nv**epsilon)
    if denom == 0.0:
        return None
    images = map_F(u), map_F(v)
    return norm(images[0] - images[1]) / denom, max(nu_, nv), images


def _lipschitz_bound(ratios: list[float], amplitudes: list[float]) -> float:
    """:func:`estimate_lipschitz_M` from the sampled ratios and amplitudes."""
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
    return float(max(ratios)) * 1.5


def smallness_gate(M: float, epsilon: float, a_norm: float) -> tuple[float, bool]:
    """Radius ``delta`` of the certified ball and whether ``a`` fits under it.

    ``delta = (1 - margin) / (2 (2 M)**(1/epsilon))`` sits just below the
    threshold where ``2 M (2 delta)**epsilon`` reaches one.  For a tiny
    ``epsilon`` the power under- or overflows, and ``delta`` is then its
    limit: ``inf`` for ``2 M < 1``, 0 for ``2 M > 1``.
    """
    if M <= 0:
        raise ValueError("Lipschitz constant M must be positive")
    if epsilon <= 0:
        raise ValueError("nonlinearity exponent epsilon must be positive")
    if a_norm < 0:
        raise ValueError("a_norm must be nonnegative")
    try:
        power = (2.0 * M) ** (1.0 / epsilon)
    except OverflowError:
        power = math.inf
    delta = (1.0 - GATE_MARGIN) / (2.0 * power) if power > 0 else math.inf
    return delta, a_norm <= delta


@dataclass(frozen=True)
class PicardCertificate:
    """Outcome record of one Picard run; fully determined by its inputs."""

    M_used: float
    delta: float
    smallness_ok: bool
    iterations: int
    iterate_norms: tuple[float, ...]
    step_diffs: tuple[float, ...]
    contraction_factors: tuple[float, ...]
    residual: float
    converged: bool
    diverged: bool

    @property
    def final_norm(self) -> float:
        return self.iterate_norms[-1]

    @property
    def contraction_rate(self) -> float:
        """Largest observed step-to-step contraction factor."""
        return max(self.contraction_factors) if self.contraction_factors else 0.0


def run_picard(
    prob: FixedPointProblem,
    max_iter: int,
    tol: float,
    *,
    lipschitz_M: float,
    start: Any | None = None,
    iterate_callback: Callable[[int, Any], None] | None = None,
) -> tuple[Any, PicardCertificate]:
    """Iterate ``u <- base + map_F(u)`` and certify the outcome.

    Starting from ``base`` (or ``start``), the iteration stops when the
    step difference drops to ``tol``, the iterate norm exceeds ten times
    the certified ball diameter or is NaN (recorded as divergence), or
    ``max_iter`` is exhausted.  Convergence additionally requires the directly measured
    residual ``||u - base - F(u)||`` to lie below ``2 tol / (1 - rate)``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = prob.base
    a_norm = prob.norm(a)
    delta, small_ok = smallness_gate(lipschitz_M, prob.epsilon, a_norm)
    u = a if start is None else start
    norms = [a_norm if start is None else prob.norm(u)]
    diffs: list[float] = []
    factors: list[float] = []
    diverged = False
    hit_tol = False
    if iterate_callback is not None:
        iterate_callback(0, u)
    for k in range(1, max_iter + 1):
        # The step is measured on the difference of the states themselves,
        # which is exact for close iterates, and the new iterate is formed
        # as ``u + change``: a state that caches what its norm computed
        # (a trajectory's samples) then carries it to the iterate.
        change = a + prob.map_F(u) - u
        step = prob.norm(change)
        diffs.append(step)
        if len(diffs) >= 2 and diffs[-2] > 0:
            factors.append(diffs[-1] / diffs[-2])
        u = u + change
        norms.append(prob.norm(u))
        if iterate_callback is not None:
            iterate_callback(k, u)
        if not norms[-1] <= 10.0 * 2.0 * delta:  # a NaN norm: the iterate overflowed
            diverged = True
            break
        if step <= tol:
            hit_tol = True
            break
    if diverged:
        residual = float("inf")
        converged = False
    else:
        residual = prob.norm(u - a - prob.map_F(u))
        rate = factors[-1] if factors else 0.0
        converged = hit_tol and rate < 1.0 and residual <= 2.0 * tol / (1.0 - rate)
    cert = PicardCertificate(
        M_used=lipschitz_M,
        delta=delta,
        smallness_ok=small_ok,
        iterations=len(diffs),
        iterate_norms=tuple(norms),
        step_diffs=tuple(diffs),
        contraction_factors=tuple(factors),
        residual=residual,
        converged=converged,
        diverged=diverged,
    )
    return u, cert
