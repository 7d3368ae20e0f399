"""Quantitative Picard iteration with an explicit smallness certificate.

Works over any vector-like state supporting ``+``, ``-`` and real scalar
multiplication together with a norm callable — plain floats for sanity
checks, full space-time trajectories for PDE runs.  A state that defines
``+=`` and ``-=`` has them applied to the states the loop has just built
with ``+`` and ``-``; any other falls back to ``+`` and ``-``.  The contraction
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
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "FixedPointProblem",
    "PicardCertificate",
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
    #: ``norm(base)`` as the first gate of :func:`run_picard` measured it, for
    #: a later gate beside a ``start``; :meth:`with_base` clears it
    _base_norm: float | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not self.epsilon > 0:  # NaN included
            raise ValueError("nonlinearity exponent epsilon must be positive")
        object.__setattr__(self, "drift", self.norm(self.map_F(self.base * 0.0)))
        self._check_drift()

    def _check_drift(self) -> None:
        # the base's norm can only matter above 1e-12: a vanishing drift
        # leaves the base unmeasured, and so without cached samples
        if self.drift > 1e-12 and self.drift > 1e-12 * max(1.0, self.norm(self.base)):
            raise ValueError(f"map_F(0) must vanish; got norm {self.drift:.3e}")

    def with_base(self, base: Any) -> "FixedPointProblem":
        """The same map with another ``base`` from the same state space.

        The drift measured on construction is checked against the new
        base's own bound, so the map is not evaluated at zero again.
        """
        prob = copy.copy(self)
        object.__setattr__(prob, "base", base)
        object.__setattr__(prob, "_base_norm", None)
        prob._check_drift()
        return prob


def smallness_gate(M: float, epsilon: float, a_norm: float) -> tuple[float, bool]:
    """Radius ``delta`` of the certified ball and whether ``a`` fits under it.

    ``delta = (1 - margin) / (2 (2 M)**(1/epsilon))`` sits just below the
    threshold where ``2 M (2 delta)**epsilon`` reaches one.  For a tiny
    ``epsilon`` the power under- or overflows, and ``delta`` is then its
    limit: ``inf`` for ``2 M < 1``, 0 for ``2 M > 1``.
    """
    if not M > 0:  # NaN included
        raise ValueError("Lipschitz constant M must be positive")
    if not epsilon > 0:
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
    ``max_iter`` is exhausted.  Convergence additionally requires the
    directly measured residual ``||u - base - F(u)||`` to lie below
    ``2 tol / (1 - rate)``.  A zero ``base`` with zero drift and no
    ``start`` is its own fixed point: one zero step, with no map evaluation.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = prob.base
    # The gate measures a shallow copy of the base: what its norm caches (a
    # trajectory's samples) goes with that copy and is never kept on the
    # caller's base, so the residual's ``u - a`` forms no samples.  Without
    # a ``start`` the copy is the first iterate, which the first step
    # replaces; beside a ``start`` the norm an earlier gate measured is
    # reused, and no copy is made.
    first = None
    a_norm = None if start is None else prob._base_norm
    if a_norm is None:
        first = copy.copy(a)
        a_norm = prob.norm(first)
        object.__setattr__(prob, "_base_norm", a_norm)
    delta, small_ok = smallness_gate(lipschitz_M, prob.epsilon, a_norm)
    if start is None and a_norm == 0.0 and prob.drift == 0.0:
        if iterate_callback is not None:
            iterate_callback(0, a)
            iterate_callback(1, a)
        return a, PicardCertificate(
            lipschitz_M, delta, small_ok, 1, (0.0, 0.0), (0.0,), (), 0.0, True, False
        )
    u = first if start is None else start
    del first  # beside a ``start``, the copy goes before the start's own norm
    norms = [a_norm if start is None else prob.norm(u)]
    del start  # the iterate alone holds it until the first step replaces it
    diffs: list[float] = []
    factors: list[float] = []
    diverged = False
    hit_tol = False
    if iterate_callback is not None:
        iterate_callback(0, u)
    for k in range(1, max_iter + 1):
        # The step is measured on the difference of the states themselves,
        # which is exact for close iterates, and the new iterate is the
        # change plus ``u``: a state that caches what its norm computed (a
        # trajectory's samples) then carries it to the iterate.  The loop
        # alone holds ``change``, so ``-=`` and ``+=`` may write into it.
        change = a + prob.map_F(u)
        change -= u
        step = prob.norm(change)
        diffs.append(step)
        if len(diffs) >= 2 and diffs[-2] > 0:
            factors.append(diffs[-1] / diffs[-2])
        change += u
        u = change
        del change  # before the next map evaluation
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
        image = prob.map_F(u)  # before ``u - a``, which it would outlive
        gap = u - a
        gap -= image
        del image  # before the gap's norm
        residual = prob.norm(gap)
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
