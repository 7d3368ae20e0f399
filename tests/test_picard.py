"""Tests for the abstract Picard iteration and its certificates.

The scalar model u = a + u^2 has the closed-form fixed point
(1 - sqrt(1 - 4a)) / 2 for a < 1/4 and serves as the exact oracle.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg_lab import (
    FixedPointProblem,
    estimate_lipschitz_M,
    run_picard,
    smallness_gate,
)


def scalar_problem(a, epsilon=1.0):
    return FixedPointProblem(base=a, map_F=lambda u: u * u, norm=abs, epsilon=epsilon)


class TestFixedPointProblem:
    def test_valid_construction(self):
        prob = scalar_problem(0.1)
        assert prob.epsilon == 1.0

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            FixedPointProblem(base=0.1, map_F=lambda u: u * u, norm=abs, epsilon=0.0)

    def test_nonvanishing_map_rejected(self):
        with pytest.raises(ValueError, match=r"map_F\(0\) must vanish"):
            FixedPointProblem(base=0.1, map_F=lambda u: u + 1.0, norm=abs, epsilon=1.0)

    def test_with_base_checks_drift_against_each_base(self):
        """The drift measured once is held to each new base's own bound,
        ``1e-12 max(1, ||base||)``, without mapping zero again."""
        calls = []

        def drifting(u):
            calls.append(u)
            return u * u + 1e-10

        prob = FixedPointProblem(base=1e3, map_F=drifting, norm=abs, epsilon=1.0)
        assert prob.drift == pytest.approx(1e-10) and len(calls) == 1
        assert prob.with_base(2e3).base == 2e3
        with pytest.raises(ValueError, match=r"map_F\(0\) must vanish"):
            prob.with_base(0.5)
        assert len(calls) == 1 and prob.base == 1e3


class TestLipschitzEstimate:
    def test_quadratic_map_ratio_is_one(self):
        """|u^2 - v^2| = |u - v| |u + v| with |u + v| = |u| + |v| on one sign."""
        pairs = [(1.0, 2.0), (0.5, 0.3), (0.2, 0.9)]
        M = estimate_lipschitz_M(lambda u: u * u, abs, 1.0, pairs)
        assert M == pytest.approx(1.5, rel=1e-12)  # the ratio times the 1.5 safety factor

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(ValueError, match="no usable sample pairs"):
            estimate_lipschitz_M(lambda u: u * u, abs, 1.0, [(1.0, 1.0), (0.0, 0.0)])

    def test_linear_map_trips_trend_warning(self):
        """A linear map probed with epsilon = 1 has ratios ~ 1/amplitude."""
        pairs = [(a, a / 2) for a in (1.0, 0.1, 0.01, 0.001)]
        with pytest.warns(UserWarning, match="may be misspecified"):
            estimate_lipschitz_M(lambda u: 0.5 * u, abs, 1.0, pairs)


class TestSmallnessGate:
    def test_delta_formula(self):
        delta, ok = smallness_gate(0.5, 1.0, 0.1)
        assert delta == pytest.approx((1.0 - 1e-3) / 2.0, rel=1e-12)
        assert ok

    def test_gate_refuses_large_data(self):
        delta, ok = smallness_gate(1.0, 1.0, 1.0)
        assert not ok
        assert 1.0 > delta

    @pytest.mark.parametrize(
        "M, expect",
        [(0.4, (math.inf, True)), (0.6, (0.0, False)), (1e300, (0.0, False))],
    )
    def test_tiny_epsilon_saturates(self, M, expect):
        """``(2M)**(1/epsilon)`` under- or overflows for a tiny ``epsilon``:
        the ball is then everything (2M < 1) or a point (2M > 1)."""
        assert smallness_gate(M, 1e-7, 1.0) == expect

    def test_validation(self):
        with pytest.raises(ValueError, match="M must be positive"):
            smallness_gate(0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            smallness_gate(1.0, -1.0, 0.1)
        with pytest.raises(ValueError, match="a_norm must be nonnegative"):
            smallness_gate(1.0, 1.0, -0.1)

    @given(
        M=st.floats(1e-3, 1e3),
        epsilon=st.floats(0.25, 4.0),
        a=st.floats(0.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_certified_factor_below_one(self, M, epsilon, a):
        """At the gate radius the contraction factor 2 M (2 delta)^e < 1."""
        delta, ok = smallness_gate(M, epsilon, a)
        assert delta > 0
        assert 2.0 * M * (2.0 * delta) ** epsilon < 1.0
        assert ok == (a <= delta)


class TestRunPicard:
    def test_scalar_fixed_point_to_tolerance(self):
        """a = 0.1: converges to (1 - sqrt(0.6)) / 2 far below tol."""
        u, cert = run_picard(scalar_problem(0.1), 60, 1e-12, lipschitz_M=1.0)
        assert cert.converged and not cert.diverged
        assert cert.smallness_ok
        assert u == pytest.approx((1.0 - math.sqrt(0.6)) / 2.0, abs=1e-9)
        assert cert.residual <= 1e-11

    def test_iterates_stay_in_certified_ball(self):
        u, cert = run_picard(scalar_problem(0.1), 60, 1e-12, lipschitz_M=1.0)
        assert all(n <= 2.0 * cert.delta for n in cert.iterate_norms)
        bound = 2.0 * cert.M_used * (2.0 * cert.delta) ** 1.0
        assert all(f <= bound + 1e-9 for f in cert.contraction_factors)
        assert cert.contraction_rate == max(cert.contraction_factors)
        assert cert.final_norm == cert.iterate_norms[-1]

    def test_large_data_diverges(self):
        """a = 1: the quadratic iteration escapes and is flagged."""
        u, cert = run_picard(scalar_problem(1.0), 60, 1e-12, lipschitz_M=1.0)
        assert cert.diverged and not cert.converged
        assert not cert.smallness_ok
        assert cert.residual == math.inf

    def test_overflowed_iterate_diverges(self):
        """At a = 1e160 the map's ``u**3 - u**2`` is ``inf - inf``: a NaN
        iterate is flagged as divergence at once, not iterated to max_iter."""
        prob = FixedPointProblem(base=1e160, map_F=lambda u: u * u * u - u * u, norm=abs, epsilon=1.0)
        u, cert = run_picard(prob, 60, 1e-12, lipschitz_M=1.0)
        assert cert.diverged and not cert.converged
        assert cert.iterations == 1

    def test_max_iter_exhaustion_is_not_convergence(self):
        u, cert = run_picard(scalar_problem(0.1), 3, 1e-16, lipschitz_M=1.0)
        assert cert.iterations == 3
        assert not cert.converged and not cert.diverged
        assert math.isfinite(cert.residual)

    def test_start_override_reaches_same_fixed_point(self):
        u_default, _ = run_picard(scalar_problem(0.1), 60, 1e-12, lipschitz_M=1.0)
        u_shifted, cert = run_picard(
            scalar_problem(0.1), 60, 1e-12, lipschitz_M=1.0, start=0.2
        )
        assert cert.converged
        assert u_shifted == pytest.approx(u_default, abs=1e-10)

    def test_callback_sees_every_iterate(self):
        seen = []
        _, cert = run_picard(
            scalar_problem(0.1),
            60,
            1e-12,
            lipschitz_M=1.0,
            iterate_callback=lambda k, u: seen.append(k),
        )
        assert seen == list(range(cert.iterations + 1))

    def test_data_norm_evaluated_once(self):
        """One norm for the gate, which is also the first iterate's, then
        one per step and per iterate, and one for the residual."""
        calls = []

        def norm(u):
            calls.append(u)
            return abs(u)

        prob = FixedPointProblem(base=0.1, map_F=lambda u: u * u, norm=norm, epsilon=1.0)
        calls.clear()
        _, cert = run_picard(prob, 60, 1e-12, lipschitz_M=1.0)
        assert cert.converged
        assert len(calls) == 2 + 2 * cert.iterations

    def test_validation(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            run_picard(scalar_problem(0.1), 0, 1e-9, lipschitz_M=1.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            run_picard(scalar_problem(0.1), 10, 0.0, lipschitz_M=1.0)

    @given(a=st.floats(1e-4, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_small_data_always_converges_to_root(self, a):
        """Below the gate the iteration finds the smaller quadratic root."""
        u, cert = run_picard(scalar_problem(a), 200, 1e-12, lipschitz_M=1.0)
        assert cert.converged
        assert u == pytest.approx((1.0 - math.sqrt(1.0 - 4.0 * a)) / 2.0, abs=1e-7)
