"""Why certain exponent pairs are called critical.

The rescaling ``u_lam(t, x) = lam^rho u(lam^2 t, lam x)`` maps solutions
of the model nonlinear problems to solutions.  A mixed norm
``L^p(0, inf; L^q)`` is invariant under this family exactly when

    rho = n/q + 2/p,

and that single identity decides which data classes admit a small-data
theory.  This script evaluates continuum norms of closed-form profiles
under the rescaling and watches the invariance appear and disappear.
"""

from maxreg_lab import (
    InverseSqrtRadialProfile,
    MixedNormParams,
    ParabolicGaussianProfile,
    continuum_mixed_norm,
    criticality_check,
    nlhe_scaling_law,
    ns_scaling_law,
    scaling_invariance_test,
    scaling_transform,
)


def rule(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    n = 2
    lams = [0.25, 0.5, 2.0, 4.0]

    rule("Critical tuple: exact invariance")
    params = MixedNormParams(p=2.0, q=2.0)  # nu = 2 in n = 2: n/q + 2/p = 2
    law = nlhe_scaling_law(2.0)
    report = scaling_invariance_test(law, params, n, lams)
    print(f"defect n/q + 2/p - rho = {report.defect:.3e}")
    print(f"{'lam':>6} {'norm of rescaled profile':>26}")
    for lam, value in zip(report.lams, report.norms):
        print(f"{lam:>6.2f} {value:>26.12f}")
    print(f"base norm = {report.base_norm:.12f}")
    print(f"max deviation from invariance: {report.max_ratio_deviation:.2e}")

    rule("Off-critical tuple: a clean power law")
    params_off = MixedNormParams(p=2.5, q=2.0)
    report_off = scaling_invariance_test(law, params_off, n, lams)
    print(f"defect = {report_off.defect:+.4f} "
          f"(norms should follow lam^defect)")
    print(f"{'lam':>6} {'norm ratio':>14} {'measured exponent':>18}")
    for lam, value, expo in zip(
        report_off.lams, report_off.norms, report_off.measured_exponents
    ):
        print(f"{lam:>6.2f} {value / report_off.base_norm:>14.6f} {expo:>18.6f}")
    print(f"max exponent error: {report_off.max_exponent_error:.2e}")

    rule("A profile that is exactly scale-invariant")
    prof = InverseSqrtRadialProfile(amplitude=1.0)
    print("u(t, x) = (t + |x|^2)^(-1/2) is a fixed point of the "
          "quadratic-problem rescaling:")
    out = scaling_transform(prof, 3.0, ns_scaling_law())
    print(f"  transform at lam = 3 returns amplitude {out.amplitude} "
          f"(unchanged: {out == prof})")
    params_crit = MixedNormParams(p=4.0, q=4.0)
    print(f"  its criticality defect at p = q = 4, n = 2: "
          f"{criticality_check(ns_scaling_law(), params_crit, 2):.3e}")
    window = (1.0, 4.0)
    print(f"  windowed norm on t in {window}: "
          f"{continuum_mixed_norm(prof, params_crit, 2, t_window=window):.6f}")
    print("  (the infinite-window norm is log-divergent, as scale "
          "invariance demands)")

    rule("Gaussian family under the rescaling")
    prof = ParabolicGaussianProfile(amplitude=1.0, offset=1.0, sigma=1.5)
    for lam in (0.5, 2.0):
        out = scaling_transform(prof, lam, nlhe_scaling_law(2.0))
        print(f"lam = {lam}: amplitude -> {out.amplitude:.4f}, "
              f"offset -> {out.offset:.4f}")


if __name__ == "__main__":
    main()
