"""Small data, global control: the fixed-point route for nonlinear heat.

The mild formulation of ``u' - Lap u = |u|^{nu-1} u`` is a fixed-point
equation ``u = a + F(u)`` whose base point ``a`` is the heat extension of
the initial data.  When the data is small in the right scale-invariant
norm, the map contracts on a ball and Picard iteration converges with a
computable certificate.  This script sweeps the data size and watches
the transition from convergence to breakdown.
"""

from maxreg_lab import (
    MixedNormParams,
    NlheProblem,
    TorusGrid,
    besov_heat_norm,
    existence_sweep,
    random_mean_free_field,
    uniform_time_grid,
)


def main():
    grid = TorusGrid(dimension=2, points_per_axis=32)
    time_grid = uniform_time_grid(4.0, 129)
    prob = NlheProblem(
        nu=2.0,
        params=MixedNormParams(p=2.0, q=2.0),  # critical: n/q + 2/p = 2 = 2/(nu-1)
        u0=random_mean_free_field(grid, seed=0, band_limit=3),
        time_grid=time_grid,
        critical=True,
    )
    print(f"problem: nu = {prob.nu}, n = {prob.dimension}, "
          f"p = q = 2 (critical tuple)")
    print(f"data size measured in the heat-extension norm "
          f"(currently {besov_heat_norm(prob.u0, prob.params):.4f}, "
          "rescaled to each eta below)\n")

    eta_grid = [0.0, 0.02, 0.08, 0.32, 1.28, 2.56, 5.12, 10.24]
    report = existence_sweep(prob, eta_grid, tol=1e-9, max_iter=60)

    print(f"empirical contraction constant M = {report.M_used:.4f} "
          "(sampled, with a 1.5x safety factor)")
    print(f"{'eta':>8} {'||a||':>8} {'delta':>8} {'small?':>7} "
          f"{'conv?':>6} {'iters':>6} {'residual':>10} {'rate':>7}")
    for e in report.entries:
        c = e.certificate
        print(f"{e.eta:>8.2f} {c.iterate_norms[0]:>8.3f} {c.delta:>8.3f} "
              f"{str(c.smallness_ok):>7} {str(c.converged):>6} "
              f"{c.iterations:>6} {c.residual:>10.1e} "
              f"{c.contraction_rate:>7.3f}")

    print(f"\nlargest converged data size: eta = {report.threshold}")
    print(f"convergence monotone in the size: {report.monotone}")
    delta = report.entries[0].certificate.delta
    print(f"\nThe certified radius delta = {delta:.2f} and the observed "
          "breakdown bracket each other closely: the sampled constant "
          "keeps the gate honest without being wildly conservative.")


if __name__ == "__main__":
    main()
