"""How strong is maximal parabolic regularity in practice?

For the heat semigroup on the torus the answer is classical: solving
``u' - Lap u = f`` with zero initial data, the three quantities
``||u||``, ``||u'||`` and ``||Lap u||`` are all controlled by ``||f||``
in every mixed ``L^p(0,T; L^q)`` norm.  This script measures the hidden
constant three ways:

* directly, over an ensemble of random band-limited forcings;
* through the bounded time-Fourier multiplier ``lam / (i tau + lam)``,
  an entirely independent route to ``Lap u``;
* through the multiplier's sup norm, which for the heat symbol is
  exactly 1.
"""

import numpy as np

from maxreg_lab import (
    LinearProblem,
    MixedNormParams,
    TorusGrid,
    Trajectory,
    apply_multiplier,
    bochner_mixed_norm,
    de_simon_multiplier_solve,
    estimate_maxreg_constant,
    laplacian_multiplier,
    multiplier_sup_norm,
    solve_linear_duhamel,
    synthetic_forcing_ensemble,
    uniform_time_grid,
)


def rule(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    grid = TorusGrid(dimension=2, points_per_axis=32)
    time_grid = uniform_time_grid(4.0, 129)
    op = laplacian_multiplier()
    params = MixedNormParams(p=2.0, q=2.0)

    rule("Empirical constant over a forcing ensemble")
    ensemble = synthetic_forcing_ensemble(grid, time_grid, 10, seed=0)
    report = estimate_maxreg_constant(op, params, ensemble)
    print(f"{'member':>6} {'||f||':>10} {'||u||':>10} {'||du/dt||':>10} "
          f"{'||Au||':>10} {'ratio':>8}")
    for i, m in enumerate(report.members):
        print(f"{i:>6} {m.forcing:>10.4f} {m.solution:>10.4f} "
              f"{m.derivative:>10.4f} {m.operator_term:>10.4f} {m.ratio:>8.4f}")
    print(f"\nC estimate (max ratio) = {report.C_estimate:.6f}")
    print("For the self-adjoint heat operator at p = q = 2 the true "
          "constant is 1; every ratio should sit at or below it.")

    rule("Independent route: time-Fourier multiplier")
    # the multiplier route zero-pads in time, so give it a pulse forcing
    # that has decayed by the end of a long window
    long_grid = uniform_time_grid(8.0, 2049)
    envelope = long_grid.nodes**2 * np.exp(-2.0 * long_grid.nodes)
    profile = synthetic_forcing_ensemble(grid, long_grid, 1, seed=1)[0].state(0)
    shape = (slice(None),) + (np.newaxis,) * (grid.dimension + 1)
    f = Trajectory(
        long_grid, grid, envelope[shape] * profile.spectrum[np.newaxis]
    )
    prob = LinearProblem(op, f)
    au_stepper = apply_multiplier(solve_linear_duhamel(prob), op)
    au_fourier = de_simon_multiplier_solve(prob)
    # the half spectrum's weights count each stored column as often as it
    # occurs in the full spectrum
    weights = grid.layout.weights
    gap = np.sqrt(np.sum(np.abs(au_stepper.spectrum - au_fourier.spectrum) ** 2 * weights))
    size = np.sqrt(np.sum(np.abs(au_stepper.spectrum) ** 2 * weights))
    print(f"relative gap between the two A u computations: {gap / size:.2e}")
    print("Both routes discretise differently (time stepping vs. a padded "
          "FFT); agreement validates each against the other.")
    long_params = MixedNormParams(p=2.0, q=2.0)
    print(f"||A u|| / ||f|| along the multiplier route:     "
          f"{bochner_mixed_norm(au_fourier, long_params) / bochner_mixed_norm(f, long_params):.4f}")

    rule("Multiplier sup norm")
    sigma = np.linspace(0.0, 64.0, 129)
    sup = multiplier_sup_norm(op, sigma, grid)
    print(f"max |i s / (i s + lam)| over the sampled line and grid spectrum: {sup}")
    print("The value is exactly 1.0: the zero mode (lam = 0) contributes "
          "|i s / i s| for every nonzero frequency.")


if __name__ == "__main__":
    main()
