"""Three classical operator-theoretic quantities, computed exactly.

The abstract theory of parabolic regularity runs through resolvent
bounds, singular-kernel smoothness integrals, and randomised
(R-)boundedness of multiplier families.  All three are measurable on the
torus with controlled error, which this script demonstrates:

* the resolvent ``(z + A)^{-1}`` reconstructed by time integration of the
  forced evolution equation, compared with exact symbol division;
* the translation-smoothness integral of the kernel ``k(t) = A e^{-tA}``,
  computed by walking the upper envelope of decaying exponentials in
  closed form;
* a Rademacher-average estimate of the R-bound of scalar multiplier
  families, with exact enumeration of all sign patterns.
"""

import numpy as np

from maxreg_lab import (
    SpectralField,
    TorusGrid,
    constant_multiplier,
    hormander_check,
    laplacian_multiplier,
    random_mean_free_field,
    rbound_estimate,
    resolvent_via_maxreg,
)


def rule(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    grid = TorusGrid(dimension=1, points_per_axis=16)
    op = laplacian_multiplier()

    rule("Resolvent through time integration")
    x = random_mean_free_field(grid, seed=1)
    print(f"{'z':>12} {'deviation':>12} {'(1+|z|)||R_z x||/||x||':>24}")
    for z in (1.0, 1.0 + 10.0j, 100.0):
        probe = resolvent_via_maxreg(op, z, x)
        print(f"{str(z):>12} {probe.deviation:>12.2e} {probe.bound_constant:>24.4f}")
    print("The deviation is pure quadrature error; the bound constant "
          "stays near 1, far under the sectorial ceiling.")

    rule("Kernel smoothness integrals")
    shifts = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
    report = hormander_check(op, shifts, grid)
    print(f"{'shift s':>10} {'integral':>12}")
    for s, v in zip(report.shifts, report.integrals):
        print(f"{s:>10.2f} {v:>12.6f}")
    print(f"c estimate (sup over shifts) = {report.c_estimate:.6f}")
    single = hormander_check(constant_multiplier(2.0), [0.5], grid)
    closed = np.exp(-1.0) * (1 - np.exp(-1.0))
    print(f"single-rate sanity: got {single.integrals[0]:.12f}, "
          f"closed form e^-1 (1 - e^-1) = {closed:.12f}")

    rule("Randomised bound of a scalar family")
    coeffs = [1.0, -0.5, 2.0, 0.25, -1.5, 0.75]
    family = [constant_multiplier(c) for c in coeffs]
    est = rbound_estimate(family, trials=8, grid=grid, seed=0)
    print(f"family coefficients:      {coeffs}")
    print(f"sign patterns enumerated: {est.sign_samples} (exact = {est.exact_signs})")
    print(f"estimate:                 {est.estimate:.6f}")
    print(f"uniform bound max |c_j|:  {est.uniform_bound:.6f}")
    print("For commuting scalar multipliers the R-bound collapses to the "
          "uniform bound, and the estimate finds it.")


if __name__ == "__main__":
    main()
