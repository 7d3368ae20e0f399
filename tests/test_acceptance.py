"""End-to-end acceptance checks for the whole laboratory.

Every test emits one live ``ACCEPTANCE nn <label>: PASS/FAIL (<detail>)``
line (bypassing pytest's capture) before asserting, so a full run prints
a thirteen-line scoreboard.  Heavy experiment records are shared through
the session-scoped ``records`` fixture of ``conftest.py``.
"""

import math

import numpy as np
import pytest

from maxreg_lab import (
    FixedPointProblem,
    MixedNormParams,
    TorusGrid,
    WeightParams,
    estimate_maxreg_constant,
    hormander_check,
    laplacian_multiplier,
    run_picard,
    synthetic_forcing_ensemble,
    uniform_time_grid,
)
from maxreg_lab.harness import load_config, run_experiment, write_results


def announce(num, label, ok, detail, capsys):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_bounded_multiplier_route(records, capsys):
    """A u via the time-Fourier multiplier stays below the forcing norm
    and the multiplier's sup over the sampled frequencies is exactly 1."""
    m = records("desimon").metrics
    ok = (
        records("desimon").status == "pass"
        and m["ratio_max"] <= 1.05
        and 0.99 <= m["multiplier_sup_norm"] <= 1.0
    )
    announce(
        1,
        "bounded multiplier route",
        ok,
        f"ratio_max={m['ratio_max']:.4f}, sup={m['multiplier_sup_norm']:.6f}",
        capsys,
    )
    assert ok


def test_02_constant_refinement_stability(capsys):
    """The empirical regularity constant moves < 5% when the grid and the
    time nodes are doubled together, for p in {1.5, 2, 4} at q = 2."""
    op = laplacian_multiplier()
    levels = {}
    for points, nodes in ((64, 257), (128, 513)):
        grid = TorusGrid(dimension=2, points_per_axis=points)
        tg = uniform_time_grid(4.0, nodes)
        levels[points] = synthetic_forcing_ensemble(grid, tg, 4, seed=0)
    worst_rel = 0.0
    all_finite = True
    for p_exp in (1.5, 2.0, 4.0):
        params = MixedNormParams(p_exp, 2.0)
        base = estimate_maxreg_constant(op, params, levels[64]).C_estimate
        fine = estimate_maxreg_constant(op, params, levels[128]).C_estimate
        all_finite &= math.isfinite(base) and math.isfinite(fine) and base > 0
        worst_rel = max(worst_rel, abs(fine - base) / base)
    ok = all_finite and worst_rel < 0.05
    announce(
        2,
        "constant refinement stability",
        ok,
        f"max rel change={worst_rel:.2e} over p in {{1.5, 2, 4}}",
        capsys,
    )
    assert ok


def test_03_resolvent_identity_and_bound(records, capsys):
    """Time-integrated resolvent matches the exact symbol division and
    obeys the sectorial bound on the right half-plane."""
    m = records("resolvent").metrics
    ok = m["max_deviation"] < 1e-6 and m["max_bound_constant"] <= 2.1
    announce(
        3,
        "resolvent identity and bound",
        ok,
        f"max_dev={m['max_deviation']:.2e}, bound={m['max_bound_constant']:.3f}",
        capsys,
    )
    assert ok


def test_04_kernel_smoothness_integrals(records, capsys):
    """Exact envelope integration agrees with a brute-force quadrature
    oracle on a one-dimensional spectrum and is scaling-invariant."""
    rec = records("hormander")
    grid = TorusGrid(dimension=1, points_per_axis=16)
    shifts = [float(s) for s in rec.config["params"]["shifts"]]
    report = hormander_check(laplacian_multiplier(), shifts, grid)
    spectrum = grid.laplacian_spectrum
    lams = spectrum[spectrum > 0]
    worst_gap = 0.0
    for s, got in zip(report.shifts, report.integrals):
        span = 60.0 / lams.min()
        u = np.concatenate([[0.0], np.geomspace(1e-9 * span, span, 200001)])
        t = 2 * s + u
        vals = np.max(
            lams[:, None]
            * np.exp(-(t[None, :] - s) * lams[:, None])
            * (1 - np.exp(-s * lams[:, None])),
            axis=0,
        )
        oracle = float(np.trapezoid(vals, t))
        worst_gap = max(worst_gap, abs(got - oracle) / oracle)
    invariance = rec.metrics["scale_invariance_gap"]
    ok = worst_gap <= 1e-6 and invariance <= 1e-6 and rec.status == "pass"
    announce(
        4,
        "kernel smoothness integrals",
        ok,
        f"oracle gap={worst_gap:.2e}, scale invariance gap={invariance:.2e}",
        capsys,
    )
    assert ok


def test_05_randomised_bound_estimates(records, capsys):
    """Scalar families of at most 12 operators get exact sign enumeration
    and an estimate at the largest coefficient; the identity gives 1."""
    rs = records("rbound").metrics
    ri = records("rbound", params={"kind": "identity"}).metrics
    scalar_ok = rs["exact_signs"] and abs(rs["estimate"] - rs["expected"]) <= (
        0.05 * rs["expected"]
    )
    identity_ok = abs(ri["estimate"] - 1.0) <= 0.02
    ok = scalar_ok and identity_ok
    announce(
        5,
        "randomised bound estimates",
        ok,
        f"scalar={rs['estimate']:.4f} (expect {rs['expected']}), "
        f"identity={ri['estimate']:.4f}",
        capsys,
    )
    assert ok


def test_06_power_weighted_norms(records, capsys):
    """mu = 1 reproduces the unweighted constant bit for bit; admissible
    weights give finite, node-refinement-stable constants."""
    rec = records("weighted-maxreg")
    mu1_exact = bool(rec.metrics["mu1_matches_unweighted"])
    op = laplacian_multiplier()
    grid = TorusGrid(dimension=2, points_per_axis=64)
    coarse = synthetic_forcing_ensemble(grid, uniform_time_grid(4.0, 257), 8, seed=0)
    fine = synthetic_forcing_ensemble(grid, uniform_time_grid(4.0, 513), 8, seed=0)
    params = MixedNormParams(2.0, 2.0)
    worst_rel = 0.0
    all_finite = True
    for mu in (0.6, 0.8):
        wp = WeightParams(mu=mu)
        c_coarse = estimate_maxreg_constant(op, params, coarse, weight=wp).C_estimate
        c_fine = estimate_maxreg_constant(op, params, fine, weight=wp).C_estimate
        all_finite &= math.isfinite(c_coarse) and math.isfinite(c_fine) and c_coarse > 0
        worst_rel = max(worst_rel, abs(c_fine - c_coarse) / c_coarse)
    ok = mu1_exact and all_finite and worst_rel < 0.05
    announce(
        6,
        "power-weighted norms",
        ok,
        f"mu=1 exact={mu1_exact}, max rel change={worst_rel:.2e} for mu in {{0.6, 0.8}}",
        capsys,
    )
    assert ok


def test_07_parabolic_scaling(records, capsys):
    """Continuum norms are invariant under the rescaling family at a
    critical exponent tuple and follow the predicted power off it."""
    m = records("scaling").metrics
    ok = (
        m["critical_max_deviation"] <= 1e-6
        and m["off_exponent_error"] <= 1e-4
        and records("scaling").status == "pass"
    )
    announce(
        7,
        "parabolic scaling",
        ok,
        f"critical dev={m['critical_max_deviation']:.2e}, "
        f"off-critical exponent err={m['off_exponent_error']:.2e}",
        capsys,
    )
    assert ok


def _iterates_stay_in_ball(record):
    sweep = record.series["eta_sweep"]
    cols = sweep["columns"]
    i_eta = cols.index("eta")
    i_delta = cols.index("delta")
    i_conv = cols.index("converged")
    delta = {row[i_eta]: row[i_delta] for row in sweep["rows"]}
    conv = {row[i_eta]: row[i_conv] for row in sweep["rows"]}
    for eta, _k, nrm in record.series["iterates"]["rows"]:
        if conv[eta] and nrm > 2.0 * delta[eta] + 1e-12:
            return False
    return True


def test_08_contraction_certificates(records, capsys):
    """The scalar quadratic model hits its closed-form fixed point to
    1e-9; converged PDE runs stay in the certified ball with observed
    contraction factors under the certified rate plus 0.05."""
    prob = FixedPointProblem(base=0.1, map_F=lambda u: u * u, norm=abs, epsilon=1.0)
    u, cert = run_picard(prob, 60, 1e-12, lipschitz_M=0.5)
    scalar_err = abs(u - 0.1127016654)
    scalar_ok = cert.converged and scalar_err <= 1e-9
    pde_ok = True
    for name in ("nlhe-exist", "ns-exist"):
        rec = records(name)
        pde_ok &= bool(rec.metrics["contraction_bound_ok"])
        pde_ok &= _iterates_stay_in_ball(rec)
    ok = scalar_ok and pde_ok
    announce(
        8,
        "contraction certificates",
        ok,
        f"scalar err={scalar_err:.1e}, ball and factor bounds hold={pde_ok}",
        capsys,
    )
    assert ok


def test_09_nonlinear_heat_existence(records, capsys):
    """At a critical exponent tuple some data size converges with a tiny
    fixed-point residual and the convergence flag is monotone in size."""
    rec = records("nlhe-exist")
    m = rec.metrics
    ok = (
        rec.status == "pass"
        and m["threshold"] > 0
        and m["best_residual"] <= 1e-8
        and bool(m["monotone"])
    )
    announce(
        9,
        "nonlinear heat existence",
        ok,
        f"threshold={m['threshold']}, best residual={m['best_residual']:.1e}, "
        f"monotone={m['monotone']}",
        capsys,
    )
    assert ok


def test_10_pointwise_power_inequality(records, capsys):
    """The two-sided bound on |x|^(nu-1) x never fails across a million
    random and adversarial pairs per exponent."""
    rec = records("lipschitz")
    violation = rec.metrics["max_violation"]
    nu_values = rec.config["params"]["nu_values"]
    samples = rec.config["params"]["samples"]
    ok = violation <= 0.0 and samples >= 10**6 and nu_values == [1.5, 2, 3]
    announce(
        10,
        "pointwise power inequality",
        ok,
        f"max violation={violation:.1e} over {samples} pairs, nu in {nu_values}",
        capsys,
    )
    assert ok


def test_11_incompressible_existence(records, capsys):
    """Small cellular-flow-type data converges with every Picard iterate
    divergence-free to rounding and a tiny final residual."""
    rec = records("ns-exist")
    m = rec.metrics
    ok = (
        rec.status == "pass"
        and m["threshold"] > 0
        and m["max_divergence"] <= 1e-10
        and m["best_residual"] <= 1e-8
    )
    announce(
        11,
        "incompressible existence",
        ok,
        f"threshold={m['threshold']}, max div={m['max_divergence']:.1e}, "
        f"best residual={m['best_residual']:.1e}",
        capsys,
    )
    assert ok


def test_12_uniqueness_bootstrap(records, capsys):
    """Two solution routes with identical data are driven into agreement
    with per-segment factors at most 3/4; the smoothing ratios backing
    the argument stay within a factor 3 across four octaves."""
    ok = True
    details = []
    for name in ("nlhe-unique", "ns-unique"):
        rec = records(name)
        m = rec.metrics
        tol = float(rec.config["params"]["picard_tol"])
        ok &= (
            rec.status == "pass"
            and m["status"] == "complete"
            and m["max_factor"] <= 0.75
            and m["max_separation"] <= 10.0 * tol
            and m["smoothing_max_spread"] <= 3.0
        )
        details.append(
            f"{name}: factor={m['max_factor']:.3f}, sep={m['max_separation']:.1e}, "
            f"spread={m['smoothing_max_spread']:.2f}"
        )
    announce(12, "uniqueness bootstrap", ok, "; ".join(details), capsys)
    assert ok


def test_13_thread_determinism(tmp_path, capsys):
    """The same seed produces byte-identical series files no matter how
    many worker threads the ensemble uses."""
    base = {
        "grid": {"points_per_axis": 32},
        "time": {"horizon": 1.0, "num_nodes": 65},
        "params": {"ensemble_size": 6},
    }
    outputs = {}
    for threads in (1, 3):
        rec = run_experiment(load_config({"experiment": "maxreg", "threads": threads, **base}))
        out = tmp_path / f"threads{threads}"
        write_results(rec, out)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    ok = bool(outputs[1]) and outputs[1] == outputs[3]
    announce(
        13,
        "thread determinism",
        ok,
        f"{len(outputs[1])} series file(s) byte-identical across 1 vs 3 threads",
        capsys,
    )
    assert ok
