"""Experiment harness: configs, registry, runners and result files.

An experiment is described by a single JSON config (see
:data:`BASE_DEFAULTS` and :data:`EXPERIMENT_DEFAULTS` for the schema and
per-experiment parameter blocks).  Loading fills defaults and rejects
unknown keys and values of the wrong JSON type; it checks no ranges.
Each experiment has one set-up and one runner.  The set-up builds the
grid, the time grid and the experiment's domain objects (problems,
initial data, the lists the runner loops over; a forcing ensemble's keys
are range-checked there and the members drawn by the runner) and is
the only range check: a value it rejects is a :class:`ConfigError`, for
:func:`check_config` and :func:`run_experiment` alike, while an error
from the numerics that follow is not.  The runner returns the status of
the experiment's own acceptance predicate, its metrics and its series.
All randomness flows from the config seed through named substreams, so
a rerun of the same config writes byte-identical CSV series regardless
of the worker-thread count.  Non-finite metrics are written as JSON ``null``.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import maxreg, norms, picard, problems, spectral

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "load_config",
    "check_config",
    "experiment_names",
    "run_experiment",
    "write_results",
    "synthetic_forcing_ensemble",
]

SCHEMA_VERSION = 1

_TWO_PI = 2.0 * math.pi

BASE_DEFAULTS: dict[str, Any] = {
    "rng_seed": 0,
    "output_dir": "results",
    "threads": 1,
    "grid": {"dimension": 2, "points_per_axis": 64, "period": _TWO_PI},
    "time": {"horizon": 4.0, "num_nodes": 257},
}

EXPERIMENT_DEFAULTS: dict[str, dict[str, Any]] = {
    "maxreg": {
        "params": {
            "p": 2.0,
            "q": 2.0,
            "ensemble_size": 20,
            "band_limit": 4,
            "modes_per_member": 6,
            "refine": False,
        }
    },
    "weighted-maxreg": {
        "params": {
            "p": 2.0,
            "q": 2.0,
            "mu": 0.8,
            "ensemble_size": 12,
            "band_limit": 4,
            "modes_per_member": 6,
        }
    },
    "desimon": {
        "time": {"horizon": 8.0, "num_nodes": 257},
        "params": {
            "ensemble_size": 20,
            "band_limit": 4,
            "modes_per_member": 6,
            "sigma_max": 64.0,
            "sigma_points": 33,
        },
    },
    "resolvent": {
        "grid": {"dimension": 2, "points_per_axis": 16, "period": _TWO_PI},
        "params": {
            "z_values": [[1.0, 0.0], [1.0, 10.0], [100.0, 0.0]],
            "num_nodes": 8193,
            "band_limit": 4,
        },
    },
    "hormander": {
        "params": {
            "shifts": [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0],
            "scalar_lambdas": [1.0, 4.0, 16.0],
        }
    },
    "rbound": {
        "grid": {"dimension": 2, "points_per_axis": 16, "period": _TWO_PI},
        "params": {
            "kind": "scalar",
            "coefficients": [1.0, -0.5, 2.0, 0.25, -1.5, 0.75],
            "sigmas": [0.5, 1.0, 2.0, 4.0, 8.0],
            "trials": 8,
            "vectors_per_trial": 4096,
        },
    },
    "scaling": {
        "params": {
            "law": "nlhe",
            "nu": 2.0,
            "p": 2.0,
            "q": 2.0,
            "lambda_set": [0.25, 0.5, 2.0, 4.0],
            "off_critical_shift": 0.1,
        }
    },
    "nlhe-exist": {
        "params": {
            "nu": 2.0,
            "p": 2.0,
            "q": 2.0,
            "variant": "signed",
            "critical": True,
            "eta_grid": [0.0, 0.02, 0.08, 0.32, 1.28, 2.56, 5.12, 10.24],
            "picard_tol": 1e-9,
            "max_iter": 60,
            "band_limit": 3,
        }
    },
    "ns-exist": {
        "params": {
            "p": 4.0,
            "q": 4.0,
            "critical": True,
            "perturbation": 0.3,
            "eta_grid": [0.0, 0.02, 0.08, 0.32, 1.28, 2.56, 5.12],
            "picard_tol": 1e-9,
            "max_iter": 60,
        }
    },
    "nlhe-unique": {
        "grid": {"dimension": 2, "points_per_axis": 32, "period": _TWO_PI},
        "time": {"horizon": 2.0, "num_nodes": 193},
        "params": {
            "nu": 2.0,
            "p": 4.0,
            "q": 4.0,
            "variant": "signed",
            "eta": 3.0,
            "bootstrap_p": 2.0,
            "picard_tol": 1e-9,
            "max_iter": 60,
            "band_limit": 3,
        },
    },
    "ns-unique": {
        "grid": {"dimension": 3, "points_per_axis": 16, "period": _TWO_PI},
        "time": {"horizon": 2.0, "num_nodes": 129},
        "params": {
            "p": 2.0,
            "q": 3.0,
            "eta": 3.0,
            "bootstrap_p": 2.0,
            "picard_tol": 1e-9,
            "max_iter": 60,
        },
    },
    "lipschitz": {
        "params": {"nu_values": [1.5, 2.0, 3.0], "samples": 1000000}
    },
    "smoothing": {
        "params": {"q": 4.0, "octaves": 4, "num_fields": 5}
    },
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def experiment_names() -> list[str]:
    return sorted(EXPERIMENT_DEFAULTS)


def _check_type(default: Any, value: Any, name: str) -> None:
    """Reject a value whose JSON type differs from that of its default."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, (int, float)):
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
        if isinstance(default, int):  # 2.0 passes; 2.5, inf and nan do not
            ok, kind = ok and value % 1 == 0, "an integer"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:
        ok, kind = isinstance(value, list), "a list"
    if not ok:
        raise ConfigError(f"config key {name} must be {kind}")
    if isinstance(default, list) and default:
        if not value:
            raise ConfigError(f"config key {name} must not be empty")
        for item in value:
            _check_type(default[0], item, f"{name} entry")


def _merge_checked(defaults: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path}{key!r} must be a table")
            out[key] = _merge_checked(defaults[key], value, f"{path}{key}.")
        else:
            _check_type(defaults[key], value, f"{path}{key!r}")
            out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Default-filled, type-checked experiment description.

    Value ranges are not checked here: :func:`check_config` and
    :func:`run_experiment` reject them while building the domain objects.
    """

    experiment: str
    rng_seed: int
    output_dir: str
    threads: int
    grid: dict[str, Any]
    time: dict[str, Any]
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "rng_seed": self.rng_seed,
            "output_dir": self.output_dir,
            "threads": self.threads,
            "grid": copy.deepcopy(self.grid),
            "time": copy.deepcopy(self.time),
            "params": copy.deepcopy(self.params),
        }

    def make_grid(self) -> spectral.TorusGrid:
        return spectral.TorusGrid(
            dimension=int(self.grid["dimension"]),
            points_per_axis=int(self.grid["points_per_axis"]),
            period=float(self.grid["period"]),
        )

    def make_time_grid(self) -> norms.TimeGrid:
        return norms.uniform_time_grid(
            float(self.time["horizon"]), int(self.time["num_nodes"])
        )


def load_config(source: str | Path | dict[str, Any]) -> ExperimentConfig:
    """Load, default-fill and type-check an experiment config.

    ``source`` may be a path to a JSON file or an already-parsed mapping.
    Unknown keys and values whose JSON type differs from the default's are
    rejected; value ranges are left to :func:`check_config`.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = copy.deepcopy(source)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    name = raw.pop("experiment", None)
    if name is None:
        raise ConfigError("config must name an 'experiment'")
    if name not in EXPERIMENT_DEFAULTS:
        known = ", ".join(experiment_names())
        raise ConfigError(f"unknown experiment {name!r}; known: {known}")
    defaults = copy.deepcopy(BASE_DEFAULTS)
    for key, value in EXPERIMENT_DEFAULTS[name].items():
        if key in defaults and isinstance(defaults[key], dict):
            defaults[key].update(copy.deepcopy(value))
        else:
            defaults[key] = copy.deepcopy(value)
    defaults.setdefault("params", {})
    merged = _merge_checked(defaults, raw, "")
    return ExperimentConfig(
        experiment=name,
        rng_seed=int(merged["rng_seed"]),
        output_dir=str(merged["output_dir"]),
        threads=int(merged["threads"]),
        grid=merged["grid"],
        time=merged["time"],
        params=merged["params"],
    )


# -- synthetic forcing -------------------------------------------------


def synthetic_forcing_ensemble(
    grid: spectral.TorusGrid,
    time_grid: norms.TimeGrid,
    size: int,
    *,
    band_limit: int = 4,
    modes_per_member: int = 6,
    seed: int = 0,
) -> list[norms.Trajectory]:
    """Random band-limited forcings with smooth decaying time envelopes.

    Each member is a fixed function of ``(t, x)`` determined by its
    substream alone — mode indices are drawn from ``[-band_limit,
    band_limit]^n`` and time envelopes are damped sinusoids — so
    regenerating on a refined grid samples the same continuum forcing.
    The members are real and built as half spectra.
    """
    _check_ensemble_args(size, band_limit, modes_per_member)
    members = []
    t = time_grid.nodes
    columns = grid.half_shape[-1]
    for member in range(size):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11, member]))
        coeff = np.zeros((time_grid.num_nodes, 1) + grid.half_shape, dtype=np.complex128)
        for _ in range(modes_per_member):
            while True:
                k = rng.integers(-band_limit, band_limit + 1, size=grid.dimension)
                if np.any(k != 0):
                    break
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            decay = rng.uniform(0.3, 1.5)
            freq = rng.uniform(0.5, 3.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            envelope = np.exp(-decay * t) * np.sin(freq * t + phase)
            for sign, value in ((1, 0.5 * amp), (-1, 0.5 * np.conj(amp))):
                idx = tuple(int(sign * ki) % grid.points_per_axis for ki in k)
                if idx[-1] < columns:  # the mode k or -k the half spectrum keeps
                    coeff[(slice(None), 0) + idx] += value * envelope
        members.append(norms.Trajectory(time_grid, grid, coeff))
    return members


def _check_ensemble_args(size: int, band_limit: int, modes_per_member: int) -> None:
    """The range check of :func:`synthetic_forcing_ensemble`; ``validate``
    runs it without drawing the members."""
    if size < 1:
        raise ValueError("ensemble size must be at least 1")
    if band_limit < 1:
        raise ValueError("band_limit must be at least 1")
    if modes_per_member < 1:
        raise ValueError("modes_per_member must be at least 1")


# -- results -----------------------------------------------------------


@dataclass(frozen=True)
class ResultRecord:
    """Structured outcome of one experiment run."""

    experiment: str
    status: str  # 'pass' | 'fail' | 'inconclusive'
    config: dict[str, Any]
    metrics: dict[str, Any]
    series: dict[str, dict[str, Any]]
    wall_time_s: float
    schema_version: int = SCHEMA_VERSION

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "status": self.status,
            "config": self.config,
            "metrics": self.metrics,
            "wall_time_s": self.wall_time_s,
        }


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _finite_or_null(value: Any) -> Any:
    """``value`` with every non-finite float, nested or not, replaced by ``None``."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_results(record: ResultRecord, out_dir: str | Path) -> list[Path]:
    """Write the JSON record plus one CSV file per series; returns paths.

    CSV content is a pure function of the config, so reruns are
    byte-identical; the JSON record carries wall time and is not.  The
    record is strict JSON: ``inf`` and ``nan`` are written as ``null``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    record_path = out / f"{record.experiment}_record.json"
    text = json.dumps(
        _finite_or_null(record.to_json_dict()), indent=2, sort_keys=True, allow_nan=False
    )
    record_path.write_text(text + "\n")
    paths.append(record_path)
    for name, table in record.series.items():
        path = out / f"{record.experiment}_{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(table["columns"])
            for row in table["rows"]:
                writer.writerow([_fmt(v) for v in row])
        paths.append(path)
    return paths


# -- set-ups and runners -----------------------------------------------
#
# A set-up takes the config plus the grid and the time grid built from it
# and returns the experiment's domain objects; its runner takes the config
# plus what the set-up returned.  A config value's range is checked only
# here: by a domain object the set-up builds, or else by the one set-up
# that reads the key.


def _mixed_params(cfg: ExperimentConfig) -> norms.MixedNormParams:
    return norms.MixedNormParams(p=float(cfg.params["p"]), q=float(cfg.params["q"]))


def _ensemble_args(cfg: ExperimentConfig) -> tuple[int, int, int]:
    """Size, band limit and modes per member of the config's forcing ensemble."""
    p = cfg.params
    return int(p["ensemble_size"]), int(p["band_limit"]), int(p["modes_per_member"])


def _ensemble(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> list[norms.Trajectory]:
    """Draw the config's forcing ensemble; only runners draw, set-ups run
    :func:`_check_ensemble_args` on the same keys."""
    size, band_limit, modes = _ensemble_args(cfg)
    return synthetic_forcing_ensemble(
        grid, tgrid, size, band_limit=band_limit, modes_per_member=modes, seed=cfg.rng_seed
    )


def _set_up_maxreg(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[spectral.TorusGrid, norms.TimeGrid, norms.MixedNormParams]:
    params = _mixed_params(cfg)
    _check_ensemble_args(*_ensemble_args(cfg))
    return grid, tgrid, params


def _run_maxreg(
    cfg: ExperimentConfig,
    grid: spectral.TorusGrid,
    tgrid: norms.TimeGrid,
    params: norms.MixedNormParams,
) -> tuple[str, dict, dict]:
    p = cfg.params
    op = spectral.laplacian_multiplier()

    def measure(members: list[norms.Trajectory]) -> maxreg.MaxRegReport:
        return maxreg.estimate_maxreg_constant(op, params, members, threads=cfg.threads)

    report = measure(_ensemble(cfg, grid, tgrid))
    metrics: dict[str, Any] = {
        "C_estimate": report.C_estimate,
        "ensemble_size": report.ensemble_size,
    }
    status = "pass" if math.isfinite(report.C_estimate) else "fail"
    if bool(p["refine"]):
        fine_grid = replace(grid, points_per_axis=2 * grid.points_per_axis)
        fine_time = norms.uniform_time_grid(tgrid.horizon, 2 * tgrid.num_nodes - 1)
        fine = measure(_ensemble(cfg, fine_grid, fine_time))
        rel = abs(fine.C_estimate - report.C_estimate) / report.C_estimate
        metrics["C_estimate_refined"] = fine.C_estimate
        metrics["refinement_rel_change"] = rel
        if rel >= 0.05:
            status = "fail"
    rows = [
        [i, m.forcing, m.solution, m.derivative, m.operator_term, m.ratio]
        for i, m in enumerate(report.members)
    ]
    series = {
        "members": {
            "columns": ["member", "f_norm", "u_norm", "dtu_norm", "au_norm", "ratio"],
            "rows": rows,
        }
    }
    return status, metrics, series


def _set_up_weighted_maxreg(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[spectral.TorusGrid, norms.TimeGrid, norms.MixedNormParams, norms.WeightParams]:
    params = _mixed_params(cfg)
    weight = norms.WeightParams(mu=float(cfg.params["mu"]))
    weight.validate_against(params)
    _check_ensemble_args(*_ensemble_args(cfg))
    return grid, tgrid, params, weight


def _run_weighted_maxreg(
    cfg: ExperimentConfig,
    grid: spectral.TorusGrid,
    tgrid: norms.TimeGrid,
    params: norms.MixedNormParams,
    weight: norms.WeightParams,
) -> tuple[str, dict, dict]:
    profiles = maxreg._member_profiles(
        spectral.laplacian_multiplier(), params.q, _ensemble(cfg, grid, tgrid), cfg.threads
    )
    weighted = maxreg._reduce_profiles(profiles, params, weight)
    unit_weight = maxreg._reduce_profiles(profiles, params, norms.WeightParams(mu=1.0))
    plain = maxreg._reduce_profiles(profiles, params, None)
    mu1_exact = unit_weight.C_estimate == plain.C_estimate
    metrics = {
        "mu": weight.mu,
        "C_weighted": weighted.C_estimate,
        "C_mu1": unit_weight.C_estimate,
        "C_unweighted": plain.C_estimate,
        "mu1_matches_unweighted": mu1_exact,
    }
    status = "pass" if mu1_exact and math.isfinite(weighted.C_estimate) else "fail"
    rows = [
        [i, w.ratio, pl.ratio]
        for i, (w, pl) in enumerate(zip(weighted.members, plain.members))
    ]
    series = {
        "members": {
            "columns": ["member", "weighted_ratio", "unweighted_ratio"],
            "rows": rows,
        }
    }
    return status, metrics, series


def _set_up_desimon(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[spectral.TorusGrid, norms.TimeGrid, np.ndarray]:
    p = cfg.params
    if int(p["sigma_points"]) < 1:
        raise ValueError("params.sigma_points must be at least 1")
    sigma = np.linspace(0.0, float(p["sigma_max"]), int(p["sigma_points"]))
    _check_ensemble_args(*_ensemble_args(cfg))
    return grid, tgrid, sigma


def _run_desimon(
    cfg: ExperimentConfig,
    grid: spectral.TorusGrid,
    tgrid: norms.TimeGrid,
    sigma: np.ndarray,
) -> tuple[str, dict, dict]:
    # The L^2(L^2) (Plancherel) case of De Simon's theorem: the multiplier
    # bound, and so the ratio and sup gates below, hold only there.
    params = norms.MixedNormParams(p=2.0, q=2.0)
    op = spectral.laplacian_multiplier()
    ratios = []
    for f in _ensemble(cfg, grid, tgrid):
        au = maxreg.de_simon_multiplier_solve(maxreg.LinearProblem(op, f))
        # Each norm reads a local alias, so the samples it caches go with the
        # alias: they would outlive their one use on au or on the ensemble.
        ratios.append(
            norms.bochner_mixed_norm(replace(au, coefficients=au.spectrum), params)
            / norms.bochner_mixed_norm(replace(f, coefficients=f.spectrum), params)
        )
    sup = maxreg.multiplier_sup_norm(op, sigma, grid)
    metrics = {
        "ratio_max": max(ratios),
        "multiplier_sup_norm": sup,
    }
    status = "pass" if max(ratios) <= 1.05 and 0.99 <= sup <= 1.0 else "fail"
    series = {
        "members": {
            "columns": ["member", "au_over_f"],
            "rows": [[i, r] for i, r in enumerate(ratios)],
        }
    }
    return status, metrics, series


def _set_up_resolvent(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[spectral.SpectralField, list[tuple[float, float]]]:
    p = cfg.params
    # unpacking rejects an entry that is not a (Re z, Im z) pair
    z_values = [(re_z, im_z) for re_z, im_z in p["z_values"]]
    # the probe integrates over [0, 1/Re z]
    if not all(
        float(re_z) > 0 and 0 < 1.0 / float(re_z) < math.inf and math.isfinite(float(im_z))
        for re_z, im_z in z_values
    ):
        raise ValueError("params.z_values entries need Re z > 0, with 1/Re z and Im z finite")
    if int(p["num_nodes"]) < 2:
        raise ValueError("params.num_nodes must be at least 2")
    x = problems.random_mean_free_field(grid, seed=cfg.rng_seed, band_limit=int(p["band_limit"]))
    return x * (1.0 / norms.spatial_lq_norm(x, 2)), z_values


def _run_resolvent(
    cfg: ExperimentConfig, x: spectral.SpectralField, z_values: list[tuple[float, float]]
) -> tuple[str, dict, dict]:
    p = cfg.params
    op = spectral.laplacian_multiplier()
    rows = []
    for re_z, im_z in z_values:
        z = complex(float(re_z), float(im_z))
        probe = maxreg.resolvent_via_maxreg(op, z, x, num_nodes=int(p["num_nodes"]))
        rows.append([re_z, im_z, probe.deviation, probe.bound_constant])
    # np.max keeps a NaN, which then fails both gates below
    worst_dev, worst_bound = (float(w) for w in np.max([row[2:] for row in rows], axis=0))
    metrics = {"max_deviation": worst_dev, "max_bound_constant": worst_bound}
    status = "pass" if worst_dev < 1e-6 and worst_bound <= 2.1 else "fail"
    series = {
        "probes": {
            "columns": ["re_z", "im_z", "deviation", "bound_constant"],
            "rows": rows,
        }
    }
    return status, metrics, series


def _set_up_hormander(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[spectral.TorusGrid, list[float], list[float]]:
    p = cfg.params
    shifts = [float(s) for s in p["shifts"]]
    lams = [float(l) for l in p["scalar_lambdas"]]
    if 0.0 in shifts:
        raise ValueError("params.shifts entries must be nonzero")
    if not all(lam > 0 for lam in lams):
        raise ValueError("params.scalar_lambdas entries must be positive")
    return grid, shifts, lams


def _run_hormander(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, shifts: list[float], lams: list[float]
) -> tuple[str, dict, dict]:
    report = maxreg.hormander_check(spectral.laplacian_multiplier(), shifts, grid)
    # scale invariance: scalar spectra {lam} share one integral profile
    scalar_cs = []
    for lam in lams:
        scalar = maxreg.hormander_check(
            spectral.constant_multiplier(lam), [s / lam for s in shifts], grid
        )
        scalar_cs.append(scalar.c_estimate)
    invariance = max(scalar_cs) - min(scalar_cs)
    # closed form for a single rate: exp(-s lam) (1 - exp(-s lam))
    oracle = max(
        math.exp(-s * lams[0]) * (1.0 - math.exp(-s * lams[0])) for s in [x / lams[0] for x in shifts]
    )
    oracle_gap = abs(scalar_cs[0] - oracle)
    metrics = {
        "c_estimate": report.c_estimate,
        "scalar_c": scalar_cs[0],
        "scale_invariance_gap": invariance,
        "closed_form_gap": oracle_gap,
        "smallest_shift_integral": report.integrals[0],
    }
    status = "pass" if invariance <= 1e-6 and oracle_gap <= 1e-6 else "fail"
    series = {
        "shifts": {
            "columns": ["s", "integral"],
            "rows": [[s, v] for s, v in zip(report.shifts, report.integrals)],
        }
    }
    return status, metrics, series


def _set_up_rbound(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[spectral.TorusGrid, list[spectral.FourierMultiplier]]:
    p = cfg.params
    if int(p["trials"]) < 1:
        raise ValueError("params.trials must be at least 1")
    if p["kind"] == "scalar":
        family = [spectral.constant_multiplier(float(c)) for c in p["coefficients"]]
    elif p["kind"] == "identity":
        family = [spectral.identity_multiplier() for _ in range(len(p["coefficients"]))]
    elif p["kind"] == "resolvent":
        family = [spectral.resolvent_scalar_multiplier(float(s)) for s in p["sigmas"]]
    else:
        raise ValueError("params.kind must be 'scalar', 'identity' or 'resolvent'")
    return grid, family


def _run_rbound(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, family: list[spectral.FourierMultiplier]
) -> tuple[str, dict, dict]:
    p = cfg.params
    kind = str(p["kind"])
    est = maxreg.rbound_estimate(
        family,
        int(p["trials"]),
        int(p["vectors_per_trial"]),
        grid=grid,
        seed=cfg.rng_seed,
    )
    metrics: dict[str, Any] = {
        "estimate": est.estimate,
        "uniform_bound": est.uniform_bound,
        "exact_signs": est.exact_signs,
        "sign_samples": est.sign_samples,
    }
    if kind == "resolvent":
        sup = maxreg.multiplier_sup_norm(
            spectral.laplacian_multiplier(), [float(s) for s in p["sigmas"]], grid
        )
        metrics["multiplier_sup_norm"] = sup
        ok = est.estimate >= sup - 0.05 and math.isfinite(est.estimate)
    elif kind == "identity":
        ok = abs(est.estimate - 1.0) <= 0.02
    else:
        expected = max(abs(float(c)) for c in p["coefficients"])
        metrics["expected"] = expected
        ok = abs(est.estimate - expected) <= 0.05 * expected
    status = "pass" if ok else "fail"
    series = {
        "estimate": {
            "columns": ["estimate", "uniform_bound"],
            "rows": [[est.estimate, est.uniform_bound]],
        }
    }
    return status, metrics, series


def _set_up_scaling(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[
    int,
    norms.ScalingLaw,
    norms.MixedNormParams,
    norms.MixedNormParams,
    list[float],
    norms.ParabolicGaussianProfile,
]:
    p = cfg.params
    if p["law"] == "nlhe":
        law = norms.nlhe_scaling_law(float(p["nu"]))
    elif p["law"] == "ns":
        law = norms.ns_scaling_law()
    else:
        raise ValueError("params.law must be 'nlhe' or 'ns'")
    lams = [float(l) for l in p["lambda_set"]]
    if not all(lam > 0 for lam in lams):
        raise ValueError("params.lambda_set entries must be positive")
    params = _mixed_params(cfg)
    # the off-critical pair lowers 1/p by off_critical_shift / alpha
    inv_p_off = 1.0 / params.p - float(p["off_critical_shift"]) / law.alpha
    if not inv_p_off > 0:
        raise ValueError("params.off_critical_shift must leave 1/p positive")
    params_off = norms.MixedNormParams(p=1.0 / inv_p_off, q=params.q)
    # the profile scaling_invariance_test measures by default; the run's
    # continuum norms of it must converge for both exponent pairs
    profile = norms.ParabolicGaussianProfile(amplitude=1.0, offset=1.0, sigma=1.5)
    for pair in (params, params_off):
        if not math.isinf(pair.p):  # continuum_mixed_norm's own check
            norms._check_infinite_integrability(profile, pair, grid.dimension)
    return grid.dimension, law, params, params_off, lams, profile


def _run_scaling(
    cfg: ExperimentConfig,
    n: int,
    law: norms.ScalingLaw,
    params: norms.MixedNormParams,
    params_off: norms.MixedNormParams,
    lams: list[float],
    profile: norms.ParabolicGaussianProfile,
) -> tuple[str, dict, dict]:
    critical = problems.scaling_invariance_test(law, params, n, lams, profile)
    off = problems.scaling_invariance_test(law, params_off, n, lams, profile)
    metrics = {
        "critical_defect": critical.defect,
        "critical_max_deviation": critical.max_ratio_deviation,
        "off_defect": off.defect,
        "off_exponent_error": off.max_exponent_error,
    }
    ok = (
        abs(critical.defect) <= 1e-12
        and critical.max_ratio_deviation <= 1e-6
        and off.max_exponent_error <= 1e-4
    )
    status = "pass" if ok else "fail"
    series = {
        "lambdas": {
            "columns": ["lam", "critical_norm", "off_norm"],
            "rows": [
                [lam, cn, on]
                for lam, cn, on in zip(lams, critical.norms, off.norms)
            ],
        }
    }
    return status, metrics, series


def _existence_series(report: problems.ExistenceReport) -> dict[str, dict[str, Any]]:
    sweep_rows = []
    iter_rows = []
    for e in report.entries:
        c = e.certificate
        sweep_rows.append(
            [
                e.eta,
                e.a_norm,
                e.delta,
                e.smallness_ok,
                c.converged,
                c.diverged,
                c.iterations,
                c.final_norm,
                c.residual,
                c.contraction_rate,
            ]
        )
        for k, nrm in enumerate(c.iterate_norms):
            iter_rows.append([e.eta, k, nrm])
    return {
        "eta_sweep": {
            "columns": [
                "eta",
                "a_norm",
                "delta",
                "smallness_ok",
                "converged",
                "diverged",
                "iterations",
                "final_norm",
                "residual",
                "contraction_rate",
            ],
            "rows": sweep_rows,
        },
        "iterates": {"columns": ["eta", "iteration", "norm"], "rows": iter_rows},
    }


def _contraction_bound_ok(report: problems.ExistenceReport) -> bool:
    """Converged runs must contract no faster than the certified rate + 0.05."""
    for e in report.entries:
        c = e.certificate
        if c.converged and c.smallness_ok and c.contraction_factors:
            bound = 2.0 * c.M_used * (2.0 * c.delta) ** report.epsilon + 0.05
            if max(c.contraction_factors) > bound:
                return False
    return True


def _check_picard(p: dict[str, Any]) -> None:
    """Reject the Picard settings that :func:`picard.run_picard` refuses."""
    if int(p["max_iter"]) < 1:
        raise ValueError("params.max_iter must be at least 1")
    if not float(p["picard_tol"]) > 0:
        raise ValueError("params.picard_tol must be positive")


def _check_bootstrap_p(p: dict[str, Any]) -> None:
    """Reject the time exponent :func:`problems.uniqueness_bootstrap` refuses."""
    if not float(p["bootstrap_p"]) > 1:
        raise ValueError("params.bootstrap_p must exceed 1")


def _sweep_args(cfg: ExperimentConfig) -> tuple[norms.MixedNormParams, list[float]]:
    """The exponents and data sizes of an existence sweep, range-checked; the
    sweep measures its data by :func:`norms.besov_heat_norm`."""
    _check_picard(cfg.params)
    eta_grid = [float(e) for e in cfg.params["eta_grid"]]
    if not all(eta >= 0 for eta in eta_grid):
        raise ValueError("params.eta_grid entries must be nonnegative")
    params = _mixed_params(cfg)
    norms._check_heat_exponents(params)
    return params, eta_grid


def _run_existence(
    cfg: ExperimentConfig,
    prob: problems.NlheProblem | problems.NsProblem,
    eta_grid: list[float],
) -> tuple[str, dict, dict]:
    p = cfg.params
    report = problems.existence_sweep(
        prob,
        eta_grid,
        tol=float(p["picard_tol"]),
        max_iter=int(p["max_iter"]),
        seed=cfg.rng_seed,
    )
    best = min(
        (e.certificate.residual for e in report.entries if e.certificate.converged and e.eta > 0),
        default=float("inf"),
    )
    metrics = {
        "M_used": report.M_used,
        "threshold": report.threshold,
        "monotone": report.monotone,
        "best_residual": best,
        "contraction_bound_ok": _contraction_bound_ok(report),
    }
    ok = (
        report.threshold > 0
        and best <= 1e-8
        and report.monotone
        and metrics["contraction_bound_ok"]
    )
    series = _existence_series(report)
    if isinstance(prob, problems.NsProblem):
        worst_div = max(e.max_divergence for e in report.entries)
        metrics["max_divergence"] = worst_div
        ok = ok and worst_div <= 1e-10
        series["eta_sweep"]["columns"].append("max_divergence")
        for row, e in zip(series["eta_sweep"]["rows"], report.entries):
            row.append(e.max_divergence)
    else:
        metrics["existence_regime"] = prob.existence_regime
    return ("pass" if ok else "fail"), metrics, series


def _set_up_nlhe_exist(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[problems.NlheProblem, list[float]]:
    p = cfg.params
    params, eta_grid = _sweep_args(cfg)
    u0 = problems.random_mean_free_field(grid, seed=cfg.rng_seed, band_limit=int(p["band_limit"]))
    prob = problems.NlheProblem(
        nu=float(p["nu"]),
        params=params,
        u0=u0,
        time_grid=tgrid,
        variant=str(p["variant"]),
        critical=bool(p["critical"]),
    )
    return prob, eta_grid


def _taylor_green_type_field(
    grid: spectral.TorusGrid, perturbation: float, seed: int
) -> spectral.SpectralField:
    """Cellular flow plus a small random solenoidal component.

    The pure cellular flow is a steady Euler solution in 2-D (its
    advection term is a gradient), so the projected nonlinearity would
    vanish identically; the perturbation keeps the iteration honest.
    """
    u0 = problems.taylor_green_field(grid)
    if perturbation != 0.0:
        noise = problems.random_mean_free_field(
            grid,
            seed=seed,
            stream=3,
            components=grid.dimension,
            band_limit=2,
            divergence_free=True,
        )
        scale = norms.spatial_lq_norm(u0, 2) / norms.spatial_lq_norm(noise, 2)
        u0 = u0 + noise * (perturbation * scale)
    return u0


def _set_up_ns_exist(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[problems.NsProblem, list[float]]:
    params, eta_grid = _sweep_args(cfg)
    u0 = _taylor_green_type_field(grid, float(cfg.params["perturbation"]), cfg.rng_seed)
    prob = problems.NsProblem(
        params=params, u0=u0, time_grid=tgrid, critical=bool(cfg.params["critical"])
    )
    return prob, eta_grid


def _unique_series(report: problems.UniquenessReport) -> dict[str, dict[str, Any]]:
    rows = []
    for i, ((t0, t1), err, radius, (q1, q2, q3), factor, sep) in enumerate(
        zip(
            report.segments,
            report.mollification_errors,
            report.cutoff_radii,
            report.step_quantities,
            report.factors,
            report.separations,
        )
    ):
        rows.append([i, t0, t1, err, radius, q1, q2, q3, factor, sep])
    return {
        "segments": {
            "columns": [
                "segment",
                "t_start",
                "t_end",
                "moll_error",
                "cutoff_radius",
                "q1",
                "q2",
                "q3",
                "factor",
                "separation",
            ],
            "rows": rows,
        }
    }


def _run_unique(
    cfg: ExperimentConfig, prob: problems.NlheProblem | problems.NsProblem
) -> tuple[str, dict, dict]:
    p = cfg.params
    tol = float(p["picard_tol"])
    report = problems.uniqueness_bootstrap(
        prob, p=float(p["bootstrap_p"]), tol=tol, max_iter=int(p["max_iter"]), seed=cfg.rng_seed
    )
    route_a, route_b = report.routes
    if not (route_a.converged and route_b.converged):
        return (
            "inconclusive",
            {"route_a_converged": route_a.converged, "route_b_converged": route_b.converged},
            {},
        )
    smoothing = report.smoothing  # not None: the set-up checked its source exponent
    metrics = {
        "status": report.status,
        "C_used": report.C_used,
        "segments": len(report.segments),
        "max_factor": report.max_factor,
        "max_separation": report.max_separation,
        "smoothing_max_spread": smoothing.max_spread,
        "dimension_restriction_met": report.dimension_restriction_met,
    }
    ok = (
        report.status == "complete"
        and report.max_factor <= 0.75
        and report.max_separation <= 10.0 * tol
        and smoothing.max_spread <= 3.0
    )
    status = "pass" if ok else ("inconclusive" if report.status == "inconclusive" else "fail")
    return status, metrics, _unique_series(report)


def _scaled_to_eta(
    cfg: ExperimentConfig, u0: spectral.SpectralField, params: norms.MixedNormParams
) -> spectral.SpectralField:
    """``u0`` rescaled to heat-extension data norm ``params.eta``."""
    eta = float(cfg.params["eta"])
    if not eta > 0:
        raise ValueError("params.eta must be positive")
    return u0 * (eta / norms.besov_heat_norm(u0, params))


def _check_source_exponent(n: int, q: float) -> None:
    """Reject a ``q`` whose smoothing-probe source exponent ``nq/(n+q)`` is
    not above 1; written as ``not ... > 1`` so that ``q = inf`` (a NaN
    ratio) is rejected too."""
    if not (q > 1 and n * q / (n + q) > 1):
        raise ValueError(f"params.q = {q} in dimension {n}: source exponent nq/(n+q) must exceed 1")


def _set_up_nlhe_unique(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[problems.NlheProblem]:
    p = cfg.params
    _check_picard(p)
    _check_bootstrap_p(p)
    params = _mixed_params(cfg)
    u0 = problems.random_mean_free_field(grid, seed=cfg.rng_seed, band_limit=int(p["band_limit"]))
    prob = problems.NlheProblem(
        nu=float(p["nu"]),
        params=params,
        u0=_scaled_to_eta(cfg, u0, params),
        time_grid=tgrid,
        variant=str(p["variant"]),
    )
    _check_source_exponent(grid.dimension, params.q)
    return (prob,)


def _set_up_ns_unique(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[problems.NsProblem]:
    _check_picard(cfg.params)
    _check_bootstrap_p(cfg.params)
    params = _mixed_params(cfg)
    u0 = _scaled_to_eta(cfg, problems.taylor_green_field(grid), params)
    prob = problems.NsProblem(params=params, u0=u0, time_grid=tgrid)
    _check_source_exponent(grid.dimension, params.q)
    return (prob,)


def _set_up_lipschitz(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[list[float]]:
    p = cfg.params
    nu_values = [float(nu) for nu in p["nu_values"]]
    if not all(nu > 1 for nu in nu_values):
        raise ValueError("params.nu_values entries must exceed 1")
    if int(p["samples"]) < 1:
        raise ValueError("params.samples must be at least 1")
    return (nu_values,)


def _run_lipschitz(cfg: ExperimentConfig, nu_values: list[float]) -> tuple[str, dict, dict]:
    p = cfg.params
    rows = [
        [nu, problems.nonlinearity_lipschitz_check(nu, int(p["samples"]), seed=cfg.rng_seed)]
        for nu in nu_values
    ]
    worst = float(np.max([violation for _, violation in rows]))  # a NaN stays, and fails
    metrics = {"max_violation": worst}
    status = "pass" if worst <= 0.0 else "fail"
    series = {"violations": {"columns": ["nu", "max_violation"], "rows": rows}}
    return status, metrics, series


def _set_up_smoothing(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, tgrid: norms.TimeGrid
) -> tuple[spectral.TorusGrid, list[float]]:
    p = cfg.params
    _check_source_exponent(grid.dimension, float(p["q"]))
    if int(p["octaves"]) < 0:
        raise ValueError("params.octaves must be nonnegative")
    if int(p["num_fields"]) < 1:
        raise ValueError("params.num_fields must be at least 1")
    return grid, problems.default_smoothing_radii(grid, int(p["octaves"]))


def _run_smoothing(
    cfg: ExperimentConfig, grid: spectral.TorusGrid, r_values: list[float]
) -> tuple[str, dict, dict]:
    p = cfg.params
    report = problems.smoothing_estimate_check(
        grid, float(p["q"]), r_values, num_fields=int(p["num_fields"]), seed=cfg.rng_seed
    )
    metrics = {
        "max_ratio": report.max_ratio,
        "max_spread": report.max_spread,
        "source_exponent": report.source_exponent,
    }
    status = "pass" if report.max_spread <= 3.0 else "fail"
    rows = []
    for i, row in enumerate(report.ratios):
        for r, value in zip(report.r_values, row):
            rows.append([i, r, value])
    series = {"ratios": {"columns": ["field", "r", "ratio"], "rows": rows}}
    return status, metrics, series


_EXPERIMENTS: dict[str, tuple[Callable[..., tuple], Callable[..., tuple[str, dict, dict]]]] = {
    "maxreg": (_set_up_maxreg, _run_maxreg),
    "weighted-maxreg": (_set_up_weighted_maxreg, _run_weighted_maxreg),
    "desimon": (_set_up_desimon, _run_desimon),
    "resolvent": (_set_up_resolvent, _run_resolvent),
    "hormander": (_set_up_hormander, _run_hormander),
    "rbound": (_set_up_rbound, _run_rbound),
    "scaling": (_set_up_scaling, _run_scaling),
    "nlhe-exist": (_set_up_nlhe_exist, _run_existence),
    "ns-exist": (_set_up_ns_exist, _run_existence),
    "nlhe-unique": (_set_up_nlhe_unique, _run_unique),
    "ns-unique": (_set_up_ns_unique, _run_unique),
    "lipschitz": (_set_up_lipschitz, _run_lipschitz),
    "smoothing": (_set_up_smoothing, _run_smoothing),
}


def _set_up(cfg: ExperimentConfig) -> tuple:
    """The experiment's domain objects; a value they reject is a config error.

    The grid and the time grid are built for every experiment, so a bad
    ``grid`` or ``time`` block is rejected even where the run ignores it.
    """
    set_up, _ = _EXPERIMENTS[cfg.experiment]
    try:
        if cfg.threads < 1:
            raise ValueError("threads must be at least 1")
        return set_up(cfg, cfg.make_grid(), cfg.make_time_grid())
    except (TypeError, ValueError, norms.DivergentNormError) as exc:
        raise ConfigError(f"{cfg.experiment} set-up rejected the config: {exc}") from exc


def check_config(cfg: ExperimentConfig) -> None:
    """Build the experiment's domain objects without running it.

    This is the range check of every config value: it raises
    :class:`ConfigError` for any value that :func:`load_config` accepts but
    the set-up rejects, from the grid, the time grid and ``threads`` to the
    experiment's problem, initial field, forcing-ensemble keys or parameter
    lists.  It draws no forcing ensemble.
    """
    _set_up(cfg)


def run_experiment(config: ExperimentConfig | str | Path | dict) -> ResultRecord:
    """Run one experiment and collect its structured result.

    Errors from building the domain objects are raised as
    :class:`ConfigError`; errors from the run itself propagate unchanged.
    """
    cfg = config if isinstance(config, ExperimentConfig) else load_config(config)
    start = time.perf_counter()
    built = _set_up(cfg)
    status, metrics, series = _EXPERIMENTS[cfg.experiment][1](cfg, *built)
    elapsed = time.perf_counter() - start
    return ResultRecord(
        experiment=cfg.experiment,
        status=status,
        config=cfg.to_dict(),
        metrics=metrics,
        series=series,
        wall_time_s=elapsed,
    )
