"""Experiment harness: configs, the experiment registry and result files.

An experiment is described by a single JSON config (see
:data:`BASE_DEFAULTS` and :data:`EXPERIMENT_DEFAULTS` for the schema and
per-experiment parameter blocks).  Loading fills defaults and rejects
unknown keys and values of the wrong JSON type; it checks no ranges.
Each experiment is one function of the config, whose defaults name
only the ``grid`` and ``time`` keys it reads.  It reads, converts and
range-checks every key it uses and builds its grids and the domain
objects (problems, initial data, the lists the run loops over; a forcing
ensemble's keys are range-checked there and its members drawn only by
the run), and it is the only range check: a value it rejects is a
:class:`ConfigError`, for :func:`check_config` and :func:`run_experiment`
alike, while an error from the numerics that follow is not.  It returns the run, a closure that gives the status of
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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import maxreg, norms, problems, spectral

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
}

# The base grid and time grid, named by each experiment whose run reads them.
_GRID = {"dimension": 2, "points_per_axis": 64, "period": _TWO_PI}
_TIME = {"horizon": 4.0, "num_nodes": 257}

EXPERIMENT_DEFAULTS: dict[str, dict[str, Any]] = {
    "maxreg": {
        "grid": _GRID,
        "time": _TIME,
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
        "grid": _GRID,
        "time": _TIME,
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
        "grid": _GRID,
        "time": {"horizon": 8.0, "num_nodes": 257},
        "params": {
            "ensemble_size": 20,
            "band_limit": 4,
            "modes_per_member": 6,
        },
    },
    "resolvent": {
        "grid": {"dimension": 2, "points_per_axis": 16, "period": _TWO_PI},
        "time": {"num_nodes": 8193},
        "params": {
            "z_values": [[1.0, 0.0], [1.0, 10.0], [100.0, 0.0]],
            "band_limit": 4,
        },
    },
    "hormander": {
        "grid": _GRID,
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
        },
    },
    "scaling": {
        "grid": {"dimension": 2},
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
        "grid": _GRID,
        "time": _TIME,
        "params": {
            "nu": 2.0,
            "p": 2.0,
            "q": 2.0,
            "variant": "signed",
            "eta_grid": [0.0, 0.02, 0.08, 0.32, 1.28, 2.56, 5.12, 10.24],
            "picard_tol": 1e-9,
            "max_iter": 60,
            "band_limit": 3,
        }
    },
    "ns-exist": {
        "grid": _GRID,
        "time": _TIME,
        "params": {
            "p": 4.0,
            "q": 4.0,
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
        "grid": _GRID,
        "params": {"q": 4.0, "octaves": 4, "num_fields": 5},
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
    grid: dict[str, Any] = field(default_factory=dict)
    time: dict[str, Any] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The config as :func:`load_config` takes it, without the empty
        ``grid`` or ``time`` table of an experiment that has none."""
        return {key: value for key, value in asdict(self).items() if value != {}}

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
    if not isinstance(name, str):
        raise ConfigError("config key 'experiment' must be a string")
    if name not in EXPERIMENT_DEFAULTS:
        known = ", ".join(experiment_names())
        raise ConfigError(f"unknown experiment {name!r}; known: {known}")
    merged = _merge_checked({**BASE_DEFAULTS, **EXPERIMENT_DEFAULTS[name]}, raw, "")
    return ExperimentConfig(
        experiment=name,
        rng_seed=int(merged.pop("rng_seed")),
        output_dir=str(merged.pop("output_dir")),
        threads=int(merged.pop("threads")),
        **merged,
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


# -- experiments -------------------------------------------------------
#
# An experiment is one function of the config plus the grid and the time
# grid built from it.  It reads, converts and range-checks every key it
# uses and builds the domain objects, then returns its run: a closure that
# computes and gives the status, metrics and series.  A config value's
# range is checked only here, by a domain object the function builds or
# else by the function itself, and never again by the run.

_Run = Callable[[], tuple[str, dict, dict]]


def _mixed_params(cfg: ExperimentConfig) -> norms.MixedNormParams:
    return norms.MixedNormParams(p=float(cfg.params["p"]), q=float(cfg.params["q"]))


def _ensemble(
    cfg: ExperimentConfig,
) -> Callable[[spectral.TorusGrid, norms.TimeGrid], list[norms.Trajectory]]:
    """The drawer of the config's forcing ensemble, its three keys
    range-checked; only a run draws the members."""
    size, band_limit, modes = (
        int(cfg.params[key]) for key in ("ensemble_size", "band_limit", "modes_per_member")
    )
    _check_ensemble_args(size, band_limit, modes)
    return lambda grid, tgrid: synthetic_forcing_ensemble(
        grid, tgrid, size, band_limit=band_limit, modes_per_member=modes, seed=cfg.rng_seed
    )


def _maxreg(cfg: ExperimentConfig) -> _Run:
    grid, tgrid = cfg.make_grid(), cfg.make_time_grid()
    params = _mixed_params(cfg)
    draw = _ensemble(cfg)
    fine = None
    if bool(cfg.params["refine"]):
        fine = (
            replace(grid, points_per_axis=2 * grid.points_per_axis),
            norms.uniform_time_grid(tgrid.horizon, 2 * tgrid.num_nodes - 1),
        )
    op = spectral.laplacian_multiplier()

    def measure(grid: spectral.TorusGrid, tgrid: norms.TimeGrid) -> maxreg.MaxRegReport:
        return maxreg.estimate_maxreg_constant(op, params, draw(grid, tgrid), threads=cfg.threads)

    def run() -> tuple[str, dict, dict]:
        report = measure(grid, tgrid)
        metrics: dict[str, Any] = {
            "C_estimate": report.C_estimate,
            "ensemble_size": report.ensemble_size,
        }
        status = "pass" if math.isfinite(report.C_estimate) else "fail"
        if fine is not None:
            refined = measure(*fine)
            rel = abs(refined.C_estimate - report.C_estimate) / report.C_estimate
            metrics["C_estimate_refined"] = refined.C_estimate
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

    return run


def _weighted_maxreg(cfg: ExperimentConfig) -> _Run:
    grid, tgrid = cfg.make_grid(), cfg.make_time_grid()
    params = _mixed_params(cfg)
    weight = norms.WeightParams(mu=float(cfg.params["mu"]))
    with np.errstate(over="ignore"):  # _time_weights checks mu against p
        weights = norms._time_weights(tgrid, params, weight)
    if not np.all((weights[1:] > 0) & (weights[1:] < math.inf)):
        raise ValueError("the power-weighted time weights t^((1-mu)p) w underflow or overflow")
    draw = _ensemble(cfg)

    def run() -> tuple[str, dict, dict]:
        profiles = maxreg._member_profiles(
            spectral.laplacian_multiplier(), params.q, draw(grid, tgrid), cfg.threads
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

    return run


def _desimon(cfg: ExperimentConfig) -> _Run:
    grid, tgrid = cfg.make_grid(), cfg.make_time_grid()
    draw = _ensemble(cfg)

    def run() -> tuple[str, dict, dict]:
        # The L^2(L^2) (Plancherel) case of De Simon's theorem: the multiplier
        # bound, and so the ratio and sup gates below, hold only there.
        params = norms.MixedNormParams(p=2.0, q=2.0)
        op = spectral.laplacian_multiplier()
        ratios = []
        for f in draw(grid, tgrid):
            au = maxreg.de_simon_multiplier_solve(maxreg.LinearProblem(op, f))
            # Each norm reads a local alias, so the samples it caches go with the
            # alias: they would outlive their one use on au or on the ensemble.
            ratios.append(
                norms.bochner_mixed_norm(replace(au, coefficients=au.spectrum), params)
                / norms.bochner_mixed_norm(replace(f, coefficients=f.spectrum), params)
            )
        # the zero mode makes the sup 1 on any grid with a nonzero frequency
        sup = maxreg.multiplier_sup_norm(op, np.linspace(0.0, 64.0, 33), grid)
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

    return run


def _resolvent(cfg: ExperimentConfig) -> _Run:
    p = cfg.params
    # unpacking rejects an entry that is not a (Re z, Im z) pair
    z_values = [(float(re_z), float(im_z)) for re_z, im_z in p["z_values"]]
    # each probe integrates over [0, 1/Re z] with the time grid's node count
    num_nodes = int(cfg.time["num_nodes"])
    if not all(
        re_z > 0 and 0 < 1.0 / re_z < math.inf and math.isfinite(im_z) for re_z, im_z in z_values
    ):
        raise ValueError("params.z_values entries need Re z > 0, with 1/Re z and Im z finite")
    for re_z, _ in z_values:  # each probe's time grid, so a spacing it rejects is a config error
        norms.uniform_time_grid(1.0 / re_z, num_nodes)
    x = problems.random_mean_free_field(
        cfg.make_grid(), seed=cfg.rng_seed, band_limit=int(p["band_limit"])
    )
    x = x * (1.0 / norms.spatial_lq_norm(x, 2))

    def run() -> tuple[str, dict, dict]:
        op = spectral.laplacian_multiplier()
        rows = []
        for re_z, im_z in z_values:
            probe = maxreg.resolvent_via_maxreg(op, complex(re_z, im_z), x, num_nodes=num_nodes)
            rows.append([re_z, im_z, probe.deviation, probe.bound_constant])
        # np.max keeps a NaN, which then fails both gates below
        worst_dev, worst_bound = (float(w) for w in np.max([row[2:] for row in rows], axis=0))
        metrics = {"max_deviation": worst_dev, "max_bound_constant": worst_bound}
        # the resolvent of a nonzero x is never zero: a bound constant that is not
        # positive means the probe underflowed
        least_bound = min(row[3] for row in rows)
        ok = worst_dev < 1e-6 and 0 < least_bound and worst_bound <= 2.1
        status = "pass" if ok else "fail"
        series = {
            "probes": {
                "columns": ["re_z", "im_z", "deviation", "bound_constant"],
                "rows": rows,
            }
        }
        return status, metrics, series

    return run


def _hormander(cfg: ExperimentConfig) -> _Run:
    grid = cfg.make_grid()
    p = cfg.params
    shifts = [float(s) for s in p["shifts"]]
    lams = [float(l) for l in p["scalar_lambdas"]]
    if not all(s != 0 and math.isfinite(s) for s in shifts):
        raise ValueError("params.shifts entries must be nonzero and finite")
    if not all(0 < lam < math.inf for lam in lams):
        raise ValueError("params.scalar_lambdas entries must be positive and finite")

    def run() -> tuple[str, dict, dict]:
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
            math.exp(-s * lams[0]) * (1.0 - math.exp(-s * lams[0]))
            for s in [x / lams[0] for x in shifts]
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

    return run


def _rbound(cfg: ExperimentConfig) -> _Run:
    grid = cfg.make_grid()
    p = cfg.params
    kind, trials = str(p["kind"]), int(p["trials"])
    coefficients = [float(c) for c in p["coefficients"]]
    sigmas = [float(s) for s in p["sigmas"]]
    if trials < 1:
        raise ValueError("params.trials must be at least 1")
    if kind == "scalar":
        if not all(math.isfinite(c) for c in coefficients):
            raise ValueError("params.coefficients entries must be finite")
        family = [spectral.constant_multiplier(c) for c in coefficients]
    elif kind == "identity":
        family = [spectral.constant_multiplier(1.0) for _ in coefficients]
    elif kind == "resolvent":
        if not all(math.isfinite(s) for s in sigmas):
            raise ValueError("params.sigmas entries must be finite")
        family = [spectral.resolvent_scalar_multiplier(s) for s in sigmas]
    else:
        raise ValueError("params.kind must be 'scalar', 'identity' or 'resolvent'")

    def run() -> tuple[str, dict, dict]:
        est = maxreg.rbound_estimate(family, trials, grid=grid, seed=cfg.rng_seed)
        metrics: dict[str, Any] = {
            "estimate": est.estimate,
            "uniform_bound": est.uniform_bound,
            "exact_signs": est.exact_signs,
            "sign_samples": est.sign_samples,
        }
        if kind == "resolvent":
            sup = maxreg.multiplier_sup_norm(spectral.laplacian_multiplier(), sigmas, grid)
            metrics["multiplier_sup_norm"] = sup
            ok = est.estimate >= sup - 0.05 and math.isfinite(est.estimate)
        elif kind == "identity":
            ok = abs(est.estimate - 1.0) <= 0.02
        else:
            expected = max(abs(c) for c in coefficients)
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

    return run


def _scaling(cfg: ExperimentConfig) -> _Run:
    p = cfg.params
    if p["law"] == "nlhe":
        law = norms.nlhe_scaling_law(float(p["nu"]))
    elif p["law"] == "ns":
        law = norms.ns_scaling_law()
    else:
        raise ValueError("params.law must be 'nlhe' or 'ns'")
    lams = [float(l) for l in p["lambda_set"]]
    if not all(0 < lam < math.inf for lam in lams):
        raise ValueError("params.lambda_set entries must be positive and finite")
    params = _mixed_params(cfg)
    # the off-critical pair lowers 1/p by off_critical_shift / alpha
    inv_p_off = 1.0 / params.p - float(p["off_critical_shift"]) / law.alpha
    if not inv_p_off > 0:
        raise ValueError("params.off_critical_shift must leave 1/p positive")
    params_off = norms.MixedNormParams(p=1.0 / inv_p_off, q=params.q)
    n = int(cfg.grid["dimension"])
    if n < 1:
        raise ValueError("dimension must be positive")
    # the profile scaling_invariance_test measures by default; every continuum
    # norm the run takes, of it and of its rescalings, must converge and stay
    # in floating-point range (a rescaling that leaves it raises ArithmeticError)
    profile = norms.ParabolicGaussianProfile(amplitude=1.0, offset=1.0, sigma=1.5)
    for pair in (params, params_off):
        norms.continuum_mixed_norm(profile, pair, n)
        for lam in lams:
            rescaled = norms.scaling_transform(profile, lam, law)
            if not 0 < norms.continuum_mixed_norm(rescaled, pair, n) < math.inf:
                raise ValueError(f"params.lambda_set entry {lam} takes a norm out of range")

    def run() -> tuple[str, dict, dict]:
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

    return run


def _picard_args(cfg: ExperimentConfig) -> tuple[float, int]:
    """The config's ``(picard_tol, max_iter)``, rejecting the settings
    :func:`picard.run_picard` refuses."""
    tol, max_iter = float(cfg.params["picard_tol"]), int(cfg.params["max_iter"])
    if max_iter < 1:
        raise ValueError("params.max_iter must be at least 1")
    if not 0 < tol < math.inf:
        raise ValueError("params.picard_tol must be positive and finite")
    return tol, max_iter


def _check_time_step(prob: problems.NlheProblem | problems.NsProblem) -> None:
    """Reject a time step over which even the slowest heat mode, ``exp(-t
    (2 pi/L)**2)``, underflows to 0: every heat flow the run samples is then
    its first slice alone, and the sampled Lipschitz ratios degenerate."""
    step = float(prob.time_grid.nodes[1])
    if math.exp(-step * (_TWO_PI / prob.u0.grid.period) ** 2) == 0.0:
        raise ValueError(f"time.horizon: a time step of {step:.3g} damps every heat mode to 0")


def _existence_series(report: problems.ExistenceReport) -> dict[str, dict[str, Any]]:
    sweep_rows = []
    iter_rows = []
    for e in report.entries:
        c = e.certificate
        sweep_rows.append(
            [
                e.eta,
                c.iterate_norms[0],
                c.delta,
                c.smallness_ok,
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


def _existence(cfg: ExperimentConfig, prob: problems.NlheProblem | problems.NsProblem) -> _Run:
    """The existence sweep of ``nlhe-exist`` and ``ns-exist``; it measures
    its data by :func:`norms.besov_heat_norm`, which needs a finite ``p``."""
    tol, max_iter = _picard_args(cfg)
    _check_time_step(prob)
    eta_grid = [float(e) for e in cfg.params["eta_grid"]]
    if not all(0 <= eta < math.inf for eta in eta_grid):
        raise ValueError("params.eta_grid entries must be nonnegative and finite")
    if math.isinf(prob.params.p):
        raise ValueError("params.p: the heat-extension data norm requires finite exponents")

    def run() -> tuple[str, dict, dict]:
        report = problems.existence_sweep(
            prob, eta_grid, tol=tol, max_iter=max_iter, seed=cfg.rng_seed
        )
        converged = [e for e in report.entries if e.certificate.converged and e.eta > 0]
        best = min((e.certificate.residual for e in converged), default=float("inf"))
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
        if prob.divergence_free:
            worst_div = max(e.max_divergence for e in report.entries)
            metrics["max_divergence"] = worst_div
            ok = ok and worst_div <= 1e-10
            series["eta_sweep"]["columns"].append("max_divergence")
            for row, e in zip(series["eta_sweep"]["rows"], report.entries):
                row.append(e.max_divergence)
        else:
            metrics["existence_regime"] = prob.existence_regime
        return ("pass" if ok else "fail"), metrics, series

    return run


def _nlhe_exist(cfg: ExperimentConfig) -> _Run:
    grid, tgrid = cfg.make_grid(), cfg.make_time_grid()
    p = cfg.params
    u0 = problems.random_mean_free_field(grid, seed=cfg.rng_seed, band_limit=int(p["band_limit"]))
    prob = problems.NlheProblem(
        nu=float(p["nu"]),
        params=_mixed_params(cfg),
        u0=u0,
        time_grid=tgrid,
        variant=str(p["variant"]),
        critical=True,
    )
    return _existence(cfg, prob)


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


def _ns_exist(cfg: ExperimentConfig) -> _Run:
    grid, tgrid = cfg.make_grid(), cfg.make_time_grid()
    u0 = _taylor_green_type_field(grid, float(cfg.params["perturbation"]), cfg.rng_seed)
    prob = problems.NsProblem(params=_mixed_params(cfg), u0=u0, time_grid=tgrid, critical=True)
    return _existence(cfg, prob)


def _check_source_exponent(n: int, q: float) -> None:
    """Reject a ``q`` whose smoothing-probe source exponent ``nq/(n+q)`` is
    not above 1; written as ``not ... > 1`` so that ``q = inf`` (a NaN
    ratio) is rejected too."""
    if not (q > 1 and n * q / (n + q) > 1):
        raise ValueError(f"params.q = {q} in dimension {n}: source exponent nq/(n+q) must exceed 1")


def _unique_series(report: problems.UniquenessReport) -> dict[str, dict[str, Any]]:
    return {
        "segments": {
            "columns": ["segment", *problems.Segment._fields],
            "rows": [[i, *segment] for i, segment in enumerate(report.segments)],
        }
    }


def _scaled_to_eta(
    cfg: ExperimentConfig, u0: spectral.SpectralField, params: norms.MixedNormParams
) -> spectral.SpectralField:
    """``u0`` rescaled to heat-extension data norm ``params.eta``."""
    eta = float(cfg.params["eta"])
    if not 0 < eta < math.inf:
        raise ValueError("params.eta must be positive and finite")
    return u0 * (eta / norms.besov_heat_norm(u0, params))


def _uniqueness(cfg: ExperimentConfig, prob: problems.NlheProblem | problems.NsProblem) -> _Run:
    """The uniqueness bootstrap of ``nlhe-unique`` and ``ns-unique``; it
    refuses a time exponent ``bootstrap_p`` of at most 1, its smoothing
    probe needs the source exponent checked here, and its walk takes
    ``L^{n/(nu-1)}`` norms, so ``nu`` may not exceed ``n + 1``."""
    tol, max_iter = _picard_args(cfg)
    _check_time_step(prob)
    boot_p = float(cfg.params["bootstrap_p"])
    if not boot_p > 1:
        raise ValueError("params.bootstrap_p must exceed 1")
    _check_source_exponent(prob.dimension, prob.params.q)
    if prob.nu > prob.dimension + 1:
        raise ValueError(f"params.nu = {prob.nu} in dimension {prob.dimension}: n/(nu-1) below 1")

    def run() -> tuple[str, dict, dict]:
        report = problems.uniqueness_bootstrap(
            prob, p=boot_p, tol=tol, max_iter=max_iter, seed=cfg.rng_seed
        )
        route_a, route_b = report.routes
        if not (route_a.converged and route_b.converged):
            return (
                "inconclusive",
                {"route_a_converged": route_a.converged, "route_b_converged": route_b.converged},
                {},
            )
        smoothing = report.smoothing  # not None: the source exponent is checked above
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

    return run


def _nlhe_unique(cfg: ExperimentConfig) -> _Run:
    grid, tgrid = cfg.make_grid(), cfg.make_time_grid()
    p = cfg.params
    params = _mixed_params(cfg)
    u0 = problems.random_mean_free_field(grid, seed=cfg.rng_seed, band_limit=int(p["band_limit"]))
    prob = problems.NlheProblem(
        nu=float(p["nu"]),
        params=params,
        u0=_scaled_to_eta(cfg, u0, params),
        time_grid=tgrid,
        variant=str(p["variant"]),
    )
    return _uniqueness(cfg, prob)


def _ns_unique(cfg: ExperimentConfig) -> _Run:
    grid, tgrid = cfg.make_grid(), cfg.make_time_grid()
    params = _mixed_params(cfg)
    u0 = _scaled_to_eta(cfg, problems.taylor_green_field(grid), params)
    return _uniqueness(cfg, problems.NsProblem(params=params, u0=u0, time_grid=tgrid))


def _lipschitz(cfg: ExperimentConfig) -> _Run:
    p = cfg.params
    nu_values = [float(nu) for nu in p["nu_values"]]
    samples = int(p["samples"])
    if not all(1 < nu < math.inf for nu in nu_values):
        raise ValueError("params.nu_values entries must exceed 1 and be finite")
    if samples < 1:
        raise ValueError("params.samples must be at least 1")

    def run() -> tuple[str, dict, dict]:
        rows = [
            [nu, problems.nonlinearity_lipschitz_check(nu, samples, seed=cfg.rng_seed)]
            for nu in nu_values
        ]
        worst = float(np.max([violation for _, violation in rows]))  # a NaN stays, and fails
        metrics = {"max_violation": worst}
        status = "pass" if worst <= 0.0 else "fail"
        series = {"violations": {"columns": ["nu", "max_violation"], "rows": rows}}
        return status, metrics, series

    return run


def _smoothing(cfg: ExperimentConfig) -> _Run:
    grid = cfg.make_grid()
    p = cfg.params
    q, octaves, num_fields = float(p["q"]), int(p["octaves"]), int(p["num_fields"])
    _check_source_exponent(grid.dimension, q)
    if octaves < 0:
        raise ValueError("params.octaves must be nonnegative")
    if num_fields < 1:
        raise ValueError("params.num_fields must be at least 1")
    r_values = problems.default_smoothing_radii(grid, octaves)

    def run() -> tuple[str, dict, dict]:
        report = problems.smoothing_estimate_check(
            grid, q, r_values, num_fields=num_fields, seed=cfg.rng_seed
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

    return run


_EXPERIMENTS: dict[str, Callable[[ExperimentConfig], _Run]] = {
    "maxreg": _maxreg,
    "weighted-maxreg": _weighted_maxreg,
    "desimon": _desimon,
    "resolvent": _resolvent,
    "hormander": _hormander,
    "rbound": _rbound,
    "scaling": _scaling,
    "nlhe-exist": _nlhe_exist,
    "ns-exist": _ns_exist,
    "nlhe-unique": _nlhe_unique,
    "ns-unique": _ns_unique,
    "lipschitz": _lipschitz,
    "smoothing": _smoothing,
}


def _prepare(cfg: ExperimentConfig) -> _Run:
    """The experiment's run, every key checked; a value rejected on the way
    is a config error."""
    try:
        if cfg.threads < 1:
            raise ValueError("threads must be at least 1")
        if cfg.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        return _EXPERIMENTS[cfg.experiment](cfg)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{cfg.experiment} set-up rejected the config: {exc}") from exc


def check_config(cfg: ExperimentConfig) -> None:
    """Prepare the experiment's run without calling it.

    This is the range check of every config value: it raises
    :class:`ConfigError` for any value that :func:`load_config` accepts
    but the experiment rejects, from the grid, the time grid and
    ``threads`` to the experiment's problem, initial field, forcing-ensemble
    keys or parameter lists.  It draws no forcing ensemble.
    """
    _prepare(cfg)


def run_experiment(config: ExperimentConfig | str | Path | dict) -> ResultRecord:
    """Run one experiment and collect its structured result.

    Errors from preparing the run are raised as :class:`ConfigError`;
    errors from the run itself propagate unchanged.
    """
    cfg = config if isinstance(config, ExperimentConfig) else load_config(config)
    start = time.perf_counter()
    run = _prepare(cfg)
    status, metrics, series = run()
    elapsed = time.perf_counter() - start
    return ResultRecord(
        experiment=cfg.experiment,
        status=status,
        config=cfg.to_dict(),
        metrics=metrics,
        series=series,
        wall_time_s=elapsed,
    )
