"""Self-test of the benchmark, in a few seconds.

usage: python3 perfbench/selftest.py   (from the root of a checkout)

Checks that
* the metrics run.py and tracer.py report are exactly those BENCHMARK.json
  names, with the same units;
* installing and uninstalling the tracer leaves every attribute of the
  package modules, ``numpy.fft``, ``scipy.fft`` and ``SpectralField`` as
  it was;
* on tiny ``ns-unique`` and ``desimon`` configs, a traced run passes,
  emits every per-layer metric, reaches the spans the experiment must
  reach, restores what it patched, and writes CSV series byte-identical
  to those of an untraced run.
Exits 0 when every check holds and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import END_TO_END_UNITS, Bench
from tracer import Tracer, per_layer_units

TINY = {
    "ns-unique": {
        "config": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}},
        "nonzero": [
            "fft.space.calls", "picard.run_picard.calls", "picard.iterations",
            "problems.ns_rhs_map.calls", "problems.uniqueness_bootstrap.s",
            "problems.bootstrap.segments", "norms.spatial_lq_norm.calls",
            "spectral.heat_semigroup_apply.calls", "spectral.to_physical.calls",
        ],
        "zero": ["fft.time.calls", "maxreg.de_simon_multiplier_solve.calls"],
    },
    "desimon": {
        "config": {
            "grid": {"points_per_axis": 8},
            "time": {"num_nodes": 17},
            "params": {"ensemble_size": 2},
        },
        "nonzero": [
            "fft.time.calls", "fft.space.calls", "maxreg.de_simon_multiplier_solve.calls",
            "harness.synthetic_forcing_ensemble.s", "norms.bochner_mixed_norm.calls",
            "harness.write_results.bytes",
        ],
        "zero": ["picard.run_picard.calls", "problems.ns_rhs_map.calls"],
    },
}


def check_declared_metrics(root: Path) -> list[str]:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    failures = []
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if end_to_end != END_TO_END_UNITS:
        failures.append(f"end-to-end metrics {END_TO_END_UNITS} differ from BENCHMARK.json {end_to_end}")
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if per_layer != per_layer_units():
        failures.append("per-layer metrics differ from BENCHMARK.json")
    return failures


def _snapshot(owners: list) -> dict:
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def check_restore(root: Path) -> list[str]:
    sys.path.insert(0, str(root / "src"))
    import numpy.fft
    import scipy.fft

    import maxreg_lab
    from maxreg_lab import cli, harness, maxreg, norms, picard, problems, spectral

    modules = [cli, harness, problems, picard, maxreg, norms, spectral]
    owners = [maxreg_lab, *modules, numpy.fft, scipy.fft, spectral.SpectralField]
    before = _snapshot(owners)
    tracer = Tracer()
    tracer.install(maxreg_lab, modules)
    failures = []
    if tracer.patched == 0:
        failures.append("tracer patched nothing")
    tracer.uninstall()
    after = _snapshot(owners)
    changed = [key for key in before if after.get(key) is not before[key]]
    if changed or set(after) != set(before):
        failures.append(f"tracer left {len(changed)} attributes changed")
    return failures


def check_tiny_runs(root: Path) -> list[str]:
    failures = []
    units = per_layer_units()
    base = root / ".perfbench_out" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    for experiment, spec in TINY.items():
        config = base / f"{experiment}.json"
        config.write_text(json.dumps({"experiment": experiment, "threads": 1, **spec["config"]}))
        bench = Bench(root, config, 0, base / experiment)
        runs = [bench.run_worker("run", 0), bench.run_worker("trace", 1)]
        for run in runs:
            failures += [f"{experiment} {run['mode']}: {p}" for p in run["problems"]]
        if any(run["problems"] for run in runs):
            continue
        untraced, traced = runs
        if traced["csv_sha256"] != untraced["csv_sha256"]:
            failures.append(f"{experiment}: traced CSV series differ from untraced ones")
        layers = traced["layers"]
        missing = set(units) - set(layers) - {"trace.overhead_ratio"}
        if missing:
            failures.append(f"{experiment}: per-layer metrics not emitted: {sorted(missing)}")
        failures += [f"{experiment}: {m} is 0" for m in spec["nonzero"] if not layers.get(m)]
        failures += [f"{experiment}: {m} is not 0" for m in spec["zero"] if layers.get(m)]
        if not 0.0 < layers["trace.coverage"] <= 1.0:
            failures.append(f"{experiment}: trace.coverage {layers['trace.coverage']} outside (0, 1]")
    return failures


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "maxreg_lab" / "__init__.py").is_file():
        print(f"error: {root} has no src/maxreg_lab; run from the root of a checkout", file=sys.stderr)
        return 2
    failures = check_declared_metrics(root) + check_restore(root) + check_tiny_runs(root)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
