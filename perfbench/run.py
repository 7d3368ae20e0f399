"""maxreg-lab benchmark: one workload, end to end or traced layer by layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every experiment run goes through the
public ``maxreg-lab run`` path in a fresh interpreter (perfbench/worker.py)
with the checkout's ``src`` on ``PYTHONPATH``, the workload's config from
perfbench/workloads/ and ``--seed N``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` repeats the experiment, each time in a fresh interpreter,
until ``S`` seconds have passed (at least once) and reports the medians
over the repeats of ``setup_s`` (import ``maxreg_lab``, load and validate
the config), ``wall_s`` and ``cpu_s`` (the ``run`` call) and
``peak_rss_mb``. ``--trace 1`` runs the experiment once untraced and once
under the tracer and reports the per-layer metrics of perfbench/tracer.py
plus ``trace.overhead_ratio``.

A run fails if its worker raises or times out, if it exits non-zero (the
experiment's own pass check), if a reference metric for this seed in
perfbench/reference.json drifts beyond ``rel_tol``, or if its CSV series
differ from those of the first run of the same seed in this invocation.
Outputs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import per_layer_units

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = sorted(path.stem for path in (BENCH_DIR / "workloads").glob("*.json"))
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Bench:
    """Runs and checks one config at one seed in the checkout at ``root``.

    ``reference`` holds the seed's reference metrics, if any; outputs go
    under ``out``.
    """

    def __init__(self, root: Path, config: Path, seed: int, out: Path,
                 reference: dict | None = None, rel_tol: float = 0.0) -> None:
        self.root = root
        self.config = config
        self.experiment = json.loads(config.read_text())["experiment"]
        self.seed = seed
        self.out = out
        self.reference = reference
        self.rel_tol = rel_tol
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({name: "1" for name in PINNED_THREADS})

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def run_worker(self, mode: str, index: int) -> dict:
        """One experiment run in a fresh interpreter, checked; see module doc."""
        out = self.out / f"{index}-{mode}"
        out.mkdir(parents=True)
        result_path = out / "worker.json"
        log_path = out / "worker.log"
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"), mode, str(self.config),
            str(out / "results"), str(self.seed), str(result_path),
        ]
        with log_path.open("w") as log:
            try:
                proc = subprocess.run(
                    cmd, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=self._timeout(),
                )
            except subprocess.TimeoutExpired:
                return {"mode": mode, "problems": ["timed out"]}
        if proc.returncode != 0 or not result_path.is_file():
            return {"mode": mode, "problems": [f"worker exited {proc.returncode}; see {log_path}"]}
        run = json.loads(result_path.read_text())
        run["mode"] = mode
        run["problems"] = self.check(run, out / "results")
        return run

    def check(self, run: dict, results: Path) -> list[str]:
        """Why a finished run counts as failed; records its CSV digest."""
        problems = []
        if run["rc"] != 0:
            problems.append(f"maxreg-lab run exited {run['rc']}")
        record_path = results / f"{self.experiment}_record.json"
        if not record_path.is_file():
            return problems + ["no result record written"]
        metrics = json.loads(record_path.read_text())["metrics"]
        if self.reference:
            problems += compare(metrics, self.reference, self.rel_tol)
        digest = hashlib.sha256()
        for path in sorted(results.glob("*.csv")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        run["csv_sha256"] = digest.hexdigest()
        if run.get("unrestored"):
            problems.append(f"tracer left attributes patched: {run['unrestored']}")
        return problems


def compare(metrics: dict, reference: dict, rel_tol: float) -> list[str]:
    """Drifts of ``metrics`` from a seed's reference values."""
    problems = []
    for key, want in reference["exact"].items():
        if metrics.get(key) != want:
            problems.append(f"{key} = {metrics.get(key)!r}, reference {want!r}")
    for key, want in reference["close"].items():
        got = metrics.get(key)
        if not (isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rel_tol)):
            problems.append(f"{key} = {got!r}, reference {want!r} (rel_tol {rel_tol})")
    return problems


def environment() -> dict:
    """Hardware and software the result was measured on."""
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pinned": {name: "1" for name in PINNED_THREADS},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "maxreg_lab" / "__init__.py").is_file():
        print(f"error: {root} has no src/maxreg_lab; run from the root of a maxreg-lab checkout",
              file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    bench = Bench(
        root,
        BENCH_DIR / "workloads" / f"{args.workload}.json",
        args.seed,
        root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'run'}",
        reference["workloads"][args.workload].get(str(args.seed)),
        float(reference["rel_tol"]),
    )
    shutil.rmtree(bench.out, ignore_errors=True)
    bench.out.mkdir(parents=True)

    if args.trace:
        runs = [bench.run_worker("run", 0), bench.run_worker("trace", 1)]
    else:
        runs = []
        start = time.monotonic()
        while not runs or time.monotonic() - start < args.seconds:
            # start another run only if it surely ends before the deadline
            longest = max(r.get("wall_s", 0.0) for r in runs) if runs else 0.0
            if runs and time.monotonic() + 1.5 * longest + 5.0 > bench.deadline:
                break
            runs.append(bench.run_worker("run", len(runs)))

    first = runs[0].get("csv_sha256")
    for r in runs[1:]:
        if first and r.get("csv_sha256") not in (None, first):
            r["problems"].append("CSV series differ from the first run of this seed")

    failed = sum(1 for r in runs if r["problems"])
    for i, r in enumerate(runs):
        timing = f"wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s" if "wall_s" in r else "no timing"
        status = "; ".join(r["problems"]) or "ok"
        print(f"{args.workload} seed {args.seed} {r['mode']} {i}: {timing}: {status}")

    if args.trace:
        traced = next((r for r in runs if r["mode"] == "trace" and "layers" in r), None)
        untraced = next((r for r in runs if r["mode"] == "run" and "wall_s" in r), None)
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        if traced and untraced:
            values.update(traced["layers"])
            values["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    else:
        units = END_TO_END_UNITS
        measured = [r for r in runs if "wall_s" in r]
        values = {
            key: statistics.median(r[key] for r in measured) if measured else 0.0
            for key in END_TO_END_UNITS
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = environment()
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"fail_ratio = {failed / len(runs)} ({failed} failed of {len(runs)} runs)")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    summary = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    (bench.out / "result.json").write_text(
        json.dumps({**summary, "workload": args.workload, "seed": args.seed,
                    "runs": runs, "environment": env}, indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
