"""Run one experiment through ``maxreg_lab.cli.main`` in this interpreter.

usage: python3 perfbench/worker.py {run,trace} CONFIG OUT_DIR SEED RESULT_JSON

Run from the root of a checkout with ``src`` on ``PYTHONPATH``. Times the
set-up a CLI call pays first (importing ``maxreg_lab``, then loading and
validating CONFIG) and then the ``maxreg-lab run`` call (config load,
experiment, result files), and writes the exit code, these times, the
call's CPU time and the process's peak resident memory to RESULT_JSON.
In ``trace`` mode the call runs under :class:`tracer.Tracer` and the
per-layer metrics and span table are written as well.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, config, out_dir, seed, result_path = argv
    if mode not in ("run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    import maxreg_lab
    from maxreg_lab import cli, harness, maxreg, norms, picard, problems, spectral

    harness.load_config(config)
    setup_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(maxreg_lab.__file__).resolve().parents:
        raise SystemExit(f"maxreg_lab was imported from {maxreg_lab.__file__}, not from {src}")

    cli_argv = ["run", config, "--out", out_dir, "--seed", seed]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(maxreg_lab, [cli, harness, problems, picard, maxreg, norms, spectral])
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(cli_argv)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer:
            tracer.uninstall()
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.metrics(wall_s)
        result["patched"] = tracer.patched
        result["unrestored"] = tracer.unrestored()
        result["spans"] = tracer.table()
    Path(result_path).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
