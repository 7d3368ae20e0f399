"""The benchmark's self-test passes against this checkout.

It checks that the tracer still finds the public names and spans the
benchmark reports, restores everything it patches, and leaves the CSV
series of a traced run byte-identical to an untraced one.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
