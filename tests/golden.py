"""Golden numbers of the acceptance suite's experiment records.

``golden_records.json`` holds the status, metrics and series of every
record the ``records`` fixture builds for ``test_acceptance.py``: eleven
experiments at their default configs plus ``rbound`` with ``kind``
identity.  ``test_golden.py`` compares fresh records against it with
:func:`mismatches`.

A change that moves the numbers on purpose regenerates the file and says
so in CHANGES.md::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

GOLDEN_PATH = Path(__file__).with_name("golden_records.json")

#: (experiment, config overrides) of every record the acceptance suite builds.
RECORDS: list[tuple[str, dict]] = [
    ("desimon", {}),
    ("resolvent", {}),
    ("hormander", {}),
    ("rbound", {}),
    ("rbound", {"params": {"kind": "identity"}}),
    ("weighted-maxreg", {}),
    ("scaling", {}),
    ("nlhe-exist", {}),
    ("ns-exist", {}),
    ("lipschitz", {}),
    ("nlhe-unique", {}),
    ("ns-unique", {}),
]

#: Relative tolerance for floats: rounding-level drift passes, a change of
#: the computed numbers does not.
REL_TOL = 1e-10

#: Floats at or below this size on both sides count as equal: they are
#: rounding residues (divergences near 1e-15, separations near 1e-12).
FLOOR = 1e-9


def snapshot(record: Any) -> dict:
    """The record's status, metrics and series as plain JSON values; a
    non-finite float becomes its ``repr`` string."""
    return _plain({"status": record.status, "metrics": record.metrics, "series": record.series})


def _plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def mismatches(expected: Any, actual: Any, path: str = "") -> list[str]:
    """Where ``actual`` departs from ``expected``: exact for strings,
    integers, booleans, keys and lengths; floats within :data:`REL_TOL`
    unless both are at most :data:`FLOOR` in size."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        pairs = enumerate(zip(expected, actual))
        return [m for i, (e, a) in pairs for m in mismatches(e, a, f"{path}[{i}]")]
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} != {actual!r} (type)"]
    if isinstance(expected, float):
        if max(abs(expected), abs(actual)) <= FLOOR:
            return []
        if abs(actual - expected) <= REL_TOL * max(abs(expected), abs(actual)):
            return []
    elif expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def key(name: str, overrides: dict) -> str:
    return json.dumps({"experiment": name, **overrides}, sort_keys=True)


def main() -> None:
    from maxreg_lab.harness import load_config, run_experiment

    golden = {}
    for name, overrides in RECORDS:
        print(f"running {key(name, overrides)}", flush=True)
        record = run_experiment(load_config({"experiment": name, **overrides}))
        golden[key(name, overrides)] = snapshot(record)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, allow_nan=False) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
