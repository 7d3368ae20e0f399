"""One-key-at-a-time sweep over every numeric config key of every experiment.

Each config is a small base config (8-point grids, short time grids,
two-member ensembles) with one key set to an edge value.  Whatever the
value, the command line keeps its contract: ``validate`` accepts (0) or
rejects (3) the config; an accepted config runs to a status (0, 1 or 2)
and writes a strict-JSON record, and a rejected one is rejected by
``run`` too, before anything is written.
"""

import copy
import json

import pytest

from maxreg_lab import cli
from maxreg_lab.harness import EXPERIMENT_DEFAULTS

FLOATS = (0.0, -1.0, 0.5, 1.0000001, 1e-320, 1e-300, 1e300, 1e308)
INTEGERS = (0, 1, 2, 3)

#: Per-experiment sizes that keep each run short; the swept key overrides them.
SMALL = {
    "maxreg": {"time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "weighted-maxreg": {"time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "desimon": {"time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "resolvent": {"params": {"num_nodes": 65}},
    "rbound": {"params": {"trials": 2, "vectors_per_trial": 64}},
    "lipschitz": {"params": {"samples": 200}},
    "nlhe-exist": {"time": {"num_nodes": 17}},
    "ns-exist": {"time": {"num_nodes": 17}},
    "nlhe-unique": {"time": {"num_nodes": 17}},
    "ns-unique": {"time": {"num_nodes": 17}},
}


def _numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sweep():
    for name, defaults in sorted(EXPERIMENT_DEFAULTS.items()):
        keys = [("time", "horizon", 1.0), ("grid", "period", 1.0)]
        keys += [("params", k, v) for k, v in defaults.get("params", {}).items() if _numeric(v)]
        for table, key, default in keys:
            for value in INTEGERS if isinstance(default, int) else FLOATS:
                yield pytest.param(name, table, key, value, id=f"{name}-{table}.{key}={value!r}")


def _config(name, table, key, value):
    config = {"experiment": name, "grid": {"points_per_axis": 8}, **copy.deepcopy(SMALL.get(name, {}))}
    config.setdefault(table, {})[key] = value
    return config


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("name, table, key, value", _sweep())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_config_keeps_the_exit_code_contract(tmp_path, capsys, name, table, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(name, table, key, value)))
    out = tmp_path / "out"
    checked = cli.main(["validate", str(path)])
    assert checked in (0, 3), capsys.readouterr().err
    ran = cli.main(["run", str(path), "--out", str(out)])
    if checked == 3:
        assert ran == 3, capsys.readouterr().err
        assert not out.exists()
        return
    assert ran in (0, 1, 2), capsys.readouterr().err
    record = json.loads((out / f"{name}_record.json").read_text(), parse_constant=_refuse_constant)
    assert record["status"] in ("pass", "fail", "inconclusive")
