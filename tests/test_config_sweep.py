"""One-key-at-a-time sweep over every numeric and list-valued config key of
every experiment, plus the base keys and the smallest grids.

Each config is a small base config (8-point grids, short time grids,
two-member ensembles) with one key set to an edge value, or with its grid
or time grid at a minimum size; a grid or time key is swept only where the
experiment's defaults have it.  Whatever the value, the command line
keeps its contract: ``validate`` accepts (0) or rejects (3) the config; an
accepted config runs to a status (0, 1 or 2) and writes a strict-JSON
record, and a rejected one is rejected by ``run`` too, before anything is
written.  A grid or time key the experiment does not have is rejected
by both.
"""

import copy
import json

import pytest

from maxreg_lab import cli
from maxreg_lab.harness import BASE_DEFAULTS, EXPERIMENT_DEFAULTS

FLOATS = (0.0, -1.0, 0.5, 1.0000001, 1e-320, 1e-300, 1e300, 1e308)
INTEGERS = (0, 1, 2, 3)
BASE_KEYS = ("rng_seed", "threads")

#: The smallest grids and time grids, each one override of the base config.
MINIMUM_SIZES = (
    {"grid": {"points_per_axis": 4}},
    {"time": {"num_nodes": 2}},
    {"time": {"num_nodes": 3}},
    {"grid": {"dimension": 1}},
    {"grid": {"dimension": 3, "points_per_axis": 4}},
)

#: Every grid and time key some experiment reads, each with a valid value.
GRID_AND_TIME = {
    "grid": {"dimension": 2, "points_per_axis": 8, "period": 1.0},
    "time": {"horizon": 1.0, "num_nodes": 17},
}

#: Per-experiment sizes that keep each run short; the swept key overrides them.
SMALL = {
    "maxreg": {"time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "weighted-maxreg": {"time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "desimon": {"time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "resolvent": {"time": {"num_nodes": 65}},
    "rbound": {"params": {"trials": 2}},
    "lipschitz": {"params": {"samples": 200}},
    "nlhe-exist": {"time": {"num_nodes": 17}},
    "ns-exist": {"time": {"num_nodes": 17}},
    "nlhe-unique": {"time": {"num_nodes": 17}},
    "ns-unique": {"time": {"num_nodes": 17}},
}


def _numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_values(default):
    """Edge values of a list key: empty, its first entry alone, and each
    edge float alone and appended; for a list of pairs (``z_values``) the
    float replaces either entry of the first pair, or both of an appended one."""
    yield []
    yield default[:1]
    for x in FLOATS:
        if x == 1.0000001:
            continue
        if isinstance(default[0], list):
            re, im = default[0]
            yield from ([[x, im]], [[re, x]], default + [[x, x]])
        else:
            yield from ([x], default + [x])


def _declares(name, overrides):
    """Whether the experiment's defaults have every key and table entry of ``overrides``."""
    defaults = {**BASE_DEFAULTS, **EXPERIMENT_DEFAULTS[name]}
    return all(
        key in defaults and (not isinstance(value, dict) or value.keys() <= defaults[key].keys())
        for key, value in overrides.items()
    )


def _keyed(name, table, key, value):
    return pytest.param(name, {table: {key: value}}, id=f"{name}-{table}.{key}={value!r}")


def _sweep():
    for name, defaults in sorted(EXPERIMENT_DEFAULTS.items()):
        params = defaults["params"].items()
        keys = [
            (table, key, 1.0)
            for table, key in (("time", "horizon"), ("grid", "period"))
            if _declares(name, {table: {key: 1.0}})
        ]
        keys += [("params", k, v) for k, v in params if _numeric(v)]
        for table, key, default in keys:
            for value in INTEGERS if isinstance(default, int) else FLOATS:
                yield _keyed(name, table, key, value)
        for key, default in params:
            if isinstance(default, list):
                for value in _list_values(default):
                    yield _keyed(name, "params", key, value)
        for key in BASE_KEYS:
            for value in (-1, *INTEGERS):
                yield pytest.param(name, {key: value}, id=f"{name}-{key}={value!r}")
        for sizes in MINIMUM_SIZES:
            if _declares(name, sizes):
                label = ",".join(f"{t}.{k}={v!r}" for t, table in sizes.items() for k, v in table.items())
                yield pytest.param(name, sizes, id=f"{name}-{label}")


def _undeclared():
    """One config per experiment and grid or time table its defaults lack,
    and per key its defaults lack in a table they have."""
    for name, defaults in sorted(EXPERIMENT_DEFAULTS.items()):
        for table, keys in GRID_AND_TIME.items():
            if table not in defaults:
                yield pytest.param(name, {table: keys}, id=f"{name}-{table}")
                continue
            for key, value in keys.items():
                if key not in defaults[table]:
                    yield _keyed(name, table, key, value)


def _config(name, overrides):
    small_grid = {"grid": {"points_per_axis": 8}}
    config = {
        "experiment": name,
        **(small_grid if _declares(name, small_grid) else {}),
        **copy.deepcopy(SMALL.get(name, {})),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    return config


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("name, overrides", _sweep())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_config_keeps_the_exit_code_contract(tmp_path, capsys, name, overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(name, overrides)))
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


@pytest.mark.parametrize("name, overrides", _undeclared())
def test_undeclared_key_is_rejected(tmp_path, capsys, name, overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(name, overrides)))
    out = tmp_path / "out"
    assert cli.main(["validate", str(path)]) == 3
    assert cli.main(["run", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.count("unknown config key") == 2
    assert not out.exists()
