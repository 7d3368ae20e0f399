"""Every settable config value can change a result.

The keys are those of each experiment's default-filled config, so a key
that a later change adds and no run reads fails here.  Each value is
changed once, to a valid alternative listed below, and the record's
status, metrics or series must then differ from those of the unchanged
config, unless the pair is on the commented allow-list.

``output_dir`` only says where the files go, and ``threads`` must not
change a number (the CSVs are identical across thread counts), so both
are exempt.  The base configs are small, and the changes are large: a
small change of ``max_iter``, ``picard_tol`` or ``band_limit`` can leave
a record as it was although the key is read.
"""

import copy
import functools
import json

import pytest
from golden import snapshot

from maxreg_lab.harness import experiment_names, load_config, run_experiment

EXEMPT = ("experiment", "output_dir", "threads")

#: Small sizes of each experiment's base config.  At these sizes
#: ``nlhe-unique`` accepts no bootstrap segment at its default ``eta``, and
#: its Picard routes do not converge on a finer grid, so its data is smaller.
BASE = {
    "maxreg": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "weighted-maxreg": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "desimon": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 9}, "params": {"ensemble_size": 2}},
    "resolvent": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 65}},
    "hormander": {"grid": {"points_per_axis": 8}},
    "rbound": {"grid": {"points_per_axis": 8}, "params": {"trials": 2}},
    "scaling": {},
    "nlhe-exist": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}},
    "ns-exist": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}},
    "nlhe-unique": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}, "params": {"eta": 1.0}},
    "ns-unique": {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}},
    "lipschitz": {"params": {"samples": 200}},
    "smoothing": {"grid": {"points_per_axis": 8}},
}

#: The changed value of each key, for every experiment that has it.
ALTERNATIVES = {
    "rng_seed": 1,
    "grid.dimension": 1,
    "grid.points_per_axis": 16,
    "grid.period": 4.0,
    "time.horizon": 1.0,
    "time.num_nodes": 33,
    "params.p": 3.0,
    "params.q": 3.0,
    "params.nu": 3.0,
    "params.mu": 0.6,
    "params.ensemble_size": 3,
    "params.band_limit": 1,
    "params.modes_per_member": 3,
    "params.refine": True,
    "params.z_values": [[2.0, 0.0]],
    "params.shifts": [0.1, 1.0],
    "params.scalar_lambdas": [2.0, 8.0],
    "params.kind": "identity",
    "params.coefficients": [1.0, -3.0],
    "params.sigmas": [0.5, 1.0],
    "params.trials": 3,
    "params.law": "ns",
    "params.lambda_set": [0.5, 2.0],
    "params.off_critical_shift": 0.2,
    "params.variant": "unsigned",
    "params.eta_grid": [0.0, 0.1],
    "params.picard_tol": 1e-3,
    "params.max_iter": 1,
    "params.perturbation": 0.1,
    "params.eta": 0.5,
    "params.bootstrap_p": 3.0,
    "params.nu_values": [1.5],
    "params.samples": 300,
    "params.octaves": 2,
    "params.num_fields": 2,
}

#: Changes of one experiment that replace the entry above, as overrides.
#: ``nlhe-exist`` and ``ns-exist`` hold ``n/q + 2/p = 2/(nu - 1)`` and
#: ``n/q + 2/p = 1``, so each change of ``nu``, ``p``, ``q`` or the
#: dimension moves one more exponent to stay critical (a different one,
#: or to a different value, for each key).
SPECIAL = {
    ("nlhe-exist", "grid.dimension"): {"grid": {"dimension": 3}, "params": {"q": 3.0}},
    ("nlhe-exist", "params.nu"): {"params": {"nu": 3.0, "p": 4.0, "q": 4.0}},
    ("nlhe-exist", "params.p"): {"params": {"p": 4.0 / 3.0, "q": 4.0}},
    ("nlhe-exist", "params.q"): {"params": {"q": 4.0 / 3.0, "p": 4.0}},
    ("ns-exist", "grid.dimension"): {"grid": {"dimension": 3}, "params": {"q": 6.0}},
    ("ns-exist", "params.p"): {"params": {"p": 8.0 / 3.0, "q": 8.0}},
    ("ns-exist", "params.q"): {"params": {"q": 3.0, "p": 6.0}},
    # the incompressible problems take dimensions 2 and 3 only
    ("ns-unique", "grid.dimension"): {"grid": {"dimension": 2}},
    ("ns-unique", "params.q"): {"params": {"q": 4.0}},
    # in one dimension the smoothing source exponent nq/(n+q) is below 1
    ("nlhe-unique", "grid.dimension"): {"grid": {"dimension": 3}},
    ("smoothing", "grid.dimension"): {"grid": {"dimension": 3}},
}

#: (experiment, key) pairs whose change leaves the record as it was.
ALLOWED = {
    # deterministic: no draw reads the seed
    ("hormander", "rng_seed"),
    ("scaling", "rng_seed"),
    # a passing check reports exactly 0.0, the violation of its coincident pairs
    ("lipschitz", "rng_seed"),
    ("lipschitz", "params.samples"),
    # the estimate equals the uniform bound for these families, whatever the
    # sign draws, the trial count or the grid the operators act on
    ("rbound", "rng_seed"),
    ("rbound", "params.trials"),
    ("rbound", "grid.dimension"),
    ("rbound", "grid.points_per_axis"),
    ("rbound", "grid.period"),
    # read only by the kind the config does not select
    ("rbound", "params.sigmas"),  # under kind "scalar"
}


def _settable(name):
    """The experiment's settable keys, as ``table.key`` or a base key."""
    for key, value in load_config({"experiment": name}).to_dict().items():
        if key in EXEMPT:
            continue
        if isinstance(value, dict):
            yield from (f"{key}.{inner}" for inner in value)
        else:
            yield key


def _overrides(name, path):
    if (name, path) in SPECIAL:
        return SPECIAL[name, path]
    table, _, key = path.rpartition(".")
    value = ALTERNATIVES[path]
    return {table: {key: value}} if table else {path: value}


def _config(name, overrides):
    config = {"experiment": name, **copy.deepcopy(BASE[name])}
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    return config


@functools.lru_cache(maxsize=None)
def _result(config_json):
    return json.dumps(snapshot(run_experiment(load_config(json.loads(config_json)))))


def _run(config):
    return _result(json.dumps(config, sort_keys=True))


@pytest.mark.parametrize(
    "name, path", [(name, path) for name in experiment_names() for path in _settable(name)]
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_each_value_changes_the_record(name, path):
    base, changed = _config(name, {}), _config(name, _overrides(name, path))
    assert changed != base, "the alternative repeats the base value"
    same = _run(changed) == _run(base)
    if (name, path) in ALLOWED:
        assert same, f"{name} {path} changes the record: take it off the allow-list"
    else:
        assert not same, f"changing {name} {path} leaves the record as it was"
