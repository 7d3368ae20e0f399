"""Tests for experiment configuration, the experiment registry, result files
and the command-line front end."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxreg_lab import cli, harness, maxreg, problems
from maxreg_lab.harness import (
    ConfigError,
    check_config,
    experiment_names,
    load_config,
    run_experiment,
    synthetic_forcing_ensemble,
    write_results,
)
from maxreg_lab import TorusGrid, uniform_time_grid


_REPO = Path(__file__).resolve().parents[1]

TINY_LIPSCHITZ = {"experiment": "lipschitz", "params": {"samples": 20_000}}

TINY_MAXREG = {
    "experiment": "maxreg",
    "grid": {"points_per_axis": 16},
    "time": {"horizon": 1.0, "num_nodes": 33},
    "params": {"ensemble_size": 4},
}


def _config_id(config):
    """``experiment:key=value,...``, the config's other keys flattened in
    order: a test id that does not depend on the row's position."""
    leaves = []
    for key, value in config.items():
        if isinstance(value, dict):
            leaves += [f"{key}.{leaf}={json.dumps(v)}" for leaf, v in value.items()]
        elif key != "experiment":
            leaves.append(f"{key}={json.dumps(value)}")
    return f"{config['experiment']}:{','.join(leaves)}"


class TestConfigLoading:
    def test_defaults_are_filled(self):
        cfg = load_config({"experiment": "maxreg"})
        assert cfg.experiment == "maxreg"
        assert cfg.grid == {
            "dimension": 2,
            "points_per_axis": 64,
            "period": 2 * math.pi,
        }
        assert cfg.threads == 1
        assert cfg.params["p"] == 2.0
        assert cfg.params["ensemble_size"] == 20

    def test_experiment_specific_defaults_override_base(self):
        assert load_config({"experiment": "desimon"}).time["horizon"] == 8.0
        assert load_config({"experiment": "ns-unique"}).grid["dimension"] == 3
        assert load_config({"experiment": "nlhe-unique"}).grid["points_per_axis"] == 32

    def test_user_values_merge_without_clobbering(self):
        cfg = load_config({"experiment": "maxreg", "grid": {"points_per_axis": 16}})
        assert cfg.grid["points_per_axis"] == 16
        assert cfg.grid["dimension"] == 2  # untouched default survives

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            load_config({"experiment": "maxreg", "bogus": 1})
        with pytest.raises(ConfigError, match="unknown config key grid."):
            load_config({"experiment": "maxreg", "grid": {"spacing": 0.1}})

    def test_table_type_enforced(self):
        with pytest.raises(ConfigError, match="must be a table"):
            load_config({"experiment": "maxreg", "grid": 5})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_MAXREG))
        cfg = load_config(path)
        assert cfg.time["num_nodes"] == 33

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(arr)

    def test_experiment_name_required_and_known(self):
        with pytest.raises(ConfigError, match="must name an 'experiment'"):
            load_config({})
        with pytest.raises(ConfigError, match="unknown experiment 'turbulence'"):
            load_config({"experiment": "turbulence"})

    @pytest.mark.parametrize("name", [["maxreg"], {}], ids=["list", "table"])
    def test_experiment_name_must_be_a_string(self, tmp_path, capsys, name):
        """A list or a table is not hashable, so it cannot even be looked up."""
        with pytest.raises(ConfigError, match="'experiment' must be a string"):
            load_config({"experiment": name})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": name}))
        assert cli.main(["validate", str(path)]) == 3
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "'experiment' must be a string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numeric_validation_messages(self):
        """Ranges are checked by the set-up, for ``validate`` and ``run``."""
        cases = [
            ({"grid": {"points_per_axis": 48}}, "power of two"),
            ({"grid": {"dimension": 0}}, "dimension must be positive"),
            ({"time": {"horizon": -1.0}}, "horizon must be positive"),
            ({"time": {"num_nodes": 1}}, "at least 2"),
            ({"threads": 0}, "threads must be at least 1"),
            ({"params": {"p": 1.0}}, "time exponent p must exceed 1"),
            ({"params": {"q": math.inf}}, r"space exponent q must lie in \(1, inf\)"),
        ]
        for override, message in cases:
            with pytest.raises(ConfigError, match=message):
                check_config(load_config({"experiment": "maxreg", **override}))
        with pytest.raises(ConfigError, match="mu must satisfy 1/p < mu <= 1"):
            check_config(load_config({"experiment": "weighted-maxreg", "params": {"mu": 0.2}}))
        with pytest.raises(ConfigError, match="nu must exceed 1"):
            check_config(load_config({"experiment": "nlhe-exist", "params": {"nu": 1.0}}))
        with pytest.raises(ConfigError, match="params.eta must be positive"):
            check_config(load_config({"experiment": "nlhe-unique", "params": {"eta": -1.0}}))
        with pytest.raises(ConfigError, match="eta_grid entries must be nonnegative"):
            check_config(load_config({"experiment": "nlhe-exist", "params": {"eta_grid": [-0.1]}}))

    @pytest.mark.parametrize("name", experiment_names())
    def test_to_dict_round_trip_is_idempotent(self, name):
        """A record's ``config`` loads again, also for an experiment
        without a ``grid`` or ``time`` table."""
        cfg = load_config({"experiment": name, "rng_seed": 7})
        again = load_config(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_factory_methods(self):
        cfg = load_config(TINY_MAXREG)
        grid = cfg.make_grid()
        tg = cfg.make_time_grid()
        assert isinstance(grid, TorusGrid) and grid.points_per_axis == 16
        assert tg.num_nodes == 33 and tg.horizon == pytest.approx(1.0)

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_desimon_rejects_exponent_keys(self):
        """The De Simon route is fixed to L^2(L^2); p and q are not settable."""
        for key in ("p", "q"):
            with pytest.raises(ConfigError, match="unknown config key params."):
                load_config({"experiment": "desimon", "params": {key: 7.0}})

    def test_all_experiments_listed(self):
        names = experiment_names()
        assert len(names) == 13
        for expected in ("maxreg", "desimon", "hormander", "ns-unique", "smoothing"):
            assert expected in names


def _eager_ensemble(grid, time_grid, size, band_limit, modes_per_member, seed):
    """The ensemble drawn as a list, member after member: the reference the
    lazily drawn sequence must reproduce bit for bit."""
    members = []
    t = time_grid.nodes
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
                if idx[-1] < grid.half_shape[-1]:
                    coeff[(slice(None), 0) + idx] += value * envelope
        members.append(coeff)
    return members


class TestSyntheticEnsemble:
    @pytest.mark.parametrize(
        "dimension, points, nodes, band_limit, modes, seed",
        [(1, 32, 9, 3, 2, 5), (2, 16, 17, 4, 6, 0), (2, 64, 33, 8, 10, 123), (3, 8, 5, 2, 6, 7)],
    )
    def test_members_match_the_eager_draw(self, dimension, points, nodes, band_limit, modes, seed):
        grid = TorusGrid(dimension=dimension, points_per_axis=points)
        tg = uniform_time_grid(1.0, nodes)
        ensemble = synthetic_forcing_ensemble(
            grid, tg, 4, band_limit=band_limit, modes_per_member=modes, seed=seed
        )
        expected = _eager_ensemble(grid, tg, 4, band_limit, modes, seed)
        assert [m.spectrum.tobytes() for m in ensemble] == [c.tobytes() for c in expected]

    def test_sequence_reads_agree(self):
        """Length, indices from either end, slices and repeated iteration
        all give the same members."""
        grid = TorusGrid(dimension=2, points_per_axis=16)
        ensemble = synthetic_forcing_ensemble(grid, uniform_time_grid(1.0, 9), 3, seed=4)
        first = [m.spectrum.tobytes() for m in ensemble]
        assert len(ensemble) == 3 and len(set(first)) == 3
        assert [m.spectrum.tobytes() for m in ensemble] == first
        assert [ensemble[i].spectrum.tobytes() for i in (-3, -2, -1)] == first
        assert [m.spectrum.tobytes() for m in ensemble[1:]] == first[1:]
        with pytest.raises(IndexError):
            ensemble[3]
        with pytest.raises(IndexError):
            ensemble[-4]

    def test_range_errors_at_call_time(self):
        """The arguments are checked by the call, before any member is read."""
        grid = TorusGrid(dimension=2, points_per_axis=16)
        tg = uniform_time_grid(1.0, 9)
        for kwargs, message in [
            ({"band_limit": 0}, "band_limit must be at least 1"),
            ({"band_limit": -2}, "band_limit must be at least 1"),
            ({"modes_per_member": 0}, "modes_per_member must be at least 1"),
        ]:
            with pytest.raises(ValueError, match=message):
                synthetic_forcing_ensemble(grid, tg, 2, **kwargs)
        with pytest.raises(ValueError, match="ensemble size must be at least 1"):
            synthetic_forcing_ensemble(grid, tg, 0)

    def test_deterministic_and_member_distinct(self):
        grid = TorusGrid(dimension=2, points_per_axis=16)
        tg = uniform_time_grid(1.0, 17)
        a = synthetic_forcing_ensemble(grid, tg, 3, seed=4)
        b = synthetic_forcing_ensemble(grid, tg, 3, seed=4)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.coefficients, tb.coefficients)
        assert np.any(a[0].coefficients != a[1].coefficients)

    def test_members_are_real_and_band_limited(self):
        grid = TorusGrid(dimension=2, points_per_axis=16)
        tg = uniform_time_grid(1.0, 9)
        (member,) = synthetic_forcing_ensemble(grid, tg, 1, band_limit=2, seed=1)
        assert member.state(3).to_physical().dtype == np.float64  # a real field's samples
        k = np.fft.fftfreq(16, d=1 / 16)
        outside = np.abs(k) > 2
        assert np.all(member.coefficients[:, 0][:, outside, :] == 0)

    def test_degenerate_draws_rejected(self):
        """``band_limit`` 0 leaves only the excluded zero mode to draw (the
        draw loop never ends), and ``modes_per_member`` 0 gives all-zero
        members."""
        grid = TorusGrid(dimension=2, points_per_axis=16)
        tg = uniform_time_grid(1.0, 9)
        with pytest.raises(ValueError, match="band_limit must be at least 1"):
            synthetic_forcing_ensemble(grid, tg, 1, band_limit=0)
        with pytest.raises(ValueError, match="modes_per_member must be at least 1"):
            synthetic_forcing_ensemble(grid, tg, 1, modes_per_member=0)

    def test_node_refinement_keeps_shared_samples(self):
        """Doubling the time resolution re-evaluates the same envelopes."""
        grid = TorusGrid(dimension=1, points_per_axis=16)
        coarse_tg = uniform_time_grid(1.0, 9)
        fine_tg = uniform_time_grid(1.0, 17)
        (coarse,) = synthetic_forcing_ensemble(grid, coarse_tg, 1, seed=2)
        (fine,) = synthetic_forcing_ensemble(grid, fine_tg, 1, seed=2)
        np.testing.assert_allclose(
            fine.coefficients[::2], coarse.coefficients, atol=1e-15
        )


class TestRunExperiment:
    def test_lipschitz_record_shape(self):
        record = run_experiment(load_config(TINY_LIPSCHITZ))
        assert record.status == "pass"
        assert record.schema_version == 1
        assert record.wall_time_s > 0
        assert record.metrics["max_violation"] <= 0.0
        assert record.config["experiment"] == "lipschitz"
        assert record.series  # at least one table
        for table in record.series.values():
            assert table["columns"]
            assert all(len(r) == len(table["columns"]) for r in table["rows"])

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "maxreg", "params": {"ensemble_size": 2, "refine": True}},
            {"experiment": "weighted-maxreg", "params": {"ensemble_size": 2}},
            {"experiment": "desimon", "params": {"ensemble_size": 2}},
            {"experiment": "resolvent"},
            {"experiment": "hormander"},
            {"experiment": "rbound", "params": {"kind": "resolvent"}},
            {"experiment": "scaling"},
            {"experiment": "nlhe-exist", "params": {"eta_grid": [0.0, 0.1]}},
            {"experiment": "ns-exist", "params": {"eta_grid": [0.0, 0.1]}},
            {"experiment": "nlhe-unique"},
            {"experiment": "ns-unique"},
            {"experiment": "lipschitz", "params": {"samples": 100}},
            {"experiment": "smoothing", "params": {"num_fields": 1}},
        ],
        ids=lambda config: config["experiment"],
    )
    def test_run_reads_no_config_key(self, config):
        """Every key is read and checked before the run is returned, so the
        run works with the config's tables emptied."""
        declared = harness.EXPERIMENT_DEFAULTS[config["experiment"]]
        small = {"grid": {"points_per_axis": 8}, "time": {"num_nodes": 17}}
        sizes = {
            table: {key: value for key, value in small[table].items() if key in declared[table]}
            for table in small.keys() & declared.keys()
        }
        cfg = load_config({**config, **sizes})
        run = harness._prepare(cfg)
        for table in (cfg.grid, cfg.time, cfg.params):
            table.clear()
        status, _, _ = run()
        assert status in ("pass", "fail", "inconclusive")

    def test_resolvent_probes_take_the_time_grid_nodes(self, monkeypatch):
        nodes = []
        probe = maxreg.resolvent_via_maxreg

        def recording(*args, num_nodes):
            nodes.append(num_nodes)
            return probe(*args, num_nodes=num_nodes)

        monkeypatch.setattr(maxreg, "resolvent_via_maxreg", recording)
        config = {"experiment": "resolvent", "grid": {"points_per_axis": 8}, "time": {"num_nodes": 65}}
        run_experiment(load_config(config))
        assert nodes == [65, 65, 65]

    def test_maxreg_tiny_run_passes(self):
        record = run_experiment(load_config(TINY_MAXREG))
        assert record.status == "pass"
        assert 0 < record.metrics["C_estimate"] <= 1.05

    def test_weighted_maxreg_solves_each_member_once(self, monkeypatch):
        """The weighted, mu = 1 and plain constants reduce one set of solves."""
        solves = []
        solve = maxreg.solve_linear_duhamel

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(maxreg, "solve_linear_duhamel", counting_solve)
        record = run_experiment(
            load_config(
                {
                    "experiment": "weighted-maxreg",
                    "grid": {"points_per_axis": 16},
                    "time": {"num_nodes": 9},
                    "params": {"ensemble_size": 3},
                }
            )
        )
        assert len(solves) == 3
        assert record.metrics["C_mu1"] == record.metrics["C_unweighted"]

    def test_unique_run_probes_smoothing_once(self, monkeypatch):
        """The bootstrap's smoothing probe also serves the run's spread gate."""
        probes = []
        probe = problems.smoothing_estimate_check

        def counting_probe(*args, **kwargs):
            probes.append(1)
            return probe(*args, **kwargs)

        monkeypatch.setattr(problems, "smoothing_estimate_check", counting_probe)
        record = run_experiment(
            load_config(
                {
                    "experiment": "ns-unique",
                    "grid": {"points_per_axis": 8},
                    "time": {"num_nodes": 9},
                }
            )
        )
        assert len(probes) == 1
        assert record.metrics["smoothing_max_spread"] > 0

    def test_reruns_are_reproducible(self):
        r1 = run_experiment(load_config(TINY_LIPSCHITZ))
        r2 = run_experiment(load_config(TINY_LIPSCHITZ))
        assert r1.metrics == r2.metrics
        assert r1.series == r2.series


class TestWriteResults:
    def test_files_written_and_parse_back(self, tmp_path):
        record = run_experiment(load_config(TINY_LIPSCHITZ))
        paths = write_results(record, tmp_path)
        record_path = tmp_path / "lipschitz_record.json"
        assert record_path in paths
        loaded = json.loads(record_path.read_text())
        assert loaded["status"] == "pass"
        assert loaded["schema_version"] == 1
        assert loaded["config"]["params"]["samples"] == 20_000
        csv_paths = [p for p in paths if p.suffix == ".csv"]
        assert csv_paths
        for path in csv_paths:
            data = path.read_bytes()
            assert b"\r" not in data  # unix newlines regardless of platform

    def test_series_files_are_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        write_results(run_experiment(load_config(TINY_LIPSCHITZ)), out1)
        write_results(run_experiment(load_config(TINY_LIPSCHITZ)), out2)
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 13
        assert "maxreg" in out

    def test_validate_good_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_LIPSCHITZ))
        assert cli.main(["validate", str(path)]) == 0
        assert "ok: lipschitz config is valid" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "nope"}))
        assert cli.main(["validate", str(path)]) == 3
        assert "config error:" in capsys.readouterr().err

    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_LIPSCHITZ))
        out_dir = tmp_path / "results"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "lipschitz_record.json").exists()
        stdout = capsys.readouterr().out
        assert "status: pass" in stdout
        assert "max_violation = " in stdout

    def test_run_missing_config_exits_three(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.json")]) == 3

    def test_bad_thread_override_exits_three(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_LIPSCHITZ))
        assert cli.main(["run", str(path), "--threads", "0"]) == 3
        assert "threads must be at least 1" in capsys.readouterr().err

    def test_negative_seed_override_exits_three(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_LIPSCHITZ))
        assert cli.main(["run", str(path), "--seed", "-1", "--out", str(tmp_path / "out")]) == 3
        assert "rng_seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_crash_during_run_exits_four(self, tmp_path, capsys, monkeypatch):
        """An error that is not a config error is a crash, not a failed run."""

        prepare = harness._EXPERIMENTS["lipschitz"]

        def crashing(*args):
            prepare(*args)

            def run():
                raise RuntimeError("numerics broke")

            return run

        monkeypatch.setitem(harness._EXPERIMENTS, "lipschitz", crashing)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_LIPSCHITZ))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == "crash: RuntimeError: numerics broke\n"
        assert not (tmp_path / "out").exists()

    def test_usage_error_folds_to_three(self, capsys):
        assert cli.main([]) == 3
        assert cli.main(["frobnicate"]) == 3

    @pytest.mark.parametrize(
        "path",
        sorted((_REPO / "demos" / "configs").glob("*.json"))
        + sorted((_REPO / "perfbench" / "workloads").glob("*.json")),
        ids=lambda path: f"{path.parent.name}/{path.name}",
    )
    def test_shipped_configs_validate(self, path, capsys):
        assert cli.main(["validate", str(path)]) == 0
        assert "config is valid" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "rbound", "params": {"kind": "bogus"}},
            {"experiment": "scaling", "params": {"law": "bogus"}},
        ],
    )
    def test_config_error_during_run_exits_three(self, tmp_path, capsys, config):
        """An unknown ``kind`` or ``law`` is rejected by the set-up, so
        ``validate`` and ``run`` both report it as a config error."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 3
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "config error:" in capsys.readouterr().err


class TestDomainChecks:
    """A config that only the domain objects reject is a config error, for
    ``validate`` and ``run`` alike."""

    @pytest.mark.parametrize(
        "config, message",
        [pytest.param(config, message, id=_config_id(config)) for config, message in [
            ({"experiment": "ns-exist", "grid": {"dimension": 1}}, "dimensions 2 and 3"),
            ({"experiment": "ns-exist", "params": {"q": "abc"}}, "params.'q' must be a number"),
            ({"experiment": "maxreg", "params": {"ensemble_size": 0}}, "ensemble size"),
            ({"experiment": "nlhe-unique", "params": {"q": 2.0}}, "nq/(n+q) must exceed 1"),
            ({"experiment": "ns-unique", "params": {"q": 1.5}}, "nq/(n+q) must exceed 1"),
            ({"experiment": "lipschitz", "params": {"nu_values": [0.5]}}, "nu_values entries must exceed 1"),
            ({"experiment": "lipschitz", "params": {"samples": 0}}, "samples must be at least 1"),
            ({"experiment": "hormander", "params": {"shifts": [0.0]}}, "shifts entries s and each s/lam must be nonzero"),
            ({"experiment": "hormander", "params": {"scalar_lambdas": [0.0]}}, "scalar_lambdas entries must be positive"),
            ({"experiment": "resolvent", "params": {"z_values": [[-1.0, 0.0]]}}, "need Re z > 0"),
            ({"experiment": "resolvent", "time": {"num_nodes": 1}}, "num_nodes must be at least 2"),
            ({"experiment": "resolvent", "params": {"band_limit": 0}}, "band_limit must be at least 1"),
            ({"experiment": "smoothing", "params": {"q": 1.5}}, "nq/(n+q) must exceed 1"),
            ({"experiment": "smoothing", "params": {"q": math.inf}}, "nq/(n+q) must exceed 1"),
            ({"experiment": "smoothing", "params": {"octaves": -1}}, "octaves must be nonnegative"),
            ({"experiment": "smoothing", "params": {"num_fields": 0}}, "num_fields must be at least 1"),
            ({"experiment": "scaling", "params": {"lambda_set": [-1.0]}}, "lambda_set entries must be positive"),
            ({"experiment": "scaling", "params": {"off_critical_shift": 1.0}}, "off_critical_shift must leave 1/p positive"),
            ({"experiment": "desimon", "params": {"modes_per_member": 0}}, "modes_per_member must be at least 1"),
            ({"experiment": "nlhe-exist", "params": {"max_iter": 0}}, "max_iter must be at least 1"),
            ({"experiment": "nlhe-exist", "params": {"band_limit": 0}}, "band_limit must be at least 1"),
            ({"experiment": "ns-exist", "params": {"picard_tol": 0.0}}, "picard_tol must be positive"),
            ({"experiment": "nlhe-unique", "params": {"picard_tol": 0.0}}, "picard_tol must be positive"),
            ({"experiment": "ns-unique", "params": {"max_iter": 0}}, "max_iter must be at least 1"),
            ({"experiment": "lipschitz", "params": {"nu_values": []}}, "params.'nu_values' must not be empty"),
            ({"experiment": "ns-exist", "params": {"eta_grid": []}}, "params.'eta_grid' must not be empty"),
            ({"experiment": "resolvent", "params": {"z_values": [[]]}}, "params.'z_values' entry must not be empty"),
            ({"experiment": "lipschitz", "threads": math.inf}, "'threads' must be an integer"),
            ({"experiment": "lipschitz", "params": {"samples": math.inf}}, "params.'samples' must be an integer"),
            ({"experiment": "maxreg", "params": {"ensemble_size": 2.5}}, "params.'ensemble_size' must be an integer"),
            ({"experiment": "nlhe-unique", "params": {"bootstrap_p": 0.5}}, "bootstrap_p must exceed 1"),
            ({"experiment": "nlhe-unique", "params": {"bootstrap_p": -1.0}}, "bootstrap_p must exceed 1"),
            ({"experiment": "ns-unique", "params": {"bootstrap_p": 0.5}}, "bootstrap_p must exceed 1"),
            ({"experiment": "ns-unique", "params": {"bootstrap_p": -1.0}}, "bootstrap_p must exceed 1"),
            # the critical p is inf (n/q is the whole scaling exponent), but the
            # sweep's heat-extension data norm needs finite p
            ({"experiment": "ns-exist", "params": {"q": 2.0}}, "requires finite exponents"),
            ({"experiment": "nlhe-exist", "params": {"nu": 3.0, "q": 2.0}}, "requires finite exponents"),
            ({"experiment": "maxreg", "time": {"horizon": math.inf}}, "horizon must be positive and finite"),
            ({"experiment": "maxreg", "time": {"horizon": math.nan}}, "horizon must be positive and finite"),
            ({"experiment": "hormander", "grid": {"period": math.inf}}, "period must be positive and finite"),
            # 1/Re z, the probe's horizon, overflows
            ({"experiment": "resolvent", "params": {"z_values": [[1e-320, 0.0]]}, "time": {"num_nodes": 65}}, "1/Re z and Im z finite"),
            ({"experiment": "scaling", "params": {"p": 1.5, "q": 1.01}}, "time integral diverges"),
            # non-finite numbers, and numbers whose use overflows
            ({"experiment": "hormander", "params": {"shifts": [math.inf]}}, "must be nonzero, with twice each finite"),
            ({"experiment": "hormander", "params": {"scalar_lambdas": [math.inf]}}, "scalar_lambdas entries must be positive and finite"),
            # a shift s/lam the scalar checks integrate underflows to 0, or 2 s/lam overflows
            ({"experiment": "hormander", "params": {"shifts": [1e-320], "scalar_lambdas": [1e308]}}, "each s/lam must be nonzero"),
            ({"experiment": "hormander", "params": {"scalar_lambdas": [0.5], "shifts": [1e308]}}, "each s/lam must be nonzero"),
            ({"experiment": "scaling", "params": {"lambda_set": [math.inf]}}, "lambda_set entries must be positive and finite"),
            # lam**(rho - 2 sigma) overflows in the rescaled amplitude
            ({"experiment": "scaling", "params": {"lambda_set": [1e-320]}}, "scaling set-up rejected the config"),
            # the rescaled amplitude underflows to 0, and so does its norm
            ({"experiment": "scaling", "params": {"nu": 1.0001, "lambda_set": [0.5]}}, "lambda_set entry 0.5 takes a norm out of range"),
            # 2.0**octaves overflows in the radius ladder
            ({"experiment": "smoothing", "params": {"octaves": 1100}}, "smoothing set-up rejected the config"),
            ({"experiment": "rbound", "params": {"coefficients": [math.inf]}}, "coefficients entries must be finite"),
            ({"experiment": "rbound", "params": {"kind": "resolvent", "coefficients": [math.nan]}}, "coefficients entries must be finite"),
            ({"experiment": "scaling", "params": {"nu": math.inf}}, "nu must exceed 1 and be finite"),
            ({"experiment": "nlhe-unique", "params": {"nu": math.inf}}, "nu must exceed 1 and be finite"),
            ({"experiment": "nlhe-exist", "params": {"eta_grid": [math.inf]}}, "eta_grid entries must be nonnegative and finite"),
            ({"experiment": "nlhe-exist", "params": {"picard_tol": math.inf}}, "picard_tol must be positive and finite"),
            ({"experiment": "lipschitz", "params": {"nu_values": [math.inf]}}, "nu_values entries must exceed 1 and be finite"),
            ({"experiment": "ns-unique", "params": {"eta": math.inf}}, "eta must be positive and finite"),
            # a period whose cell volume underflows to 0 or whose volume or top wavenumber overflows
            *(
                ({"experiment": name, "grid": {"period": period}}, "period out of range")
                for period, names in [
                    (1e-320, ["maxreg", "weighted-maxreg", "desimon", "hormander", "nlhe-exist", "ns-exist"]),
                    (1e300, ["maxreg", "weighted-maxreg", "desimon", "nlhe-exist"]),
                ]
                for name in names
            ),
            # the perturbed initial field overflows
            ({"experiment": "ns-exist", "params": {"perturbation": 1e308}}, "initial field must have finite coefficients"),
            ({"experiment": "ns-exist", "params": {"perturbation": math.inf}}, "initial field must have finite coefficients"),
            # the node spacing horizon/(num_nodes - 1) is subnormal
            ({"experiment": "weighted-maxreg", "time": {"horizon": 1e-320}}, "node spacing"),
            ({"experiment": "ns-exist", "time": {"horizon": 1e-320}}, "node spacing"),
            ({"experiment": "nlhe-unique", "time": {"horizon": 1e-320}}, "node spacing"),
            ({"experiment": "resolvent", "params": {"z_values": [[1e306, 0.0]]}}, "node spacing"),
            # the walk's auxiliary exponent n/(nu-1) falls below 1
            ({"experiment": "nlhe-unique", "params": {"nu": 5.0, "eta": 0.05}}, "n/(nu-1) below 1"),
            ({"experiment": "nlhe-unique", "params": {"nu": 4.0, "eta": 0.2}}, "n/(nu-1) below 1"),
            ({"experiment": "nlhe-unique", "params": {"nu": 400.0}}, "n/(nu-1) below 1"),
            ({"experiment": "nlhe-unique", "params": {"nu": 1e308}}, "n/(nu-1) below 1"),
            # one time step damps the slowest heat mode below floating-point range
            ({"experiment": "ns-unique", "time": {"horizon": 1e300}}, "damps every heat mode"),
            ({"experiment": "ns-unique", "time": {"horizon": 1e308}}, "damps every heat mode"),
            ({"experiment": "ns-exist", "time": {"horizon": 1e300}}, "damps every heat mode"),
            # the power weights t^((1-mu)p) times the trapezoid weights underflow
            ({"experiment": "weighted-maxreg", "time": {"horizon": 1e-300}}, "power-weighted time weights"),
            # keys that repeated another key or could not change a result
            ({"experiment": "desimon", "params": {"sigma_max": 64.0}}, "unknown config key params.'sigma_max'"),
            ({"experiment": "desimon", "params": {"sigma_points": 33}}, "unknown config key params.'sigma_points'"),
            ({"experiment": "rbound", "params": {"vectors_per_trial": 4096}}, "unknown config key params.'vectors_per_trial'"),
            ({"experiment": "resolvent", "params": {"num_nodes": 8193}}, "unknown config key params.'num_nodes'"),
            ({"experiment": "ns-exist", "params": {"critical": False}}, "unknown config key params.'critical'"),
            ({"experiment": "nlhe-exist", "params": {"critical": True}}, "unknown config key params.'critical'"),
            ({"experiment": "rbound", "params": {"trials": 8}}, "unknown config key params.'trials'"),
            ({"experiment": "rbound", "params": {"sigmas": [0.5, 1.0]}}, "unknown config key params.'sigmas'"),
            # grid and time keys that no run of the experiment reads
            ({"experiment": "lipschitz", "grid": {"dimension": 3}}, "unknown config key 'grid'"),
            ({"experiment": "scaling", "grid": {"period": 1.0}}, "unknown config key grid.'period'"),
            ({"experiment": "resolvent", "time": {"horizon": 2.0}}, "unknown config key time.'horizon'"),
            ({"experiment": "hormander", "time": {"horizon": 1e-320}}, "unknown config key 'time'"),
            ({"experiment": "rbound", "grid": {"points_per_axis": 8}}, "unknown config key 'grid'"),
            ({"experiment": "scaling", "grid": {"dimension": 0}}, "dimension must be positive"),
            # numpy's seed sequences refuse a negative seed
            *(
                ({"experiment": name, "rng_seed": -1}, "rng_seed must be nonnegative")
                for name in experiment_names()
            ),
            # the existence runs derive p from q, nu and the dimension
            ({"experiment": "ns-exist", "params": {"p": 4.0}}, "unknown config key params.'p'"),
            ({"experiment": "nlhe-exist", "params": {"p": 2.0}}, "unknown config key params.'p'"),
            # no critical p above 1, or only p = 1
            ({"experiment": "ns-exist", "params": {"q": 1.5}}, "admit no critical time exponent p above 1"),
            ({"experiment": "nlhe-exist", "params": {"nu": 1.5, "q": 1e300}}, "admit no critical time exponent p above 1"),
            ({"experiment": "nlhe-exist", "grid": {"dimension": 3}, "params": {"q": 1.2}}, "admit no critical time exponent p above 1"),
            # the momentum law is quadratic: a nu it would ignore is refused
            *(
                ({"experiment": "scaling", "params": {"law": "ns", "nu": nu}}, "params.nu must be 2.0 under law 'ns'")
                for nu in (3.0, 5.0, 1.5)
            ),
        ]],
    )
    def test_validate_and_run_exit_three(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 3
        assert message in capsys.readouterr().err
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", [(), ("sub", "deeper")], ids=["file", "under-file"])
    @pytest.mark.parametrize("from_option", [False, True], ids=["config", "option"])
    def test_output_dir_at_or_under_a_file_exits_three(self, tmp_path, capsys, from_option, below):
        """An output directory that cannot be made is rejected before the run."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker.joinpath(*below)
        config = {"experiment": "hormander"}
        option = ["--out", str(out)] if from_option else []
        if not from_option:
            config["output_dir"] = str(out)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        if not from_option:
            assert cli.main(["validate", str(path)]) == 3
            assert f"{blocker} is not a directory" in capsys.readouterr().err
        assert cli.main(["run", str(path), *option]) == 3
        assert f"{blocker} is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == ""
        assert sorted(tmp_path.iterdir()) == [path, blocker]

    def test_wrong_value_types_rejected_at_load(self):
        with pytest.raises(ConfigError, match="params.'refine' must be true or false"):
            load_config({"experiment": "maxreg", "params": {"refine": 1}})
        with pytest.raises(ConfigError, match="params.'eta_grid' must be a list"):
            load_config({"experiment": "ns-exist", "params": {"eta_grid": 0.5}})
        with pytest.raises(ConfigError, match="must be a number"):
            load_config({"experiment": "nlhe-exist", "params": {"eta_grid": ["x"]}})
        with pytest.raises(ConfigError, match="params.'variant' must be a string"):
            load_config({"experiment": "nlhe-exist", "params": {"variant": 2}})

    def test_check_config_builds_without_running(self):
        check_config(load_config(TINY_MAXREG))
        with pytest.raises(ConfigError, match="dimensions 2 and 3"):
            check_config(load_config({"experiment": "ns-unique", "grid": {"dimension": 1}}))

    @pytest.mark.parametrize(
        "config, p",
        [
            ({"experiment": "nlhe-exist"}, 2.0),
            ({"experiment": "ns-exist"}, 4.0),
            ({"experiment": "ns-exist", "params": {"q": 2100}}, 2100 / 1049),
            ({"experiment": "ns-exist", "grid": {"dimension": 3}}, 8.0),
        ],
    )
    def test_existence_runs_derive_the_critical_p(self, monkeypatch, config, p):
        """``alpha/p = law.exponent - n/q``, bit for bit at these values."""
        built = []
        monkeypatch.setattr(harness, "_existence", lambda cfg, prob: built.append(prob))
        cfg = load_config(config)
        assert "p" not in cfg.params
        check_config(cfg)
        assert built[0].params.p == p

    def test_ns_exist_in_three_dimensions_from_the_dimension_alone(self, tmp_path, capsys):
        """The 3-D run takes the critical p of ``q = 4``, which is 8."""
        config = {
            "experiment": "ns-exist",
            "grid": {"dimension": 3, "points_per_axis": 8},
            "time": {"num_nodes": 17},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) in (0, 1, 2)
        record = json.loads((tmp_path / "ns-exist_record.json").read_text())
        assert record["status"] in ("pass", "fail", "inconclusive")

    def test_validate_draws_no_ensemble(self, tmp_path, capsys, monkeypatch):
        """The ensemble keys are range-checked without drawing a member."""

        def refuse(*args, **kwargs):
            raise AssertionError("validate drew a forcing-ensemble member")

        monkeypatch.setattr(harness._ForcingEnsemble, "_draw", refuse)
        shipped = _REPO / "demos" / "configs" / "desimon.json"
        check_config(load_config(shipped))
        for key in ("ensemble_size", "band_limit"):
            config = json.loads(shipped.read_text())
            config["params"] = {key: 0}
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(config))
            assert cli.main(["validate", str(path)]) == 3
            assert "must be at least 1" in capsys.readouterr().err

    def test_numerical_value_error_is_not_a_config_error(self, monkeypatch):
        """Only set-up errors become config errors; a failure inside the
        numerics still propagates as the error it is."""

        def broken(*args, **kwargs):
            raise ValueError("numerics broke")

        monkeypatch.setattr(maxreg, "estimate_maxreg_constant", broken)
        with pytest.raises(ValueError, match="numerics broke") as info:
            run_experiment(load_config(TINY_MAXREG))
        assert not isinstance(info.value, ConfigError)


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


class TestStrictJsonRecords:
    def test_non_finite_metrics_written_as_null(self, tmp_path):
        record = run_experiment(load_config(TINY_LIPSCHITZ))
        record.metrics.update(best=math.inf, worst=-math.inf, missing=math.nan)
        write_results(record, tmp_path)
        text = (tmp_path / "lipschitz_record.json").read_text()
        loaded = json.loads(text, parse_constant=_refuse_constant)
        assert loaded["metrics"]["best"] is None
        assert loaded["metrics"]["worst"] is None
        assert loaded["metrics"]["missing"] is None
        assert loaded["metrics"]["max_violation"] == record.metrics["max_violation"]

    @pytest.mark.parametrize(
        "config, metric",
        [
            # every sample's violation is NaN at this exponent
            ({"experiment": "lipschitz", "params": {"nu_values": [1e308], "samples": 4}}, "max_violation"),
            # e^{zt} overflows on [0, 1/Re z], so the probe's values are NaN
            ({"experiment": "resolvent", "params": {"z_values": [[1e-300, 1e300]]}, "time": {"num_nodes": 65}}, "max_deviation"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_fails_and_is_written_as_null(self, tmp_path, capsys, config, metric):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert "status: fail" in capsys.readouterr().out
        record = tmp_path / f"{config['experiment']}_record.json"
        loaded = json.loads(record.read_text(), parse_constant=_refuse_constant)
        assert loaded["status"] == "fail"
        assert loaded["metrics"][metric] is None

    def test_tiny_nonlinearity_exponent_runs_to_a_status(self, tmp_path, capsys):
        """At ``nu = 1 + 1e-7`` the gate's ``(2M)**(1/epsilon)`` underflows;
        the config is valid and its run ends with a status and strict JSON."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "nlhe-unique", "params": {"nu": 1.0000001}}))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) in (0, 1, 2)
        record = json.loads(
            (tmp_path / "nlhe-unique_record.json").read_text(), parse_constant=_refuse_constant
        )
        assert record["status"] in ("pass", "fail", "inconclusive")

    @pytest.mark.parametrize(
        "config",
        [
            # the sampled pairs' L^q norms under- or overflow in their powers
            {"experiment": "ns-exist", "time": {"horizon": 1e-300, "num_nodes": 17}},
            {"experiment": "nlhe-unique", "time": {"horizon": 1e-300}},
            {"experiment": "ns-unique", "time": {"horizon": 1e-300}},
            # the data norm's powers of a 1e300-sized initial field overflow
            {"experiment": "ns-exist", "params": {"perturbation": 1e300}, "time": {"num_nodes": 17}},
            # |u|**q of a vector field overflows even with its components scaled to at most 1
            *(
                {
                    "experiment": "ns-unique",
                    "grid": {"points_per_axis": 8},
                    "time": {"num_nodes": 17},
                    "params": {"q": q},
                }
                for q in (3000, 10000, 1e300)
            ),
            {
                "experiment": "ns-exist",
                "grid": {"points_per_axis": 16},
                "time": {"num_nodes": 17},
                # the critical p is 2100/1049
                "params": {"q": 2100},
            },
            # the largest nodal norm sits at t = 0, where the power weight is 0
            {"experiment": "weighted-maxreg", "time": {"num_nodes": 9}, "params": {"p": 1000}},
            # the bootstrap's scale r has r**nu out of floating-point range
            {"experiment": "ns-unique", "grid": {"points_per_axis": 8}, "params": {"eta": 1e160}},
            {"experiment": "nlhe-unique", "params": {"eta": 1e160}},
            {"experiment": "nlhe-unique", "params": {"eta": 1e300}},
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_out_of_range_sizes_run_to_a_status(self, tmp_path, capsys, config):
        """Sizes whose powers leave floating-point range are valid configs;
        the norms rescale them, and the run ends with a status and strict JSON."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) in (0, 1, 2)
        record = json.loads(
            (tmp_path / f"{config['experiment']}_record.json").read_text(),
            parse_constant=_refuse_constant,
        )
        assert record["status"] in ("pass", "fail", "inconclusive")

    def test_underflowed_resolvent_probe_fails(self, tmp_path, capsys):
        """At Re z = 1e300 the probe and x/(z+A) are about 1e-300 x, so their
        L^2 norms square to 0: both gates would compare underflowed zeros."""
        config = {
            "experiment": "resolvent",
            "params": {"z_values": [[1e300, 0.0]]},
            "time": {"num_nodes": 65},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert "status: fail" in capsys.readouterr().out

    def test_sweep_without_convergence_writes_strict_json(self, tmp_path):
        config = {
            "experiment": "ns-exist",
            "time": {"num_nodes": 17},
            "grid": {"points_per_axis": 16},
            "params": {"eta_grid": [500.0]},
        }
        record = run_experiment(load_config(config))
        assert record.metrics["best_residual"] == math.inf
        write_results(record, tmp_path)
        text = (tmp_path / "ns-exist_record.json").read_text()
        loaded = json.loads(text, parse_constant=_refuse_constant)
        assert loaded["metrics"]["best_residual"] is None


class TestExistenceGate:
    @pytest.mark.parametrize(
        "config, eta",
        [
            # delta 8.39 admits a_norm 6.42, and the run diverges
            ({"experiment": "nlhe-exist", "time": {"num_nodes": 17}}, 5.12),
            # delta 19.93 admits a_norm 11.12, and the run stops at max_iter
            (
                {
                    "experiment": "ns-exist",
                    "time": {"num_nodes": 17},
                    "params": {"eta_grid": [5.12, 10.24]},
                },
                10.24,
            ),
        ],
        ids=["nlhe-exist", "ns-exist"],
    )
    def test_admitted_size_that_does_not_converge_fails(self, tmp_path, capsys, config, eta):
        """The gate's ``M`` is sampled, so it can admit a size whose Picard
        run does not converge; the run then contradicts its own certificate."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert "status: fail" in capsys.readouterr().out
        name = config["experiment"]
        with open(tmp_path / f"{name}_eta_sweep.csv", newline="") as handle:
            rows = {float(row["eta"]): row for row in csv.DictReader(handle)}
        assert (rows[eta]["smallness_ok"], rows[eta]["converged"]) == ("True", "False")
        record = json.loads((tmp_path / f"{name}_record.json").read_text())
        assert record["metrics"]["contraction_bound_ok"] is False


@pytest.mark.parametrize("command", [["list-experiments"], ["validate"], ["run"]], ids=lambda c: c[0])
def test_closed_stdout_pipe_keeps_the_status_code(tmp_path, command):
    """A reader that closes the pipe early (``maxreg-lab run cfg | head -1``)
    costs the printed lines, not the status."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "rbound"}))
    if command != ["list-experiments"]:
        command = [*command, str(path)]
    if command[0] == "run":
        command += ["--out", str(tmp_path / "out")]
    src = [str(_REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, src))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "maxreg_lab.cli", *command],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    if command[0] == "run":
        assert (tmp_path / "out" / "rbound_record.json").exists()
