"""CLI subcommands, config validation, and exit codes."""

import csv
import json
import sys

import numpy as np
import pytest

from active_emu.cli import main

RUN_CONFIG = {
    "seed": 5,
    "simulator": {"kind": "toy-log-1d"},
    "initial_design": {"points": [[0.1], [3.4], [6.7], [10.0]]},
    "budget": 6,
    "acquisition": {"variant": "PDxPG", "tempering": {"kind": "one-minus-inverse-t"}},
    "optimizer": {"strategy": "simulated-annealing", "iterations": 150},
    "hyperparameters": {
        "strategy": "marginal-likelihood",
        "nugget": {"policy": "fixed", "value": 0.02},
        "optimizer": {"strategy": "simulated-annealing", "iterations": 60},
    },
}

EXPERIMENT_CONFIG = {
    "seed": 3,
    "simulator": {"kind": "toy-log-1d"},
    "strategies": ["amogape:PDxPG", "sobol"],
    "initial_design": {"points": [[0.1], [3.4], [6.7], [10.0]]},
    "n_add": 3,
    "runs": 2,
    "test_set": {"kind": "grid", "step": 0.1},
    "optimizer": {"strategy": "simulated-annealing", "iterations": 120},
    "hyperparameters": {
        "nugget": {"policy": "fixed", "value": 0.02},
        "optimizer": {"strategy": "simulated-annealing", "iterations": 50},
    },
}

# Hyperparameter settings no strategy accepts.
BAD_HYPERPARAMETERS = [
    {"strategy": "marginal-likelihood", "nugget": {"policy": "fixed", "value": -0.01}},
    {"strategy": "max-stable-bandwidth", "nugget": {"policy": "learned"}},
]

# Initial designs the loop cannot build; the last has no prior to draw from.
BAD_INITIAL_DESIGNS = [
    {"sampler": "halton", "size": 4},
    {"sampler": "seq-lhs", "size": 4},
    {"sampler": "prior-random", "size": 4},
]

# Malformed configs, as (command, top-level key, replacement block).  Each
# must stop at parsing; none may reach a run.
BAD_SIMULATORS = [
    {"kind": "nope"},
    {"kind": "external", "dimension": 1},  # no command
    {"kind": "fixture-9band", "dimension": 5},
]
# Simulator blocks of a known kind that the run cannot use: a command
# string, an empty box, and a 2-D simulator for the configs' 1-D points.
UNUSABLE_SIMULATORS = [
    {"kind": "external", "command": "solver", "dimension": 1, "outputs": 2, "bounds": [[0.1, 10.0]]},
    {"kind": "external", "command": ["solver"], "dimension": 1, "outputs": 2, "bounds": [[1.0, 0.0]]},
    {"kind": "fixture-9band"},
]
# Initial points the simulator cannot evaluate: outside its box, or duplicated.
BAD_INITIAL_POINTS = [
    {"points": [[0.0], [5.0]]},
    {"points": [[1.0], [1.0]]},
]
MALFORMED_CONFIGS = [
    ("run", "initial_design", {"sampler": "sobol", "size": "x"}),
    ("run", "hyperparameters", {"nugget": {"policy": "fixed", "value": "x"}}),
    ("run", "hyperparameters", {"nugget": {"policy": "fixed", "value": 0.02},
                                "optimizer": {"iterations": 0}}),
    ("run", "convergence", {"epsilon": "x"}),
    ("run", "convergence", {"epsilon": 0.01, "probe_points": "many"}),
    ("run", "convergence", {"probe_points": 50}),
    *(("run", "simulator", simulator) for simulator in BAD_SIMULATORS),
    *(("experiment", "simulator", simulator) for simulator in BAD_SIMULATORS),
    ("experiment", "test_set", {"kind": "grid"}),
    ("experiment", "test_set", {"kind": "prior", "size": 10}),  # no prior to draw from
    ("experiment", "density", {"bandwidth": "x"}),
    ("run", "convergence", {"epsilon": 0.01, "probe_points": 0}),
    ("run", "initial_design", {"sampler": "lhs", "size": 0}),
    ("experiment", "initial_design", {"sampler": "random", "size": -2}),
    ("run", "initial_design", {"sampler": "lhs", "size": 8}),  # more points than the budget of 6
    ("experiment", "n_add", -3),
    *((command, "simulator", simulator) for command in ("run", "experiment") for simulator in UNUSABLE_SIMULATORS),
    *((command, "initial_design", design) for command in ("run", "experiment") for design in BAD_INITIAL_POINTS),
]


# An external simulator whose command does not exist.
MISSING_SOLVER = {
    "kind": "external", "command": ["/nonexistent/solver"], "dimension": 1, "outputs": 2,
    "bounds": [[0.1, 10.0]],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRunCommand:
    def test_writes_lut_and_trace(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        lut = (out / "lut.csv").read_text().strip().splitlines()
        assert lut[0] == "x1,y1,y2"
        assert len(lut) == 7
        trace = [json.loads(line) for line in (out / "trace.ndjson").read_text().splitlines()]
        assert len(trace) == 2

    def test_seed_override_changes_result(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", "--config", config, "--out", str(out_a)])
        main(["run", "--config", config, "--out", str(out_b), "--seed", "99"])
        main(["run", "--config", config, "--out", str(out_c), "--seed", "99"])
        assert (out_a / "lut.csv").read_bytes() != (out_b / "lut.csv").read_bytes()
        assert (out_b / "lut.csv").read_bytes() == (out_c / "lut.csv").read_bytes()

    def test_bitwise_determinism(self, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config, "--out", str(out_a)])
        main(["run", "--config", config, "--out", str(out_b)])
        assert (out_a / "lut.csv").read_bytes() == (out_b / "lut.csv").read_bytes()

    def test_unknown_field_is_config_error(self, tmp_path, capsys):
        payload = dict(RUN_CONFIG)
        payload["budgett"] = 7  # typo
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "budgett" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_variant_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(RUN_CONFIG))
        payload["acquisition"]["variant"] = "QQ"
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("design", BAD_INITIAL_DESIGNS)
    def test_bad_initial_design_is_config_error(self, tmp_path, design):
        payload = json.loads(json.dumps(RUN_CONFIG))
        payload["initial_design"] = design
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("hyper", BAD_HYPERPARAMETERS)
    def test_bad_hyperparameters_are_config_error(self, tmp_path, hyper):
        payload = json.loads(json.dumps(RUN_CONFIG))
        payload["hyperparameters"] = hyper
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert not (out / "lut.csv").exists()

    def test_simulator_failure_exit_code(self, tmp_path):
        payload = json.loads(json.dumps(RUN_CONFIG))
        payload["simulator"] = {
            "kind": "external",
            "command": [sys.executable, "-c", "import sys; sys.exit(1)"],
            "dimension": 1,
            "outputs": 2,
            "bounds": [[0.1, 10.0]],
            "timeout": 5,
        }
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3

    def test_simulator_that_cannot_start_exit_code(self, tmp_path, capsys):
        payload = json.loads(json.dumps(RUN_CONFIG))
        payload["simulator"] = dict(MISSING_SOLVER)
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert "could not start simulator command ['/nonexistent/solver']" in capsys.readouterr().err
        assert (out / "trace.ndjson").read_text() == ""  # the partial result: no node was evaluated
        assert not (out / "lut.csv").exists()

    def test_external_simulator_round_trip(self, tmp_path):
        child = (
            "import json, math, sys\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    x = req['x'][0]\n"
            "    print(json.dumps({'id': req['id'], 'y': [math.log(x), 0.5*math.log(3*x)]}), flush=True)\n"
        )
        payload = json.loads(json.dumps(RUN_CONFIG))
        payload["simulator"] = {
            "kind": "external",
            "command": [sys.executable, "-c", child],
            "dimension": 1,
            "outputs": 2,
            "bounds": [[0.1, 10.0]],
            "timeout": 30,
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "ext"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        lut = (out / "lut.csv").read_text().strip().splitlines()
        assert len(lut) == 7


class TestExperimentCommand:
    def test_writes_results_csv(self, tmp_path):
        config = write_config(tmp_path, EXPERIMENT_CONFIG)
        out = tmp_path / "exp"
        assert main(["experiment", "--config", config, "--out", str(out)]) == 0
        with open(out / "results.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["strategy", "m", "rmse_mean", "rmse_stderr", "evals_used"]
        strategies = {row[0] for row in rows[1:]}
        assert strategies == {"amogape:PDxPG", "sobol"}

    def test_density_output_2d(self, tmp_path):
        payload = {
            "seed": 2,
            "simulator": {"kind": "toy-log-2d"},
            "strategies": ["sobol"],
            "initial_design": {"sampler": "lhs", "size": 5},
            "n_add": 3,
            "runs": 1,
            "test_set": {"kind": "grid", "step": 1.0},
            "hyperparameters": {
                "strategy": "max-stable-bandwidth",
                "nugget": {"policy": "fixed", "value": 0.02},
            },
            "density": {"bandwidth": 1.0, "grid": 10},
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "exp2d"
        assert main(["experiment", "--config", config, "--out", str(out)]) == 0
        with open(out / "density_sobol.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x1", "x2", "density"]
        assert len(rows) == 101

    @pytest.mark.parametrize("design", BAD_INITIAL_DESIGNS)
    def test_bad_initial_design_is_config_error(self, tmp_path, design):
        payload = json.loads(json.dumps(EXPERIMENT_CONFIG))
        payload["initial_design"] = design
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["experiment", "--config", config, "--out", str(out)]) == 2
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("hyper", BAD_HYPERPARAMETERS)
    def test_bad_hyperparameters_are_config_error(self, tmp_path, hyper):
        payload = json.loads(json.dumps(EXPERIMENT_CONFIG))
        payload["hyperparameters"] = hyper
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["experiment", "--config", config, "--out", str(out)]) == 2
        assert not (out / "results.csv").exists()

    def test_simulator_that_cannot_start_exit_code(self, tmp_path, capsys):
        payload = json.loads(json.dumps(EXPERIMENT_CONFIG))
        payload["simulator"] = dict(MISSING_SOLVER)
        config = write_config(tmp_path, payload)
        assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert "could not start simulator command ['/nonexistent/solver']" in capsys.readouterr().err

    def test_unknown_strategy_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(EXPERIMENT_CONFIG))
        payload["strategies"] = ["sobol", "dragonfly"]
        config = write_config(tmp_path, payload)
        assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, key, block", MALFORMED_CONFIGS)
def test_malformed_config_exits_2_before_running(tmp_path, capsys, command, key, block):
    """`main` runs in this process, so an exception it lets out fails the test."""
    payload = json.loads(json.dumps(RUN_CONFIG if command == "run" else EXPERIMENT_CONFIG))
    payload[key] = block
    config = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert key in err  # the block at fault is named
    assert not out.exists()


@pytest.mark.parametrize("key, block, message", [
    ("hyperparameters", {"optimizer": {"iterations": 0}}, "hyperparameters.optimizer: iterations must be >= 1"),
    ("hyperparameters", {"nugget": {"policy": "both"}}, "hyperparameters.nugget: policy must be"),
    ("acquisition", {"tempering": {"kind": "warm"}}, "acquisition.tempering: unknown kind: 'warm'"),
    ("initial_design", {"sampler": "sobol", "size": "x"}, "initial_design: invalid literal for int()"),
])
def test_nested_block_is_named_by_its_key_path(tmp_path, capsys, key, block, message):
    payload = json.loads(json.dumps(RUN_CONFIG))
    payload[key] = block
    assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


class TestOracleCommand:
    def test_log_single_node(self, tmp_path, capsys):
        out = tmp_path / "nodes.csv"
        code = main([
            "oracle", "--function", "log", "--interval", f"1,{np.e**2}",
            "--nodes", "1", "--out", str(out),
        ])
        assert code == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["m", "x", "fx"]
        assert float(rows[1][1]) == pytest.approx(np.e, abs=1e-9)
        captured = capsys.readouterr().out
        assert "cinf_cost=1.0" in captured

    def test_density_statistic_for_many_nodes(self, tmp_path, capsys):
        out = tmp_path / "nodes.csv"
        code = main([
            "oracle", "--function", "exp", "--interval", "0,1",
            "--nodes", "200", "--bins", "20", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        tv = float(captured.split("density_tv=")[1].split()[0])
        assert tv < 0.1

    def test_bad_interval_is_config_error(self, tmp_path):
        assert main([
            "oracle", "--function", "log", "--interval", "oops",
            "--nodes", "1", "--out", str(tmp_path / "n.csv"),
        ]) == 2

    def test_bad_function_is_config_error(self, tmp_path):
        assert main([
            "oracle", "--function", "tan", "--interval", "0,1",
            "--nodes", "1", "--out", str(tmp_path / "n.csv"),
        ]) == 2

    def test_log_needs_positive_interval(self, tmp_path):
        assert main([
            "oracle", "--function", "log", "--interval=-1,1",
            "--nodes", "1", "--out", str(tmp_path / "n.csv"),
        ]) == 2
