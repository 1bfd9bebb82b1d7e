"""CLI subcommands, config validation, and exit codes."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from active_emu import cli, harness, loop
from active_emu.cli import main
from active_emu.gp import IllConditionedError
from active_emu.simulators import Simulator, ToyLog1D

from conftest import NanSimulator, failing_after

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

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
# Search settings no optimizer accepts: a temperature that is not a number
# or is negative, a zero proposal scale, a negative ascent step or count,
# and a NaN gradient tolerance.
BAD_OPTIMIZERS = [
    {"strategy": "simulated-annealing", "initial_temperature": "hot"},
    {"strategy": "simulated-annealing", "initial_temperature": -1.0},
    {"strategy": "simulated-annealing", "proposal_scale": 0.0},
    {"strategy": "random-then-ascent", "ascent_step": -0.1},
    {"strategy": "random-then-ascent", "ascent_iterations": -3},
    {"strategy": "random-then-ascent", "gradient_tolerance": float("nan")},
]
# Acquisition blocks no run can use: a NaN tempering rate, and priors with
# a NaN mean or with no mass on their box.
BAD_ACQUISITIONS = [
    {"tempering": {"kind": "one-minus-exp", "gamma": float("nan")}},
    {"prior": {"mu": [float("nan")], "sigma": [1.0], "min": [0.1], "max": [10.0]}},
    {"prior": {"mu": [1e6], "sigma": [1.0], "min": [0.1], "max": [10.0]}},
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
    ("experiment", "density", {"bandwidth": -1.0}),
    *((command, "optimizer", optimizer) for command in ("run", "experiment") for optimizer in BAD_OPTIMIZERS),
    *((command, "hyperparameters", {"nugget": {"policy": "fixed", "value": 0.02}, "optimizer": optimizer})
      for command in ("run", "experiment") for optimizer in BAD_OPTIMIZERS),
    *((command, "acquisition", acquisition) for command in ("run", "experiment") for acquisition in BAD_ACQUISITIONS),
    # A strategy name that is not a string, and integer fields given a
    # non-finite, fractional or boolean JSON value.
    ("experiment", "strategies", ["amogape:PDxPG", 7]),
    ("experiment", "runs", float("inf")),
    ("run", "seed", float("inf")),
    ("experiment", "seed", float("nan")),
    ("run", "seed", 0.5),
    ("run", "seed", True),
    ("run", "budget", float("inf")),
    ("experiment", "n_add", 2.5),
    ("run", "initial_design", {"sampler": "sobol", "size": float("inf")}),
    ("run", "optimizer", {"strategy": "simulated-annealing", "iterations": True}),
    ("experiment", "optimizer", {"n_random": float("inf")}),
    ("run", "hyperparameters", {"optimizer": {"ascent_iterations": float("inf")}}),
    ("run", "convergence", {"epsilon": 0.01, "probe_points": float("inf")}),
    ("experiment", "density", {"bandwidth": 1.0, "grid": 1.5}),
]


# Configs whose runs cannot build their designs, as (command, replaced
# top-level blocks, the error's message): a baseline that draws from a missing
# prior, 2-D grids whose sizes are no square, and a prior whose draws leave
# the simulator's box.  Each must stop at parsing.
UNRUNNABLE_CONFIGS = [
    ("experiment", {"strategies": ["prior-random"]}, "strategies: 'prior-random': prior-random needs an input prior"),
    ("run", {"simulator": {"kind": "toy-log-2d"}, "initial_design": {"sampler": "grid", "size": 5}},
     "5 is not a perfect power for a 2-dimensional lattice"),
    ("experiment", {"simulator": {"kind": "toy-log-2d"}, "initial_design": {"sampler": "lhs", "size": 4},
                    "strategies": ["grid"]}, "strategies: 'grid': 2 is not a perfect power"),
    ("run", {"initial_design": {"sampler": "prior-random", "size": 4},
             "acquisition": {"prior": {"mu": [11.0], "sigma": [1.0], "min": [0.1], "max": [12.0]}}},
     "acquisition.prior: the prior's box [[0.1, 12.0]] leaves the simulator's box [[0.1, 10.0]]"),
]


def count_evaluations(monkeypatch) -> list:
    """The list to which every later `Simulator.evaluate` call appends its point."""
    calls = []
    evaluate = Simulator.evaluate

    def counting(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(Simulator, "evaluate", counting)
    return calls


def external_simulator(outputs: str, bounds) -> dict:
    """A 1-D, 2-output external simulator whose child answers with `outputs`, a Python list expression in x."""
    child = (
        "import json, math, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    x = req['x'][0]\n"
        f"    print(json.dumps({{'id': req['id'], 'y': {outputs}}}), flush=True)\n"
    )
    command = [sys.executable, "-c", child]
    return {"kind": "external", "command": command, "dimension": 1, "outputs": 2, "bounds": bounds, "timeout": 30}


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

    def test_numerical_failure_is_reported_as_a_run_failure(self, tmp_path, capsys, monkeypatch):
        error = IllConditionedError("output 1: kernel matrix is not positive definite", 1e17)
        monkeypatch.setattr(loop, "fit_all", failing_after(loop.fit_all, 2, error))  # the last fit, at m = 6
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path, RUN_CONFIG), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "run failed: output 1: kernel matrix is not positive definite" in err
        assert "simulator failure" not in err
        assert len((out / "lut.csv").read_text().strip().splitlines()) == 7  # header and 6 nodes
        assert len((out / "trace.ndjson").read_text().splitlines()) == 1

    def test_external_simulator_round_trip(self, tmp_path):
        payload = json.loads(json.dumps(RUN_CONFIG))
        payload["simulator"] = external_simulator("[math.log(x), 0.5*math.log(3*x)]", [[0.1, 10.0]])
        config = write_config(tmp_path, payload)
        out = tmp_path / "ext"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        lut = (out / "lut.csv").read_text().strip().splitlines()
        assert len(lut) == 7

    def test_grid_reaches_the_top_of_a_box_whose_width_rounds_up(self, tmp_path):
        # -1.3 + (2.9 - -1.3) rounds to 2.9000000000000004, one ulp above the box
        payload = dict(RUN_CONFIG, simulator=external_simulator("[x, x*x]", [[-1.3, 2.9]]),
                       initial_design={"sampler": "grid", "size": 5})
        out = tmp_path / "ext"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        with open(out / "lut.csv") as handle:
            xs = [float(row["x1"]) for row in csv.DictReader(handle)]
        assert len(xs) == 6 and max(xs) == 2.9 and min(xs) == -1.3

    def test_overflowing_acquisition_is_reported_as_a_run_failure(self, tmp_path, capsys):
        # At 2e153 the outputs still fit, but overflow the acquisition; from
        # about 4e153 the log-ML overflows and the first fit fails instead.
        payload = dict(RUN_CONFIG, simulator=external_simulator(
            "[2e153*math.log(x), 2e153*0.5*math.log(3*x)]", [[0.1, 10.0]]))
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert "run failed: batch objective returned non-finite value inf at [" in capsys.readouterr().err
        nodes = len((out / "lut.csv").read_text().strip().splitlines()) - 1
        assert 4 <= nodes < 6
        assert len((out / "trace.ndjson").read_text().splitlines()) == nodes - 4


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

    def test_failed_run_is_written_to_failures_csv_and_left_out_of_the_rows(self, tmp_path, capsys, monkeypatch):
        payload = dict(EXPERIMENT_CONFIG, strategies=["sobol"])
        single = tmp_path / "single"
        config = write_config(tmp_path, dict(payload, runs=1), name="single.json")
        assert main(["experiment", "--config", config, "--out", str(single)]) == 0
        built = []

        def make(spec):  # the config's, the test set's, then one per run: the second run's sixth output is NaN
            built.append(spec)
            return NanSimulator(nan_at=6) if len(built) == 4 else ToyLog1D()

        monkeypatch.setattr(harness, "make_simulator", make)
        out = tmp_path / "o"
        assert main(["experiment", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert "1 run(s) failed" in capsys.readouterr().err
        with open(out / "failures.csv") as handle:
            header, *failures = list(csv.reader(handle))
        assert header == ["strategy", "run_index", "message"]
        assert [row[:2] for row in failures] == [["sobol", "1"]]
        assert "non-finite" in failures[0][2]
        # the failed run's trajectory is in no row: the rows are the first run's alone
        assert (out / "results.csv").read_bytes() == (single / "results.csv").read_bytes()

    def test_unknown_strategy_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(EXPERIMENT_CONFIG))
        payload["strategies"] = ["sobol", "dragonfly"]
        config = write_config(tmp_path, payload)
        assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, key, block", MALFORMED_CONFIGS)
def test_malformed_config_exits_2_before_running(tmp_path, capsys, monkeypatch, command, key, block):
    """`main` runs in this process, so an exception it lets out fails the test."""
    payload = json.loads(json.dumps(RUN_CONFIG if command == "run" else EXPERIMENT_CONFIG))
    payload[key] = block
    config = write_config(tmp_path, payload)
    out = tmp_path / "o"
    evaluations = count_evaluations(monkeypatch)
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert key in err  # the block at fault is named
    assert not out.exists()
    assert evaluations == []


@pytest.mark.parametrize("command, blocks, message", UNRUNNABLE_CONFIGS,
                         ids=["prior-random-without-prior", "grid-design-2d", "grid-strategy-2d", "prior-box-outside"])
def test_config_that_cannot_run_exits_2_before_running(tmp_path, capsys, monkeypatch, command, blocks, message):
    payload = dict(RUN_CONFIG if command == "run" else EXPERIMENT_CONFIG, **blocks)
    out = tmp_path / "o"
    evaluations = count_evaluations(monkeypatch)
    assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert evaluations == []


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


class TestBlasThreads:
    """A seeded `run` writes the same LUT whatever thread count the environment sets for both bundled OpenBLAS."""

    def test_lut_does_not_depend_on_the_environment_thread_count(self, tmp_path, monkeypatch):
        # the benchmark's fixture run from 126 prior-random nodes to 130: its
        # last fits cross m = 128, where OpenBLAS starts to thread its Cholesky
        monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads imports its siblings by name
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        payload = dict(workloads.FIXTURE_RUN, initial_design={"sampler": "prior-random", "size": 126}, budget=130)
        config = write_config(tmp_path, payload)
        src = str(Path(cli.__file__).resolve().parents[1])
        luts = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            command = [sys.executable, "-m", "active_emu.cli", "run", "--config", config, "--out", str(out),
                       "--seed", "20240819"]
            subprocess.run(command, env=env, check=True, capture_output=True)
            luts.append((out / "lut.csv").read_bytes())
        assert luts[0] == luts[1]


def test_imports_load_neither_scipy_optimize_nor_scipy_stats():
    # Each costs 0.14-1.01 s and 16-39 MB to import, past the benchmark's
    # setup_s and peak_rss_mb bounds (ROADMAP, "Parked").
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "import active_emu.cli, active_emu.harness, active_emu.config\n"
        "print(sorted(name for name in ('scipy.optimize', 'scipy.stats') if name in sys.modules))\n"
    )
    loaded = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    assert loaded.stdout.strip() == "[]"
