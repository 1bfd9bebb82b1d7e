"""The names the benchmark's tracer wraps must exist and nest as it expects,
and its layer probes must run.

`bench/tracing.py` replaces functions by the names their callers look them
up by and reports a missing name as absent instead of failing, so a rename
would otherwise show up only as a quietly wrong per-layer split.  The probes
in `bench/workloads.py` call the program directly, after the traced pass, so
a rename there would show up only as a crash at the end of a benchmark run.
Both files are imported read-only.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from active_emu import acquisition, gp, kernels
from active_emu.acquisition import InputPrior
from active_emu.config import parse_experiment_config, parse_run_config
from active_emu.harness import ExperimentConfig, TestSetSpec, run_experiment
from active_emu.loop import run
from active_emu.multi_output import fit_all
from active_emu.optimize import AnnealingConfig, OptimizerConfig
from active_emu.simulators import make_simulator

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """bench/<name>.py as the module `bench_<name>`."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


def test_every_traced_name_is_present():
    tracer = load_tracing().Tracer()
    with tracer:
        pass
    # `gp` runs no optimizer any more; the benchmark's entry for one waits
    # for its next change (the `FOUND:` line on the benchmark's call surface
    # in CHANGES.md).  Any other missing name still fails.
    assert tracer.absent == ["active_emu.gp.maximize"]


def test_every_run_span_has_a_fit_child():
    strategies = ("amogape:PDxPG", "random", "sobol", "seq-lhs", "prior-random", "grid", "lhs")
    config = ExperimentConfig(
        simulator={"kind": "toy-log-1d"},
        strategies=strategies,
        budget=6,
        runs=1,
        test_set=TestSetSpec(kind="grid", step=0.5),
        initial_points=np.array([[0.1, 3.4, 6.7, 10.0]]),
        prior=InputPrior(mu=[5.0], sigma=[3.0], low=[0.1], high=[10.0]),
        optimizer=OptimizerConfig(strategy="simulated-annealing", annealing=AnnealingConfig(iterations=50)),
        nugget_policy=0.02,
        hyper_optimizer=OptimizerConfig(strategy="simulated-annealing", annealing=AnnealingConfig(iterations=30)),
    )
    with load_tracing().Tracer() as tracer:
        results = run_experiment(config)
    assert results.failures == []
    runs = [i for i, span in enumerate(tracer.spans) if span.name == "loop.run"]
    assert len(runs) == len(strategies)
    fit_parents = {span.parent for span in tracer.spans if span.name == "multi_output.fit_all"}
    assert all(index in fit_parents for index in runs)
    # one weight solve of all outputs per fit
    fits = [i for i, span in enumerate(tracer.spans) if span.name == "multi_output.fit_all"]
    gp_fit_parents = [span.parent for span in tracer.spans if span.name == "gp.fit"]
    assert all(gp_fit_parents.count(index) == 1 for index in fits)


def test_ascent_takes_value_and_gradient_from_one_call(monkeypatch):
    """A traced fixture search calls the acquisition one point at a time only through its value-and-gradient form."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads imports its siblings by name
    workloads = load_bench("workloads")
    sim_spec, config = parse_run_config(dict(workloads.FIXTURE_RUN, budget=33, seed=20240819))
    with make_simulator(sim_spec) as sim, load_tracing().Tracer() as tracer:
        result = run(config, sim)
    assert result.failure is None and result.dataset.n_nodes == 33
    searches = {i for i, span in enumerate(tracer.spans) if span.name == "optimize.maximize_acq"}
    gradients = [span for span in tracer.spans if span.name == "acquisition.gradient"]
    assert len(searches) == 3
    assert gradients and all(span.parent in searches for span in gradients)
    assert not any(span.name == "acquisition.value" for span in tracer.spans)


def test_toy_annealing_records_one_value_span_per_proposal(monkeypatch):
    """Each annealing search scores its start and temperature probes in one block and
    every proposal with one traced `acquisition_value` call, which the benchmark counts."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads imports its siblings by name
    workloads = load_bench("workloads")
    toy = workloads.TOY_EXPERIMENT
    sim_spec, config = parse_run_config({
        "seed": 3,
        "simulator": toy["simulator"],
        "initial_design": toy["initial_design"],
        "budget": 7,
        "acquisition": dict(toy["acquisition"], variant="PDxPG"),
        "optimizer": toy["optimizer"],
        "hyperparameters": toy["hyperparameters"],
    })
    with make_simulator(sim_spec) as sim, load_tracing().Tracer() as tracer:
        result = run(config, sim)
    assert result.failure is None and result.dataset.n_nodes == 7
    spans = tracer.spans
    searches = [i for i, span in enumerate(spans) if span.name == "optimize.maximize_acq"]
    values = [span.parent for span in spans if span.name == "acquisition.value"]
    assert len(searches) == 3
    assert [values.count(i) for i in searches] == [config.optimizer.annealing.iterations] * 3
    assert len(values) == config.optimizer.annealing.iterations * 3
    assert not any(span.name == "acquisition.gradient" for span in spans)


def count_scored_rows(monkeypatch) -> list:
    """The list to which each later `gp.select_hyperparameters` call appends the list
    of the row counts of its `gp._log_ml_rows` calls (one per factorisation)."""
    fits = []
    select, log_ml_rows = gp.select_hyperparameters, gp._log_ml_rows

    def selecting(*args, **kwargs):
        fits.append([])
        return select(*args, **kwargs)

    def scoring(sq, Y, *args):
        fits[-1].append(Y.shape[0])
        return log_ml_rows(sq, Y, *args)

    monkeypatch.setattr(gp, "select_hyperparameters", selecting)
    monkeypatch.setattr(gp, "_log_ml_rows", scoring)
    return fits


def test_warm_started_fits_factorise_at_most_90_times(monkeypatch):
    """After the first fit of a fixture run, each fit's search scores the grid only near the last bandwidths."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads imports its siblings by name
    workloads = load_bench("workloads")
    sim_spec, config = parse_run_config(dict(workloads.FIXTURE_RUN, budget=40, seed=20240819))
    scored = count_scored_rows(monkeypatch)
    with make_simulator(sim_spec) as sim, load_tracing().Tracer() as tracer:
        result = run(config, sim)
    assert result.failure is None and result.dataset.n_nodes == 40
    spans = tracer.spans
    factorisations = {i: 0 for i, span in enumerate(spans) if span.name == "multi_output.fit_all"}
    for span in spans:
        if span.name == "gp.cho_factor":
            ancestor = span.parent
            while ancestor >= 0 and ancestor not in factorisations:
                ancestor = spans[ancestor].parent
            if ancestor >= 0:
                factorisations[ancestor] += 1
    first, *warm = factorisations.values()
    assert len(warm) == 10
    assert sum(rows > 1 for rows in scored[0]) == gp.BANDWIDTH_GRID.size  # the first fit scores the whole grid
    assert max(warm) <= 90, warm


def test_refinement_factorises_at_most_4_times_per_row_fit(monkeypatch):
    """Each row's bandwidth refinement stops once its parabola, having predicted a probe, promises less than `gp.BRENT_GAIN` nats.

    At a stop 1e-5 wide in log-bandwidth this fixture run made 6.7 one-row
    factorisations per row and fit.
    """
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads imports its siblings by name
    workloads = load_bench("workloads")
    sim_spec, config = parse_run_config(dict(workloads.FIXTURE_RUN, budget=40, seed=20240819))
    scored = count_scored_rows(monkeypatch)
    with make_simulator(sim_spec) as sim:
        result = run(config, sim)
    assert result.failure is None and len(scored) == 11
    row_fits = len(scored) * result.dataset.n_outputs
    refinements = sum(rows.count(1) for rows in scored)
    assert refinements <= 4 * row_fits, refinements / row_fits


def test_layer_probes_run_on_a_fitted_fixture_model(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads imports its siblings by name
    workloads = load_bench("workloads")
    sim_spec, config = parse_run_config(dict(workloads.FIXTURE_RUN, seed=0))
    rng = np.random.default_rng(0)
    with make_simulator(sim_spec) as sim:
        lo, hi = sim.bounds[:, 0], sim.bounds[:, 1]
        X = (lo + rng.random((12, 2)) * (hi - lo)).T
        dataset = gp.Dataset(X, np.column_stack([sim.evaluate(x) for x in X.T]), sim.bounds)
    model = fit_all(dataset, nugget_policy=config.nugget_policy)
    probes = lo + rng.random((5, 2)) * (hi - lo)
    metrics = workloads._acquisition_us(acquisition, config.acquisition, model, probes, 3)
    metrics.update(
        workloads._gram_chol(gp, kernels, dataset.normalize(X), model.bandwidths[0], config.nugget_policy)
    )
    assert sorted(metrics) == [
        "acquisition.gradient.us",
        "acquisition.value.us",
        "kernels.gram_chol_us.m130",
        "kernels.gram_chol_us.m30",
        "kernels.gram_chol_us.m60",
    ]
    assert all(np.isfinite(value) and value > 0.0 for value in metrics.values())


def test_layer_probes_run_on_a_small_toy_comparison(monkeypatch):
    """`ToyCompare.probe` reads `ExperimentConfig` fields by name; a short comparison runs it."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads imports its siblings by name
    workloads = load_bench("workloads")
    toy = workloads.ToyCompare(BENCH_DIR, seed=0)
    config = parse_experiment_config(dict(workloads.TOY_EXPERIMENT, seed=0))
    toy.config = dataclasses.replace(config, budget=6, runs=1)
    metrics = toy.probe({"experiments": [run_experiment(toy.config)]})
    assert sorted(metrics) == [
        "acquisition.gradient.us",
        "acquisition.value.us",
        "kernels.gram_chol_us.m130",
        "kernels.gram_chol_us.m30",
        "kernels.gram_chol_us.m60",
    ]
    assert all(np.isfinite(value) and value > 0.0 for value in metrics.values())
