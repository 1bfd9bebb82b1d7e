"""The names the benchmark's tracer wraps must exist and nest as it expects.

`bench/tracing.py` replaces functions by the names their callers look them
up by and reports a missing name as absent instead of failing, so a rename
would otherwise show up only as a quietly wrong per-layer split.  The
tracer is imported read-only from its file.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from active_emu.acquisition import InputPrior
from active_emu.harness import ExperimentConfig, TestSetSpec, run_experiment
from active_emu.optimize import AnnealingConfig, OptimizerConfig

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_present():
    tracer = load_tracing().Tracer()
    with tracer:
        pass
    assert tracer.absent == []


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
