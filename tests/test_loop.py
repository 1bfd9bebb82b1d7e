"""The sequential active loop and the baseline runners."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from active_emu import config as run_config
from active_emu import gp, harness, loop
from active_emu.acquisition import AcquisitionSpec, InputPrior, TemperingSchedule
from active_emu.gp import IllConditionedError
from active_emu.loop import (
    EmulationResult,
    LoopConfig,
    baseline_run,
    run,
    write_lut_csv,
    write_trace_ndjson,
)
from active_emu.optimize import AnnealingConfig, OptimizerConfig, maximize
from active_emu.samplers import sobol_sequence
from active_emu.simulators import Simulator, SimulatorError, ToyLog1D, make_simulator

from conftest import FIXTURE_RUN, UNUSABLE_DESIGNS, NanSimulator, failing_after, numpy_blas_thread_control

X0_1D = np.array([[0.1, 3.4, 6.7, 10.0]])


def toy_config(budget=6, seed=0, **kwargs):
    defaults = dict(
        budget=budget,
        acquisition=AcquisitionSpec.from_variant(
            "PDxPG", tempering=TemperingSchedule.one_minus_inverse_t()
        ),
        optimizer=OptimizerConfig(
            strategy="simulated-annealing", annealing=AnnealingConfig(iterations=300)
        ),
        hyper_strategy="marginal-likelihood",
        nugget_policy=0.02,
        hyper_optimizer=OptimizerConfig(
            strategy="simulated-annealing", annealing=AnnealingConfig(iterations=100)
        ),
        initial_points=X0_1D,
        seed=seed,
    )
    defaults.update(kwargs)
    return LoopConfig(**defaults)


class ScaledToy(ToyLog1D):
    """The toy-1D simulator with its outputs multiplied by `scale`."""

    def __init__(self, scale):
        super().__init__()
        self.scale = scale

    def _eval(self, x):
        return super()._eval(x) * self.scale


class FailingSimulator(Simulator):
    """Fails after a set number of evaluations."""

    kind = "failing"

    def __init__(self, fail_after):
        super().__init__(dimension=1, n_outputs=2, bounds=[[0.1, 10.0]])
        self.fail_after = fail_after
        self._inner = ToyLog1D()

    def _eval(self, x):
        if self.eval_count >= self.fail_after:
            raise SimulatorError("solver crashed")
        return self._inner._eval(x)


PRIOR_1D = InputPrior(mu=[5.0], sigma=[3.0], low=[0.1], high=[10.0])

ASCENT = OptimizerConfig(strategy="random-then-ascent", n_random=50)


def result_digests(result):
    """sha256 of the nodes and outputs, and sha256 of the trace without its timings."""
    nodes = hashlib.sha256()
    nodes.update(result.dataset.X.tobytes())
    nodes.update(result.dataset.Y.tobytes())
    trace = hashlib.sha256()
    for record in result.trace:
        fields = dataclasses.asdict(record)
        del fields["wall_time"]
        trace.update(json.dumps(fields).encode())
    return nodes.hexdigest(), trace.hexdigest()


# (strategy, sequential, config overrides, evaluations, converged,
# (nodes-and-outputs digest, trace digest)).  A seeded run must keep its
# nodes, outputs and trace bit for bit.  The baselines' nodes and outputs
# do not depend on the fitted bandwidths: their digests were recorded
# before the fixed-nugget search became one shared grid-and-golden-section
# pass, and neither that change nor the move from golden section to Brent's
# method moved them.  The traces (which carry the bandwidths) and the
# AMOGAPE runs were pinned after Brent's method.  Toy-1D
# matrices stay far below OpenBLAS's threading size, so the BLAS thread
# count cannot change these bits.
PINNED_RUNS = [
    ("amogape", None, dict(budget=8, seed=21), 8, False, (
        "8735084f0b047d82a407f2fbbd5cbba3b3737282c2d0c17b266baccf4cafeb5d",
        "173f6922959e5518f5000894e514643f4225b651fc50d719f7c14ed1739f0326",
    )),
    ("random", True, dict(budget=8, seed=22), 8, False, (
        "a6f4233626abd8ca2459cabbc37aea50e7bf43e3e4d68d22650c01717387ef12",
        "c71d070d2a721a91bfbfc0e4728ed451e415cc7bb7fcd5460db2ed2704579f37",
    )),
    ("sobol", True, dict(budget=8, seed=23), 8, False, (
        "8133f7c882934b85f72a13b63e47b3474853c9550d6cfbdd03b1c782b2c265fa",
        "51b5bf12a34c9288509acdcfdba1e3664d4c3503d308fbd70a09c5ad3c774c9e",
    )),
    ("seq-lhs", True, dict(budget=8, seed=24), 8, False, (
        "801fc5c7852ea3ad9b87342c3a9cd4bcaca43c43c130b06cd52b61764aa3741e",
        "562af698014a905c631acd622f218fdbc1be160b0756849d4dae71dbf3e0cb87",
    )),
    ("prior-random", True, dict(
        budget=8, seed=25,
        acquisition=AcquisitionSpec.from_variant("PDxPG", prior=PRIOR_1D),
    ), 8, False, (
        "dcbf5e7d0372eacf9fb99599a817efc62bbd371a9f8ed60953ebadac4dfc2a87",
        "0122cfd95cdb8cbba8ffa7098e32af77e22e9b315fd7eed9ab5999cbf821165f",
    )),
    ("grid", False, dict(budget=6, seed=26), 21, False, (
        "0eb0825cd138a59c79f189ba745813d71242a6600a49c562a8a8cd3575fbc61c",
        "78e4370767ff96facdc5bf59aac3a23d9493618f989cfb1efdb5d53607deca11",
    )),
    ("lhs", False, dict(budget=6, seed=27), 21, False, (
        "7174b1cfdca19cde7574d78e23de1037c604d82424b5061cefb4c79406abb303",
        "a87355943c915dcebb2e1837afc81131f516cfb24fe420ea46d9d44390edb68a",
    )),
    ("amogape-converging", None, dict(
        budget=12, seed=9, initial_points=None, initial_sampler="sobol", initial_size=3,
        convergence_epsilon=0.1, convergence_probes=200,
    ), 8, True, (
        "c6ddda26ec4addffba67fbe4a6ce135b7564ecabc7c6ee7c7a5041ea55afa39e",
        "dc39fd5ac4d8ebae3f8c7b376f5899f22ab4214aeaf33480940a51d7b6f2b762",
    )),
    # Searched by random probes and the analytic gradient: the pure-diversity
    # gradient with a prior, the product-geometry gradient (beta = 0 at t = 1),
    # and the predictive-variance gradient of a non-strict spec.
    ("amogape-SD-ascent", None, dict(
        budget=8, seed=31, optimizer=ASCENT, acquisition=AcquisitionSpec.from_variant("SD", prior=PRIOR_1D),
    ), 8, False, (
        "f03480a752afcf94f3a29157a9e1e2b9445b53b09ad85f7895cf611adca58e09",
        "670ac1b17d6f47a49d45d6095111b277c9d022c10731b8d8bd2f4d75371e86cb",
    )),
    ("amogape-PDxPG-ascent", None, dict(budget=8, seed=32, optimizer=ASCENT), 8, False, (
        "e3942a7055e48ad6e299e8ead96692b2c297af4ec50cee46f7e5ee5adad12c3f",
        "7dbf92cac1561b31b7a07acd62e821433afaec2075bc9bc18f31a2c0b98a2d9b",
    )),
    ("amogape-nonstrict-ascent", None, dict(
        budget=8, seed=33, optimizer=ASCENT,
        acquisition=AcquisitionSpec.from_variant("PDxSG", strict_zero_at_nodes=False),
    ), 8, False, (
        "73164771986818652be13a9725cfe75b53ca7ec31df66a2607f508b5a52f4eaa",
        "17a059df2eef1fcc616e02a9287bc4288ce507214c77e7da81a76eb4a65e5d88",
    )),
]


def pinned_experiment(**overrides) -> harness.ExperimentConfig:
    """A short seeded toy comparison through the harness, built in Python as a library caller would."""
    settings = dict(
        simulator={"kind": "toy-log-1d"},
        strategies=("amogape:PDxPG", "random", "sobol", "seq-lhs", "grid", "lhs"),
        budget=7,
        runs=2,
        test_set=harness.TestSetSpec(kind="grid", step=0.05),
        initial_points=X0_1D,
        optimizer=OptimizerConfig(strategy="simulated-annealing", annealing=AnnealingConfig(iterations=150)),
        nugget_policy=0.02,
        hyper_optimizer=OptimizerConfig(strategy="simulated-annealing", annealing=AnnealingConfig(iterations=60)),
        seed=41,
    )
    settings.update(overrides)
    return harness.ExperimentConfig(**settings)


def experiment_digest(results) -> str:
    """sha256 of an experiment's rows and of each strategy's first-run nodes and outputs."""
    digest = hashlib.sha256(json.dumps(results.rows).encode())
    for strategy, result in results.final_results.items():
        digest.update(strategy.encode())
        digest.update(result.dataset.X.tobytes())
        digest.update(result.dataset.Y.tobytes())
    return digest.hexdigest()


# (name, experiment overrides, digest): the six strategies of acceptance
# criterion 1, and prior-random with a prior; two runs each.
PINNED_EXPERIMENTS = [
    ("six-strategies", {}, "827b97fa7a03ff59a5b3746e53ee1ac5ad72e7bb6213d0d71e734f7ca4191594"),
    ("prior-random", dict(strategies=("prior-random",), prior=PRIOR_1D, seed=42),
     "e9f48e0b34895f49212ccb30a8e1ed5ed261b8c099568e81f6ec23c5fbb26d2b"),
]


class TestPinnedOutputs:
    @pytest.mark.parametrize(
        "strategy, sequential, overrides, evaluations, converged, expected",
        PINNED_RUNS,
        ids=[case[0] for case in PINNED_RUNS],
    )
    def test_seeded_run_is_unchanged(self, strategy, sequential, overrides, evaluations, converged, expected):
        config = toy_config(**overrides)
        if sequential is None:
            result = run(config, ToyLog1D())
        else:
            result = baseline_run(strategy, sequential, config, ToyLog1D())
        assert result.failure is None
        assert result.evaluations == evaluations
        assert result.converged is converged
        nodes, trace = result_digests(result)
        assert nodes == expected[0], "nodes or outputs moved"
        assert trace == expected[1], "trace moved"

    @pytest.mark.parametrize("overrides, expected", [case[1:] for case in PINNED_EXPERIMENTS],
                             ids=[case[0] for case in PINNED_EXPERIMENTS])
    def test_seeded_experiment_is_unchanged(self, overrides, expected):
        results = harness.run_experiment(pinned_experiment(**overrides))
        assert results.failures == []
        assert experiment_digest(results) == expected, "rows or first-run designs moved"

    def test_seeded_fixture_run_is_unchanged(self):
        # Acceptance criterion 10's settings, m = 30 to 40.  The toy runs
        # above search by annealing; this one ranks random probes in a block
        # and climbs the analytic acquisition gradient.  Its matrices stay
        # below OpenBLAS's threading size: the digests were recorded at 1
        # and at 2 BLAS threads, and agree.
        spec, config = run_config.parse_run_config(dict(FIXTURE_RUN, budget=40, seed=20240819))
        with make_simulator(spec) as sim:
            result = run(config, sim)
        assert result.failure is None
        assert result.evaluations == 40
        assert result.converged is False
        nodes, trace = result_digests(result)
        assert nodes == "237b221c8eb2f74dde189cde97e44ea5e0657f03a366b2a69bef4406e8414515", "nodes or outputs moved"
        assert trace == "3e1fba22abd9f5432c69ce476053cce2b7cce76bae5f4d584e57ac71969e4a35", "trace moved"


# The fixture run from 126 prior-random nodes to 130: its last fits cross
# m = 128, where OpenBLAS starts to thread its Cholesky.
CROSSING_RUN = dict(FIXTURE_RUN, initial_design={"sampler": "prior-random", "size": 126}, budget=130, seed=20240819)


def crossing_lut(tmp_path) -> bytes:
    """The LUT a library `loop.run` of CROSSING_RUN writes."""
    spec, config = run_config.parse_run_config(CROSSING_RUN)
    with make_simulator(spec) as sim:
        result = run(config, sim)
    write_lut_csv(result.dataset, tmp_path / "lut.csv")
    return (tmp_path / "lut.csv").read_bytes()


def crossing_rows(tmp_path) -> list:
    """The rows of a one-strategy `harness.run_experiment` of CROSSING_RUN."""
    raw = {key: CROSSING_RUN[key] for key in ("simulator", "initial_design", "optimizer", "hyperparameters", "seed")}
    raw.update(
        strategies=["amogape:SDxSG"], n_add=4, runs=1, test_set={"kind": "prior", "size": 200},
        acquisition={key: CROSSING_RUN["acquisition"][key] for key in ("tempering", "prior")},
    )
    return harness.run_experiment(run_config.parse_experiment_config(raw)).rows


@pytest.fixture
def two_threads():
    """scipy's LAPACK and numpy's BLAS thread controls, each set to 2 threads for the test and restored after."""
    controls = (gp._lapack_thread_control(), numpy_blas_thread_control())
    if None in controls:
        pytest.skip("scipy and numpy bundle no OpenBLAS here")
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield controls
    for (_, set_threads), count in zip(controls, previous):
        set_threads(count)


class TestLapackThreads:
    """Every run holds scipy's LAPACK at one thread, leaves numpy's BLAS alone, and restores both counts."""

    @pytest.mark.parametrize("output", [crossing_lut, crossing_rows], ids=["loop.run", "harness.run_experiment"])
    def test_output_does_not_depend_on_the_lapack_thread_count(self, output, two_threads, tmp_path):
        (_, set_lapack_threads), _ = two_threads
        outputs = []
        for count in (1, 2):
            set_lapack_threads(count)
            outputs.append(output(tmp_path))
        assert outputs[0] == outputs[1]

    def test_lapack_at_one_thread_and_numpy_untouched_during_a_run(self, two_threads):
        during = []
        run(toy_config(), ToyLog1D(), iteration_hook=lambda m, model: during.append([get() for get, _ in two_threads]))
        assert during == [[1, 2]] * 3  # the initial fit and two steps

    @pytest.mark.parametrize("error", [None, IllConditionedError("kernel matrix is not positive definite"),
                                       RuntimeError("not a run failure")], ids=["returned", "partial", "raised"])
    def test_thread_counts_restored_after_a_run(self, error, two_threads, monkeypatch):
        if error is not None:
            monkeypatch.setattr(loop, "fit_all", failing_after(loop.fit_all, 1, error))
        if isinstance(error, RuntimeError):
            with pytest.raises(RuntimeError, match="not a run failure"):
                run(toy_config(), ToyLog1D())
        else:
            result = run(toy_config(), ToyLog1D())
            assert (result.failure is None) is (error is None)
        assert [get() for get, _ in two_threads] == [2, 2]


class TestRun:
    def test_budget_reached_with_exact_eval_count(self):
        sim = ToyLog1D()
        result = run(toy_config(budget=7), sim)
        assert result.dataset.n_nodes == 7
        assert result.evaluations == 7
        assert sim.eval_count == 7
        assert len(result.trace) == 3  # three added points
        assert result.failure is None

    def test_single_addition(self):
        result = run(toy_config(budget=5), ToyLog1D())
        assert result.dataset.n_nodes == 5
        assert len(result.trace) == 1

    def test_first_point_not_an_existing_node(self):
        result = run(toy_config(budget=5, seed=11), ToyLog1D())
        new = result.dataset.X[:, -1]
        for i in range(4):
            assert abs(new[0] - X0_1D[0, i]) > 1e-6

    def test_chosen_points_never_duplicate_nodes(self):
        result = run(toy_config(budget=10, seed=5), ToyLog1D())
        X = result.dataset.normalize(result.dataset.X)
        for i in range(X.shape[1]):
            for j in range(i + 1, X.shape[1]):
                assert np.linalg.norm(X[:, i] - X[:, j]) > 1e-12

    def test_sequential_prefix_property(self):
        seen = []

        def hook(m, model):
            seen.append(model.dataset.X.copy())

        run(toy_config(budget=8, seed=2), ToyLog1D(), iteration_hook=hook)
        for earlier, later in zip(seen, seen[1:]):
            np.testing.assert_array_equal(earlier, later[:, : earlier.shape[1]])

    def test_seed_determinism(self):
        first = run(toy_config(budget=8, seed=42), ToyLog1D())
        second = run(toy_config(budget=8, seed=42), ToyLog1D())
        np.testing.assert_array_equal(first.dataset.X, second.dataset.X)
        np.testing.assert_array_equal(first.dataset.Y, second.dataset.Y)

    def test_different_seeds_differ(self):
        first = run(toy_config(budget=8, seed=1), ToyLog1D())
        second = run(toy_config(budget=8, seed=2), ToyLog1D())
        assert not np.array_equal(first.dataset.X, second.dataset.X)

    def test_trace_contents(self):
        result = run(toy_config(budget=6, seed=3), ToyLog1D())
        betas = [record.beta for record in result.trace]
        assert betas == [0.0, 0.5]  # 1 - 1/t for t = 1, 2
        for record in result.trace:
            assert record.acquisition_value >= 0.0
            assert len(record.bandwidths) == 2
            assert record.wall_time >= 0.0

    def test_simulator_failure_returns_partial_result(self):
        sim = FailingSimulator(fail_after=5)
        result = run(toy_config(budget=10), sim)
        assert result.failure is not None
        assert result.model is not None
        assert result.dataset.n_nodes == 5
        assert result.evaluations == 5

    def test_nan_output_returns_partial_result(self):
        sim = NanSimulator(nan_at=6)  # 4 initial nodes, the second added node is NaN
        result = run(toy_config(budget=10), sim)
        assert "non-finite" in result.failure
        assert result.dataset.n_nodes == 5
        assert result.evaluations == 5
        assert len(result.trace) == 1
        assert result.model is not None

    def test_overflowing_acquisition_returns_partial_result(self):
        # Outputs near 1e153 still fit, but overflow the squared mean
        # gradients; the suite turns any RuntimeWarning into an error.
        sim = ScaledToy(1e153)
        result = run(toy_config(budget=10), sim)
        assert result.failure.startswith("batch objective returned non-finite value inf at [")
        assert result.model is not None
        assert result.evaluations == result.dataset.n_nodes == sim.eval_count < 10

    @pytest.mark.parametrize("nugget_policy, search", [(0.02, "at any grid bandwidth"),
                                                       ("learned", "learned-nugget hyperparameter search")],
                             ids=["fixed", "learned"])
    def test_overflowing_first_fit_returns_partial_result(self, nugget_policy, search):
        # Outputs near 1e200 overflow the log-ML of every hyperparameter the search scores.
        sim = ScaledToy(1e200)
        result = run(toy_config(budget=10, nugget_policy=nugget_policy), sim)
        assert result.failure.startswith("output 0: ") and search in result.failure
        assert result.model is None
        assert result.evaluations == result.dataset.n_nodes == sim.eval_count == 4

    def test_nan_in_initial_design_returns_partial_result(self):
        result = run(toy_config(budget=10), NanSimulator(nan_at=2))
        assert "non-finite" in result.failure
        assert result.dataset is None and result.model is None
        assert result.evaluations == 1

    def test_ill_conditioned_refit_returns_partial_result(self, monkeypatch):
        error = IllConditionedError("output 0: kernel matrix is not positive definite", 1e17)
        monkeypatch.setattr(loop, "fit_all", failing_after(loop.fit_all, 3, error))
        result = run(toy_config(budget=10), ToyLog1D())
        assert "not positive definite" in result.failure
        assert len(result.trace) == 2  # fits 2 and 3 completed iterations 1 and 2
        assert result.dataset.n_nodes == 7  # the node whose refit failed is kept
        assert result.evaluations == 7
        assert result.model.dataset.n_nodes == 6  # the last model that fitted

    def test_ill_conditioned_acquisition_returns_partial_result(self, monkeypatch):
        error = IllConditionedError("noise-free variance -0.1 is more negative than round-off allows")
        monkeypatch.setattr(loop, "acquisition_value", failing_after(loop.acquisition_value, 500, error))
        result = run(toy_config(budget=10), ToyLog1D())
        assert "more negative" in result.failure
        assert len(result.trace) == 1  # one 300-step annealing search, then the failing one
        assert result.dataset.n_nodes == 5
        assert result.model.dataset.n_nodes == 5

    def test_ill_conditioned_initial_fit_returns_partial_result(self, monkeypatch):
        error = IllConditionedError("output 1: kernel matrix is not positive definite", 1e17)
        monkeypatch.setattr(loop, "fit_all", failing_after(loop.fit_all, 0, error))
        result = run(toy_config(budget=8), ToyLog1D())
        assert "not positive definite" in result.failure
        assert result.model is None
        assert result.dataset.n_nodes == 4
        assert result.trace == []

    def test_fixture_run_through_numerically_singular_noise_free_K(self):
        # At seed 11 the fit at m = 33 gives output 5 bandwidth 0.957, whose
        # nugget-free K LAPACK estimates at a condition of about 1.6e18.  Its
        # jitter-free Cholesky succeeds, and the acquisition then met a
        # noise-free variance of -1.1e-6 and ended the run at m = 33; the
        # factor must be jittered instead.
        raw = dict(FIXTURE_RUN, budget=34, seed=11)
        spec, config = run_config.parse_run_config(raw)
        with make_simulator(spec) as sim:
            result = run(config, sim)
        assert result.failure is None
        assert result.dataset.n_nodes == 34

    def test_convergence_stop(self):
        # a huge threshold fires at the first successive-model comparison
        config = toy_config(budget=20, convergence_epsilon=100.0)
        result = run(config, ToyLog1D())
        assert result.converged
        assert result.dataset.n_nodes == 5  # m0 + 1

    def test_hook_called_at_every_size(self):
        sizes = []
        run(toy_config(budget=7), ToyLog1D(), iteration_hook=lambda m, _: sizes.append(m))
        assert sizes == [4, 5, 6, 7]

    def test_initial_sampler_design(self):
        config = toy_config(budget=6, initial_points=None, initial_sampler="lhs", initial_size=4)
        result = run(config, ToyLog1D())
        assert result.dataset.n_nodes == 6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            toy_config(budget=0)
        with pytest.raises(ValueError):
            LoopConfig(budget=5)  # no initial design
        with pytest.raises(ValueError):
            toy_config(convergence_epsilon=-1.0)

    def test_initial_design_larger_than_budget_is_rejected(self):
        with pytest.raises(ValueError, match="more than the budget of 3"):
            toy_config(budget=3)  # four initial points
        with pytest.raises(ValueError, match="initial_design has 8 points"):
            toy_config(budget=6, initial_points=None, initial_sampler="lhs", initial_size=8)
        assert toy_config(budget=4).budget == 4  # an initial design may fill the budget


@pytest.mark.parametrize("points, prior", UNUSABLE_DESIGNS.values(), ids=UNUSABLE_DESIGNS.keys())
@pytest.mark.parametrize("start", [run, lambda config, sim: baseline_run("random", True, config, sim)],
                         ids=["run", "baseline_run"])
def test_unusable_design_is_refused_before_any_evaluation(start, points, prior):
    config = toy_config(initial_points=points, acquisition=AcquisitionSpec.from_variant("PDxPG", prior=prior))
    sim = ToyLog1D()
    with pytest.raises(ValueError, match="^(initial_design|acquisition.prior): "):
        start(config, sim)
    assert sim.eval_count == 0


class TestDuplicateSearches:
    """`_choose_next_point` when the acquisition search lands on an existing node."""

    CONFIG = toy_config(
        budget=8, seed=3, optimizer=OptimizerConfig(strategy="random-then-ascent", n_random=50)
    )

    def test_retries_with_a_fresh_seed_until_off_the_nodes(self, monkeypatch):
        sim = ToyLog1D()
        dataset = loop._evaluated(X0_1D, sim)
        fresh = np.array([5.0])
        seeds = []

        def landing(objective, bounds, config, **kwargs):
            seeds.append(config.seed)
            return (X0_1D[:, 1] if len(seeds) < 3 else fresh), 0.25

        monkeypatch.setattr(loop, "maximize", landing)
        x, value = loop._choose_next_point(self.CONFIG, None, dataset, sim.bounds, t=2)
        assert x is fresh and value == 0.25
        assert len(seeds) == len(set(seeds)) == 3

    def test_fallback_takes_the_best_probe_that_is_not_a_node(self, monkeypatch):
        sim, t = ToyLog1D(), 2
        lo, hi = sim.bounds[:, 0], sim.bounds[:, 1]
        rng = np.random.default_rng(loop.derive_seed(self.CONFIG.seed, 3, t))
        probes = lo + rng.random((100, 1)) * (hi - lo)  # the fallback's uniform probes
        target = probes[17]
        # the probe that scores best is made a node, so the fallback must pass it over
        dataset = loop._evaluated(np.hstack([X0_1D, target[:, np.newaxis]]), sim)
        scored = []

        def score(spec, model, X, t):
            scored.extend(X)
            return -np.abs(X - target).sum(axis=1)

        searches = []
        monkeypatch.setattr(loop, "maximize", lambda *args, **kwargs: searches.append(1) or (target, 0.0))
        monkeypatch.setattr(loop, "acquisition_values", score)
        x, value = loop._choose_next_point(self.CONFIG, None, dataset, sim.bounds, t=t)
        assert len(searches) == loop.MAX_DUPLICATE_RETRIES
        assert len(scored) == len(probes) - 1
        assert not any(np.array_equal(p, target) for p in scored)
        others = np.delete(probes, 17, axis=0)
        best = others[np.argmin(np.abs(others - target).sum(axis=1))]
        np.testing.assert_array_equal(x, best)
        assert value == -float(np.abs(best - target).sum())
        assert not dataset.duplicates(x)[0]


class TestSequentialBaselines:
    @pytest.mark.parametrize("kind", ["random", "sobol", "seq-lhs"])
    def test_reaches_budget_with_m_evaluations(self, kind):
        sim = ToyLog1D()
        result = baseline_run(kind, True, toy_config(budget=9, seed=4), sim)
        assert result.dataset.n_nodes == 9
        assert sim.eval_count == 9
        np.testing.assert_array_equal(result.dataset.X[:, :4], X0_1D)

    @pytest.mark.parametrize("kind", ["random", "sobol", "seq-lhs"])
    def test_full_initial_design_is_the_result(self, kind):
        # the 4 initial nodes already fill the budget: no sampler step runs
        sim = ToyLog1D()
        result = baseline_run(kind, True, toy_config(budget=4), sim)
        assert result.failure is None
        np.testing.assert_array_equal(result.dataset.X, X0_1D)
        assert result.evaluations == sim.eval_count == 4
        assert result.trace == []

    def test_sobol_after_a_sobol_initial_design_skips_the_points_it_holds(self):
        # the baseline's sampler re-emits the 4 initial points; each is skipped
        sim = ToyLog1D()
        config = toy_config(budget=9, initial_points=None, initial_sampler="sobol", initial_size=4)
        result = baseline_run("sobol", True, config, sim)
        assert result.failure is None
        assert np.unique(result.dataset.X, axis=1).shape[1] == 9
        assert result.evaluations == sim.eval_count == 9
        np.testing.assert_array_equal(result.dataset.X, sobol_sequence(1, 9, sim.bounds))

    def test_seq_lhs_adds_exactly_the_pool(self):
        config = toy_config(budget=24, seed=8)
        result = baseline_run("seq-lhs", True, config, ToyLog1D())
        added = result.dataset.X[:, 4:]
        assert added.shape[1] == 20
        # stratification of the added points over the box
        unit = (np.sort(added.ravel()) - 0.1) / 9.9
        strata = np.minimum(np.floor(unit * 20).astype(int), 19)
        assert sorted(strata) == list(range(20))

    def test_random_baseline_points_in_box(self):
        result = baseline_run("random", True, toy_config(budget=12, seed=6), ToyLog1D())
        added = result.dataset.X[:, 4:]
        assert np.all(added >= 0.1) and np.all(added <= 10.0)

    def test_seed_determinism(self):
        a = baseline_run("random", True, toy_config(budget=8, seed=3), ToyLog1D())
        b = baseline_run("random", True, toy_config(budget=8, seed=3), ToyLog1D())
        np.testing.assert_array_equal(a.dataset.X, b.dataset.X)


    def test_convergence_stop(self):
        # a huge threshold fires at the first successive-model comparison
        config = toy_config(budget=20, convergence_epsilon=100.0)
        result = baseline_run("sobol", True, config, ToyLog1D())
        assert result.converged
        assert result.dataset.n_nodes == 5  # m0 + 1
        assert result.evaluations == 5

    @pytest.mark.parametrize("nan_at", [2, 6])  # in the initial design, then at the second added node
    def test_nan_output_returns_partial_result(self, nan_at):
        result = baseline_run("random", True, toy_config(budget=8), NanSimulator(nan_at=nan_at))
        assert "non-finite" in result.failure
        assert result.evaluations == nan_at - 1


class TestWarmStartedFits:
    """A fit whose step appended a node hints its search with the previous model's bandwidths."""

    @staticmethod
    def searches(monkeypatch, call):
        """(hint, chosen bandwidths) of every hyperparameter search `call()` makes."""
        seen = []
        original = gp.select_hyperparameters

        def spying(*args, hint=None, **kwargs):
            chosen = original(*args, hint=hint, **kwargs)
            seen.append((hint, chosen[0]))
            return chosen

        monkeypatch.setattr(gp, "select_hyperparameters", spying)
        call()
        return seen

    @pytest.mark.parametrize("strategy", ["amogape", "random", "sobol", "seq-lhs", "prior-random"])
    def test_appending_steps_pass_the_previous_bandwidths(self, monkeypatch, strategy):
        config = toy_config(budget=8, seed=3, acquisition=AcquisitionSpec.from_variant("PDxPG", prior=PRIOR_1D))
        if strategy == "amogape":
            seen = self.searches(monkeypatch, lambda: run(config, ToyLog1D()))
        else:
            seen = self.searches(monkeypatch, lambda: baseline_run(strategy, True, config, ToyLog1D()))
        assert len(seen) == 5  # m = 4 to 8
        assert seen[0][0] is None
        for (_, previous), (hint, _) in zip(seen, seen[1:]):
            assert list(hint) == previous

    def test_a_one_node_model_gives_no_hint(self, monkeypatch):
        config = toy_config(budget=4, initial_points=np.array([[5.0]]))
        seen = self.searches(monkeypatch, lambda: baseline_run("random", True, config, ToyLog1D()))
        assert len(seen) == 3  # m = 2 to 4; the one-node fit does not search
        assert seen[0][0] is None and list(seen[1][0]) == seen[0][1]

    @pytest.mark.parametrize("strategy", ["grid", "lhs"])
    def test_redesigns_search_the_full_grid(self, monkeypatch, strategy):
        seen = self.searches(monkeypatch, lambda: baseline_run(strategy, False, toy_config(budget=6), ToyLog1D()))
        assert len(seen) == 5  # m = 2 to 6; the one-node fit does not search
        assert all(hint is None for hint, _ in seen)


class TestNonSequentialBaselines:
    def test_grid_rebuilds_and_costs_quadratic(self):
        sim = ToyLog1D()
        config = toy_config(budget=8)
        result = baseline_run("grid", False, config, sim)
        assert result.dataset.n_nodes == 8
        assert sim.eval_count == 8 * 9 // 2  # sum of 1..8
        assert result.evaluations == 36
        # final design is the fresh size-8 lattice, not a superset of earlier ones
        np.testing.assert_allclose(result.dataset.X.ravel(), np.linspace(0.1, 10.0, 8))

    def test_lhs_rebuilds_each_step(self):
        sizes = []
        sim = ToyLog1D()
        baseline_run("lhs", False, toy_config(budget=6, seed=2), sim,
                     iteration_hook=lambda m, _: sizes.append(m))
        assert sizes == [1, 2, 3, 4, 5, 6]
        assert sim.eval_count == 21

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            baseline_run("sobol", False, toy_config(budget=4), ToyLog1D())


class TestWriters:
    def test_lut_csv_round_trip(self, tmp_path):
        result = run(toy_config(budget=6, seed=13), ToyLog1D())
        path = tmp_path / "lut.csv"
        write_lut_csv(result.dataset, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,y1,y2"
        assert len(lines) == 7
        x, y1, y2 = (float(v) for v in lines[1].split(","))
        assert x == result.dataset.X[0, 0]
        assert y1 == result.dataset.Y[0, 0]
        assert y2 == result.dataset.Y[1, 0]

    def test_lut_csv_bitwise_reproducible(self, tmp_path):
        first = run(toy_config(budget=7, seed=99), ToyLog1D())
        second = run(toy_config(budget=7, seed=99), ToyLog1D())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lut_csv(first.dataset, a)
        write_lut_csv(second.dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_batched_search_writes_the_same_lut(self, tmp_path, monkeypatch):
        # Acceptance criterion 10's settings, m = 30 to 40.
        raw = {
            "simulator": {"kind": "fixture-9band", "dimension": 2},
            "initial_design": {"sampler": "prior-random", "size": 30},
            "budget": 40,
            "acquisition": {
                "variant": "SDxSG",
                "tempering": {"kind": "constant", "beta": 1.0},
                "prior": {"mu": [45.0, 3.5], "sigma": [30.0, 4.5], "min": [20.0, 0.0], "max": [90.0, 10.0]},
            },
            "optimizer": {"strategy": "random-then-ascent", "n_random": 100, "ascent_iterations": 60},
            "hyperparameters": {
                "strategy": "marginal-likelihood",
                "nugget": {"policy": "fixed", "value": 1e-4},
                "optimizer": {"strategy": "random-then-ascent", "n_random": 10, "ascent_iterations": 40},
            },
            "seed": 20240819,
        }
        sim_spec, config = run_config.parse_run_config(raw)
        batched = run(config, make_simulator(sim_spec))

        def per_point_maximize(objective, bounds, opt_config, value_and_gradient=None, batch_objective=None):
            assert batch_objective is not None
            return maximize(objective, bounds, opt_config, value_and_gradient=value_and_gradient)

        monkeypatch.setattr(loop, "maximize", per_point_maximize)
        per_point = run(config, make_simulator(sim_spec))
        a, b = tmp_path / "batched.csv", tmp_path / "per_point.csv"
        write_lut_csv(batched.dataset, a)
        write_lut_csv(per_point.dataset, b)
        assert batched.dataset.n_nodes == 40
        assert a.read_bytes() == b.read_bytes()
        assert [r.acquisition_value for r in batched.trace] == [r.acquisition_value for r in per_point.trace]

    def test_trace_ndjson(self, tmp_path):
        result = run(toy_config(budget=6, seed=1), ToyLog1D())
        path = tmp_path / "trace.ndjson"
        write_trace_ndjson(result.trace, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(result.trace)
        assert records[0]["iteration"] == 1
        assert records[0]["n_nodes"] == 5
