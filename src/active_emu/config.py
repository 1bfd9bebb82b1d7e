"""JSON config files for the CLI.

Unknown fields are rejected everywhere so that a typo cannot silently
change an experiment.
"""

from __future__ import annotations

import json

import numpy as np

from .acquisition import AcquisitionSpec, InputPrior, TemperingSchedule, VARIANT_NAMES
from .harness import ExperimentConfig, TestSetSpec
from .loop import LoopConfig
from .optimize import AnnealingConfig, AscentConfig, OptimizerConfig


class ConfigError(ValueError):
    """A config file is malformed or contains unknown fields."""


def _require_keys(mapping: dict, allowed: set, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {context}: {', '.join(sorted(unknown))}")


def _parse_tempering(raw) -> TemperingSchedule:
    if raw is None:
        return TemperingSchedule.one_minus_inverse_t()
    _require_keys(raw, {"kind", "beta", "gamma"}, "tempering")
    kind = raw.get("kind")
    try:
        if kind == "constant":
            return TemperingSchedule.constant(float(raw.get("beta", 1.0)))
        if kind == "one-minus-inverse-t":
            return TemperingSchedule.one_minus_inverse_t()
        if kind == "one-minus-exp":
            return TemperingSchedule.one_minus_exp(float(raw.get("gamma", 1.0)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown tempering kind: {kind!r}")


def _parse_prior(raw) -> InputPrior | None:
    if raw is None:
        return None
    _require_keys(raw, {"mu", "sigma", "min", "max"}, "prior")
    try:
        return InputPrior(mu=raw["mu"], sigma=raw["sigma"], low=raw["min"], high=raw["max"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid prior: {exc}") from exc


def _parse_optimizer(raw, default_strategy="random-then-ascent") -> OptimizerConfig:
    if raw is None:
        return OptimizerConfig(strategy=default_strategy)
    _require_keys(
        raw,
        {
            "strategy",
            "n_random",
            "iterations",
            "cooling",
            "proposal_scale",
            "initial_temperature",
            "ascent_step",
            "ascent_iterations",
            "gradient_tolerance",
        },
        "optimizer",
    )
    strategy = raw.get("strategy", default_strategy)
    annealing = AnnealingConfig(
        iterations=int(raw.get("iterations", 2000)),
        cooling=float(raw.get("cooling", 0.995)),
        proposal_fraction=float(raw.get("proposal_scale", 0.1)),
        initial_temperature=raw.get("initial_temperature"),
    )
    ascent = AscentConfig(
        initial_step_fraction=float(raw.get("ascent_step", 0.1)),
        max_iterations=int(raw.get("ascent_iterations", 200)),
        gradient_tolerance=float(raw.get("gradient_tolerance", 1e-8)),
    )
    n_random = raw.get("n_random")
    try:
        return OptimizerConfig(
            strategy=strategy,
            n_random=None if n_random is None else int(n_random),
            ascent=ascent,
            annealing=annealing,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_nugget(raw) -> float | str:
    if raw is None:
        return 0.0
    _require_keys(raw, {"policy", "value"}, "nugget")
    policy = raw.get("policy")
    if policy == "learned":
        return "learned"
    if policy == "fixed":
        return float(raw.get("value", 0.0))
    raise ConfigError(f"nugget policy must be 'fixed' or 'learned', got {policy!r}")


def _parse_hyper(raw) -> tuple[str, float | str, OptimizerConfig | None]:
    """The `hyperparameters` block: strategy, nugget and optimizer.

    `optimizer` drives the learned nugget's 2-D search only.  A fixed
    nugget's marginal-likelihood search is one deterministic grid and
    golden-section pass, and max-stable-bandwidth a grid walk; the key is
    still accepted, and ignored, with those.
    """
    if raw is None:
        return "marginal-likelihood", 0.0, None
    _require_keys(raw, {"strategy", "nugget", "optimizer"}, "hyperparameters")
    strategy = raw.get("strategy", "marginal-likelihood")
    nugget = _parse_nugget(raw.get("nugget"))
    optimizer = None
    if raw.get("optimizer") is not None:
        optimizer = _parse_optimizer(raw["optimizer"], default_strategy="simulated-annealing")
    return strategy, nugget, optimizer


def _parse_simulator_spec(raw) -> dict:
    _require_keys(raw, {"kind", "dimension", "outputs", "bounds", "command", "timeout"}, "simulator")
    if "kind" not in raw:
        raise ConfigError("simulator needs a 'kind'")
    return raw


def _parse_initial_design(raw) -> tuple[np.ndarray | None, str | None, int | None]:
    _require_keys(raw, {"points", "sampler", "size"}, "initial_design")
    if "points" in raw:
        points = np.asarray(raw["points"], dtype=float)
        if points.ndim != 2:
            raise ConfigError("initial_design.points must be a list of points")
        return points.T.copy(), None, None  # rows in JSON, columns internally
    sampler = raw.get("sampler")
    size = raw.get("size")
    if sampler is None or size is None:
        raise ConfigError("initial_design needs either 'points' or 'sampler' plus 'size'")
    return None, str(sampler), int(size)


def _parse_acquisition(raw) -> dict:
    """Shared acquisition settings; the variant is resolved by the caller."""
    if raw is None:
        return {"variant": None, "tempering": TemperingSchedule.one_minus_inverse_t(), "prior": None, "strict": True}
    _require_keys(raw, {"variant", "tempering", "prior", "strict_zero_at_nodes"}, "acquisition")
    variant = raw.get("variant")
    if variant is not None and variant not in VARIANT_NAMES:
        raise ConfigError(f"unknown acquisition variant {variant!r}; expected one of {VARIANT_NAMES}")
    return {
        "variant": variant,
        "tempering": _parse_tempering(raw.get("tempering")),
        "prior": _parse_prior(raw.get("prior")),
        "strict": bool(raw.get("strict_zero_at_nodes", True)),
    }


def load_json(path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


def parse_run_config(raw: dict, seed_override: int | None = None) -> tuple[dict, LoopConfig]:
    """Returns (simulator_spec, LoopConfig) for `active-emu run`."""
    _require_keys(
        raw,
        {
            "seed",
            "simulator",
            "initial_design",
            "budget",
            "acquisition",
            "optimizer",
            "hyperparameters",
            "convergence",
        },
        "run config",
    )
    for required in ("simulator", "initial_design", "budget"):
        if required not in raw:
            raise ConfigError(f"run config needs '{required}'")
    simulator = _parse_simulator_spec(raw["simulator"])
    initial_points, initial_sampler, initial_size = _parse_initial_design(raw["initial_design"])
    acq = _parse_acquisition(raw.get("acquisition"))
    variant = acq["variant"] or "PDxPG"
    spec = AcquisitionSpec.from_variant(
        variant, tempering=acq["tempering"], prior=acq["prior"], strict_zero_at_nodes=acq["strict"]
    )
    hyper_strategy, nugget, hyper_optimizer = _parse_hyper(raw.get("hyperparameters"))
    convergence_epsilon = None
    convergence_probes = 1000
    if raw.get("convergence") is not None:
        _require_keys(raw["convergence"], {"epsilon", "probe_points"}, "convergence")
        convergence_epsilon = float(raw["convergence"]["epsilon"])
        convergence_probes = int(raw["convergence"].get("probe_points", 1000))
    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)
    try:
        loop_config = LoopConfig(
            budget=int(raw["budget"]),
            acquisition=spec,
            optimizer=_parse_optimizer(raw.get("optimizer")),
            hyper_strategy=hyper_strategy,
            nugget_policy=nugget,
            hyper_optimizer=hyper_optimizer,
            initial_points=initial_points,
            initial_sampler=initial_sampler,
            initial_size=initial_size,
            convergence_epsilon=convergence_epsilon,
            convergence_probes=convergence_probes,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return simulator, loop_config


def parse_experiment_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    _require_keys(
        raw,
        {
            "seed",
            "simulator",
            "strategies",
            "initial_design",
            "n_add",
            "runs",
            "test_set",
            "acquisition",
            "optimizer",
            "hyperparameters",
            "density",
        },
        "experiment config",
    )
    for required in ("simulator", "strategies", "initial_design", "n_add", "runs", "test_set"):
        if required not in raw:
            raise ConfigError(f"experiment config needs '{required}'")
    simulator = _parse_simulator_spec(raw["simulator"])
    strategies = raw["strategies"]
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("strategies must be a non-empty list")
    initial_points, initial_sampler, initial_size = _parse_initial_design(raw["initial_design"])
    m0 = initial_points.shape[1] if initial_points is not None else int(initial_size)
    test_raw = raw["test_set"]
    _require_keys(test_raw, {"kind", "step", "size"}, "test_set")
    test_set = TestSetSpec(
        kind=test_raw.get("kind", "grid"),
        step=test_raw.get("step"),
        size=test_raw.get("size"),
    )
    acq = _parse_acquisition(raw.get("acquisition"))
    hyper_strategy, nugget, hyper_optimizer = _parse_hyper(raw.get("hyperparameters"))
    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)
    try:
        return ExperimentConfig(
            simulator=simulator,
            strategies=tuple(strategies),
            budget=m0 + int(raw["n_add"]),
            runs=int(raw["runs"]),
            test_set=test_set,
            initial_points=initial_points,
            initial_sampler=initial_sampler,
            initial_size=initial_size,
            tempering=acq["tempering"],
            prior=acq["prior"],
            strict_zero_at_nodes=acq["strict"],
            optimizer=_parse_optimizer(raw.get("optimizer")),
            hyper_strategy=hyper_strategy,
            nugget_policy=nugget,
            hyper_optimizer=hyper_optimizer,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_density_options(raw: dict) -> dict | None:
    if raw.get("density") is None:
        return None
    _require_keys(raw["density"], {"bandwidth", "grid"}, "density")
    return {
        "bandwidth": float(raw["density"]["bandwidth"]),
        "grid": int(raw["density"].get("grid", 40)),
    }
