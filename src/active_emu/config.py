"""JSON config files for the CLI.

Unknown fields are rejected everywhere so that a typo cannot silently
change an experiment.  Every malformed config, the simulator block
included, raises a `ConfigError` before anything runs; the CLI reports it
with exit code 2.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .acquisition import AcquisitionSpec, InputPrior, TemperingSchedule, VARIANT_NAMES
from .harness import ExperimentConfig, TestSetSpec
from .loop import LoopConfig
from .optimize import AnnealingConfig, AscentConfig, OptimizerConfig
from .simulators import make_simulator

# Optional JSON keys of the optimizer block -> (field, conversion) of its
# annealing and ascent settings; a key left out keeps the field's default.
_ANNEALING_KEYS = {
    "iterations": ("iterations", int),
    "cooling": ("cooling", float),
    "proposal_scale": ("proposal_fraction", float),
    "initial_temperature": ("initial_temperature", lambda value: value),
}
_ASCENT_KEYS = {
    "ascent_step": ("initial_step_fraction", float),
    "ascent_iterations": ("max_iterations", int),
    "gradient_tolerance": ("gradient_tolerance", float),
}
# Top-level keys both commands read, through `_parse_shared`.
_SHARED_KEYS = {"seed", "simulator", "initial_design", "acquisition", "optimizer", "hyperparameters"}


class ConfigError(ValueError):
    """A config file is malformed or contains unknown fields."""


def _config_errors(parse):
    """Report every ValueError, KeyError or TypeError raised by `parse` as a ConfigError."""

    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"missing field {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    return wrapper


def _require_keys(mapping: dict, allowed: set, context: str, required=()) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {context}: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"{context} needs '{key}'")


def _parse_tempering(raw) -> TemperingSchedule:
    if raw is None:
        return TemperingSchedule.one_minus_inverse_t()
    _require_keys(raw, {"kind", "beta", "gamma"}, "tempering")
    kind = raw.get("kind")
    if kind == "constant":
        return TemperingSchedule.constant(float(raw.get("beta", 1.0)))
    if kind == "one-minus-inverse-t":
        return TemperingSchedule.one_minus_inverse_t()
    if kind == "one-minus-exp":
        return TemperingSchedule.one_minus_exp(float(raw.get("gamma", 1.0)))
    raise ConfigError(f"unknown tempering kind: {kind!r}")


def _parse_prior(raw) -> InputPrior | None:
    if raw is None:
        return None
    _require_keys(raw, {"mu", "sigma", "min", "max"}, "prior", required=("mu", "sigma", "min", "max"))
    return InputPrior(mu=raw["mu"], sigma=raw["sigma"], low=raw["min"], high=raw["max"])


def _fields(raw: dict, keys: dict) -> dict:
    return {name: convert(raw[key]) for key, (name, convert) in keys.items() if key in raw}


def _parse_optimizer(raw, default_strategy="random-then-ascent") -> OptimizerConfig:
    if raw is None:
        return OptimizerConfig(strategy=default_strategy)
    _require_keys(raw, {"strategy", "n_random", *_ANNEALING_KEYS, *_ASCENT_KEYS}, "optimizer")
    n_random = raw.get("n_random")
    return OptimizerConfig(
        strategy=raw.get("strategy", default_strategy),
        n_random=None if n_random is None else int(n_random),
        ascent=AscentConfig(**_fields(raw, _ASCENT_KEYS)),
        annealing=AnnealingConfig(**_fields(raw, _ANNEALING_KEYS)),
    )


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


def _parse_hyper(raw) -> dict:
    """The `hyperparameters` block: strategy, nugget and optimizer.

    `optimizer` drives the learned nugget's 2-D search only.  A fixed
    nugget's marginal-likelihood search is one deterministic grid and
    golden-section pass, and max-stable-bandwidth a grid walk; the key is
    still accepted, and ignored, with those.
    """
    raw = {} if raw is None else raw
    _require_keys(raw, {"strategy", "nugget", "optimizer"}, "hyperparameters")
    optimizer = None
    if raw.get("optimizer") is not None:
        optimizer = _parse_optimizer(raw["optimizer"], default_strategy="simulated-annealing")
    return {
        "hyper_strategy": raw.get("strategy", "marginal-likelihood"),
        "nugget_policy": _parse_nugget(raw.get("nugget")),
        "hyper_optimizer": optimizer,
    }


def _parse_simulator_spec(raw) -> dict:
    _require_keys(
        raw, {"kind", "dimension", "outputs", "bounds", "command", "timeout"}, "simulator", required=("kind",)
    )
    make_simulator(raw).close()  # checks the spec; an external child starts only on its first evaluation
    return raw


def _parse_initial_design(raw) -> dict:
    _require_keys(raw, {"points", "sampler", "size"}, "initial_design")
    if "points" in raw:
        points = np.asarray(raw["points"], dtype=float)
        if points.ndim != 2:
            raise ConfigError("initial_design.points must be a list of points")
        # rows in JSON, columns internally
        return {"initial_points": points.T.copy(), "initial_sampler": None, "initial_size": None}
    sampler = raw.get("sampler")
    size = raw.get("size")
    if sampler is None or size is None:
        raise ConfigError("initial_design needs either 'points' or 'sampler' plus 'size'")
    return {"initial_points": None, "initial_sampler": str(sampler), "initial_size": int(size)}


def _parse_acquisition(raw) -> dict:
    """Acquisition settings; the variant is resolved by the caller."""
    raw = {} if raw is None else raw
    _require_keys(raw, {"variant", "tempering", "prior", "strict_zero_at_nodes"}, "acquisition")
    variant = raw.get("variant")
    if variant is not None and variant not in VARIANT_NAMES:
        raise ConfigError(f"unknown acquisition variant {variant!r}; expected one of {VARIANT_NAMES}")
    return {
        "variant": variant,
        "tempering": _parse_tempering(raw.get("tempering")),
        "prior": _parse_prior(raw.get("prior")),
        "strict_zero_at_nodes": bool(raw.get("strict_zero_at_nodes", True)),
    }


def _parse_shared(raw: dict, seed_override: int | None) -> dict:
    """The blocks both commands share, as keyword arguments.

    Every key but the acquisition's `variant` is a field `ExperimentConfig`
    takes under the same name.  For a run, the acquisition's keys make the
    `AcquisitionSpec` and the rest, but `simulator`, are `LoopConfig` fields.
    """
    return {
        "simulator": _parse_simulator_spec(raw["simulator"]),
        **_parse_initial_design(raw["initial_design"]),
        **_parse_acquisition(raw.get("acquisition")),
        "optimizer": _parse_optimizer(raw.get("optimizer")),
        **_parse_hyper(raw.get("hyperparameters")),
        "seed": int(raw.get("seed", 0)) if seed_override is None else int(seed_override),
    }


def load_json(path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


@_config_errors
def parse_run_config(raw: dict, seed_override: int | None = None) -> tuple[dict, LoopConfig]:
    """Returns (simulator_spec, LoopConfig) for `active-emu run`."""
    _require_keys(raw, _SHARED_KEYS | {"budget", "convergence"}, "run config",
                  required=("simulator", "initial_design", "budget"))
    shared = _parse_shared(raw, seed_override)
    simulator = shared.pop("simulator")
    spec = AcquisitionSpec.from_variant(
        shared.pop("variant") or "PDxPG",
        **{key: shared.pop(key) for key in ("tempering", "prior", "strict_zero_at_nodes")},
    )
    convergence = {}
    if raw.get("convergence") is not None:
        _require_keys(raw["convergence"], {"epsilon", "probe_points"}, "convergence", required=("epsilon",))
        convergence["convergence_epsilon"] = float(raw["convergence"]["epsilon"])
        convergence["convergence_probes"] = int(raw["convergence"].get("probe_points", 1000))
    return simulator, LoopConfig(budget=int(raw["budget"]), acquisition=spec, **convergence, **shared)


@_config_errors
def parse_experiment_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    _require_keys(raw, _SHARED_KEYS | {"strategies", "n_add", "runs", "test_set", "density"},
                  "experiment config",
                  required=("simulator", "strategies", "initial_design", "n_add", "runs", "test_set"))
    strategies = raw["strategies"]
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("strategies must be a non-empty list")
    shared = _parse_shared(raw, seed_override)
    del shared["variant"]  # each AMOGAPE strategy names its own
    initial_points = shared["initial_points"]
    m0 = initial_points.shape[1] if initial_points is not None else shared["initial_size"]
    _require_keys(raw["test_set"], {"kind", "step", "size"}, "test_set")
    return ExperimentConfig(
        strategies=tuple(strategies),
        budget=m0 + int(raw["n_add"]),
        runs=int(raw["runs"]),
        test_set=TestSetSpec(**{"kind": "grid", **raw["test_set"]}),
        **shared,
    )


@_config_errors
def parse_density_options(raw: dict) -> dict | None:
    if raw.get("density") is None:
        return None
    _require_keys(raw["density"], {"bandwidth", "grid"}, "density")
    return {
        "bandwidth": float(raw["density"]["bandwidth"]),
        "grid": int(raw["density"].get("grid", 40)),
    }
