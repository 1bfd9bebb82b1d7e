"""JSON config files for the CLI.

The parser converts JSON into the library's types and names the block at
fault.  The checks are the library's, as for a library caller: each type
checks its fields when built, and `loop.check_designs` the designs against
the simulator's box.  Unknown fields are rejected everywhere so that a typo
cannot silently change an experiment.  Every malformed config, the
simulator block included, raises a `ConfigError` before anything runs; the
CLI reports it with exit code 2.  An error names its block by its keys, as
in `hyperparameters.optimizer: iterations must be >= 1`.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .acquisition import AcquisitionSpec, InputPrior, TemperingSchedule, VARIANT_NAMES
from .harness import ExperimentConfig, TestSetSpec, check_density_options
from .loop import LoopConfig, check_designs
from .optimize import AnnealingConfig, AscentConfig, OptimizerConfig
from .simulators import make_simulator

# Optional JSON keys of the optimizer block -> (field, conversion) of its
# annealing and ascent settings; a key left out keeps the field's default.
_ANNEALING_KEYS = {
    "iterations": ("iterations", int),
    "cooling": ("cooling", float),
    "proposal_scale": ("proposal_fraction", float),
    "initial_temperature": ("initial_temperature", lambda value: None if value is None else float(value)),
}
_ASCENT_KEYS = {
    "ascent_step": ("initial_step_fraction", float),
    "ascent_iterations": ("max_iterations", int),
    "gradient_tolerance": ("gradient_tolerance", float),
}
# Top-level keys both commands read, through `_parse_shared`.
_SHARED_KEYS = {"seed", "simulator", "initial_design", "acquisition", "optimizer", "hyperparameters"}


class ConfigError(ValueError):
    """A config file is malformed or contains unknown fields.

    `block` is the dotted key path of the block at fault, where known; the
    message then starts with it.
    """

    def __init__(self, message: str, block: str | None = None):
        super().__init__(message if block is None else f"{block}: {message}")
        self.block = block
        self.detail = message


def _as_config_error(exc: Exception, block: str | None = None) -> ConfigError:
    """A ValueError, KeyError or TypeError of a parse as a ConfigError, inside `block` if given.

    A ConfigError of a block inside `block` keeps its message under the joined key path.
    """
    if isinstance(exc, ConfigError):
        return ConfigError(exc.detail, block if exc.block is None else f"{block}.{exc.block}")
    if isinstance(exc, KeyError):
        return ConfigError(f"missing field {exc}", block)
    return ConfigError(str(exc), block)


def _config_errors(parse):
    """Report every ValueError, KeyError or TypeError raised by `parse` as a ConfigError."""

    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise _as_config_error(exc) from exc

    return wrapper


def _parse_block(raw: dict, key: str, parse, *args):
    """`parse(raw[key], *args)`, with None for a missing key; an error it raises names the block."""
    try:
        return parse(raw.get(key), *args)
    except (ValueError, KeyError, TypeError) as exc:
        raise _as_config_error(exc, key) from exc


def _require_keys(mapping: dict, allowed: set, required=(), block: str | None = None) -> None:
    """Check a block's keys; inside `_parse_block` the block is named by the caller."""
    if not isinstance(mapping, dict):
        raise ConfigError("must be a JSON object", block)
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}", block)
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing field '{key}'", block)


def _parse_tempering(raw) -> TemperingSchedule:
    raw = {"kind": "one-minus-inverse-t"} if raw is None else raw
    _require_keys(raw, {"kind", "beta", "gamma"})
    return TemperingSchedule(raw.get("kind"), float(raw.get("beta", 1.0)), float(raw.get("gamma", 1.0)))


def _parse_prior(raw) -> InputPrior | None:
    if raw is None:
        return None
    _require_keys(raw, {"mu", "sigma", "min", "max"}, required=("mu", "sigma", "min", "max"))
    return InputPrior(mu=raw["mu"], sigma=raw["sigma"], low=raw["min"], high=raw["max"])


def _fields(raw: dict, keys: dict) -> dict:
    return {name: convert(raw[key]) for key, (name, convert) in keys.items() if key in raw}


def _parse_optimizer(raw, default_strategy="random-then-ascent") -> OptimizerConfig:
    if raw is None:
        return OptimizerConfig(strategy=default_strategy)
    _require_keys(raw, {"strategy", "n_random", *_ANNEALING_KEYS, *_ASCENT_KEYS})
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
    _require_keys(raw, {"policy", "value"})
    policy = raw.get("policy")
    if policy == "learned":
        return "learned"
    if policy == "fixed":
        return float(raw.get("value", 0.0))
    raise ConfigError(f"policy must be 'fixed' or 'learned', got {policy!r}")


def _parse_hyper(raw) -> dict:
    """The `hyperparameters` block: strategy, nugget and optimizer.

    `optimizer` drives the learned nugget's 2-D search only.  A fixed
    nugget's marginal-likelihood search is one deterministic grid pass
    refined by Brent's method, and max-stable-bandwidth a grid walk; the key is
    still accepted, and ignored, with those.
    """
    raw = {} if raw is None else raw
    _require_keys(raw, {"strategy", "nugget", "optimizer"})
    return {
        "hyper_strategy": raw.get("strategy", "marginal-likelihood"),
        "nugget_policy": _parse_block(raw, "nugget", _parse_nugget),
        "hyper_optimizer": _parse_block(raw, "optimizer", _parse_hyper_optimizer),
    }


def _parse_hyper_optimizer(raw) -> OptimizerConfig | None:
    return None if raw is None else _parse_optimizer(raw, default_strategy="simulated-annealing")


def _parse_simulator_spec(raw) -> tuple[dict, np.ndarray]:
    """The simulator spec, checked by building the simulator, and the simulator's box.

    An external simulator starts its child only on its first evaluation.
    """
    _require_keys(raw, {"kind", "dimension", "outputs", "bounds", "command", "timeout"}, required=("kind",))
    with make_simulator(raw) as sim:
        return raw, sim.bounds


def _parse_initial_design(raw) -> dict:
    """The initial design: given points, rows in JSON and columns here, or a sampler and a size."""
    _require_keys(raw, {"points", "sampler", "size"})
    if "points" in raw:
        points = np.asarray(raw["points"], dtype=float)
        if points.ndim != 2:
            raise ConfigError("points must be a list of points")
        return {"initial_points": points.T.copy(), "initial_sampler": None, "initial_size": None}
    sampler = raw.get("sampler")
    size = raw.get("size")
    if sampler is None or size is None:
        raise ConfigError("needs either 'points' or 'sampler' plus 'size'")
    return {"initial_points": None, "initial_sampler": str(sampler), "initial_size": int(size)}


def _parse_acquisition(raw) -> dict:
    """Acquisition settings; the variant is resolved by the caller."""
    raw = {} if raw is None else raw
    _require_keys(raw, {"variant", "tempering", "prior", "strict_zero_at_nodes"})
    variant = raw.get("variant")
    if variant is not None and variant not in VARIANT_NAMES:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANT_NAMES}")
    return {
        "variant": variant,
        "tempering": _parse_block(raw, "tempering", _parse_tempering),
        "prior": _parse_block(raw, "prior", _parse_prior),
        "strict_zero_at_nodes": bool(raw.get("strict_zero_at_nodes", True)),
    }


def _parse_shared(raw: dict, seed_override: int | None) -> tuple[np.ndarray, dict]:
    """The simulator's box, and the blocks both commands share as keyword arguments.

    The keywords are `simulator`, the acquisition's keys and the
    `loop.RunSettings` fields but `budget`, which each command reads itself;
    `ExperimentConfig` takes all but `variant` under the same names.  Each
    block is parsed by `_parse_block`, so an error names its block.
    """
    simulator, bounds = _parse_block(raw, "simulator", _parse_simulator_spec)
    return bounds, {
        "simulator": simulator,
        **_parse_block(raw, "initial_design", _parse_initial_design),
        **_parse_block(raw, "acquisition", _parse_acquisition),
        "optimizer": _parse_block(raw, "optimizer", _parse_optimizer),
        **_parse_block(raw, "hyperparameters", _parse_hyper),
        "seed": _parse_block(raw, "seed", _parse_seed, seed_override),
    }


def _parse_seed(raw, seed_override: int | None) -> int:
    return int(0 if raw is None else raw) if seed_override is None else int(seed_override)


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
    _require_keys(raw, _SHARED_KEYS | {"budget", "convergence"},
                  required=("simulator", "initial_design", "budget"), block="run config")
    bounds, shared = _parse_shared(raw, seed_override)
    simulator = shared.pop("simulator")
    spec = AcquisitionSpec.from_variant(
        shared.pop("variant") or "PDxPG",
        **{key: shared.pop(key) for key in ("tempering", "prior", "strict_zero_at_nodes")},
    )
    convergence = _parse_block(raw, "convergence", _parse_convergence)
    budget = _parse_block(raw, "budget", int)
    return simulator, check_designs(LoopConfig(budget=budget, acquisition=spec, **convergence, **shared), bounds)


def _parse_convergence(raw) -> dict:
    if raw is None:
        return {}
    _require_keys(raw, {"epsilon", "probe_points"}, required=("epsilon",))
    return {
        "convergence_epsilon": float(raw["epsilon"]),
        "convergence_probes": int(raw.get("probe_points", 1000)),
    }


@_config_errors
def parse_experiment_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    _require_keys(raw, _SHARED_KEYS | {"strategies", "n_add", "runs", "test_set", "density"},
                  required=("simulator", "strategies", "initial_design", "n_add", "runs", "test_set"),
                  block="experiment config")
    strategies = raw["strategies"]
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("must be a non-empty list", "strategies")
    _, shared = _parse_shared(raw, seed_override)
    del shared["variant"]  # each AMOGAPE strategy names its own
    initial_points = shared["initial_points"]
    m0 = initial_points.shape[1] if initial_points is not None else shared["initial_size"]
    return ExperimentConfig(
        strategies=tuple(strategies),
        budget=m0 + _parse_block(raw, "n_add", _parse_n_add),
        runs=_parse_block(raw, "runs", int),
        test_set=_parse_block(raw, "test_set", _parse_test_set),
        **shared,
    )


def _parse_n_add(raw) -> int:
    n_add = int(raw)
    if n_add < 0:
        raise ConfigError(f"must be >= 0, got {n_add}")
    return n_add


def _parse_test_set(raw) -> TestSetSpec:
    _require_keys(raw, {"kind", "step", "size"})
    return TestSetSpec(**{"kind": "grid", **raw})


@_config_errors
def parse_density_options(raw: dict) -> dict | None:
    return _parse_block(raw, "density", _parse_density)


def _parse_density(raw) -> dict | None:
    if raw is None:
        return None
    _require_keys(raw, {"bandwidth", "grid"})
    options = {"bandwidth": float(raw["bandwidth"]), "grid": int(raw.get("grid", 40))}
    check_density_options(options["bandwidth"], options["grid"])
    return options
