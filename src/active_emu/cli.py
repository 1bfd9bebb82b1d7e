"""Command-line interface.

  active-emu run        --config cfg.json --out DIR [--seed N]
  active-emu experiment --config cfg.json --out DIR [--seed N]
  active-emu oracle     --function log --interval 1,7.389 --nodes 5 --out nodes.csv

Exit codes: 0 success, 2 config error, 3 the run ended early: the simulator
failed, or a fit or the acquisition met a matrix beyond round-off (`run`
still writes the partial LUT and trace).  Exit 2 covers every malformed
config, the simulator block included: `run` and `experiment` parse the
whole file before they start a simulator.  Every run holds scipy's LAPACK
at one thread, so a seeded `run` writes the same LUT bit for bit at any
thread count.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .config import (
    ConfigError,
    load_json,
    parse_density_options,
    parse_experiment_config,
    parse_run_config,
)
from .loop import run as run_loop
from .loop import write_lut_csv, write_trace_ndjson
from .simulators import SimulatorError, make_simulator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN_FAILED = 3


def _cmd_run(args) -> int:
    raw = load_json(args.config)
    simulator_spec, loop_config = parse_run_config(raw, seed_override=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with make_simulator(simulator_spec) as sim:
        result = run_loop(loop_config, sim)
    if result.dataset is not None:  # None only when no node was evaluated
        write_lut_csv(result.dataset, out_dir / "lut.csv")
    write_trace_ndjson(result.trace, out_dir / "trace.ndjson")
    if result.failure is not None:
        print(f"run failed: {result.failure}", file=sys.stderr)
        return EXIT_RUN_FAILED
    status = "converged" if result.converged else "budget reached"
    print(
        f"{status}: {result.dataset.n_nodes} nodes, {result.evaluations} simulator evaluations; "
        f"wrote {out_dir / 'lut.csv'} and {out_dir / 'trace.ndjson'}"
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from .harness import (
        density_report,
        run_experiment,
        write_density_csv,
        write_failures_csv,
        write_results_csv,
    )

    raw = load_json(args.config)
    config = parse_experiment_config(raw, seed_override=args.seed)
    density_options = parse_density_options(raw)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_experiment(config)
    write_results_csv(results, out_dir / "results.csv")
    print(f"wrote {out_dir / 'results.csv'} ({len(results.rows)} rows)")
    if results.failures:
        write_failures_csv(results, out_dir / "failures.csv")
        print(f"{len(results.failures)} run(s) failed; see {out_dir / 'failures.csv'}", file=sys.stderr)
    if density_options is not None:
        for strategy, result in results.final_results.items():
            if result.dataset is None or result.dataset.dimension != 2:
                continue
            x_axis, y_axis, density = density_report(
                result, density_options["bandwidth"], density_options["grid"]
            )
            name = strategy.replace(":", "_")
            write_density_csv(x_axis, y_axis, density, out_dir / f"density_{name}.csv")
            print(f"wrote {out_dir / f'density_{name}.csv'}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .pci import MonotoneFunction1D, cinf_cost, node_density_check, optimal_nodes

    try:
        a_str, b_str = args.interval.split(",")
        a, b = float(a_str), float(b_str)
    except ValueError as exc:
        raise ConfigError(f"--interval must be 'a,b', got {args.interval!r}") from exc
    factories = {
        "log": MonotoneFunction1D.log,
        "exp": MonotoneFunction1D.exp,
        "linear": MonotoneFunction1D.linear,
    }
    if args.function not in factories:
        raise ConfigError(f"--function must be one of {sorted(factories)}, got {args.function!r}")
    try:
        fn = factories[args.function](a, b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.nodes < 1:
        raise ConfigError("--nodes must be >= 1")
    nodes = optimal_nodes(fn, args.nodes)
    cost = cinf_cost(nodes, fn)
    tv = node_density_check(fn, args.nodes, args.bins) if args.nodes >= 2 else float("nan")
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["m", "x", "fx"])
        for i, x in enumerate(nodes, start=1):
            writer.writerow([i, repr(float(x)), repr(float(fn.forward(float(x))))])
    print(f"wrote {args.out}")
    print(f"cinf_cost={cost!r}")
    print(f"density_tv={tv!r} (bins={args.bins})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="active-emu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single emulation run; writes LUT CSV and trace NDJSON")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment", help="multi-strategy comparison; writes results CSV")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_exp.set_defaults(func=_cmd_experiment)

    p_oracle = sub.add_parser("oracle", help="optimal piecewise-constant nodes for a monotone function")
    p_oracle.add_argument("--function", required=True, help="log, exp, or linear")
    p_oracle.add_argument("--interval", required=True, help="a,b")
    p_oracle.add_argument("--nodes", type=int, required=True)
    p_oracle.add_argument("--bins", type=int, default=20)
    p_oracle.add_argument("--out", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Run one command; its runs hold scipy's LAPACK at one thread, so a seeded `run` is bit for bit."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulatorError as exc:
        print(f"simulator failure: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED


if __name__ == "__main__":
    sys.exit(main())
