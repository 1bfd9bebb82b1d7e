"""Benchmark of active_emu: one workload per invocation, or all of them.

    python3 bench/run_bench.py --workload fixture9-amogape [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run_bench.py --workload all

Run from the root of a checkout; the program is imported from `src/` of
that checkout.  The run repeats its workload's seeded round until at least
`--seconds` of rounds have been measured, checks every round against the
benchmark's own references, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The traced run
times one untraced round and then one traced round, so that the tracing
overhead is their difference.  The full record, with the environment stamp,
goes to `bench/out/`.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is measured in this process and in SETUP_CHILDREN fresh ones; the
# median of the three is reported.
SETUP_CHILDREN = 2
DEFAULT_SEEDS = {"fixture9-amogape": 20240819, "fixture9-prior-random": 20240819, "toy1d-compare": 20240817}

# The loop's phases, by the spans that are direct children of a run span.
PHASES = {
    "loop.fit_s": ("multi_output.fit_all",),
    "loop.acquire_s": ("optimize.maximize_acq", "samplers.next_point", "samplers.design"),
    "loop.simulate_s": ("simulators.evaluate",),
}
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Put the checkout's `src/` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "active_emu" / "__init__.py").is_file():
        sys.exit(f"run_bench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import active_emu

    if not Path(active_emu.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"run_bench: active_emu was imported from {active_emu.__file__}, not {src}")


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measure rounds until this much time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None and args.workload != "all":
        args.seed = DEFAULT_SEEDS[args.workload]
    return args


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics by name."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit code {done.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return status


def child_setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes, each importing and building everything anew."""
    times = []
    for _ in range(SETUP_CHILDREN):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this machine, summed over CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def blas_threads_detected() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from `.git` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment_stamp() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "blas_threads_detected": blas_threads_detected(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round, from its spans."""
    from tracing import self_time

    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    def seconds(*names):
        return sum(s.end - s.start for name in names for s in by_name[name])

    metrics = {name: 0.0 for name in PHASES}
    metrics["loop.self_s"] = 0.0
    runs = [i for i, s in enumerate(spans) if s.name == "loop.run"]
    acquiring_iterations = 0
    phase_names = {n for names in PHASES.values() for n in names}
    for index in runs:
        kids = children[index]
        for metric, names in PHASES.items():
            metrics[metric] += sum(c.end - c.start for c in kids if c.name in names)
        metrics["loop.self_s"] += self_time(spans[index], [c for c in kids if c.name in phase_names])
        if any(c.name == "optimize.maximize_acq" for c in kids):
            acquiring_iterations += spans[index].info or 0
    metrics["loop.iterations"] = sum(spans[i].info or 0 for i in runs)

    cholesky = by_name["gp.cho_factor"]
    acq_calls = len(by_name["optimize.maximize_acq"])
    metrics.update({
        "gp.select_hyperparameters.calls": len(by_name["gp.select_hyperparameters"]),
        "gp.select_hyperparameters.s": seconds("gp.select_hyperparameters"),
        "gp.fit.s": seconds("gp.fit"),
        "gp.cho_factor.calls": len(cholesky),
        "gp.cho_factor.us": 1e6 * seconds("gp.cho_factor") / len(cholesky) if cholesky else 0.0,
        "gp.cho_factor.failed": sum(s.failed for s in cholesky),
        "multi_output.fit_all.s": seconds("multi_output.fit_all"),
        "multi_output.predict_mean_matrix.calls": len(by_name["multi_output.predict_mean_matrix"]),
        "multi_output.predict_mean_matrix.s": seconds("multi_output.predict_mean_matrix"),
        "acquisition.value.calls": len(by_name["acquisition.value"]),
        "acquisition.gradient.calls": len(by_name["acquisition.gradient"]),
        "optimize.maximize_acq.calls": acq_calls,
        "optimize.maximize_acq.s": seconds("optimize.maximize_acq"),
        "optimize.maximize_acq.useful_ratio": acquiring_iterations / acq_calls if acq_calls else 0.0,
        "optimize.maximize_hyper.calls": len(by_name["optimize.maximize_hyper"]),
        "optimize.maximize_hyper.s": seconds("optimize.maximize_hyper"),
        "simulators.evaluate.calls": len(by_name["simulators.evaluate"]),
        "simulators.evaluate.s": seconds("simulators.evaluate"),
        "samplers.s": seconds("samplers.next_point", "samplers.design"),
        "harness.rmse_hook.s": seconds("harness.rmse_hook"),
    })
    return metrics


def metric_units() -> dict:
    """Unit of every metric, as declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def main(argv=None) -> int:
    import_program()
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    from tracing import Tracer, percentile
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    setup_layers = workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    load_before, steal_before = loadavg(), steal_seconds()
    setup_times = [setup_s] + child_setup_seconds(args)
    checks = Checks()
    rounds = []
    measured = 0.0
    while not rounds or (not args.trace and measured < args.seconds):
        outcome = workload.round()
        workload.check(checks, outcome)
        rounds.append(outcome)
        measured += outcome["wall_s"]

    walls = [r["wall_s"] for r in rounds]

    tracer = None
    if args.trace:
        tracer = Tracer(annotate={"loop.run": lambda result: len(result.trace)})
        with tracer:
            traced = workload.round(tracer)
        workload.check(checks, traced)
        rounds.append(traced)

    attempted = workload.operations_per_round * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    if tracer is None:
        gaps = [g for r in rounds for g in r["gaps_ms"]]
        metrics = {
            "setup_s": percentile(setup_times, 50),
            "wall_s": percentile(walls, 50),
            "iter_ms_p50": percentile(gaps, 50),
            "iter_ms_p90": percentile(gaps, 90),
            "rmse": workload.accuracy(rounds[0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = layer_metrics(tracer.spans)
        metrics.update(setup_layers)
        metrics.update(workload.probe(traced))
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - walls[0]
    units = metric_units()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": {
            **environment_stamp(),
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
            "cpu_steal_s": None if steal_before is None else steal_seconds() - steal_before,
        },
        "setup_times_s": setup_times,
        "round_walls_s": [r["wall_s"] for r in rounds],
        "rmse_by_strategy": rounds[0].get("final"),
        "checks": {"count": checks.count, "failures": checks.failures},
        "absent": tracer.absent if tracer else [],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.ndjson.gz")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps({
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
