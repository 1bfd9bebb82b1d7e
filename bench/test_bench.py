"""The benchmark's own tests: reference evaluators against the shipped
simulators, and the percentile, interval and self-time helpers.

Run with `python -m pytest bench`; the repository's test run collects
only `tests/`.
"""

import numpy as np
import pytest

from active_emu.simulators import FixtureNineBand, ToyLog1D, ToyLog2D
from reference import FixtureReference, toy_log_1d, toy_log_2d
from run_bench import ROOT
from tracing import Span, Tracer, percentile, self_time, union_length


def _points(bounds, n, seed):
    bounds = np.asarray(bounds, dtype=float)
    rng = np.random.default_rng(seed)
    return bounds[:, :1] + rng.random((bounds.shape[0], n)) * (bounds[:, 1:] - bounds[:, :1])


@pytest.mark.parametrize("dimension", [2, 3])
def test_fixture_reference_matches_simulator(dimension):
    sim = FixtureNineBand(dimension)
    reference = FixtureReference(ROOT, dimension)
    np.testing.assert_array_equal(reference.bounds, sim.bounds)
    X = np.hstack([_points(sim.bounds, 300, dimension), sim.bounds])  # corners too
    expected = np.column_stack([sim.evaluate(x) for x in X.T])
    assert np.max(np.abs(reference(X) - expected)) <= 1e-12


@pytest.mark.parametrize("sim, reference", [(ToyLog1D(), toy_log_1d), (ToyLog2D(), toy_log_2d)])
def test_toy_references_match_simulators(sim, reference):
    X = np.hstack([_points(sim.bounds, 300, 5), sim.bounds])
    expected = np.column_stack([sim.evaluate(x) for x in X.T])
    assert np.max(np.abs(reference(X) - expected)) <= 1e-12


def test_fixture_reference_is_not_the_simulator():
    """A changed coefficient in the simulator must show against the reference."""
    sim = FixtureNineBand(2)
    weight, sharpness, offset, direction = sim._ridges[4][0]
    sim._ridges[4][0] = (weight * (1 + 1e-9), sharpness, offset, direction)
    X = _points(sim.bounds, 50, 1)
    expected = np.column_stack([sim.evaluate(x) for x in X.T])
    assert np.max(np.abs(FixtureReference(ROOT)(X) - expected)) > 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 100, 101])
@pytest.mark.parametrize("q", [0, 10, 50, 90, 100])
def test_percentile_matches_numpy(n, q):
    values = list(np.random.default_rng(n).normal(size=n))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12, abs=1e-15)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3.0)
    assert union_length([(5, 6), (0, 1)]) == pytest.approx(2.0)


def test_self_time_subtracts_covered_part_once():
    parent = Span("loop.run", 0.0, 10.0, -1)
    children = [Span("a", 1.0, 3.0, 0), Span("b", 2.0, 4.0, 0), Span("c", 6.0, 7.0, 0)]
    assert self_time(parent, children) == pytest.approx(6.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def _inner(x):
    return x + 1


def _outer(x):
    return _inner(x) * 2


def _boom():
    raise ZeroDivisionError


def test_tracer_records_nesting_failures_and_restores():
    import sys

    module = sys.modules[__name__]
    table = (
        ("outer", __name__, "_outer"),
        ("inner", __name__, "_inner"),
        ("boom", __name__, "_boom"),
        ("gone", __name__, "_no_such_function"),
        ("gone", "no_such_module_anywhere", "f"),
    )
    originals = (module._outer, module._inner, module._boom)
    tracer = Tracer(table, annotate={"outer": lambda result: result})
    with tracer:
        with tracer.span("root"):
            assert module._outer(1) == 4
            with pytest.raises(ZeroDivisionError):
                module._boom()
    assert (module._outer, module._inner, module._boom) == originals
    assert tracer.absent == [f"{__name__}._no_such_function", "no_such_module_anywhere.f"]
    names = [(s.name, s.parent, s.failed, s.info) for s in tracer.spans]
    assert names == [("root", -1, False, None), ("outer", 0, False, 4), ("inner", 1, False, None),
                     ("boom", 0, True, None)]
    assert all(s.end >= s.start for s in tracer.spans)
