"""Built-in simulators and the external NDJSON stdio bridge."""

import json
import sys

import numpy as np
import pytest

from active_emu.simulators import (
    STDERR_TAIL_BYTES,
    ExternalSimulator,
    FixtureNineBand,
    SimulatorError,
    SimulatorProtocolError,
    ToyLog1D,
    ToyLog2D,
    make_simulator,
)

ECHO_TOY_1D = """
import json, math, sys
for line in sys.stdin:
    req = json.loads(line)
    x = req["x"][0]
    resp = {"id": req["id"], "y": [math.log(x), 0.5 * math.log(3 * x)]}
    print(json.dumps(resp), flush=True)
"""

BAD_ID_CHILD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": -1, "y": [0.0, 0.0]}), flush=True)
"""

GARBAGE_CHILD = """
import sys
for line in sys.stdin:
    print("not json", flush=True)
"""

SILENT_CHILD = """
import sys, time
for line in sys.stdin:
    time.sleep(60)
"""


def _external(child_source, **kwargs):
    defaults = dict(
        command=[sys.executable, "-c", child_source],
        dimension=1,
        n_outputs=2,
        bounds=[[0.1, 10.0]],
        timeout=10.0,
    )
    defaults.update(kwargs)
    return ExternalSimulator(**defaults)


class TestToySimulators:
    def test_toy_1d_values(self):
        sim = ToyLog1D()
        np.testing.assert_allclose(sim.evaluate([1.0]), [0.0, 0.5 * np.log(3.0)], atol=1e-12)
        assert sim.evaluate([1.0])[1] == pytest.approx(0.549306, abs=1e-6)

    def test_toy_2d_values(self):
        sim = ToyLog2D()
        np.testing.assert_allclose(
            sim.evaluate([3.0, 4.0]), [np.log(5.0), 0.5 * np.log(15.0)], atol=1e-12
        )
        np.testing.assert_allclose(sim.evaluate([3.0, 4.0]), [1.609438, 1.354025], atol=1e-6)

    def test_deterministic_bitwise(self):
        for sim in (ToyLog1D(), FixtureNineBand(2)):
            x = np.full(sim.dimension, 0.7) * sim.bounds[:, 1]
            x = np.clip(x, sim.bounds[:, 0], sim.bounds[:, 1])
            first = sim.evaluate(x)
            second = sim.evaluate(x)
            np.testing.assert_array_equal(first, second)

    def test_out_of_bounds_rejected(self):
        sim = ToyLog1D()
        with pytest.raises(ValueError):
            sim.evaluate([0.0])
        with pytest.raises(ValueError):
            sim.evaluate([11.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ToyLog2D().evaluate([1.0])

    def test_eval_counter(self):
        sim = ToyLog1D()
        for i in range(5):
            sim.evaluate([1.0 + i])
        assert sim.eval_count == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_rejected_and_not_counted(self, bad):
        class Broken(ToyLog1D):
            def _eval(self, x):
                return np.array([bad, 0.0])

        sim = Broken()
        with pytest.raises(SimulatorError, match="non-finite"):
            sim.evaluate([1.0])
        assert sim.eval_count == 0


class TestFixture:
    def test_shapes(self):
        for dimension in (2, 3):
            sim = FixtureNineBand(dimension)
            assert sim.dimension == dimension
            assert sim.n_outputs == 9
            mid = sim.bounds.mean(axis=1)
            assert sim.evaluate(mid).shape == (9,)

    def test_heterogeneous_gradients(self):
        # outputs differ in how fast they vary (finite-difference probe)
        sim = FixtureNineBand(2)
        lo, hi = sim.bounds[:, 0], sim.bounds[:, 1]
        rng = np.random.default_rng(0)
        slopes = np.zeros(9)
        for _ in range(60):
            x = lo + rng.random(2) * (hi - lo)
            h = 1e-4 * (hi - lo)
            for d in range(2):
                xp, xm = x.copy(), x.copy()
                xp[d] = min(x[d] + h[d], hi[d])
                xm[d] = max(x[d] - h[d], lo[d])
                delta = (sim.evaluate(xp) - sim.evaluate(xm)) / (xp[d] - xm[d]) * (hi[d] - lo[d])
                slopes = np.maximum(slopes, np.abs(delta))
        assert slopes.max() / max(slopes.min(), 1e-12) > 3.0

    def test_unknown_dimension(self):
        with pytest.raises(ValueError):
            FixtureNineBand(5)


class TestFactory:
    def test_known_kinds(self):
        assert make_simulator({"kind": "toy-log-1d"}).kind == "toy-log-1d"
        assert make_simulator({"kind": "toy-log-2d"}).kind == "toy-log-2d"
        assert make_simulator({"kind": "fixture-9band", "dimension": 3}).dimension == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_simulator({"kind": "prosail"})


class TestExternalBridge:
    def test_round_trip(self):
        with _external(ECHO_TOY_1D) as sim:
            y = sim.evaluate([2.0])
            np.testing.assert_allclose(y, [np.log(2.0), 0.5 * np.log(6.0)], atol=1e-12)
            y2 = sim.evaluate([5.0])
            np.testing.assert_allclose(y2, [np.log(5.0), 0.5 * np.log(15.0)], atol=1e-12)
        assert sim.eval_count == 2

    def test_matches_builtin_toy(self):
        builtin = ToyLog1D()
        with _external(ECHO_TOY_1D) as sim:
            for x in (0.5, 1.7, 9.9):
                np.testing.assert_allclose(sim.evaluate([x]), builtin.evaluate([x]), atol=1e-12)

    def test_id_mismatch_raises_with_exchange(self):
        with _external(BAD_ID_CHILD) as sim:
            with pytest.raises(SimulatorProtocolError) as excinfo:
                sim.evaluate([1.0])
            assert excinfo.value.request is not None
            assert json.loads(excinfo.value.request)["x"] == [1.0]
            assert excinfo.value.response is not None

    def test_invalid_json_raises(self):
        with _external(GARBAGE_CHILD) as sim:
            with pytest.raises(SimulatorProtocolError) as excinfo:
                sim.evaluate([1.0])
            assert "not json" in (excinfo.value.response or "")

    def test_timeout(self):
        with _external(SILENT_CHILD, timeout=0.5) as sim:
            with pytest.raises(SimulatorProtocolError, match="timed out"):
                sim.evaluate([1.0])

    def test_timeout_restarts_the_child(self, tmp_path):
        # The first child answers its first request late; without a
        # restart the late reply would be read as the answer to call 2.
        marker = tmp_path / "slept"
        child = (
            "import json, math, os, sys, time\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            f"    if not os.path.exists({str(marker)!r}):\n"
            f"        open({str(marker)!r}, 'w').close()\n"
            "        time.sleep(0.8)\n"
            "    x = req['x'][0]\n"
            "    print(json.dumps({'id': req['id'], 'y': [math.log(x), 0.5 * math.log(3 * x)]}), flush=True)\n"
        )
        with _external(child, timeout=0.6) as sim:
            with pytest.raises(SimulatorProtocolError, match="timed out"):
                sim.evaluate([2.0])
            np.testing.assert_allclose(sim.evaluate([5.0]), [np.log(5.0), 0.5 * np.log(15.0)], atol=1e-12)
            assert sim.eval_count == 1

    def test_dead_child_raises(self):
        with _external("import sys; sys.exit(3)") as sim:
            with pytest.raises(SimulatorProtocolError):
                sim.evaluate([1.0])

    def test_protocol_error_carries_the_stderr_tail(self):
        # 5,000 bytes of noise, then the last line; the child never replies.
        child = "import sys; sys.stdin.readline(); sys.stderr.write('x' * 5000 + '\\nsolver exploded\\n'); sys.exit(1)"
        with _external(child) as sim:
            with pytest.raises(SimulatorProtocolError, match="closed its output") as excinfo:
                sim.evaluate([1.0])
        tail = excinfo.value.stderr_tail
        assert tail.endswith("x\nsolver exploded\n")
        assert len(tail.encode()) == STDERR_TAIL_BYTES
        assert str(excinfo.value).endswith("stderr: solver exploded")

    def test_nan_from_child_is_a_simulator_error(self):
        child = 'import json, sys\nfor line in sys.stdin:\n    req = json.loads(line)\n    print(json.dumps({"id": req["id"], "y": [float("nan"), 0.0]}), flush=True)\n'
        with _external(child) as sim:
            with pytest.raises(SimulatorError, match="non-finite"):
                sim.evaluate([1.0])
            assert sim.eval_count == 0

    def test_command_that_cannot_start_is_a_protocol_error(self, tmp_path):
        not_executable = tmp_path / "solver"
        not_executable.write_text("#!/bin/sh\n")
        for command in (["/nonexistent/solver"], [str(not_executable)]):
            sim = ExternalSimulator(command=command, dimension=1, n_outputs=2, bounds=[[0.1, 10.0]])
            with pytest.raises(SimulatorProtocolError, match="could not start simulator command") as excinfo:
                sim.evaluate([1.0])
            assert command[0] in str(excinfo.value)
            assert sim._stderr.closed
            assert sim.eval_count == 0
            sim.close()

    def test_is_a_simulator_error(self):
        assert issubclass(SimulatorProtocolError, SimulatorError)
