"""Black-box simulators: built-in toy functions, a 9-output fixture, and a
bridge to external solver processes speaking newline-delimited JSON.

Every simulator is deterministic (same x gives bitwise-identical y) and
counts its evaluations, which the loop accounting tests rely on.  It
evaluates only points in its box, by the `optimize` box rule.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import tempfile
import time
from importlib import resources

import numpy as np

from .optimize import check_box, in_box


class SimulatorError(RuntimeError):
    """The simulator could not produce an output."""


# Bytes of the external child's stderr kept on a protocol error.
STDERR_TAIL_BYTES = 4096


class SimulatorProtocolError(SimulatorError):
    """External bridge protocol violation; carries the raw exchange and the
    tail of the child's stderr."""

    def __init__(self, message: str, request: str | None = None, response: str | None = None):
        super().__init__(message)
        self.request = request
        self.response = response
        self.stderr_tail: str | None = None


class Simulator:
    """Base class: bounds checking, output checking and evaluation counting.

    Usable as a context manager; `close` releases whatever the simulator
    holds (nothing for the built-in ones, the child process for the bridge).
    """

    kind = "base"

    def __init__(self, dimension: int, n_outputs: int, bounds):
        self.dimension = dimension
        self.n_outputs = n_outputs
        self.bounds = check_box(bounds, dimension)
        self.eval_count = 0

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dimension or not in_box(x, self.bounds):
            raise ValueError(f"input {x.tolist()} is not a point of the simulator's box {self.bounds.tolist()}")
        y = np.asarray(self._eval(x), dtype=float).ravel()
        if y.size != self.n_outputs:
            raise SimulatorError(f"simulator returned {y.size} outputs, expected {self.n_outputs}")
        if not np.all(np.isfinite(y)):
            raise SimulatorError(f"simulator returned non-finite outputs {y.tolist()} at {x.tolist()}")
        self.eval_count += 1  # only successful evaluations count
        return y

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        """Release held resources; the base simulator holds none."""

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ToyLog1D(Simulator):
    """f(x) = [log x, 0.5 log 3x] on a 1-D positive interval."""

    kind = "toy-log-1d"

    def __init__(self):
        super().__init__(dimension=1, n_outputs=2, bounds=[[0.1, 10.0]])

    def _eval(self, x):
        return np.array([np.log(x[0]), 0.5 * np.log(3.0 * x[0])])


class ToyLog2D(Simulator):
    """f(x) = [log ||x||, 0.5 log 3||x||] on a 2-D positive box."""

    kind = "toy-log-2d"

    def __init__(self):
        super().__init__(dimension=2, n_outputs=2, bounds=[[0.1, 10.0], [0.1, 10.0]])

    def _eval(self, x):
        r = float(np.linalg.norm(x))
        return np.array([np.log(r), 0.5 * np.log(3.0 * r)])


class FixtureNineBand(Simulator):
    """Deterministic 9-output stand-in for a radiative transfer code.

    Each output is a sum of logistic ridges over the normalized inputs,
    with per-output sharpness spanning smooth to steep; the coefficients
    ship as a versioned JSON fixture.
    """

    kind = "fixture-9band"

    def __init__(self, dimension: int = 2):
        payload = _load_fixture()
        key = str(dimension)
        if key not in payload["dimensions"]:
            available = sorted(payload["dimensions"])
            raise ValueError(f"fixture supports dimensions {available}, got {dimension}")
        entry = payload["dimensions"][key]
        super().__init__(dimension=dimension, n_outputs=payload["outputs"], bounds=entry["bounds"])
        self._ridges = [
            [
                (float(r["weight"]), float(r["sharpness"]), float(r["offset"]), np.asarray(r["direction"], dtype=float))
                for r in output_ridges
            ]
            for output_ridges in entry["ridges"]
        ]

    def _eval(self, x):
        lo = self.bounds[:, 0]
        width = self.bounds[:, 1] - lo
        u = (x - lo) / width
        y = np.empty(self.n_outputs)
        for p, ridges in enumerate(self._ridges):
            total = 0.0
            for weight, sharpness, offset, direction in ridges:
                z = sharpness * (float(direction @ u) - offset)
                total += weight / (1.0 + np.exp(-z))
            y[p] = total
        return y


def _load_fixture() -> dict:
    text = resources.files("active_emu.data").joinpath("fixture_9band.json").read_text()
    return json.loads(text)


class ExternalSimulator(Simulator):
    """Child process speaking one JSON object per line on stdin/stdout.

    Request  {"id": <int>, "x": [<float>, ...]}
    Response {"id": <int>, "y": [<float>, ...]}
    One request is in flight at a time; a per-call timeout guards against
    hung solvers (external codes can be very slow, default 300 s).  A
    protocol error closes the child, and the next call starts a fresh one.
    The child's stderr goes to a temporary file, which cannot fill up and
    block it as an unread pipe would; a protocol error carries its last
    STDERR_TAIL_BYTES as `stderr_tail` and ends with its last line.
    """

    kind = "external"

    def __init__(self, command, dimension: int, n_outputs: int, bounds, timeout: float = 300.0):
        super().__init__(dimension=dimension, n_outputs=n_outputs, bounds=bounds)
        if not (isinstance(command, (list, tuple)) and command and all(isinstance(a, str) for a in command)):
            raise ValueError(f"command must be a non-empty list of strings, got {command!r}")
        self.command = list(command)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._stderr = None
        self._next_id = 0
        self._buffer = bytearray()

    def _ensure_started(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        self.close()
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
            )
        except OSError as exc:  # a missing or non-executable command
            self._stderr.close()
            raise SimulatorProtocolError(f"could not start simulator command {self.command}: {exc}") from exc
        self._buffer = bytearray()

    def _read_line(self, deadline: float) -> str:
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline].decode("utf-8", errors="replace")
                del self._buffer[: newline + 1]
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SimulatorProtocolError(f"simulator timed out after {self.timeout} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise SimulatorProtocolError(f"simulator timed out after {self.timeout} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                code = self._proc.poll()
                raise SimulatorProtocolError(f"simulator process closed its output (exit code {code})")
            self._buffer.extend(chunk)

    def _eval(self, x):
        try:
            return self._exchange(x)
        except SimulatorProtocolError as exc:
            # The child may still answer the failed request later; a fresh
            # child on the next call keeps replies in step with requests.
            exc.stderr_tail = self._stop()
            lines = exc.stderr_tail.strip().splitlines()
            if lines:
                exc.args = (f"{exc}; stderr: {lines[-1]}",)
            raise

    def _exchange(self, x):
        self._ensure_started()
        assert self._proc is not None and self._proc.stdin is not None
        self._next_id += 1
        request = json.dumps({"id": self._next_id, "x": [float(v) for v in x]})
        try:
            self._proc.stdin.write((request + "\n").encode("utf-8"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise SimulatorProtocolError(f"could not write to simulator: {exc}", request=request) from exc
        line = None
        try:
            line = self._read_line(time.monotonic() + self.timeout)
            payload = json.loads(line)
        except SimulatorProtocolError as exc:
            exc.request = request
            raise
        except json.JSONDecodeError as exc:
            raise SimulatorProtocolError(
                f"simulator sent invalid JSON: {exc}", request=request, response=line
            ) from exc
        if not isinstance(payload, dict) or payload.get("id") != self._next_id or "y" not in payload:
            raise SimulatorProtocolError(
                f"simulator response does not match request id {self._next_id}",
                request=request,
                response=line,
            )
        y = payload["y"]
        if not isinstance(y, list) or len(y) != self.n_outputs:
            raise SimulatorProtocolError(
                f"simulator returned {len(y) if isinstance(y, list) else type(y).__name__} outputs, "
                f"expected {self.n_outputs}",
                request=request,
                response=line,
            )
        return np.asarray(y, dtype=float)

    def _stop(self) -> str:
        """End the child; returns the last STDERR_TAIL_BYTES it wrote to stderr."""
        if self._proc is None:
            return ""
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            self._proc.terminate()
            self._proc.wait(timeout=5)
        except Exception:
            self._proc.kill()
        self._proc = None
        with self._stderr as stderr:
            stderr.seek(max(stderr.seek(0, os.SEEK_END) - STDERR_TAIL_BYTES, 0))
            return stderr.read().decode("utf-8", errors="replace")

    def close(self) -> None:
        self._stop()


def make_simulator(spec: dict) -> Simulator:
    """Build a simulator from its config mapping."""
    kind = spec.get("kind")
    if kind == "toy-log-1d":
        return ToyLog1D()
    if kind == "toy-log-2d":
        return ToyLog2D()
    if kind == "fixture-9band":
        return FixtureNineBand(dimension=int(spec.get("dimension", 2)))
    if kind == "external":
        return ExternalSimulator(
            command=spec["command"],
            dimension=int(spec["dimension"]),
            n_outputs=int(spec["outputs"]),
            bounds=spec["bounds"],
            timeout=float(spec.get("timeout", 300.0)),
        )
    raise ValueError(f"unknown simulator kind: {kind!r}")
