"""The benchmark's own simulator outputs, written independently of the
program: the fixture's logistic-ridge sums are read straight from the
shipped JSON and evaluated for a whole batch of points at once, and the two
toy functions are their closed-form log formulas.

Points are columns of a D x n array; outputs come back as P x n.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FIXTURE_JSON = Path("src") / "active_emu" / "data" / "fixture_9band.json"


def toy_log_1d(X) -> np.ndarray:
    """[log x, 0.5 log 3x] on [0.1, 10]."""
    x = np.atleast_2d(np.asarray(X, dtype=float))[0]
    return np.vstack([np.log(x), 0.5 * np.log(3.0 * x)])


def toy_log_2d(X) -> np.ndarray:
    """[log r, 0.5 log 3r] with r the Euclidean norm of the point."""
    r = np.hypot(*np.asarray(X, dtype=float))
    return np.vstack([np.log(r), 0.5 * np.log(3.0 * r)])


class FixtureReference:
    """Sum over ridges of weight * sigmoid(sharpness * (direction . u - offset)),
    u being the point scaled into the unit box."""

    def __init__(self, root: Path, dimension: int = 2):
        payload = json.loads((root / FIXTURE_JSON).read_text())
        entry = payload["dimensions"][str(dimension)]
        self.bounds = np.asarray(entry["bounds"], dtype=float)
        self.n_outputs = int(payload["outputs"])
        self.ridges = [
            (
                np.array([r["weight"] for r in ridges], dtype=float),
                np.array([r["sharpness"] for r in ridges], dtype=float),
                np.array([r["offset"] for r in ridges], dtype=float),
                np.array([r["direction"] for r in ridges], dtype=float),
            )
            for ridges in entry["ridges"]
        ]

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo, hi = self.bounds[:, :1], self.bounds[:, 1:]
        U = (X - lo) / (hi - lo)
        rows = []
        for weight, sharpness, offset, direction in self.ridges:
            z = sharpness[:, None] * (direction @ U - offset[:, None])
            # the logistic function written through tanh, not exp
            rows.append(weight @ (0.5 + 0.5 * np.tanh(0.5 * z)))
        return np.vstack(rows)
