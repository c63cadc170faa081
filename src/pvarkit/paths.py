"""Discrete paths: strictly increasing sample times paired with vector values.

A path is the right-continuous step function equal to ``values[i]`` on
``[times[i], times[i+1])`` and to ``values[-1]`` at the right endpoint.  For
step functions sampled once per constant piece, the supremum defining the
p-variation over all real partitions is attained on subsequences of the
sample indices, which is what the engine in :mod:`pvarkit.variation`
maximises over.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import NotASampleTime, PathInvariantError
from .spaces import Vector, VectorSpace, _check_numbers, _one_per_space, coordinate_matrix

__all__ = ["DiscretePath", "MAX_SAMPLES"]

# Soft cap on the number of samples; the O(n k d) engine (k distinct values)
# becomes the bottleneck long before memory does.  Adjust at module level.
MAX_SAMPLES = 200_000


class DiscretePath:
    """Sampled path on a closed interval, all values in one space."""

    __slots__ = ("interval", "times", "values", "space", "_matrix")

    def __init__(
        self,
        times: Sequence[float],
        values: Sequence[Vector],
        interval: tuple[float, float] | None = None,
    ):
        times = np.array(times, dtype=float)
        values = list(values)
        if times.ndim != 1 or times.size < 2:
            raise PathInvariantError("at least 2 sample points required")
        if times.size != len(values):
            raise PathInvariantError("times and values must have equal length")
        if not np.all(np.isfinite(times)):
            raise PathInvariantError("times must be finite")
        if not np.all(np.diff(times) > 0.0):
            raise PathInvariantError("times not strictly increasing")
        if times.size > MAX_SAMPLES:
            raise PathInvariantError(
                "path has %d samples, exceeding the sample cap %d"
                % (times.size, MAX_SAMPLES)
            )
        if interval is None:
            interval = (float(times[0]), float(times[-1]))
        a, b = float(interval[0]), float(interval[1])
        if not a < b:
            raise PathInvariantError("interval must satisfy a < b")
        if times[0] != a:
            raise PathInvariantError("first time must equal the interval start")
        if times[-1] != b:
            raise PathInvariantError("last time must equal the interval end")
        space = values[0].space
        for v in _one_per_space(values):
            if v.space != space:
                raise PathInvariantError("values do not share one space")
        times.flags.writeable = False
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_matrix", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiscretePath is immutable")

    @property
    def n(self) -> int:
        """Number of increments (samples minus one)."""
        return len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def coordinate_matrix(self) -> np.ndarray:
        """The (samples, d) coordinate embedding of the values, cached.

        Rejects NaN and infinite coordinates, which the engine cannot group.
        """
        if self._matrix is None:
            mat = coordinate_matrix(self.values)
            if not np.isfinite(mat).all():
                raise PathInvariantError("values must have finite coordinates")
            object.__setattr__(self, "_matrix", mat)
        return self._matrix

    def restrict(self, c: float, d: float) -> "DiscretePath":
        """The sub-path on [c, d]; both endpoints must be sample times."""
        if not c < d:
            raise ValueError("restriction needs c < d")
        times = self.times
        i = np.searchsorted(times, c)
        if i == times.size or times[i] != c:
            raise NotASampleTime("c=%r is not a sample time" % (c,))
        j = np.searchsorted(times, d)
        if j == times.size or times[j] != d:
            raise NotASampleTime("d=%r is not a sample time" % (d,))
        return DiscretePath(times[i : j + 1].copy(), self.values[i : j + 1], (c, d))

    def to_json(self) -> dict:
        return {
            "interval": [self.interval[0], self.interval[1]],
            "times": [float(t) for t in self.times],
            "space": self.space.to_json(),
            "values": [v.to_json() for v in self.values],
        }

    @classmethod
    def from_json(cls, obj) -> "DiscretePath":
        if not isinstance(obj, Mapping):
            raise ValueError("path must be a JSON object")
        for key in ("interval", "times", "space", "values"):
            if key not in obj:
                raise ValueError("path object lacks %r" % (key,))
        interval = obj["interval"]
        if not isinstance(interval, Sequence) or len(interval) != 2:
            raise ValueError("interval must be [a, b]")
        _check_numbers(interval, "interval")
        _check_numbers(obj["times"], "times")
        space = VectorSpace.from_json(obj["space"])
        values = Vector.list_from_json(space, obj["values"])
        return cls(obj["times"], values, (float(interval[0]), float(interval[1])))

    def __repr__(self):
        return "DiscretePath(%d samples on [%g, %g])" % (
            len(self.values),
            self.interval[0],
            self.interval[1],
        )
