"""Discrete paths: strictly increasing sample times paired with vector values.

A path is the right-continuous step function equal to ``values[i]`` on
``[times[i], times[i+1])`` and to ``values[-1]`` at the right endpoint.  For
step functions sampled once per constant piece, the supremum defining the
p-variation over all real partitions is attained on subsequences of the
sample indices, which is what the engine in :mod:`pvarkit.variation`
maximises over.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .errors import NotASampleTime, PathInvariantError
from .spaces import Vector, VectorSpace, _check_embed_size, _check_numbers, _embed, _one_per_space

__all__ = ["DiscretePath", "MAX_SAMPLES"]

# Soft cap on the number of samples; the O(n k d) engine (k distinct values)
# becomes the bottleneck long before memory does.  Adjust at module level.
MAX_SAMPLES = 200_000


class DiscretePath:
    """Sampled path on a closed interval, all values in one space.

    The samples are grouped once, by value object: ``distinct`` holds the
    value objects in order of first appearance and ``codes`` each sample's
    index into it, ``range(len(path))`` when no object repeats.  Maps and
    embeddings then run once per distinct object.  ``compose_path``,
    ``restrict`` and the spike trains (``gen_step4_path``, ``gen_thm6_spikes``,
    ``gen_remark_spikes``) build theirs from codes (``_from_codes``), grouping
    no sample.  A path built from the rows of its embedding (``_from_rows``)
    makes ``distinct`` from them on first read; until then it holds none.
    """

    __slots__ = (
        "interval", "times", "space", "codes", "_distinct", "_values", "_rows", "_embedding",
        "_matrix",
    )

    def __init__(
        self,
        times: Sequence[float],
        values: Sequence[Vector],
        interval: tuple[float, float] | None = None,
    ):
        values = list(values)
        times, interval = _checked_times(times, len(values), interval)
        self._fill(times, interval, *_group(values), values)

    @classmethod
    def _from_codes(cls, times, interval, distinct, codes, space=None, rows=None) -> "DiscretePath":
        """The path whose sample i holds ``distinct[codes[i]]``, both as
        grouping the samples gives them (``_group``), on times and interval
        as ``_checked_times`` returns them, which a path's own already are."""
        out = object.__new__(cls)
        out._fill(times, interval, distinct, codes, None, space, rows)
        return out

    @classmethod
    def _from_rows(cls, times, interval, space, fill, index: np.ndarray) -> "DiscretePath":
        """The path whose sample i is the sparse vector with coordinate
        ``rows[i, j]`` at index ``index[j]``, every sample its own value.
        ``fill(rows)`` writes ``rows`` into a zero matrix on its first read,
        after its size is checked.  ``index`` is exactly the union of the
        rows' supports, ascending, so the matrix is the vectors' embedding
        bit for bit; they are made from it when ``distinct`` is first read."""
        times, interval = _checked_times(times, len(times), interval)
        return cls._from_codes(times, interval, None, range(len(times)), space, (fill, index))

    def _fill(self, times, interval, distinct, codes, values, space=None, rows=None) -> None:
        if space is None:
            space = distinct[0].space
            for v in _one_per_space(distinct):
                if v.space != space:
                    raise PathInvariantError("values do not share one space")
        for name, value in (
            ("interval", interval), ("times", times), ("space", space), ("codes", codes),
            ("_distinct", distinct), ("_values", values), ("_rows", rows), ("_embedding", None),
            ("_matrix", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DiscretePath is immutable")

    @property
    def distinct(self) -> list[Vector]:
        """The value objects, by first appearance; from the rows, on first
        read, for a path built from them."""
        if self._distinct is None:
            index, vectors = self._rows[1], []
            for row in self._filled() if self._embedding is None else self._embedding:
                at = row.nonzero()[0]
                vectors.append(Vector(self.space, dict(zip(index[at].tolist(), row[at].tolist()))))
            object.__setattr__(self, "_distinct", vectors)
        return self._distinct

    @property
    def values(self) -> list[Vector]:
        """The value of each sample, ``distinct[codes[i]]`` at sample i."""
        if self._values is None:
            if isinstance(self.codes, range):
                values = self.distinct
            else:
                values = list(map(self.distinct.__getitem__, self.codes.tolist()))
            object.__setattr__(self, "_values", values)
        return self._values

    @property
    def n(self) -> int:
        """Number of increments (samples minus one)."""
        return self.times.size - 1

    def __len__(self):
        return self.times.size

    def distinct_matrix(self) -> np.ndarray:
        """The (k, d) coordinate embedding of ``distinct``, cached: the rows a
        path was built from, or the embedding of its vectors.

        This is where every embedding is checked, on first read: one above
        ``spaces.MAX_EMBED_BYTES`` raises :class:`TooLarge` before it is
        made, NaN and infinite coordinates, which the engine cannot group,
        :class:`PathInvariantError`.
        """
        if self._embedding is None:
            if self._rows is not None:  # _embed checks its own size first
                _check_embed_size(len(self), self._rows[1].size)
            mat = _embed(self.distinct) if self._rows is None else self._filled()
            if not np.isfinite(mat).all():
                raise PathInvariantError("values must have finite coordinates")
            object.__setattr__(self, "_embedding", mat)
        return self._embedding

    def _filled(self) -> np.ndarray:
        rows = np.zeros((len(self), self._rows[1].size))
        self._rows[0](rows)
        return rows

    def coordinate_matrix(self) -> np.ndarray:
        """The (samples, d) coordinate embedding of the values, cached: the
        rows of ``distinct_matrix()`` taken by ``codes``."""
        if self._matrix is None:
            mat = self.distinct_matrix()
            if not isinstance(self.codes, range):
                _check_embed_size(len(self), mat.shape[1])
                mat = mat[self.codes]
            object.__setattr__(self, "_matrix", mat)
        return self._matrix

    def restrict(self, c: float, d: float) -> "DiscretePath":
        """The sub-path on [c, d], keeping this path's codes; both ends must be sample times."""
        if not c < d:
            raise ValueError("restriction needs c < d")
        times = self.times
        i = np.searchsorted(times, c)
        if i == times.size or times[i] != c:
            raise NotASampleTime("c=%r is not a sample time" % (c,))
        j = np.searchsorted(times, d)
        if j == times.size or times[j] != d:
            raise NotASampleTime("d=%r is not a sample time" % (d,))
        sub = self.codes[i : j + 1]
        if isinstance(sub, range):  # sample i is distinct[i]
            distinct, codes = self.distinct[i : j + 1], range(len(sub))
        else:
            used, codes = _renumber(sub)
            distinct = list(map(self.distinct.__getitem__, sub[used].tolist()))
        return DiscretePath._from_codes(times[i : j + 1], (float(c), float(d)), distinct, codes)

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
        values = Vector.list_from_json(space, obj["values"])  # a fresh object a row
        times, interval = _checked_times(obj["times"], len(values), interval)
        return cls._from_codes(times, interval, values, range(len(values)), space)

    def __repr__(self):
        return "DiscretePath(%d samples on [%g, %g])" % (
            len(self),
            self.interval[0],
            self.interval[1],
        )


def _check_sample_count(count: int) -> None:
    """Refuse a path of more than ``MAX_SAMPLES`` samples; builders call it
    on their count before they make the path."""
    if count > MAX_SAMPLES:
        raise PathInvariantError(
            "path has %d samples, exceeding the sample cap %d" % (count, MAX_SAMPLES)
        )


def _checked_times(times, count: int, interval) -> tuple[np.ndarray, tuple[float, float]]:
    """Sample times as a read-only float array, and the interval as floats,
    after checking them against each other and ``count`` samples."""
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise PathInvariantError("at least 2 sample points required")
    if times.size != count:
        raise PathInvariantError("times and values must have equal length")
    if not np.all(np.isfinite(times)):
        raise PathInvariantError("times must be finite")
    if not np.all(np.diff(times) > 0.0):
        raise PathInvariantError("times not strictly increasing")
    _check_sample_count(times.size)
    if interval is None:
        interval = (float(times[0]), float(times[-1]))
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise PathInvariantError("interval must satisfy a < b")
    if times[0] != a:
        raise PathInvariantError("first time must equal the interval start")
    if times[-1] != b:
        raise PathInvariantError("last time must equal the interval end")
    times.flags.writeable = False
    return times, (a, b)


def _group(values: list[Vector]) -> tuple[list[Vector], range | np.ndarray]:
    """The distinct objects of ``values`` by first appearance, and each one's code."""
    ids = np.fromiter(map(id, values), np.uint64, len(values))  # values keeps every id in use
    first, codes = _renumber(ids)
    return values if isinstance(codes, range) else [values[i] for i in first.tolist()], codes


def _renumber(keys: np.ndarray) -> tuple[np.ndarray, range | np.ndarray]:
    """Where each distinct key first appears, in that order, and each key's
    rank in it: ``range(n)`` when no key repeats, else read-only ``np.intp``."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == keys.size:
        return np.arange(keys.size), range(keys.size)
    order = first.argsort()
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    codes = rank[inverse]
    codes.flags.writeable = False  # shared by the paths composed from this one
    return first[order], codes
