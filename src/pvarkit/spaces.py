"""Vectors in concrete normed coordinate spaces.

Two families cover everything the toolkit needs:

* dense vectors in R^d with a fixed dimension, and
* finitely supported sequences, indexed by positive integers with almost
  all coordinates zero (the sequence-space setting: only the support is
  stored, never an explicit zero).

Every vector carries a :class:`VectorSpace` descriptor (family, dimension
for the dense case, and the coordinate norm).  Vectors combine only with
vectors of an identical descriptor; anything else raises
:class:`~pvarkit.errors.SpaceMismatch`.

Distances between rows of a :func:`coordinate_matrix` come from two
kernels with the bits of :func:`row_norms` on each difference:
:func:`pair_distances` for rows picked by index, and
:func:`panel_distances` for every row against a point or a stack of
points.  Each allocates its own scratch, a block of rows at a time.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import SpaceMismatch, TooLarge

__all__ = [
    "NormKind",
    "L1",
    "L2",
    "LINF",
    "LP",
    "VectorSpace",
    "Vector",
    "norm",
    "diff_norm",
    "coordinate_matrix",
    "row_norms",
    "pair_distances",
    "panel_distances",
    "MAX_EMBED_BYTES",
]

_NORM_TAGS = ("l1", "l2", "linf", "lp")

# Largest coordinate embedding built, in bytes: a sparse set's embedding
# grows with samples times the union of supports.  Adjust at module level.
MAX_EMBED_BYTES = 1 << 30
BLOCK_BYTES = 1 << 18  # differences taken per block of rows: stays in cache

# Ulps by which one float64 power may be off, array or scalar: numpy's array
# pow and C's pow each round to within a few ulps (they differ by at most
# one on numpy 2.4).
_POW_ULPS = 4
_EPS = float(np.finfo(float).eps)
_SMALL, _BIG = 2.0 ** -960, 2.0 ** 1000  # far inside the normal floats


@dataclass(frozen=True)
class NormKind:
    """Which norm the coordinates carry: l1, l2, linf, or a general lp.

    The ``r`` field is meaningful only for the ``lp`` tag and must be a
    finite r >= 1 (anything smaller fails the triangle inequality and is not
    a norm; ``linf`` is the r = inf case).
    """

    tag: str
    r: float | None = None

    def __post_init__(self):
        if self.tag not in _NORM_TAGS:
            raise ValueError("unknown norm tag %r" % (self.tag,))
        if self.tag == "lp":
            _check_numbers([self.r], "lp exponent")
            object.__setattr__(self, "r", float(self.r))
            if not 1.0 <= self.r < np.inf:
                raise ValueError("lp norm requires a finite exponent r >= 1, got %r" % (self.r,))
        elif self.r is not None:
            raise ValueError("norm %r takes no exponent" % (self.tag,))

    def to_json(self):
        if self.tag == "lp":
            return {"lp": self.r}
        return self.tag

    @classmethod
    def from_json(cls, obj) -> "NormKind":
        if isinstance(obj, str):
            if obj not in ("l1", "l2", "linf"):
                raise ValueError("unknown norm %r" % (obj,))
            return cls(obj)
        if isinstance(obj, Mapping) and set(obj) == {"lp"}:
            return cls("lp", obj["lp"])
        raise ValueError("norm must be 'l1', 'l2', 'linf' or {'lp': r}")


L1 = NormKind("l1")
L2 = NormKind("l2")
LINF = NormKind("linf")


def LP(r: float) -> NormKind:
    """The l^r norm on coordinates, r >= 1."""
    return NormKind("lp", float(r))


def _reduce_abs(a: np.ndarray, kind: NormKind, axis=None) -> np.ndarray:
    # `a` holds absolute values already and is scratch: its powers are taken
    # in place, with the bits of `a * a` and `a ** r`, so a block of rows
    # allocates no second array.  Empty reductions must give 0.0.
    if kind.tag == "l1":
        return a.sum(axis=axis)
    if kind.tag == "l2":
        return np.sqrt(np.multiply(a, a, out=a).sum(axis=axis))
    if kind.tag == "linf":
        return a.max(axis=axis, initial=0.0)
    a **= kind.r
    return a.sum(axis=axis) ** (1.0 / kind.r)


@dataclass(frozen=True)
class VectorSpace:
    """Descriptor of a coordinate space: family, norm, and dense dimension."""

    kind: str  # "dense" | "sparse"
    norm: NormKind
    dim: int | None = None

    def __post_init__(self):
        if self.kind == "dense":
            if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
                raise ValueError("dense spaces need an integer dimension >= 1, got %r" % (self.dim,))
        elif self.kind == "sparse":
            if self.dim is not None:
                raise ValueError("sparse spaces carry no dimension")
        else:
            raise ValueError("space kind must be 'dense' or 'sparse'")

    def zero(self) -> "Vector":
        """The zero vector of this space."""
        if self.kind == "dense":
            return Vector(self, np.zeros(self.dim))
        return Vector(self, {})

    def to_json(self):
        out = {"kind": self.kind, "norm": self.norm.to_json()}
        if self.kind == "dense":
            out["dim"] = self.dim
        return out

    @classmethod
    def from_json(cls, obj) -> "VectorSpace":
        if not isinstance(obj, Mapping) or "kind" not in obj or "norm" not in obj:
            raise ValueError("space must be an object with 'kind' and 'norm'")
        kind = obj["kind"]
        norm_kind = NormKind.from_json(obj["norm"])
        if kind == "dense":
            if "dim" not in obj:
                raise ValueError("dense space needs 'dim'")
            return cls("dense", norm_kind, obj["dim"])
        if kind == "sparse":
            if "dim" in obj:
                raise ValueError("sparse space carries no 'dim'")
            return cls("sparse", norm_kind)
        raise ValueError("space kind must be 'dense' or 'sparse'")


class Vector:
    """An immutable point of a :class:`VectorSpace`.

    Build instances through :meth:`Vector.dense`, :meth:`Vector.sparse`, or
    :meth:`VectorSpace.zero`; the raw constructor trusts its arguments.
    Dense data is a read-only float array of the space's dimension; sparse
    data is a dict from positive integer index to a nonzero coordinate.
    """

    __slots__ = ("space", "data")

    def __init__(self, space: VectorSpace, data):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "data", data)
        if space.kind == "dense":
            data.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def dense(cls, coords: Sequence[float], norm: NormKind = L2) -> "Vector":
        arr = _dense_data(coords)
        return cls(VectorSpace("dense", norm, arr.size), arr)

    @classmethod
    def sparse(cls, entries: Mapping[int, float], norm: NormKind = L2) -> "Vector":
        return cls(VectorSpace("sparse", norm), _sparse_data(entries))

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted indices of nonzero coordinates (sparse vectors only)."""
        if self.space.kind != "sparse":
            raise SpaceMismatch("support is defined for sparse vectors only")
        return tuple(sorted(self.data))

    def is_zero(self) -> bool:
        if self.space.kind == "dense":
            return bool(np.all(self.data == 0.0))
        return not self.data

    def _combine(self, other: "Vector", sign: float) -> "Vector":
        _same_space(self, other)
        if self.space.kind == "dense":
            return Vector(self.space, self.data + sign * other.data)
        merged = dict(self.data)
        for idx, c in other.data.items():
            val = merged.get(idx, 0.0) + sign * c
            if val == 0.0:
                merged.pop(idx, None)
            else:
                merged[idx] = val
        return Vector(self.space, merged)

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self._combine(other, 1.0)

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        try:
            c = float(scalar)
        except (TypeError, ValueError):
            return NotImplemented
        if self.space.kind == "dense":
            return Vector(self.space, c * self.data)
        scaled = {i: c * v for i, v in self.data.items() if c * v != 0.0}
        return Vector(self.space, scaled)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.space != other.space:
            return False
        if self.space.kind == "dense":
            return bool(np.array_equal(self.data, other.data))
        return self.data == other.data

    __hash__ = None

    def __repr__(self):
        if self.space.kind == "dense":
            return "Vector.dense(%s, %r)" % (list(self.data), self.space.norm.tag)
        return "Vector.sparse(%s, %r)" % (dict(sorted(self.data.items())), self.space.norm.tag)

    def to_json(self):
        if self.space.kind == "dense":
            return {"dense": [float(c) for c in self.data]}
        return {"sparse": {str(i): float(c) for i, c in sorted(self.data.items())}}

    @classmethod
    def from_json(cls, space: VectorSpace, obj) -> "Vector":
        return cls.list_from_json(space, [obj])[0]

    @classmethod
    def list_from_json(cls, space: VectorSpace, objs) -> list["Vector"]:
        """Vectors of ``space`` from their JSON objects, all sharing ``space``.

        Dense coordinates are read into one matrix and checked once; each
        vector is a read-only row of it.
        """
        items = []
        for obj in objs:
            if not isinstance(obj, Mapping) or len(obj) != 1 or obj.keys() - {"dense", "sparse"}:
                raise ValueError("vector must be {'dense': [...]} or {'sparse': {...}}")
            if space.kind not in obj:
                raise ValueError("%s vector in a %s space" % (next(iter(obj)), space.kind))
            items.append(obj[space.kind])
        if space.kind == "sparse":
            return [cls(space, _sparse_json(item)) for item in items]
        if set(map(len, items)) - {space.dim}:
            bad = next(len(c) for c in items if len(c) != space.dim)
            raise ValueError(
                "dense vector has %d coordinates, space has dim %d" % (bad, space.dim)
            )
        _check_numbers(chain.from_iterable(items), "coordinates")
        mat = np.array(items, dtype=float).reshape(len(items), space.dim)
        if not np.isfinite(mat).all():
            raise ValueError("coordinates must be finite")
        return [cls(space, row) for row in mat]


def _dense_data(coords: Sequence[float]) -> np.ndarray:
    arr = np.array(coords, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("dense vector needs a 1-d coordinate list")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def _check_numbers(values, what: str) -> None:
    """Refuse any value but an int or a float that is not a bool: JSON's numbers."""
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, (int, float)):
            raise ValueError("%s: expected a number, got %s" % (what, t.__name__))


def _sparse_json(item: Mapping) -> dict:
    if not isinstance(item, Mapping):
        raise ValueError("sparse vector: expected an object, got %s" % type(item).__name__)
    entries = {}
    for key, coord in item.items():
        idx = int(key)
        if str(idx) != key or idx < 1:
            raise ValueError("sparse index keys are positive integers, got %r" % (key,))
        entries[idx] = coord
    _check_numbers(entries.values(), "coordinates")
    return _sparse_data(entries)


def _sparse_data(entries: Mapping[int, float]) -> dict:
    clean = {}
    for idx, coord in entries.items():
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
            raise ValueError("sparse indices are integers >= 1, got %r" % (idx,))
        c = float(coord)
        if not np.isfinite(c):
            raise ValueError("coordinates must be finite")
        if c != 0.0:  # never store an explicit zero
            clean[idx] = c
    return clean


def _same_space(u: Vector, w: Vector) -> None:
    if u.space != w.space:
        raise SpaceMismatch(
            "vectors live in different spaces: %s vs %s"
            % (u.space.to_json(), w.space.to_json())
        )


def _one_per_space(vectors: Sequence[Vector]):
    """One vector per distinct space object: checking these checks all."""
    return {id(v.space): v for v in vectors}.values()


def norm(v: Vector) -> float:
    """The coordinate norm of ``v`` in its own space.

    Exactly 0.0 if and only if ``v`` is the zero vector.  Sparse entries
    are reduced in index order, so equal vectors have equal norms.
    """
    kind = v.space.norm
    if v.space.kind == "dense":
        return float(_reduce_abs(np.abs(v.data), kind))
    vals = np.abs(np.fromiter(map(v.data.get, sorted(v.data)), dtype=float, count=len(v.data)))
    return float(_reduce_abs(vals, kind))


def diff_norm(u: Vector, w: Vector) -> float:
    """``norm(u - w)`` after checking both vectors share one space; it has
    the bits of ``norm(w - u)``, whose entries are those of ``u - w`` negated."""
    return norm(u - w)


def coordinate_matrix(vectors: Sequence[Vector]) -> np.ndarray:
    """Stack same-space vectors into a (len, d) float matrix.

    Sparse vectors are embedded into the sorted union of their supports, so
    the column count is the union's size (possibly zero).  Distances taken
    row-wise in this matrix are those ``pvar`` and the Holder scan use: within
    rounding of :func:`diff_norm` on the originals, and its bits on dense l1
    and l2 and on linf.
    """
    if not vectors:
        return np.zeros((0, 0))
    for v in _one_per_space(vectors):
        _same_space(vectors[0], v)
    return _embed(vectors)


def _embed(vectors: Sequence[Vector]) -> np.ndarray:
    """``coordinate_matrix`` of vectors known to share one space.

    Sparse entries scatter into the sorted union of supports a chunk of rows
    at a time, in row order.  An entry's column is its index's offset from
    the first if the union is contiguous, else found by a search.
    """
    space = vectors[0].space
    if space.kind == "dense":
        _check_embed_size(len(vectors), space.dim)
        return np.array([v.data for v in vectors])
    datas = [v.data for v in vectors]
    support = sorted(set().union(*datas))
    cols = len(support)
    _check_embed_size(len(vectors), cols)
    dtype = np.int64 if not support or support[-1] < 2 ** 63 else object
    contiguous = bool(support) and support[-1] - support[0] == cols - 1
    support = np.array(support, dtype=dtype)
    out = np.zeros((len(vectors), cols))
    step = _block_rows(cols)  # a chunk's index arrays stay within a few blocks
    for a in range(0, len(datas), step):
        chunk = datas[a : a + step]
        lens = np.fromiter(map(len, chunk), dtype=np.intp, count=len(chunk))
        total = int(lens.sum())
        keys = np.fromiter(chain.from_iterable(chunk), dtype=dtype, count=total)
        coords = np.fromiter(
            chain.from_iterable(d.values() for d in chunk), dtype=float, count=total
        )
        rows = np.repeat(np.arange(a, a + len(chunk)), lens)
        at = (keys - support[0]).astype(np.intp) if contiguous else np.searchsorted(support, keys)
        out[rows, at] = coords
    return out


def _check_embed_size(rows: int, cols: int) -> None:
    size = rows * cols * 8
    if size > MAX_EMBED_BYTES:
        raise TooLarge(
            "embedding %d vectors in %d coordinates needs %d bytes, above the "
            "limit of %d" % (rows, cols, size, MAX_EMBED_BYTES)
        )


def row_norms(a: np.ndarray, kind: NormKind) -> np.ndarray:
    """Norm of each row of a 2-d array, under the given coordinate norm."""
    return _reduce_abs(np.abs(a), kind, axis=1)


def _block_rows(cols: int) -> int:
    return max(1, BLOCK_BYTES // (8 * max(1, cols)))


def pair_distances(rows: np.ndarray, i, j, kind: NormKind) -> np.ndarray:
    """Norm of ``rows[i[t]] - rows[j[t]]`` for every t, or of ``rows[i[t]] -
    rows[j]`` for a single index ``j``.

    The differences are taken a block of rows within ``BLOCK_BYTES`` (always
    one) at a time, C-ordered, made absolute and reduced as rows.  Each
    row's reduction is the same whatever block it falls in, so a distance
    has the bits of :func:`row_norms` of its difference, and of the
    one-point :func:`panel_distances`, whichever indices come with it.
    """
    step = _block_rows(rows.shape[1])
    if len(i) > step:
        one = isinstance(j, (int, np.integer))
        blocks = range(0, len(i), step)
        return np.concatenate(
            [pair_distances(rows, i[a : a + step], j if one else j[a : a + step], kind) for a in blocks]
        )
    diff = rows.take(i, axis=0)  # C-ordered, and quicker than rows[i]
    diff -= rows[j]
    return _reduce_abs(np.abs(diff, out=diff), kind, axis=1)


def panel_distances(rows: np.ndarray, x: np.ndarray, kind: NormKind) -> np.ndarray:
    """Norm of ``rows[k] - x`` for every row k, with the row reduction's bits.

    ``x`` is a point, or a stack of them whose distances come out a row each
    with the same bits: ``panel_distances(rows, rows, kind)`` is the table
    of all distances.  numpy sums a row of fewer than 8 terms left to
    right, as this loop over columns does without the reduction's per-row
    cost, its terms in scratch of its own.  From 8 terms on it pairs them
    up in another order, so wider rows reduce a C-ordered (points, rows,
    columns) difference along its last axis, in chunks of rows within
    ``BLOCK_BYTES`` (always one).  Gathered rows, a few at a time, take
    :func:`pair_distances`: one call per column costs more there."""
    if rows.shape[1] >= 8:
        pts = x.reshape(-1, rows.shape[1])
        out = np.empty((len(pts), len(rows)))
        step = max(1, _block_rows(rows.shape[1]) // max(1, len(pts)))
        for c in range(0, len(rows), step):  # in another layout numpy reduces in another order
            diff = np.subtract(rows[c : c + step], pts[:, None], order="C")
            out[:, c : c + step] = _reduce_abs(np.abs(diff, out=diff), kind, axis=2)
        return out.reshape(x.shape[:-1] + rows.shape[:1])
    out = np.zeros(x.shape[:-1] + rows.shape[:1])  # the distance over no columns
    tmp = np.empty(out.shape) if x.shape[-1] > 1 else None
    for j, xj in enumerate(x.T[..., None] if x.ndim > 1 else x.tolist()):
        d = np.subtract(rows[:, j], xj, out=out if j == 0 else tmp)
        if kind.tag == "l2":
            np.multiply(d, d, out=d)  # |d| squared
        else:
            np.abs(d, out=d)
            if kind.tag == "lp":
                d **= kind.r
        if j:
            (np.maximum if kind.tag == "linf" else np.add)(out, d, out=out)
    if kind.tag == "l2":
        np.sqrt(out, out=out)
    elif kind.tag == "lp":
        out **= 1.0 / kind.r
    return out


def _trusted_range(kind: NormKind, cols: int) -> tuple[float, float]:
    """Norm values at which a computed norm is within ``_distance_error``.

    Inside the range every power, sum and root the norm takes is a normal
    float and nothing overflows.  For l2 and lp, terms that underflow (at
    most ``cols`` of them, each off by under the smallest normal float)
    move the power sum by under one ulp once that sum is ``cols * _SMALL``
    or more.
    """
    if kind.tag in ("l2", "lp"):
        r = 2.0 if kind.tag == "l2" else kind.r
        return (cols * _SMALL) ** (1.0 / r), 2.0 ** (1000.0 / r)
    return _SMALL, _BIG


def _distance_error(kind: NormKind, cols: int) -> float:
    """Relative error of a norm of ``cols`` coordinates in the trusted range.

    Array and scalar norms alike: two powers and a sum of at most ``cols``
    terms, whose ``cols - 1`` roundings leave room for the one rounding of
    each difference of coordinates.  An lp root takes the float 1/r, within
    (1/r) eps/2 of 1/r, which moves the root of a power sum S by a factor
    e^(+-(eps/2) |ln S| / r); in the trusted range |ln S| < 1000 ln 2.
    """
    root = 347.0 / kind.r if kind.tag == "lp" else 0.0
    return (2 * _POW_ULPS + cols + root) * _EPS
