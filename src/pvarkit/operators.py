"""Composition operators and empirical Holder-constant estimation.

A :class:`Generator` is a pointwise map f on vectors; ``compose_path``
pushes a whole path through it, once per distinct value object.
``estimate_holder`` scans a finite point set for the largest ratio
|f(u) - f(w)| / |u - w|^alpha, which lower-bounds any true Holder constant
of f on that set, and ``composition_bound_check`` ties the pieces
together: with alpha = p/q and the constant estimated on the exact range
of the path, the q-variation of the composed path can never exceed L^q
times the p-variation of the input.

The Holder scan takes the distances from a block of rows of the coordinate
embedding to every later row in a few numpy calls, through the distance
panels ``pvar`` uses too, so every pair is scored with the bits ``pvar``
gives its distance.  The bound check runs it over one sample of each
(value, image) pair only.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import spaces
from .errors import (
    DomainMismatch,
    InvalidAlpha,
    PathInvariantError,
    TooFewPoints,
)
from .paths import DiscretePath, _distinct_rows, _group
from .spaces import (
    _EPS,
    _POW_ULPS,
    Vector,
    _block_rows,
    _check_numbers,
    _distance_error,
    coordinate_matrix,
    pair_distances,
    panel_distances,
)
from .variation import _check_pq, pvar

__all__ = [
    "Generator",
    "compose_path",
    "HolderEstimate",
    "estimate_holder",
    "BoundCheckReport",
    "composition_bound_check",
    "epsilon_covering",
]


def _scalar_in(v: Vector, label: str) -> float:
    if v.space.kind != "dense" or v.space.dim != 1:
        raise DomainMismatch(
            "%s acts on dense 1-dimensional vectors, got %s" % (label, v.space.to_json())
        )
    return float(v.data[0])


class Generator:
    """Named pointwise map on vectors.

    Construct through the factory classmethods.  ``identity`` accepts any
    vector; ``power`` and ``scalar_lipschitz`` act on dense one-dimensional
    vectors (the real line); ``l2_sup`` acts on finitely supported
    sequences; ``custom`` wraps an arbitrary pure callable and is the one
    kind that cannot be serialized.  Each factory checks its arguments and
    pairs its map with the JSON spec that ``from_json`` rebuilds it from.
    """

    __slots__ = ("label", "fn", "_spec")

    def __init__(self, label: str, fn: Callable[[Vector], Vector], spec: dict | None = None):
        self.label = label
        self.fn = fn
        self._spec = spec

    @classmethod
    def identity(cls) -> "Generator":
        return cls("identity", lambda v: v, {"name": "identity"})

    @classmethod
    def power(cls, beta: float) -> "Generator":
        """t -> sign(t) |t|^beta on the real line, 0 < beta <= 1."""
        _check_numbers([beta], "power exponent")
        beta = float(beta)
        if not 0.0 < beta <= 1.0:
            raise ValueError("power exponent must lie in (0, 1], got %r" % (beta,))
        label = "power(%g)" % beta

        def fn(v):
            t = _scalar_in(v, label)
            out = math.copysign(abs(t) ** beta, t) if t != 0.0 else 0.0
            return Vector(v.space, np.array([out]))

        return cls(label, fn, {"name": "power", "beta": beta})

    @classmethod
    def scalar_lipschitz(cls, breakpoints: Sequence[Sequence[float]]) -> "Generator":
        """Piecewise-linear map of the real line from (x, y) breakpoints.

        Breakpoints must be finite, with strictly increasing x; outside
        their range the map clamps to the end values (slope zero), so the
        global Lipschitz constant is the largest segment slope magnitude.
        """
        pts = [[x, y] for x, y in breakpoints]
        _check_numbers([c for pt in pts for c in pt], "breakpoints")
        pts = [[float(x), float(y)] for x, y in pts]
        if len(pts) < 2:
            raise ValueError("need at least 2 breakpoints")
        if not np.all(np.isfinite(pts)):
            raise ValueError("breakpoints must be finite, got %r" % (pts,))
        xs, ys = np.array(pts).T.copy()
        if not np.all(np.diff(xs) > 0):
            raise ValueError("breakpoint x values must be strictly increasing")

        def fn(v):
            t = _scalar_in(v, "scalar_lipschitz")
            return Vector(v.space, np.array([float(np.interp(t, xs, ys))]))

        return cls("scalar_lipschitz", fn, {"name": "scalar_lipschitz", "breakpoints": pts})

    @classmethod
    def l2_sup(cls) -> "Generator":
        """Sequence map whose first output coordinate is sup_n n(2|x_n| - 1).

        Off the support the coordinate is zero, so those indices contribute
        -n and the supremum over them is minus the smallest index missing
        from the support; the sup is therefore exact on finite supports.
        All other output coordinates vanish.  An index beyond the float
        range cannot be scored and raises :class:`DomainMismatch`.
        """

        def fn(v):
            if v.space.kind != "sparse":
                raise DomainMismatch(
                    "l2_sup acts on finitely supported sequences, got %s"
                    % (v.space.to_json(),)
                )
            entries = v.data
            m = 1
            while m in entries:
                m += 1
            best = float(-m)
            try:
                for idx, coord in entries.items():
                    best = max(best, idx * (2.0 * abs(coord) - 1.0))
            except OverflowError:
                raise DomainMismatch(
                    "l2_sup cannot score index %d, beyond the float range" % idx
                ) from None
            return Vector(v.space, {1: best} if best != 0.0 else {})

        return cls("l2_sup", fn, {"name": "l2_sup"})

    @classmethod
    def custom(cls, fn: Callable[[Vector], Vector], label: str = "custom") -> "Generator":
        return cls(label, fn)

    def __call__(self, v: Vector) -> Vector:
        if not isinstance(v, Vector):
            raise DomainMismatch("generators act on Vector instances")
        return self.fn(v)

    def to_json(self) -> dict:
        if self._spec is None:
            raise ValueError("custom generators cannot be serialized")
        return copy.deepcopy(self._spec)

    @classmethod
    def from_json(cls, obj) -> "Generator":
        if not isinstance(obj, Mapping) or "name" not in obj:
            raise ValueError("generator must be an object with a 'name'")
        name = obj["name"]
        if not isinstance(name, str) or name not in _JSON_ARGS:
            raise ValueError("unknown generator name %r" % (name,))
        for key in _JSON_ARGS[name]:
            if key not in obj:
                raise ValueError("%s generator needs %r" % (name, key))
        return getattr(cls, name)(*(obj[key] for key in _JSON_ARGS[name]))

    def __repr__(self):
        return "Generator(%s)" % self.label


# each serializable kind: its factory's name and the JSON keys of its arguments
_JSON_ARGS = {
    "identity": (),
    "power": ("beta",),
    "scalar_lipschitz": ("breakpoints",),
    "l2_sup": (),
}


def compose_path(f: Generator, path: DiscretePath) -> DiscretePath:
    """Apply ``f`` to every sample value, keeping the time grid.

    ``f`` is applied once per distinct value object, in order of first
    appearance; samples holding the same object share its image, and
    images of one object are grouped, as values are.
    """
    images, codes = [f(v) for v in path.distinct], path.codes
    if len(set(map(id, images))) < len(images):  # one object for two values
        images, sub = _group(images)
        codes = sub if isinstance(codes, range) else sub[codes]
        codes.flags.writeable = False
    return DiscretePath._from_codes(path.times, path.interval, images, codes)


@dataclass
class HolderEstimate:
    """Largest observed ratio |f(u)-f(w)| / |u-w|^alpha over a point set.

    ``infinite`` marks the degenerate situation of two points at zero
    distance whose images differ; ``constant`` is then ``math.inf`` and the
    witness is the offending pair.  ``pair_count`` counts the pairs scanned
    at nonzero distance, NaN ratios included.
    """

    alpha: float
    constant: float
    witness: tuple[Vector, Vector] | None
    pair_count: int
    infinite: bool = False

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "constant": "inf" if self.infinite else self.constant,
            "witness": None
            if self.witness is None
            else [self.witness[0].to_json(), self.witness[1].to_json()],
            "pair_count": self.pair_count,
            "infinite": self.infinite,
        }


def estimate_holder(f: Generator, points: Sequence[Vector], alpha: float) -> HolderEstimate:
    """Scan all point pairs for the worst Holder ratio at exponent alpha.

    The estimate is the plain loop over pairs (i, j), i < j, in row-major
    order, that keeps the first pair attaining the maximum, so the witness
    is deterministic.  Each pair's distances are the rows of the coordinate
    embeddings of the points and of their images reduced by
    ``spaces.row_norms``, the distances ``pvar`` takes, and its ratio is
    ``gap / d ** alpha`` in array arithmetic.  A pair at distance 0 is
    skipped where its images are equal under ``==``; otherwise the estimate
    is infinite at once (equal points under a map that tells 0.0 from -0.0
    apart, or l2 distances that underflow: ``[0.0]`` vs ``[1e-200]``).
    Norms that overflow so that every ratio is NaN leave no estimate and
    raise :class:`PathInvariantError`.

    A block of rows i is scored against every later row in a few numpy
    calls, O(n^2 d) in all, each block's arrays within
    ``spaces.BLOCK_BYTES``.  All points, and all images, must share one
    space.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha("alpha must lie in (0, 1], got %r" % (alpha,))
    points = list(points)
    n = len(points)
    if n < 2:
        raise TooFewPoints("need at least 2 points, got %d" % n)
    images = [f(v) for v in points]
    imat = coordinate_matrix(images)
    icode = np.asarray(_distinct_rows(imat)[0])
    return _holder_scan(points, images, coordinate_matrix(points), imat, icode, alpha)


def _holder_scan(
    points: list[Vector],
    images: list[Vector],
    pmat: np.ndarray,
    imat: np.ndarray,
    icode: np.ndarray,
    alpha: float,
) -> HolderEstimate:
    """``estimate_holder`` over embedded points and images, and image codes equal as under ==."""
    n = len(points)
    pkind, ikind = points[0].space.norm, images[0].space.norm
    cap = spaces.BLOCK_BYTES // 8
    best, witness, count = -1.0, None, 0  # best stays -1.0 when every ratio is NaN
    a = 0
    while a < n - 1:  # rows [a, b) against every later row: column c is row a + 1 + c
        m = n - 1 - a
        b = min(n - 1, a + max(1, cap // m))
        with np.errstate(all="ignore"):  # a norm that overflows is inf, as in the pair loop
            d = panel_distances(pmat[a + 1 :], pmat[a:b], pkind)
            gap = panel_distances(imat[a + 1 :], imat[a:b], ikind)
            ratio = gap / d ** alpha
        later = np.arange(a + 1, n) > np.arange(a, b)[:, None]
        live = later & (d != 0.0)
        # a pair at distance 0 is skipped where its images are equal, else infinite
        jump = (later & ~live & (icode[a + 1 :] != icode[a:b, None])).ravel()
        if jump.any():
            f = int(jump.argmax())  # the first in row-major order
            r, c = divmod(f, m)
            return HolderEstimate(
                alpha=alpha,
                constant=math.inf,
                witness=(points[a + r], points[a + 1 + c]),
                pair_count=count + int(np.count_nonzero(live.ravel()[:f])),
                infinite=True,
            )
        count += int(np.count_nonzero(live))
        ratio[~(live & (ratio >= 0.0))] = -math.inf  # and NaN, which never beats best
        r, c = divmod(int(ratio.argmax()), m)  # the block's first maximum, row-major
        if ratio[r, c] > best:
            best, witness = float(ratio[r, c]), (points[a + r], points[a + 1 + c])
        a = b
    if count == 0:
        raise TooFewPoints("points contain fewer than 2 distinct vectors")
    if best < 0.0:
        raise PathInvariantError("L_hat is undefined: every Holder ratio is NaN, as norms overflow")
    return HolderEstimate(alpha=alpha, constant=best, witness=witness, pair_count=count)


@dataclass
class BoundCheckReport:
    """Measured two-sided data for the variation transfer inequality."""

    l_hat: float
    var_p: float
    var_q: float
    bound_holds: bool

    def to_json(self) -> dict:  # JSON has no Infinity: "inf", as HolderEstimate writes it
        return {
            "L_hat": self.l_hat if math.isfinite(self.l_hat) else "inf",
            "var_p": self.var_p,
            "var_q": self.var_q if math.isfinite(self.var_q) else "inf",
            "bound_holds": self.bound_holds,
        }


def composition_bound_check(
    f: Generator, path: DiscretePath, p: float, q: float
) -> BoundCheckReport:
    """Check var_q(f o x) <= L^q var_p(x) with L estimated at alpha = p/q.

    The estimate runs over the exact range of the path, so every increment
    the composed maximisation can use is itself one of the scanned pairs
    and the inequality holds in real arithmetic; the computed sides are
    compared up to ``_transfer_slack``, their rounding error.  L_hat and
    its ``infinite`` flag depend only on which (value, image) pairs the path
    holds, equal under float ``==`` as ``pvar`` groups values, so the scan
    runs over one sample of each, O(k^2) for k of them.
    A constant path has no distinct pairs; its estimate is taken as zero.
    An infinite bound (an infinite estimate, or a finite L_hat whose bound
    is beyond the floats) bounds nothing: the check holds, even over a
    var_q that overflows.  Norms that overflow leave nothing to compare
    and raise :class:`PathInvariantError`: every Holder ratio NaN (the
    scan refuses it, as for ``estimate_holder``), a var_p that is not finite, or any other var_q
    that is not (an L_hat that overflowed with it carries no information).
    """
    p, q = _check_pq(p, q)
    composed = compose_path(f, path)
    points, images, pmat, imat, icode = _value_pairs(path, composed)
    try:
        estimate = _holder_scan(points, images, pmat, imat, icode, p / q)
        l_hat = estimate.constant
        infinite = estimate.infinite
    except TooFewPoints:
        l_hat, infinite = 0.0, False
    var_p = pvar(path, p).value
    var_q = pvar(composed, q).value
    if not math.isfinite(var_p):
        raise PathInvariantError("var_p is %r: the norms of the path overflow" % var_p)
    e_p = _distance_error(path.space.norm, pmat.shape[1])
    slack = _transfer_slack(path.n, p, q, e_p, _distance_error(composed.space.norm, imat.shape[1]))
    tiny = path.n * _POW_ULPS * math.ulp(0.0)
    try:  # each power of var_p, var_q and L_hat^q may underflow, by _POW_ULPS subnormal ulps
        bound = (l_hat ** q + _POW_ULPS * math.ulp(0.0)) * (var_p + tiny) * (1.0 + slack)
    except OverflowError:
        bound = math.inf
    if not (math.isfinite(var_q) or infinite or l_hat < bound == math.inf):
        raise PathInvariantError("var_q is %r: the norms of the composed path overflow" % var_q)
    holds = infinite or var_q <= bound + tiny + math.ulp(0.0)  # and bound rounds twice
    return BoundCheckReport(l_hat=l_hat, var_p=var_p, var_q=var_q, bound_holds=bool(holds))


def _value_pairs(path: DiscretePath, composed: DiscretePath):
    """What the bound check scans: one sample of each (value, image) pair the
    path holds, by value code then image code, from the paths' value tables;
    its point and image objects, those of the pair's first sample, the
    tables' rows, and its image code.  A coordinate is as far from 0.0 as
    from -0.0, so those rows score every pair as the samples' own would.
    """
    (vcode, vrows), (icode, irows) = path.value_table(), composed.value_table()
    key = vcode.astype(np.intp) * len(irows) + icode  # byte-sized codes would overflow
    heads = np.unique(key, return_index=True)[1]
    vcode, icode = vcode[heads], icode[heads]
    points = [path.distinct[path.codes[h]] for h in heads.tolist()]
    images = [composed.distinct[composed.codes[h]] for h in heads.tolist()]
    return points, images, vrows[vcode], irows[icode], icode


def _transfer_slack(n: int, p: float, q: float, e_p: float, e_i: float) -> float:
    """Relative rounding error of var_q against L^q var_p, as computed.

    Inside ``spaces._trusted_range`` a computed norm is within a factor
    1 +- e of exact (e = ``_distance_error``: e_p on the path's values, e_i
    on their images), a power within P = _POW_ULPS ulps, and each sum of
    the DP takes at most n roundings.  Then:

    - var_q is below (1 + e_i)^q (1 + P eps)(1 + eps)^n times the exact sum
      over its partition, which is at most L^q var_p exactly;
    - the exact L is below L_hat (1 + e_p)^alpha (1 + P eps)(1 + eps) /
      (1 - e_i) e^(|alpha - a| |ln D|), D the distance at its pair: the
      scan's exponent a = fl(p / q) is within alpha eps / 2 of alpha, and
      |ln D| < 745 between any two vectors of floats;
    - the exact var_p is below (var_p + n P 2^-1074) / ((1 - e_p)^p (1 - P
      eps)(1 - eps)^n), the caller adding the term for powers that underflow;
    - the check takes one more power and four roundings.

    As alpha q = p, the logarithm of the product of these factors is below
    1.01 t, and e^x - 1 <= 2x while x <= 1.25.
    """
    t = 2.0 * q * e_i + 2.0 * p * e_p
    t += (q * (_POW_ULPS + 1) + 3 * _POW_ULPS + 2 * n + 4 + 372.5 * p) * _EPS
    return 2.02 * t if t <= 0.5 else math.inf


def _check_eps(eps) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError("eps must be positive, got %r" % (eps,))
    return eps


def epsilon_covering(points: Sequence[Vector] | DiscretePath, eps: float) -> int:
    """Greedy covering-number diagnostic: within factor 2 of optimal.

    The first point no center covers within ``eps`` becomes the next
    center, and drops the later points it covers: the centers a walk over
    the points in order would pick, bit for bit.  Returns the number of
    centers.  A :class:`DiscretePath` stands for its values and lends its
    cached coordinate embedding.

    On linf the points are screened a block of columns at a time: a point
    leaves a center's pass at its first coordinate gap above ``eps``, so
    its later columns are never read, and the points that pass every block
    are the covered ones.  Other norms take one ``pair_distances`` call.
    """
    eps = _check_eps(eps)
    if isinstance(points, DiscretePath):  # a repeated value is never a new center
        mat, kind = points.distinct_matrix(), points.space.norm
    else:
        points = list(points)
        if not points:
            return 0
        mat, kind = coordinate_matrix(points), points[0].space.norm
    left, centers = np.arange(mat.shape[0]), 0
    while left.size:
        c, left = left[0], left[1:]
        if kind.tag != "linf":
            left = left[pair_distances(mat, left, c, kind) > eps]
        else:  # the largest gap is the distance: a gap above eps drops a point
            near, a = np.arange(left.size), 0  # positions in left of the points c covers
            while near.size and a < mat.shape[1]:
                gap = mat[left[near], a : a + _block_rows(near.size)]
                gap -= mat[c, a : a + gap.shape[1]]
                near = np.delete(near, np.flatnonzero(np.abs(gap, out=gap) > eps) // gap.shape[1])
                a += gap.shape[1]
            left = np.delete(left, near)
        centers += 1
    return centers
