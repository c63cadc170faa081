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
panels ``pvar`` uses too, then confirms its maximum with
the scalar norms, so its result is the plain pair loop's bit for bit.  The
bound check runs it over the path's distinct values only.
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
from .paths import DiscretePath
from .spaces import (
    _BIG,
    _EPS,
    _POW_ULPS,
    _SMALL,
    Vector,
    _check_numbers,
    _distance_error,
    _trusted_range,
    block_buffer,
    coordinate_matrix,
    diff_norm,
    exact_array_distances,
    panel_distances,
    row_distances,
)
from .variation import _check_pq, _distinct_rows, pvar

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
    appearance; samples holding the same object share its image.
    """
    return path._mapped([f(v) for v in path.distinct])


@dataclass
class HolderEstimate:
    """Largest observed ratio |f(u)-f(w)| / |u-w|^alpha over a point set.

    ``infinite`` marks the degenerate situation of two points at zero
    distance whose images differ; ``constant`` is then ``math.inf`` and the
    witness is the offending pair.  ``pair_count`` counts the pairs that
    actually contributed a finite ratio.
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

    Pairs of componentwise-identical vectors are skipped; a pair at zero
    distance with differing images short-circuits to an infinite estimate.
    The scan runs in index order (i, j), i < j, and keeps the first pair
    attaining the maximum, so the witness is deterministic.

    A block of rows i is scored against every later row of the coordinate
    embeddings of the points and of their images in a few numpy calls,
    O(n^2 d) in all, each block's arrays within ``spaces.BLOCK_BYTES``.
    Array norms and powers may differ from the scalar ones in the last
    bits, so array ratios only locate the maximum: every pair within an
    error band of it is re-scored as ``diff_norm(f(u), f(w)) /
    diff_norm(u, w) ** alpha``, and pairs whose values leave the range the
    band covers (underflow, overflow, NaN) take those scalar steps in
    full.  Constant, witness and pair count are the plain loop's, bit for
    bit.  Ratios tied within the band are each re-scored, except at alpha
    = 1 where ``spaces.exact_array_distances`` holds for points and images
    (dense l1 and l2, and linf): there an array ratio is the scalar one, so
    the ties of the identity cost nothing.  Of the pairs near the maximum
    whose ratio is final, a block keeps only its first maximum.  All
    points, and all images, must share one space.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha("alpha must lie in (0, 1], got %r" % (alpha,))
    points = list(points)
    n = len(points)
    if n < 2:
        raise TooFewPoints("need at least 2 points, got %d" % n)
    images = [f(v) for v in points]
    return _holder_scan(points, images, coordinate_matrix(points), coordinate_matrix(images), alpha)


def _holder_scan(
    points: list[Vector],
    images: list[Vector],
    pmat: np.ndarray,
    imat: np.ndarray,
    alpha: float,
    both_ways: Callable[[int, int], bool] | None = None,
) -> HolderEstimate:
    """``estimate_holder`` over points and images already embedded.

    ``both_ways(i, j)`` says that the pair also counts as (j, i), whose
    scalar norms may differ in the last bit for sparse vectors (their
    difference sums in another order); the larger ratio of the two is kept.
    """
    n = len(points)
    pkind, ikind = points[0].space.norm, images[0].space.norm
    pcode = np.asarray(_distinct_rows(pmat)[0])
    icode = np.asarray(_distinct_rows(imat)[0])
    dlo, dhi = _trusted_range(pkind, pmat.shape[1])
    nlo, nhi = _trusted_range(ikind, imat.shape[1])
    # Array and scalar ratios are each within the error of both norms plus
    # (_POW_ULPS + 2) eps of the exact one: one power for d ** alpha, one
    # rounding for the division, one spare.  They differ by at most twice
    # that, so the pair with the largest scalar ratio has an array ratio
    # above top (1 - 3 band).
    band = 2.0 * (
        _distance_error(pmat.shape[1]) + _distance_error(imat.shape[1]) + (_POW_ULPS + 2) * _EPS
    )
    cut = 1.0 - 3.0 * band
    # array distances with diff_norm's bits: at alpha = 1 the array ratio is the scalar one
    same = alpha == 1.0 and all(exact_array_distances(v[0].space) for v in (points, images))

    def scalar(i: int, j: int) -> float:
        r = diff_norm(images[i], images[j]) / diff_norm(points[i], points[j]) ** alpha
        if both_ways is not None and both_ways(i, j):
            s = diff_norm(images[j], images[i]) / diff_norm(points[j], points[i]) ** alpha
            if s > r or r != r:
                r = s
        return r

    cap = spaces.BLOCK_BYTES // 8
    buf = np.empty(max(cap, n))
    top = -math.inf  # largest ratio so far, array or scalar
    kept = []  # per block: rows i, columns j, ratios and exact? of pairs near the top
    count = 0
    a = 0
    while a < n - 1:  # rows [a, b) against every later row: column c is row a + 1 + c
        m = n - 1 - a
        b = min(n - 1, a + max(1, cap // m))
        with np.errstate(all="ignore"):  # what overflows is re-scored below
            d = panel_distances(pmat[a + 1 :], pmat[a:b], pkind, buf)
            gap = panel_distances(imat[a + 1 :], imat[a:b], ikind, buf)
            ratio = gap / d ** alpha
        later = np.arange(a + 1, n) > np.arange(a, b)[:, None]
        live = later & (pcode[a + 1 :] != pcode[a:b, None])  # identical points are skipped
        fixed = icode[a + 1 :] == icode[a:b, None]  # equal images: ratio exactly 0
        trusted = (
            (d >= dlo) & (d <= dhi)
            & (fixed | (gap >= nlo) & (gap <= nhi) & (ratio >= _SMALL) & (ratio <= _BIG))
        )
        exact = fixed | ~trusted | same
        with np.errstate(over="ignore"):  # a norm that overflows is inf, as in the pair loop
            for f in (live & ~trusted).ravel().nonzero()[0].tolist():  # the scalar steps, row-major
                r, c = divmod(f, m)
                i, j = a + r, a + 1 + c
                dist = diff_norm(points[i], points[j])
                if dist == 0.0:
                    if images[i] == images[j]:
                        live[r, c] = False
                        continue
                    return HolderEstimate(
                        alpha=alpha,
                        constant=math.inf,
                        witness=(points[i], points[j]),
                        pair_count=count + int(np.count_nonzero(live.ravel()[:f])),
                        infinite=True,
                    )
                ratio[r, c] = scalar(i, j)
        count += int(np.count_nonzero(live))
        top = max(top, float(ratio.max(where=live & ~np.isnan(ratio), initial=-math.inf)))
        rs, cs = (live & (ratio >= top * cut)).nonzero()  # row-major
        settled = exact[rs, cs]  # ratios no re-score can change
        if np.count_nonzero(settled) > 1:  # a later one never beats their first maximum
            at = settled.nonzero()[0]
            settled[at[ratio[rs[at], cs[at]].argmax()]] = False  # so it alone is kept
            rs, cs = rs[~settled], cs[~settled]
        if rs.size:
            kept.append((rs + a, cs + (a + 1), ratio[rs, cs], exact[rs, cs]))
        a = b
    if count == 0:
        raise TooFewPoints("points contain fewer than 2 distinct vectors")
    best, witness = -1.0, None  # stays so when every ratio is NaN
    if kept:
        rows, cols, ratios, scored = (np.concatenate(part) for part in zip(*kept))
        near = ratios >= top * cut  # against the final top
        rows, cols, ratios, scored = (part[near] for part in (rows, cols, ratios, scored))
        with np.errstate(over="ignore"):
            for k in (~scored).nonzero()[0].tolist():
                ratios[k] = scalar(int(rows[k]), int(cols[k]))
        ratios[np.isnan(ratios)] = -math.inf
        if ratios.size and ratios.max() > best:
            k = int(ratios.argmax())  # the first maximum in row-major order
            best, witness = float(ratios[k]), (points[rows[k]], points[cols[k]])
    return HolderEstimate(alpha=alpha, constant=best, witness=witness, pair_count=count)


@dataclass
class BoundCheckReport:
    """Measured two-sided data for the variation transfer inequality."""

    l_hat: float
    var_p: float
    var_q: float
    bound_holds: bool

    def to_json(self) -> dict:
        return {
            "L_hat": self.l_hat,
            "var_p": self.var_p,
            "var_q": self.var_q,
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
    its ``infinite`` flag depend only on which pairs of values the path
    holds (and for sparse vectors in which orders), so the scan runs over
    its distinct values, O(k^2) for k of them.
    A constant path has no distinct pairs; its estimate is taken as zero.
    An infinite bound (an infinite estimate, or a finite L_hat whose bound
    is beyond the floats) bounds nothing: the check holds, even over a
    var_q that overflows.  Norms that overflow leave nothing to compare
    and raise :class:`PathInvariantError`: an L_hat left at -1.0 because
    every ratio is NaN, a var_p that is not finite, or any other var_q
    that is not (an L_hat that overflowed with it carries no information).
    """
    p, q = _check_pq(p, q)
    composed = compose_path(f, path)
    points, images, pmat, imat, both_ways = _value_pairs(path, composed)
    try:
        estimate = _holder_scan(points, images, pmat, imat, p / q, both_ways)
        l_hat = estimate.constant
        infinite = estimate.infinite
    except TooFewPoints:
        l_hat, infinite = 0.0, False
    if not (infinite or l_hat >= 0.0):
        raise PathInvariantError("L_hat is undefined: every Holder ratio is NaN, as norms overflow")
    var_p = pvar(path, p).value
    var_q = pvar(composed, q).value
    if not math.isfinite(var_p):
        raise PathInvariantError("var_p is %r: the norms of the path overflow" % var_p)
    slack = _transfer_slack(path.n, p, q, pmat.shape[1], imat.shape[1])
    try:  # each power in var_p may also underflow, by _POW_ULPS subnormal ulps
        bound = l_hat ** q * (var_p + path.n * _POW_ULPS * math.ulp(0.0)) * (1.0 + slack)
    except OverflowError:
        bound = math.inf
    if not (math.isfinite(var_q) or infinite or l_hat < bound == math.inf):
        raise PathInvariantError("var_q is %r: the norms of the composed path overflow" % var_q)
    holds = infinite or var_q <= bound
    return BoundCheckReport(l_hat=l_hat, var_p=var_p, var_q=var_q, bound_holds=bool(holds))


def _value_pairs(path: DiscretePath, composed: DiscretePath):
    """What the bound check scans: one sample of each (value, image) pair of
    floats the path holds, by first appearance, its points, images and their
    embeddings, and ``both_ways`` for ``_holder_scan`` on sparse spaces.

    Samples whose value and image hold the same floats, in the same entry
    order for sparse vectors, score alike against any other.  The order of
    a pair matters only to sparse norms: pairs i < j also occur as j before
    i when a sample of j comes before the last of i.
    """
    groups: dict = {}
    pairs = zip(map(_key, path.distinct), map(_key, composed.distinct))
    group = np.array([groups.setdefault(pair, len(groups)) for pair in pairs])
    heads = np.unique(group, return_index=True)[1].tolist()
    points, images = [path.distinct[h] for h in heads], [composed.distinct[h] for h in heads]
    pmat, imat = path.distinct_matrix()[heads], composed.distinct_matrix()[heads]
    both_ways = None
    if len(groups) < len(path) and "sparse" in (path.space.kind, composed.space.kind):
        codes = group[path.codes]
        first = np.unique(codes, return_index=True)[1]
        last = len(codes) - 1 - np.unique(codes[::-1], return_index=True)[1]
        both_ways = lambda i, j: bool(first[j] < last[i])
    return points, images, pmat, imat, both_ways


def _key(v: Vector):
    return v.data.tobytes() if v.space.kind == "dense" else tuple(v.data.items())


def _transfer_slack(n: int, p: float, q: float, pcols: int, icols: int) -> float:
    """Relative rounding error of var_q against L^q var_p, as computed.

    Inside ``spaces._trusted_range`` a computed norm is within a factor
    1 +- e of exact (e = ``_distance_error``), a power within P = _POW_ULPS
    ulps, and each sum of the DP takes at most n roundings.  Then:

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
    t = 2.0 * q * _distance_error(icols) + 2.0 * p * _distance_error(pcols)
    t += (q * (_POW_ULPS + 1) + 3 * _POW_ULPS + 2 * n + 4 + 372.5 * p) * _EPS
    return 2.02 * t if t <= 0.5 else math.inf


def epsilon_covering(points: Sequence[Vector] | DiscretePath, eps: float) -> int:
    """Greedy covering-number diagnostic: within factor 2 of optimal.

    The first point no center covers within ``eps`` becomes the next
    center, and one distance call drops the later points it covers: the
    centers a walk over the points in order would pick, bit for bit.
    Returns the number of centers.  A :class:`DiscretePath` stands for its
    values and lends its cached coordinate embedding.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if isinstance(points, DiscretePath):  # a repeated value is never a new center
        mat, kind = points.distinct_matrix(), points.space.norm
    else:
        points = list(points)
        if not points:
            return 0
        mat, kind = coordinate_matrix(points), points[0].space.norm
    buf = block_buffer(mat.shape[0], mat.shape[1])
    left, centers = np.arange(mat.shape[0]), 0
    while left.size:
        c, left = left[0], left[1:]
        left = left[row_distances(mat, mat[c], kind, buf, left) > eps]
        centers += 1
    return centers
