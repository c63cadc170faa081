"""Composition operators and empirical Holder-constant estimation.

A :class:`Generator` is a pointwise map f on vectors; ``compose_path``
pushes a whole path through it, once per distinct value object.
``estimate_holder`` scans a finite point set for the largest ratio
|f(u) - f(w)| / |u - w|^alpha, which lower-bounds any true Holder constant
of f on that set, and ``composition_bound_check`` ties the pieces
together: with alpha = p/q and the constant estimated on the exact range
of the path, the q-variation of the composed path can never exceed L^q
times the p-variation of the input.

The pair scans take their distances row by row from the coordinate
embedding through ``spaces.row_distances``, the kernel ``pvar`` uses too;
the Holder scan then confirms its maximum with the scalar norms, so its
result is the plain pair loop's bit for bit.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    InvalidAlpha,
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

    Each row i is scored against rows i+1.. of the coordinate embeddings
    of the points and of their images in a few numpy calls, O(n^2 d) in
    all.  Array norms and powers may differ from the scalar ones in the
    last bits, so array ratios only locate the maximum: every pair within
    an error band of it is re-scored as ``diff_norm(f(u), f(w)) /
    diff_norm(u, w) ** alpha``, and pairs whose values leave the range the
    band covers (underflow, overflow, NaN) take those scalar steps in
    full.  Constant, witness and pair count are the plain loop's, bit for
    bit.  Ratios tied within the band are each re-scored, so a map whose
    ratios all tie (the identity at alpha = 1) costs one scalar step per
    pair.  All points, and all images, must share one space.
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
    points: list[Vector], images: list[Vector], pmat: np.ndarray, imat: np.ndarray, alpha: float
) -> HolderEstimate:
    """``estimate_holder`` over points and images already embedded."""
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
    pbuf, ibuf = block_buffer(n - 1, pmat.shape[1]), block_buffer(n - 1, imat.shape[1])
    top = -math.inf  # largest ratio so far, array or scalar
    kept = []  # per row: (i, columns j, ratios, exact?) of pairs near the top
    count = 0
    for i in range(n - 1):
        live = pcode[i + 1 :] != pcode[i]  # identical points are skipped
        with np.errstate(all="ignore"):  # what overflows is re-scored below
            d = row_distances(pmat[i + 1 :], pmat[i], pkind, pbuf)
            gap = row_distances(imat[i + 1 :], imat[i], ikind, ibuf)
            ratio = gap / d ** alpha
        fixed = icode[i + 1 :] == icode[i]  # equal images: ratio exactly 0
        trusted = (
            (d >= dlo) & (d <= dhi)
            & (fixed | (gap >= nlo) & (gap <= nhi) & (ratio >= _SMALL) & (ratio <= _BIG))
        )
        exact = fixed | ~trusted
        for k in (live & ~trusted).nonzero()[0].tolist():  # the scalar steps
            j = i + 1 + k
            dist = diff_norm(points[i], points[j])
            if dist == 0.0:
                if images[i] == images[j]:
                    live[k] = False
                    continue
                return HolderEstimate(
                    alpha=alpha,
                    constant=math.inf,
                    witness=(points[i], points[j]),
                    pair_count=count + int(np.count_nonzero(live[:k])),
                    infinite=True,
                )
            ratio[k] = diff_norm(images[i], images[j]) / dist ** alpha
        count += int(np.count_nonzero(live))
        top = max(top, float(ratio.max(where=live & ~np.isnan(ratio), initial=-math.inf)))
        near = (live & (ratio >= top * cut)).nonzero()[0]
        if near.size:
            kept.append((i, near + (i + 1), ratio[near], exact[near]))
    if count == 0:
        raise TooFewPoints("points contain fewer than 2 distinct vectors")
    best, witness = -1.0, None  # stays so when every ratio is NaN
    lo = top * cut
    for i, js, ratios, scored in kept:  # row-major order
        for j, r, e in zip(js.tolist(), ratios.tolist(), scored.tolist()):
            if not r >= lo:
                continue
            if not e:
                r = diff_norm(images[i], images[j]) / diff_norm(points[i], points[j]) ** alpha
            if r > best:
                best, witness = r, (points[i], points[j])
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
    compared up to ``_transfer_slack``, their rounding error.  A constant
    path has no distinct pairs; its estimate is taken as zero.  An infinite
    estimate, or an L_hat^q beyond the floats, bounds nothing: the check
    holds.
    """
    p, q = _check_pq(p, q)
    composed = compose_path(f, path)
    pmat, imat = path.coordinate_matrix(), composed.coordinate_matrix()
    try:
        estimate = _holder_scan(path.values, composed.values, pmat, imat, p / q)
        l_hat = estimate.constant
        infinite = estimate.infinite
    except TooFewPoints:
        l_hat, infinite = 0.0, False
    var_p = pvar(path, p).value
    var_q = pvar(composed, q).value
    slack = _transfer_slack(path.n, p, q, pmat.shape[1], imat.shape[1])
    try:  # each power in var_p may also underflow, by _POW_ULPS subnormal ulps
        bound = l_hat ** q * (var_p + path.n * _POW_ULPS * math.ulp(0.0)) * (1.0 + slack)
    except OverflowError:
        bound = math.inf
    holds = infinite or var_q <= bound
    return BoundCheckReport(l_hat=l_hat, var_p=var_p, var_q=var_q, bound_holds=bool(holds))


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

    Walks the points in order; each point not within ``eps`` of an existing
    center becomes one.  Returns the number of centers.  A
    :class:`DiscretePath` stands for its values and lends its cached
    coordinate embedding.
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
    centers: list[int] = []
    for i in range(mat.shape[0]):
        if centers:
            dists = row_distances(mat[centers], mat[i], kind, buf)
            if float(dists.min()) <= eps:
                continue
        centers.append(i)
    return len(centers)
