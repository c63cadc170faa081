"""Stress constructions for the variation engine and composition operators.

Each generator here materialises a finite truncation of an explicit step
path family that pushes some part of the machinery to its edge: ranges
that stay bounded in variation while spreading over ever more directions,
composition operators that blow up the variation of tame inputs, and spike
trains whose variation is computable in closed form.  Every construction
returns an ordinary :class:`~pvarkit.paths.DiscretePath` with one sample
per constant piece, so the discrete maximisation reproduces the supremum
over all real partitions exactly.

Experiments bundle a construction with the quantity it is claimed to bound
and emit a :class:`ClaimReport`: the divergence constructions claim lower
bounds, Example 3 claims upper bounds, and either kind serializes to the
CSV schema ``depth, quantity, claimed_bound, satisfied``.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BlockTooLarge,
    GapConditionViolated,
    NoViolatorFound,
    PvarkitError,
    SpikeOverflow,
)
from .operators import Generator, compose_path, epsilon_covering
from .paths import DiscretePath
from .spaces import (
    L2,
    LINF,
    Vector,
    VectorSpace,
    coordinate_matrix,
    diff_norm,
    exact_array_distances,
    norm as vector_norm,
    panel_distances,
)
from .variation import _check_exponent, _check_pq, bv_norm, pvar

__all__ = [
    "SPIKE_CAP",
    "DEFAULT_DEPTHS",
    "ClaimReport",
    "DivergenceReport",
    "BoundReport",
    "SpikeBlock",
    "gen_example3",
    "gen_step2_path",
    "step4_blocks",
    "gen_step4_path",
    "find_holder_violators",
    "run_divergence_step6",
    "gen_example5_experiment",
    "gen_thm6_spikes",
    "gen_remark_spikes",
    "step4_restricted_bound",
    "step4_total_bound",
    "power_divergence_candidates",
    "Step4Experiment",
    "step4_divergence_experiment",
    "Example3Experiment",
    "example3_experiment",
    "thm6_experiment",
    "remark_experiment",
]

SPIKE_CAP = 10 ** 6
DEFAULT_DEPTHS = (1, 2, 4, 8, 16)
BOUND_TOL = 1e-9  # absolute slack of each claim; every claim here has a wide margin

_FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FMT % (x,)


def _write_rows(fp, rows) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["depth", "quantity", "claimed_bound", "satisfied"])
    for depth, quantity, bound, ok in rows:
        writer.writerow([depth, _fmt(quantity), _fmt(bound), "true" if ok else "false"])


@dataclass
class ClaimReport:
    """Measured quantities against claimed bounds, depth by depth.

    ``lower`` says which side the claims bound: a quantity satisfies a
    lower bound when it is at least the bound, an upper bound when it is
    at most the bound, both up to ``BOUND_TOL``.
    """

    depths: list[int]
    quantities: list[float]
    bounds: list[float]
    lower: bool
    all_satisfied: bool

    @classmethod
    def build(cls, depths, quantities, bounds, lower: bool) -> "ClaimReport":
        report = cls(
            [int(d) for d in depths],
            [float(x) for x in quantities],
            [float(b) for b in bounds],
            bool(lower),
            False,
        )
        report.all_satisfied = all(row[3] for row in report.rows())
        return report

    def rows(self):
        return [
            (d, x, b, x >= b - BOUND_TOL if self.lower else x <= b + BOUND_TOL)
            for d, x, b in zip(self.depths, self.quantities, self.bounds)
        ]

    def to_json(self) -> dict:
        return {
            "depths": self.depths,
            "quantities": self.quantities,
            "claimed_lower_bounds" if self.lower else "claimed_upper_bounds": self.bounds,
            "all_satisfied": self.all_satisfied,
        }

    def write_csv(self, fp) -> None:
        _write_rows(fp, self.rows())


# the per-direction names, kept for code that imports them
DivergenceReport = BoundReport = ClaimReport


def _check_depth(depth) -> int:
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise ValueError("depth must be an integer >= 1, got %r" % (depth,))
    return depth


def _check_cap(cap) -> None:
    if not isinstance(cap, int) or cap < 2:
        raise ValueError("cap must be an integer >= 2")


# ---------------------------------------------------------------------------
# step-path families


def gen_example3(depth: int) -> DiscretePath:
    """Step path in the sup-normed sequence space whose range never clusters.

    Piece k (constant on [1 - 1/k, 1 - 1/(k+1))) takes the value with
    coordinates (1, 1/4, ..., 1/k^2); the path ends at 0.  Its 1-variation
    stays below 1 + sum 1/(i+1)^2 at every depth, yet the range keeps a
    sup-distance of 1/(j+1)^2 between piece j and everything after it, so
    no finite epsilon net ever stops growing as epsilon shrinks.

    The path is built from its coordinate embedding, filled in one pass:
    row k - 1 holds 1/j^2 in column j - 1 for j <= k (k^2 is exact in a
    float, so numpy divides to Python's bits) and the last row is zero.
    Its vectors are made only if ``distinct`` or ``values`` is read; the
    times are ``gen_step2_path``'s.
    """
    depth = _check_depth(depth)
    k = np.arange(1, depth + 1, dtype=float)
    rows = np.zeros((depth + 1, depth))
    np.copyto(rows[:depth], np.divide(1.0, k * k), where=np.tri(depth, dtype=bool))
    return DiscretePath._from_rows(
        _step2_times(depth), (0.0, 1.0), VectorSpace("sparse", LINF), rows, np.arange(1, depth + 1)
    )


def gen_step2_path(step_values: Sequence[Vector]) -> DiscretePath:
    """Step path taking ``step_values[n-1]`` on [1 - 1/n, 1 - 1/(n+1)), 0 at 1."""
    step_values = list(step_values)
    if not step_values:
        raise ValueError("need at least one step value")
    values = step_values + [step_values[0].space.zero()]
    return DiscretePath(_step2_times(len(step_values)), values, (0.0, 1.0))


def _step2_times(steps: int) -> list[float]:
    return [1.0 - 1.0 / n for n in range(1, steps + 1)] + [1.0]


def _spike_block(t0, t1, background, spike, m, times, values) -> None:
    # Appends the interior of one spike block: spike k at t0 + k h, back to
    # the background h / 2 later.  The caller has already emitted the sample
    # at t0 and will emit one at (or after) t1; ``times`` collects arrays.
    h = (t1 - t0) / (m + 1)
    block = np.empty((m, 2))
    block[:, 0] = t0 + np.arange(1, m + 1) * h
    block[:, 1] = block[:, 0] + h / 2.0
    times.append(block.ravel())
    values += [spike, background] * m


def _spike_train(interval, background, spike, m) -> DiscretePath:
    # background at both ends of [a, b] with m spikes equally spaced inside
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    times, values = [[a]], [background]
    _spike_block(a, b, background, spike, m, times, values)
    times.append([b])
    values.append(background)
    return DiscretePath(np.concatenate(times), values, (a, b))


SpikeBlock = namedtuple("SpikeBlock", "n u w gap m_raw m_used capped")


def step4_blocks(
    p: float,
    q: float,
    pairs: Sequence[tuple[Vector, Vector]],
    depth: int | None = None,
    cap: int = SPIKE_CAP,
    strict: bool = False,
) -> list[SpikeBlock]:
    """Per-block spike counts m_n = floor(n^(-2q) |u_n - w_n|^(-p)).

    Block n requires |u_n - w_n| <= 1/(2 n^2); together with the growth gap
    this keeps the floor at 2 or more, and a block whose floor comes out
    below 2 is rejected as violating the construction's preconditions.
    Raw counts above ``cap`` raise in strict mode and are truncated to
    ``cap`` otherwise (``capped`` marks those blocks).
    """
    p, q = _check_pq(p, q)
    pairs = list(pairs)
    if depth is None:
        depth = len(pairs)
    depth = _check_depth(depth)
    if depth > len(pairs):
        raise ValueError("depth %d exceeds the %d supplied pairs" % (depth, len(pairs)))
    _check_cap(cap)
    blocks = []
    for n in range(1, depth + 1):
        u, w = pairs[n - 1]
        gap = diff_norm(u, w)
        if gap == 0.0:
            raise ValueError("pair %d is degenerate: u = w" % (n,))
        limit = 1.0 / (2.0 * n * n)
        if gap > limit:
            raise GapConditionViolated(
                "pair %d has |u-w| = %.17g above the closeness bound 1/(2 n^2) = %.17g"
                % (n, gap, limit)
            )
        t = float(n) ** (-2.0 * q) * gap ** (-p)
        m_raw = int(math.floor(t)) if t < 9e15 else None
        if m_raw is not None and m_raw < 2:
            raise GapConditionViolated(
                "pair %d yields spike count %d < 2; the pair is too far apart "
                "for its index" % (n, m_raw)
            )
        if m_raw is None or m_raw > cap:
            if strict:
                raise BlockTooLarge(
                    "block %d wants %s spikes, above the cap %d"
                    % (n, "over 9e15" if m_raw is None else str(m_raw), cap)
                )
            blocks.append(SpikeBlock(n, u, w, gap, m_raw, cap, True))
        else:
            blocks.append(SpikeBlock(n, u, w, gap, m_raw, m_raw, False))
    return blocks


def gen_step4_path(
    p: float,
    q: float,
    pairs: Sequence[tuple[Vector, Vector]],
    depth: int | None = None,
    cap: int = SPIKE_CAP,
    strict: bool = False,
) -> DiscretePath:
    """Spike-train path on [0, 1] built from close pairs (u_n, w_n).

    Block n lives on [1/(n+1), 1/n) with background w_n and m_n spikes of
    u_n at equally spaced interior points; the path starts at 0 and ends
    at w_1.  Deeper blocks sit closer to time zero, so restricting to
    [1/(n+1), 1] keeps exactly blocks 1..n.
    """
    blocks = step4_blocks(p, q, pairs, depth, cap, strict)
    space = blocks[0].u.space
    times, values = [[0.0]], [space.zero()]
    for block in reversed(blocks):
        t0 = 1.0 / (block.n + 1)
        t1 = 1.0 / block.n
        times.append([t0])
        values.append(block.w)
        _spike_block(t0, t1, block.w, block.u, block.m_used, times, values)
    times.append([1.0])
    values.append(blocks[0].w)
    return DiscretePath(np.concatenate(times), values, (0.0, 1.0))


def step4_restricted_bound(p: float, n: int) -> float:
    """Claimed bound for the spike path's p-variation on [1/(n+1), 1]."""
    p = float(p)
    total = sum(2.0 / (i * i) for i in range(1, n + 1))
    total += sum(2.0 ** (p + 1.0) / float(i) ** (2.0 * p) for i in range(1, n))
    return total


def step4_total_bound(p: float, r: float, terms: int = 10 ** 6) -> float:
    """Claimed bound for the spike path's full p-variation.

    ``r`` bounds the value norms; the two tail series are evaluated as
    ``terms``-term partial sums, which only lowers the bound and keeps the
    claim honest.
    """
    p = float(p)
    i = np.arange(1, terms + 1, dtype=float)
    return (
        2.0 ** p * float(r) ** p
        + 2.0 ** (p + 1.0) * math.fsum(memoryview(1.0 / (i * i)))
        + 2.0 ** (2.0 * p + 1.0) * math.fsum(memoryview(i ** (-2.0 * p)))
    )


# ---------------------------------------------------------------------------
# growth-gap search and the divergence harness


def find_holder_violators(
    f: Generator,
    p: float,
    q: float,
    M: float,
    candidates: Sequence[Vector],
    count: int,
) -> list[tuple[Vector, Vector]]:
    """For each n <= count, the first candidate pair with a large image gap.

    A pair qualifies at index n when |f(u) - f(w)| > 4 M n^2 |u - w|^(p/q).
    The scan runs lexicographically over index pairs (i, j), i < j, so the
    result is deterministic.  ``M`` must dominate |f| over the candidates.
    Raises :class:`NoViolatorFound` at the first index with no qualifying
    pair, which is the expected outcome for a (p/q)-Holder generator.
    """
    p, q = _check_pq(p, q)
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError("need at least 2 candidates")
    count = _check_depth(count)
    M = float(M)
    images = [f(v) for v in candidates]
    peak = max(vector_norm(img) for img in images)
    if not M >= peak:
        raise ValueError(
            "M=%.17g does not dominate max |f| over the candidates (%.17g)" % (M, peak)
        )
    alpha = p / q
    # every pair at nonzero distance, in scan order, with |u-w|^alpha and
    # |f(u)-f(w)|: each index n then only compares the two against 4 M n^2;
    # each power scalar, as array powers may differ in the last bit
    index, gaps, image_gaps = _pair_gaps(candidates, images)
    powers = np.array([gap ** alpha for gap in gaps])
    pairs = []
    for n in range(1, count + 1):
        hits = (image_gaps > 4.0 * M * n * n * powers).nonzero()[0]
        if not hits.size:
            raise NoViolatorFound(n)
        i, j = index[hits[0]]
        pairs.append((candidates[i], candidates[j]))
    return pairs


def _pair_gaps(points: list[Vector], images: list[Vector]):
    """Pairs (i, j), i < j, of points at nonzero distance in row-major
    order, with |u - w| as a list and |f(u) - f(w)| as an array.

    Where ``exact_array_distances`` holds for points and images, one
    distance panel of each matrix gives every pair ``diff_norm``'s bits;
    other spaces take a scalar step per pair."""
    if exact_array_distances(points[0].space) and exact_array_distances(images[0].space):
        i, j = np.triu_indices(len(points), 1)
        buf = np.empty(len(points) ** 2)
        pmat, imat = coordinate_matrix(points), coordinate_matrix(images)
        gaps = panel_distances(pmat, pmat, points[0].space.norm, buf)[i, j]
        image_gaps = panel_distances(imat, imat, images[0].space.norm, buf)[i, j]
        keep = gaps != 0.0
        return list(zip(i[keep].tolist(), j[keep].tolist())), gaps[keep].tolist(), image_gaps[keep]
    index, gaps, image_gaps = [], [], []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = diff_norm(points[i], points[j])
            if gap != 0.0:
                index.append((i, j))
                gaps.append(gap)
                image_gaps.append(diff_norm(images[i], images[j]))
    return index, gaps, np.array(image_gaps)


def run_divergence_step6(
    f: Generator,
    p: float,
    q: float,
    pairs: Sequence[tuple[Vector, Vector]],
    M: float | None = None,
    depths: Sequence[int] | None = None,
    cap: int = SPIKE_CAP,
    strict: bool = False,
) -> ClaimReport:
    """Measure var_q of the composed spike path against its claimed growth.

    For each depth d the spike path over ``pairs[:d]`` is composed with
    ``f`` and its q-variation computed exactly.  Each uncapped block
    contributes at least M^q to the claimed lower bound (that is what the
    growth gap plus the floor formula certify); a capped block contributes
    the directly certified m_used |f(u)-f(w)|^q instead.
    """
    p, q = _check_pq(p, q)
    pairs = list(pairs)
    if depths is None:
        depths = [d for d in DEFAULT_DEPTHS if d <= len(pairs)]
    depths = sorted({_check_depth(d) for d in depths})
    if not depths:
        raise ValueError("no depths to run")
    top = depths[-1]
    image_gaps = [diff_norm(f(u), f(w)) for u, w in pairs[:top]]
    peak = max(
        max(vector_norm(f(u)), vector_norm(f(w))) for u, w in pairs[:top]
    )
    if M is None:
        M = peak
    M = float(M)
    if not M >= peak:
        raise ValueError(
            "M=%.17g does not dominate max |f| over the pair points (%.17g)" % (M, peak)
        )
    for n in range(1, top + 1):
        u, w = pairs[n - 1]
        gap = diff_norm(u, w)
        if not image_gaps[n - 1] > 4.0 * M * n * n * gap ** (p / q):
            raise GapConditionViolated(
                "pair %d fails the growth gap |f(u)-f(w)| > 4 M n^2 |u-w|^(p/q)" % (n,)
            )
    blocks = step4_blocks(p, q, pairs, top, cap, strict)
    claims = [
        M ** q if not blk.capped else blk.m_used * image_gaps[blk.n - 1] ** q
        for blk in blocks
    ]
    prefix = np.cumsum(claims)
    bounds = [float(prefix[d - 1]) for d in depths]

    quantities = [
        pvar(compose_path(f, gen_step4_path(p, q, pairs, d, cap, strict)), q).value
        for d in depths
    ]
    return ClaimReport.build(depths, quantities, bounds, lower=True)


# ---------------------------------------------------------------------------
# unbounded composition on the sequence space


def gen_example5_experiment(depths: Sequence[int] = range(1, 11)) -> ClaimReport:
    """Unit-norm constant paths whose images under l2_sup have norm k.

    The k-th input, for each k in ``depths``, is the constant path at the
    k-th standard basis sequence; its 1-variation norm is exactly 1, while
    the composed path's 1-variation norm is exactly k.  Both sides are
    integer-valued, so the report is exact, no tolerance involved.
    """
    depths = sorted({_check_depth(d) for d in depths})
    f = Generator.l2_sup()
    space = VectorSpace("sparse", L2)
    quantities = []
    for k in depths:
        e_k = Vector(space, {k: 1.0})
        path = DiscretePath([0.0, 1.0], [e_k, e_k], (0.0, 1.0))
        unit = bv_norm(path, 1.0)
        if unit != 1.0:
            raise PvarkitError("input norm drifted off 1 at k=%d: %r" % (k, unit))
        quantities.append(bv_norm(compose_path(f, path), 1.0))
    return ClaimReport.build(depths, quantities, depths, lower=True)


# ---------------------------------------------------------------------------
# closed-form spike trains


def gen_thm6_spikes(
    u: Vector,
    w: Vector,
    p: float,
    interval: tuple[float, float] = (0.0, 1.0),
    cap: int = SPIKE_CAP,
) -> DiscretePath:
    """Background w with m = floor(|u-w|^(-p)) spikes of u; p-variation <= 2.

    Needs 0 < |u - w| <= 1 so the floor is at least 1.  The alternating
    structure makes the p-variation exactly 2 m |u - w|^p, which the floor
    keeps at or below 2; the bound is re-checked after construction.
    """
    p = _check_exponent(p)
    gap = diff_norm(u, w)
    if gap == 0.0:
        raise ValueError("u and w must differ")
    if gap > 1.0:
        raise ValueError("need |u - w| <= 1, got %.17g" % gap)
    t = gap ** (-p)
    m = int(math.floor(t)) if t < 9e15 else None
    if m is None or m > cap:
        raise SpikeOverflow(
            "spike count %s exceeds the cap %d"
            % ("over 9e15" if m is None else str(m), cap)
        )
    path = _spike_train(interval, w, u, m)
    if 2.0 * m * gap ** p > 2.0 + BOUND_TOL:
        raise PvarkitError("spike train exceeded its variation budget")
    if pvar(path, p).value > 2.0 + BOUND_TOL:
        raise PvarkitError("spike train exceeded its variation budget")
    return path


def gen_remark_spikes(
    u: Vector, n: int, interval: tuple[float, float] = (0.0, 1.0)
) -> DiscretePath:
    """Zero background with n spikes of u, equally spaced inside (a, b)."""
    n = _check_depth(n)
    if u.is_zero():
        raise ValueError("u must be nonzero")
    return _spike_train(interval, u.space.zero(), u, n)


# ---------------------------------------------------------------------------
# packaged experiments (also what the command line runs)


def power_divergence_candidates(j_lo: int = 10, j_hi: int = 40) -> list[Vector]:
    """Zero plus the scalar points 2^-j, j in [j_lo, j_hi], largest first.

    Starting the schedule at j_lo = 10 keeps the resulting spike counts in
    the thousands; schedules reaching larger values make the growth gap
    easier to pass early and the block sizes explode accordingly.
    """
    if not 0 <= j_lo <= j_hi:
        raise ValueError("need 0 <= j_lo <= j_hi")
    out = [Vector.dense([0.0])]
    out.extend(Vector.dense([2.0 ** -j]) for j in range(j_lo, j_hi + 1))
    return out


@dataclass
class Step4Experiment:
    """A complete divergence run plus the ingredients needed to re-check it."""

    report: ClaimReport
    generator: Generator
    pairs: list[tuple[Vector, Vector]]
    M: float
    p: float
    q: float
    cap: int
    strict: bool


def step4_divergence_experiment(
    p: float = 1.0,
    q: float = 2.0,
    beta: float | None = None,
    depths: Sequence[int] = (1, 2, 4, 8),
    cap: int = SPIKE_CAP,
    strict: bool = False,
    j_lo: int = 10,
    j_hi: int = 40,
    generator: Generator | None = None,
) -> Step4Experiment:
    """End-to-end divergence run for the power map with beta = p / (2 q).

    Finds violating pairs among the canonical candidates, builds the spike
    paths, and measures the composed q-variation against n M^q.  A smooth
    ``generator`` override (the identity, say) makes the pair search fail
    with :class:`NoViolatorFound`, which is the point of running one.
    """
    p, q = _check_pq(p, q)
    _check_cap(cap)  # before the pair search, whose failure means a failed claim
    if beta is None:
        beta = p / (2.0 * q)
    f = generator if generator is not None else Generator.power(beta)
    candidates = power_divergence_candidates(j_lo, j_hi)
    M = max(vector_norm(f(v)) for v in candidates)
    depths = sorted({_check_depth(d) for d in depths})
    pairs = find_holder_violators(f, p, q, M, candidates, depths[-1])
    report = run_divergence_step6(
        f, p, q, pairs, M=M, depths=depths, cap=cap, strict=strict
    )
    return Step4Experiment(report, f, pairs, M, p, q, cap, strict)


@dataclass
class Example3Experiment:
    """Variation bound plus covering-number growth for the sup-norm family."""

    report: ClaimReport
    covering_counts: list[int]
    eps: float
    point_counts: list[int]


def example3_experiment(
    depths: Sequence[int] = (10, 100, 1000),
    eps: float = 0.01,
    bound_terms: int = 10 ** 6,
) -> Example3Experiment:
    """1-variation against its closed-form bound, plus epsilon-net sizes."""
    depths = sorted({_check_depth(d) for d in depths})
    # 1 / (i + 1)^2 for i = 1, 2, ..., in place in one array: i + 1 is exact
    # below 2^53; a memoryview hands fsum Python floats, twice as fast as
    # numpy scalars
    terms = np.arange(2, bound_terms + 2, dtype=float)
    terms *= terms
    bound = 1.0 + math.fsum(memoryview(np.divide(1.0, terms, out=terms)))
    del terms  # 8 bytes a term, not kept through the depths
    quantities, covers, counts = [], [], []
    for d in depths:
        path = gen_example3(d)
        quantities.append(pvar(path, 1.0).value)
        covers.append(epsilon_covering(path, eps))
        counts.append(len(path))
        del path  # before the next, larger path is built
    report = ClaimReport.build(depths, quantities, [bound] * len(depths), lower=False)
    return Example3Experiment(report, covers, eps, counts)


def thm6_experiment(
    depths: Sequence[int] = DEFAULT_DEPTHS,
    p: float = 1.0,
    q: float = 2.0,
    beta: float | None = None,
    seed: int = 0,
    generator: Generator | None = None,
) -> ClaimReport:
    """Random close pairs: spike trains stay under variation 2 while their
    compositions with a rough power map exceed m |f(u)-f(w)|^q.

    The map defaults to the power map with beta = p / (2 q)."""
    p, q = _check_pq(p, q)
    if beta is None:
        beta = p / (2.0 * q)
    depths = sorted({_check_depth(d) for d in depths})
    f = generator if generator is not None else Generator.power(beta)
    rng = np.random.default_rng(seed)
    quantities, bounds = [], []
    for _ in depths:
        gap = float(rng.uniform(0.05, 1.0))
        base = float(rng.uniform(-1.0, 0.0))
        u = Vector.dense([base])
        w = Vector.dense([base + gap])
        path = gen_thm6_spikes(u, w, p)
        m = int(math.floor(gap ** (-p)))
        fgap = diff_norm(f(u), f(w))
        quantities.append(pvar(compose_path(f, path), q).value)
        bounds.append(m * fgap ** q)
    return ClaimReport.build(depths, quantities, bounds, lower=True)


def remark_experiment(
    depths: Sequence[int] = (1, 4, 16, 64),
    q: float = 2.0,
    beta: float = 0.5,
    height: float = 0.81,
    generator: Generator | None = None,
) -> ClaimReport:
    """Spike count n drives the composed q-variation norm past n^(1/q) |f(u)-f(0)|."""
    q = _check_exponent(q, "q")
    depths = sorted({_check_depth(d) for d in depths})
    f = generator if generator is not None else Generator.power(beta)
    u = Vector.dense([float(height)])
    fgap = diff_norm(f(u), f(u.space.zero()))
    quantities, bounds = [], []
    for n in depths:
        path = gen_remark_spikes(u, n)
        quantities.append(bv_norm(compose_path(f, path), q))
        bounds.append(float(n) ** (1.0 / q) * fgap)
    return ClaimReport.build(depths, quantities, bounds, lower=True)
