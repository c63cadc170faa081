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
    PathInvariantError,
    PvarkitError,
    SpikeOverflow,
)
from .operators import Generator, _check_eps, compose_path, epsilon_covering
from .paths import DiscretePath, _check_sample_count, _checked_times
from .spaces import L2, LINF, Vector, VectorSpace, coordinate_matrix, pair_distances, row_norms
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
    at most the bound, both up to ``BOUND_TOL``.  Every quantity and bound
    must be finite, or ``build`` raises :class:`PathInvariantError`: a
    claim on a number that overflowed says nothing.
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
        for d, x, b in zip(report.depths, report.quantities, report.bounds):
            if not (math.isfinite(x) and math.isfinite(b)):
                raise PathInvariantError(
                    "depth %d: quantity %r and claimed bound %r must be finite" % (d, x, b)
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

    The path is built from its coordinate embedding, filled in one pass
    when it is first read, after its size is checked: row k - 1 holds 1/j^2
    in column j - 1 for j <= k (k^2 is exact in a float, so numpy divides
    to Python's bits) and the last row is zero.  Its vectors are made only
    if ``distinct`` or ``values`` is read; the times are ``gen_step2_path``'s.
    """
    depth = _check_depth(depth)

    def fill(rows):
        k = np.arange(1, depth + 1, dtype=float)
        np.copyto(rows[:depth], np.divide(1.0, k * k), where=np.tri(depth, dtype=bool))

    return DiscretePath._from_rows(
        _step2_times(depth), (0.0, 1.0), VectorSpace("sparse", LINF), fill, np.arange(1, depth + 1)
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


def _spike_path(interval, pieces) -> DiscretePath:
    # Each piece (times, values) repeats ``values`` over ``times``.  The few
    # objects are numbered by identity in order of first appearance, as
    # grouping the samples would number them, so no sample is regrouped.
    code, times, codes = {}, [], []  # code: id -> (code, object), which keeps the id in use
    for t, values in pieces:
        pattern = [code.setdefault(id(v), (len(code), v))[0] for v in values]
        times.append(t)
        codes.append(np.tile(np.array(pattern, np.intp), len(t) // len(values)))
    codes = np.concatenate(codes)
    codes.flags.writeable = False
    distinct = [v for _, v in code.values()]
    times, interval = _checked_times(np.concatenate(times), len(codes), interval)
    return DiscretePath._from_codes(times, interval, distinct, codes)


def _spike_block(t0, t1, background, spike, m):
    # The piece inside one spike block: spike k at t0 + k h, back to the
    # background h / 2 later, between the pieces at t0 and at (or after) t1.
    h = (t1 - t0) / (m + 1)
    block = np.empty((m, 2))
    block[:, 0] = t0 + np.arange(1, m + 1) * h
    block[:, 1] = block[:, 0] + h / 2.0
    return block.ravel(), [spike, background]


def _spike_train(interval, background, spike, m) -> DiscretePath:
    # background at both ends of [a, b] with m spikes equally spaced inside
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    _check_sample_count(2 * m + 2)
    block = _spike_block(a, b, background, spike, m)
    return _spike_path((a, b), [([a], [background]), block, ([b], [background])])


def _gaps(us: Sequence[Vector], ws: Sequence[Vector] | None = None) -> np.ndarray:
    """|u_i - w_i| for each i, or |u_i| without ``ws``: ``row_norms`` of one
    ``coordinate_matrix`` of both lists.  These are the distances ``pvar``
    takes; on dense l1, l2 and linf rows they have ``diff_norm``'s bits."""
    rows = coordinate_matrix(list(us) + list(ws or ()))
    with np.errstate(over="ignore"):  # a norm that overflows is inf
        return row_norms(rows[: len(us)] - rows[len(us) :] if ws else rows, us[0].space.norm)


def _growth_gap(image_gaps, gaps, M: float, n, p: float, q: float) -> np.ndarray:
    """Where |f(u) - f(w)| > 4 M n^2 |u - w|^(p/q) at index ``n`` (or at each
    of an array), from ``_gaps``, the power taken as an array."""
    return image_gaps > 4.0 * M * n * n * np.power(gaps, p / q)


def _spike_count(scale: float, gap: float, p: float) -> int | None:
    """floor(scale gap^(-p)), or None from 9e15 on, where gap^(-p) overflows too."""
    try:
        t = scale * gap ** (-p)
    except OverflowError:
        return None
    return int(math.floor(t)) if t < 9e15 else None


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

    Block n requires |u_n - w_n| <= 1/(2 n^2), by ``_gaps``; together with
    the growth gap this keeps the floor at 2 or more, and a block whose
    floor comes out below 2 is rejected as violating the construction's
    preconditions.
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
    blocks, gaps = [], _gaps(*zip(*pairs[:depth])).tolist()
    for n, (u, w), gap in zip(range(1, depth + 1), pairs, gaps):
        if gap == 0.0:
            raise ValueError("pair %d is degenerate: u = w" % (n,))
        limit = 1.0 / (2.0 * n * n)
        if gap > limit:
            raise GapConditionViolated(
                "pair %d has |u-w| = %.17g above the closeness bound 1/(2 n^2) = %.17g"
                % (n, gap, limit)
            )
        m_raw = _spike_count(float(n) ** (-2.0 * q), gap, p)
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
    [1/(n+1), 1] keeps exactly blocks 1..n.  A path above ``MAX_SAMPLES``
    is refused from its blocks' counts, before it is built.
    """
    blocks = step4_blocks(p, q, pairs, depth, cap, strict)
    _check_sample_count(2 + sum(2 * block.m_used + 1 for block in blocks))
    pieces = [([0.0], [blocks[0].u.space.zero()])]
    for block in reversed(blocks):
        t0 = 1.0 / (block.n + 1)
        t1 = 1.0 / block.n
        pieces.append(([t0], [block.w]))
        pieces.append(_spike_block(t0, t1, block.w, block.u, block.m_used))
    pieces.append(([1.0], [blocks[0].w]))
    return _spike_path((0.0, 1.0), pieces)


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

    A pair qualifies at index n when |f(u) - f(w)| > 4 M n^2 |u - w|^(p/q),
    the one test :func:`run_divergence_step6` re-checks, in array arithmetic.
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
    imat, ikind = coordinate_matrix(images), images[0].space.norm
    peak = float(row_norms(imat, ikind).max())
    if not M >= peak:
        raise ValueError(
            "M=%.17g does not dominate max |f| over the candidates (%.17g)" % (M, peak)
        )
    # every pair at nonzero distance, in scan order: each list embedded once,
    # over the union of supports its pairs span, so these are _gaps' bits
    i, j = np.triu_indices(len(candidates), 1)
    gaps = pair_distances(coordinate_matrix(candidates), i, j, candidates[0].space.norm)
    image_gaps = pair_distances(imat, i, j, ikind)
    keep = gaps != 0.0
    i, j, gaps, image_gaps = i[keep], j[keep], gaps[keep], image_gaps[keep]
    pairs = []
    for n in range(1, count + 1):
        hits = _growth_gap(image_gaps, gaps, M, n, p, q).nonzero()[0]
        if not hits.size:
            raise NoViolatorFound(n)
        pairs.append((candidates[i[hits[0]]], candidates[j[hits[0]]]))
    return pairs


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

    Each pair must pass the growth gap by :func:`find_holder_violators`'
    own test, so a pair it returns is never refused here.  For each depth d
    the spike path over ``pairs[:d]`` is composed with ``f`` and its
    q-variation computed exactly.  Each uncapped block contributes at least
    M^q to the claimed lower bound (that is what the growth gap plus the
    floor formula certify); a capped block contributes the directly
    certified m_used |f(u)-f(w)|^q instead.
    """
    p, q = _check_pq(p, q)
    pairs = list(pairs)
    if depths is None:
        depths = [d for d in DEFAULT_DEPTHS if d <= len(pairs)]
    depths = sorted({_check_depth(d) for d in depths})
    if not depths:
        raise ValueError("no depths to run")
    top = depths[-1]
    us, ws = zip(*pairs[:top])  # fewer than top: step4_blocks says so
    fus, fws = [f(u) for u in us], [f(w) for w in ws]
    image_gaps, peak = _gaps(fus, fws), float(_gaps(fus + fws).max())
    if M is None:
        M = peak
    M = float(M)
    if not M >= peak:
        raise ValueError(
            "M=%.17g does not dominate max |f| over the pair points (%.17g)" % (M, peak)
        )
    passed = _growth_gap(image_gaps, _gaps(us, ws), M, np.arange(1, len(us) + 1), p, q)
    if not passed.all():
        raise GapConditionViolated(
            "pair %d fails the growth gap |f(u)-f(w)| > 4 M n^2 |u-w|^(p/q)"
            % (passed.argmin() + 1,)
        )
    blocks = step4_blocks(p, q, pairs, top, cap, strict)
    image_gaps = image_gaps.tolist()
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

    Needs 0 < |u - w| <= 1 (by ``_gaps``) so the floor is at least 1.  The
    alternating structure makes the p-variation exactly 2 m |u - w|^p, which
    the floor keeps at or below 2; ``pvar`` re-checks it on the built train,
    which is refused before it is built if its 2 m + 2 samples pass the cap.
    """
    p = _check_exponent(p)
    gap = float(_gaps([u], [w])[0])
    if gap == 0.0:
        raise ValueError("u and w must differ")
    if gap > 1.0:
        raise ValueError("need |u - w| <= 1, got %.17g" % gap)
    m = _spike_count(1.0, gap, p)
    if m is None or m > cap:
        raise SpikeOverflow(
            "spike count %s exceeds the cap %d"
            % ("over 9e15" if m is None else str(m), cap)
        )
    path = _spike_train(interval, w, u, m)
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
    M = float(_gaps([f(v) for v in candidates]).max())
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
    depths, eps = sorted({_check_depth(d) for d in depths}), _check_eps(eps)
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

    The map defaults to the power map with beta = p / (2 q).  Each m is read
    off the train built (2 m + 2 samples), each |f(u)-f(w)| from ``_gaps``."""
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
        m = (len(path) - 2) // 2
        fgap = float(_gaps([f(u)], [f(w)])[0])
        quantities.append(pvar(compose_path(f, path), q).value)
        try:
            bounds.append(m * fgap ** q)
        except OverflowError:  # ClaimReport.build refuses it
            bounds.append(math.inf)
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
    fgap = float(_gaps([f(u)], [f(u.space.zero())])[0])
    quantities, bounds = [], []
    for n in depths:
        path = gen_remark_spikes(u, n)
        quantities.append(bv_norm(compose_path(f, path), q))
        bounds.append(float(n) ** (1.0 / q) * fgap)
    return ClaimReport.build(depths, quantities, bounds, lower=True)
