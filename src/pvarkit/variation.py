"""p-variation of discrete paths.

``pvar`` maximises the sum of p-th powers of increment norms over
subsequences of the sample indices with a dynamic program that groups
predecessors by value, at O(n k d) cost for n samples, k distinct values
and d coordinates, by one of three routes with the same result bit for
bit: tables of at most 64 values read their table of powered distances in
Python floats, taking long stretches that alternate two values a window
of steps at a time; the rest take batches of steps through distance
panels if narrower than 8 columns, else a scan over the values seen that
skips those triangle inequalities rule out.  ``pvar_bruteforce``
enumerates every subsequence literally and exists as an independent
oracle for the engine, guarded to small paths.  Tests hold the two to
bit-for-bit agreement.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Sequence

import numpy as np

from . import spaces
from .errors import InvalidExponent, PathInvariantError, TooLarge
from .paths import DiscretePath
from .spaces import (
    _EPS,
    _POW_ULPS,
    _SMALL,
    _distance_error,
    _trusted_range,
    norm as vector_norm,
    pair_distances,
    panel_distances,
    row_norms,
)

__all__ = [
    "PVarResult",
    "pvar",
    "pvar_bruteforce",
    "pvar_restricted",
    "partition_sum",
    "bv_norm",
    "sup_norm",
    "BRUTEFORCE_LIMIT",
]

BRUTEFORCE_LIMIT = 20  # increments, i.e. 2^(n-1) candidate subsequences

# Tables of distinct values that pvar reads from a gain table.  Timed on 2
# vCPUs (l2, p = 2, dims 1 and 3, n = 2,000 and 20,000 samples of k values)
# the table ran 0.2-0.25x an unpruned scan's time at k = 16, 0.5-0.6x at 64,
# 0.7-1.1x at 96 and 128, and 1.2-2.1x at 256; paths of k = n distinct
# values ran 1.0x at 16 and 1.4x at 64 (0.53 ms against 0.39 ms).
TABLE_MAX_VALUES = 64

BATCH_STEPS = 32  # steps to a batch of the batched route: 16 and 64 ran slower

# The table route takes alternating stretches (each sample's value that of
# two samples back, not the last one's) of RUN_MIN or more steps in windows
# of RUN_STEPS steps, doubling while whole windows are taken, to RUN_CAP.
RUN_MIN, RUN_STEPS, RUN_CAP = 16, 32, 1024

# The batched route bounds blocks once PRUNE_MIN_VALUES values are seen;
# before, its bounds cost more than they save (0.6-0.9x the time at 250).
PRUNE_MIN_VALUES = 256


@dataclass
class PVarResult:
    """Value of a p-variation maximisation plus an optimising partition.

    ``partition`` lists sample indices, starts at 0, ends at the last
    index, and realises ``value`` as its sum of p-th increment powers.
    ``pvar`` walks it back when it is first read, so callers that keep
    only the value never build it.
    """

    p: float
    value: float
    partition: list[int]

    def __getattr__(self, name):  # only for attributes not set
        if name != "partition" or "_walk" not in self.__dict__:
            raise AttributeError(name)
        self.partition = self.__dict__.pop("_walk")()
        return self.partition

    def to_json(self) -> dict:
        return {"p": self.p, "value": self.value, "partition": list(self.partition)}

    @classmethod
    def from_json(cls, obj) -> "PVarResult":
        return cls(float(obj["p"]), float(obj["value"]), [int(i) for i in obj["partition"]])


def _check_exponent(p: float, name: str = "p") -> float:
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise InvalidExponent("exponent %s must be a real number" % name) from None
    if not np.isfinite(p) or p < 1.0:
        raise InvalidExponent("exponent %s must satisfy %s >= 1, got %r" % (name, name, p))
    return p


def _check_pq(p: float, q: float) -> tuple[float, float]:
    p, q = _check_exponent(p), _check_exponent(q, "q")
    if q < p:
        raise InvalidExponent("need p <= q, got p=%r q=%r" % (p, q))
    return p, q


def pvar(path: DiscretePath, p: float) -> PVarResult:
    """Exact p-variation of ``path`` by dynamic programming.

    Solves V[i] = max_{j<i} V[j] + d(j, i)^p with V[0] = 0 and backtracks
    one optimising partition, when the result's ``partition`` is first
    read.  The recurrence depends on j only through
    its value, so each step scans the distinct values seen so far with the
    best V of each: O(n k d) for k distinct values.  Ties go to the
    smallest predecessor index, so the output is deterministic: one
    ``_step`` writes that rule, and each step's V, for every route.

    Three routes give the same value and partition bit for bit.  Tables of
    at most ``TABLE_MAX_VALUES`` values power each value's distances to all
    once and add them in Python floats, whose + is numpy's; array ``**``
    gives each element the same bits at every length and offset.  Where the
    samples alternate two values, that route takes each step whose previous
    sample is the only best predecessor in windows of up to ``RUN_CAP``
    steps, V by one accumulate (see ``_take_run``): the 43,498-sample spike
    train of step4's depth 12 takes 24 scalar steps.  Larger tables of
    fewer than 8 columns take ``_batched_dp``: ``BATCH_STEPS`` steps at a
    time, scored through distance panels, skip blocks of values certified
    below each step's maximum.  Wider tables take the scan, which
    differences only values ``_DistanceBound`` does not certify strictly
    below the previous value's candidate.  Each returns V and predecessors
    in the arrays of ``_dp_state``, for ``_walk_back``."""
    p = _check_exponent(p)
    codes, rows = path.value_table()
    k, cols = rows.shape
    route = _table_dp if k <= TABLE_MAX_VALUES else _batched_dp if cols < 8 else _scan_dp
    with np.errstate(over="ignore"):  # an infinite power or bound is taken as such
        best, pred = route(codes, rows, path.space.norm, p)
    result = PVarResult.__new__(PVarResult)  # its partition walked back when read
    result.p, result.value, result._walk = p, best[-1], partial(_walk_back, pred)
    return result


def _dp_state(s: int) -> tuple[array, array, array]:
    """Links (-1 ends a chain), V and predecessors of ``s`` samples: typed
    arrays, 8 bytes a sample and no Python object, taking runs by copies."""
    return array("q", [-1]) * s, array("d", [0.0]) * s, array("q", [0]) * s


def _walk_back(pred: Sequence[int]) -> list[int]:
    """The partition ending at the last sample along ``pred``."""
    i, partition = len(pred) - 1, []
    while i:
        partition.append(i)
        i = pred[i]
    partition.append(0)
    partition.reverse()
    return partition


def _step(i: int, c: int, v: float, hits, seen: int, own, at, arg, link, best, pred) -> int:
    """Write step i, of value ``c`` and V ``v``, and return the values seen.

    Its predecessor is the smallest index whose V + g still rounds to v,
    over the ``(value, g)`` pairs in ``hits`` reaching v: along each value's
    links from its best, as V never falls along the samples of one value (a
    repeat adds 0) and each sample that raised its value's best links to
    the previous one.  A new value, or a V above its best ``own[at]``,
    makes sample i that best.
    """
    j = i
    for r, g in hits:
        r = arg[r]
        x = link[r]
        while x >= 0 and best[x] + g == v:
            r, x = x, link[x]
        if r < j:
            j = r
    best[i], pred[i] = v, j
    if c == seen:
        seen += 1
    elif v > own[at]:
        link[i] = arg[c]
    else:
        return seen
    own[at], arg[c] = v, i
    return seen


def _table_dp(codes: np.ndarray, rows: np.ndarray, kind, p: float):
    """``_scan_dp`` in Python floats over table[c][t] = d(value t, value c)^p.

    Alternating stretches of at least ``RUN_MIN`` steps are offered to
    ``_take_run`` a window at a time: ``RUN_STEPS`` steps, doubling while
    whole windows are taken, to ``RUN_CAP``.  The step a window stops at
    goes to the scalar step, and so does every other step.  Either way a
    step writes its V, link and predecessor as the scalar step would.
    """
    table = (panel_distances(rows, rows, kind) ** p).tolist()
    s, k = len(codes), len(rows)
    top, arg = [0.0] * k, [0] * k  # best V and its smallest index, per value
    link, best, pred = _dp_state(s)
    stretches = iter(_alternations(codes))
    lo, hi = next(stretches, (s, s))  # the next window starts at step lo
    i, window, seen = 1, RUN_STEPS, 1
    while True:
        for i, c in zip(range(i, lo), codes[i:lo].tolist()):
            gain = table[c]
            cand = list(map(add, top if seen == k else top[:seen], gain))
            v = max(cand)
            t = cand.index(v)
            hits = ((t, gain[t]),)
            if cand.count(v) > 1:  # other values tie: the smallest index wins
                hits = [(t, gain[t]) for t, x in enumerate(cand) if x == v]
            seen = _step(i, c, v, hits, seen, top, c, arg, link, best, pred)
        if lo == s:
            break
        i, w, taken = lo, min(window, hi - lo), 0
        b, a = codes[i - 1 : i + 1].tolist()
        if arg[b] == i - 1:  # the previous sample holds b's best (so top[b] is its V)
            taken = _take_run(table, top, arg, link, best, pred, i, a, b, w)
        if taken == w:
            lo, window = i + w, min(2 * window, RUN_CAP)
        else:  # step i + taken goes to the scalar step
            lo, window = i + taken + 1, RUN_STEPS
        i += taken
        if hi - lo < RUN_MIN:
            lo, hi = next(stretches, (s, s))
    return best, pred


def _alternations(codes: np.ndarray) -> list[tuple[int, int]]:
    """The steps [lo, hi) of each stretch of at least ``RUN_MIN`` steps whose
    samples repeat the value of two samples back but not of the last."""
    alt = (codes[2:] == codes[:-2]) & (codes[2:] != codes[1:-1])
    edges = np.flatnonzero(np.diff(alt, prepend=False, append=False)) + 2
    lo, hi = edges[::2], edges[1::2]
    keep = hi - lo >= RUN_MIN
    return list(zip(lo[keep].tolist(), hi[keep].tolist()))


def _take_run(table, top, arg, link, best, pred, i: int, a: int, b: int, w: int) -> int:
    """Take steps i, i + 1, ... of a stretch alternating a, b, a, ... that
    sample i - 2 began, sample i - 1 holding b's best; return how many.

    A step is the scalar step's when the previous sample's candidate, V +
    g, beats strictly its own value's best: top[a] on the first step, then
    the V of two samples back.  That best was taken over every value's
    candidate at its sample's step, and the other values' bests stay put
    along the stretch; so the candidate is the only maximum, and it raises
    its value's best.  ``_step``'s link walk from it stops at once: its
    link's V + g is a candidate an earlier step took into that own best,
    so it falls below V, and its predecessor is the previous sample.  V
    comes from one accumulate over the gains, which adds left to right,
    rounding each sum once, as the scalar + does.  Up to ``w`` steps are
    tried and the longest prefix that holds is taken, its V, links and
    predecessors going in by buffer copies, the last two from one range.
    """
    g = np.empty(w + 1)
    g[0], g[1::2], g[2::2] = best[i - 1], table[a][b], table[b][a]
    v = np.add.accumulate(g)  # V of samples i - 1, i, ...: an infinite one beats nothing
    own = np.empty(w)
    own[0], own[1:] = top[a], v[: w - 1]
    ok = v[1:] > own
    taken = w if ok.all() else int(ok.argmin())
    if taken:  # numpy's "q" is the C long long that array("q") holds
        np.frombuffer(best)[i : i + taken] = v[1 : taken + 1]
        prev = np.arange(i - 1, i + taken - 1, dtype="q")
        np.frombuffer(pred, "q")[i : i + taken] = prev
        link[i] = arg[a]
        np.frombuffer(link, "q")[i + 1 : i + taken] = prev[:-1]
        last = i + taken - 1
        for x in (last - 1, last) if taken > 1 else (last,):
            c = b if (x - i) % 2 else a
            top[c], arg[c] = best[x], x
    return taken


def _batched_dp(codes: np.ndarray, rows: np.ndarray, kind, p: float):
    """The DP on tables of fewer than 8 columns, ``BATCH_STEPS`` steps at a time.

    Blocks of consecutive codes (values first seen close together) center on
    their first.  Distances from a batch's samples to the seen centers and
    the last sample's value give each step a floor (a candidate with V as the
    batch began: V only rises) and bounds on each block's candidates.  W, the
    samples' values, are scored per step in Python floats; one panel scores
    the seen values of blocks not certified below every step's floor, W's
    with the V they had as it began, never above their current candidates."""
    s, (k, cols), steps, repeats = len(codes), rows.shape, BATCH_STEPS, len(rows) < len(codes)
    factors, size = _bound_factors(kind, cols), _block_size(k)
    radius = _block_radii(rows, kind, size, factors)
    table = rows.T.copy()  # a column a row: a gather takes every column at once
    src = np.arange(-size, k, size)  # the previous sample's value, then the centers
    chunk = max(1, spaces.BLOCK_BYTES // (8 * steps))  # static values to a panel
    top, btop, arg = np.zeros(k), np.zeros(len(radius)), [0] * k  # V per value, block; see _scan_dp
    link, best, pred = _dp_state(s)
    seen = 1
    for i0 in range(1, s, steps):
        batch = codes[i0 : i0 + steps]
        order = batch.tolist()
        W = sorted(set(order)) if repeats else order
        w_at, pts = np.array(W), rows[batch]
        idx = np.arange(seen)
        if seen >= PRUNE_MIN_VALUES:  # below, bounds cost more than they save
            nb = (seen - 1) // size + 1  # the blocks with a seen value
            src[0] = codes[i0 - 1]
            dist = panel_distances(table[:, src[: nb + 1]].T, pts, kind)
            floor = (dist ** p + top[src[: nb + 1]]).max(axis=1)[:, None]
            kept = _block_bounds(dist[:, 1:], radius[:nb], btop[:nb], p, factors) >= floor
            idx = (kept.any(axis=0).nonzero()[0][:, None] * size + np.arange(size)).ravel()
            idx = idx[idx < seen]
        vs, vt, vg, vc = _static_best(table, idx, pts, kind, p, top, chunk)
        gw = (panel_distances(table[:, w_at].T, pts, kind) ** p).tolist()
        wtop = top[w_at].tolist()
        for q, c in enumerate(order):
            i, g = i0 + q, gw[q]
            # static values first: without repeats, code order is index order
            cand = [vs[q], *map(add, wtop[: bisect_left(W, seen)], g)]
            v = max(cand)
            t = cand.index(v)
            hits = ((vt[q], vg[q]) if t == 0 else (W[t - 1], g[t - 1]),)  # the first maximum
            if repeats and (cand.count(v) > 1 or t == 0 < vc[q] - 1):  # find every tie
                hits = [(W[u - 1], g[u - 1]) for u in range(1, len(cand)) if cand[u] == v]
                if t == 0:
                    gain = pair_distances(rows, idx, c, kind) ** p
                    tie = gain + top[idx] == v
                    hits += zip(idx[tie].tolist(), gain[tie].tolist())
            seen = _step(i, c, v, hits, seen, wtop, bisect_left(W, c), arg, link, best, pred)
        top[w_at] = wtop
        np.maximum.at(btop, w_at // size, wtop)
    return best, pred


def _block_radii(rows, kind, size: int, factors) -> np.ndarray:
    """Each block's largest computed distance to its center, or inf if untrusted."""
    at = np.arange(len(rows))
    lead, starts = at - at % size, at[::size]  # each value's center, each block's
    d = pair_distances(rows, at, lead, kind)
    ok = (d >= factors[0]) & (d <= factors[1]) | (lead == at)
    return np.where(np.logical_and.reduceat(ok, starts), np.maximum.reduceat(d, starts), np.inf)


def _block_bounds(dist, radius, btop, p: float, factors) -> np.ndarray:
    """Bounds, a step a row, on the candidates of each block from ``dist``,
    the steps' distances to the centers: as ``_DistanceBound`` argues, a
    member's is below (dist + radius) grow in the trusted range, else inf."""
    lo, hi, grow, lift = factors  # an infinite bound rules nothing out
    d = np.where((dist >= lo) & (dist <= hi), dist + radius, np.inf) * grow
    g = d ** p
    ub = g * lift + btop
    ub[(g < _SMALL) | (d < lo) | (d > hi)] = np.inf
    return ub


def _static_best(table, idx, pts, kind, p: float, top, chunk: int):
    """Per step, the largest candidate over the values ``idx``, the first
    reaching it, its gain and how many reach it."""
    steps, v, t, g, c = np.arange(len(pts)), np.full(len(pts), -np.inf), None, None, None
    for a in range(0, len(idx), chunk):
        sub = idx[a : a + chunk]
        gain = panel_distances(table[:, sub].T, pts, kind) ** p
        cand = gain + top[sub]
        first = cand.argmax(axis=1)
        most, code, gain = cand[steps, first], sub[first], gain[steps, first]
        tied = (cand == most[:, None]).sum(axis=1)
        if a:  # an earlier chunk reaching the maximum comes first
            more, tied = most > v, tied * (most >= v)
            most, code = np.where(more, most, v), np.where(more, code, t)
            gain, tied = np.where(more, gain, g), np.where(more, tied, c + tied)
        v, t, g, c = most, code, gain, tied
    return [x if x is None else x.tolist() for x in (v, t, g, c)]


def _scan_dp(codes: np.ndarray, rows: np.ndarray, kind, p: float):
    """The DP differencing the current sample from the values seen each
    step that ``_DistanceBound`` does not certify strictly below the
    previous sample's candidate."""
    s, k = len(codes), len(rows)
    top = np.zeros(k)  # best V over the samples of each value
    arg = [0] * k  # the smallest index reaching it
    link, best, pred = _dp_state(s)
    bound = _DistanceBound(rows, kind, p, codes)
    codes = codes.tolist()
    seen = 1
    for i in range(1, s):
        c = codes[i]
        # the previous value is scored here again: one more row in the
        # gather costs less than splicing in the distance already taken
        live = bound.survivors(i, c, codes[i - 1], top[:seen])
        dist = pair_distances(rows, live, c, kind)
        bound.reset(live, dist, c)
        gain = dist ** p
        cand = top[live] + gain
        t = int(cand.argmax())
        v = cand[t]
        # without repeats, code order is index order and t reaches v first
        hits = ((live[u], gain[u]) for u in ((cand == v).nonzero()[0] if k < s else (t,)))
        seen = _step(i, c, v, hits, seen, top, c, arg, link, best, pred)
    return best, pred


def _bound_factors(kind, cols: int) -> tuple[float, float, float, float]:
    """The trusted range, and the factors ``grow`` and ``lift`` that widen
    bounds on a computed distance and on its power (each power within
    _POW_ULPS of exact while normal; g * lift rounds once more)."""
    grow = 1.0 + 3.0 * _distance_error(kind, cols) + 2.0 * _EPS
    return (*_trusted_range(kind, cols), grow, 1.0 + (2 * _POW_ULPS + 2) * _EPS)


_block_size = math.isqrt  # the batched route's values to a block, of k values


class _DistanceBound:
    """Upper bounds on the computed distance from each distinct value to the
    current sample, and the values they cannot rule out of a step.

    A computed distance inside ``spaces._trusted_range`` is within a factor
    1 +- e of the exact one, e = ``spaces._distance_error``.  The bounds
    keep ub / (1 - e) above each value's exact distance to the current
    sample.  One sample on, at computed distance delta, the triangle
    inequality puts the value's computed distance below (ub + delta)
    (1 + e) / (1 - e), which ``grow`` covers together with the two
    roundings of the update (for e under 1%).  A bound outside the trusted
    range proves nothing, and a distance outside it resets its bound to
    infinity: such values are always scored.  Every step's delta, the
    distance between the sample codes ``at`` and the next, is taken in one
    pass up front by ``spaces.pair_distances``, as the scan takes it.
    """

    def __init__(self, rows: np.ndarray, kind, p: float, at):
        k, cols = rows.shape
        self.p = p
        self.lo, self.hi, self.grow, self.lift = _bound_factors(kind, cols)
        steps = pair_distances(rows, at[:-1], at[1:], kind)
        self.gain = steps ** p  # array powers: each with the bits the scan's has
        self.delta = np.where((steps >= self.lo) & (steps <= self.hi), steps, np.inf)
        self.ub = np.full(k, np.inf)
        self.ub[0] = 0.0  # the first sample's value
        # comparisons write here: a fresh small mask every step would stock
        # numpy's cache of small buffers with one of each size
        self.keep, self.test = np.empty(k, dtype=bool), np.empty(k, dtype=bool)

    def survivors(self, i: int, c: int, b: int, top: np.ndarray) -> np.ndarray:
        """Indices, ascending, of the values below ``len(top)`` to score at step i.

        ``c`` is the current sample's value and ``b`` the previous one's.
        The candidate of ``b``, top[b] + d'(b, c)^p, is a lower bound on
        the step's maximum; a value is passed over only if its candidate
        is certified to fall strictly below it.  Overflow is the caller's
        to silence: an infinite bound rules nothing out.
        """
        ub = self.ub[: len(top)]
        if b == c:  # a repeat: the same row, at distance exactly 0
            floor = top[b]
        else:  # taken as the scan takes it, so floor is b's candidate
            ub += self.delta[i - 1]
            floor = top[b] + self.gain[i - 1]
        ub *= self.grow
        g = ub ** self.p
        keep, test = self.keep[: len(top)], self.test[: len(top)]
        np.greater_equal(top + g * self.lift, floor, out=keep)  # both >= 0: no NaN
        # and every bound out of the trusted range: below it a bound is 0 (the
        # previous value's own, kept by g < _SMALL), as reset and delta are >= lo
        keep |= np.less(g, _SMALL, out=test)
        keep |= np.greater(ub, self.hi, out=test)
        return keep.nonzero()[0]

    def reset(self, live: np.ndarray, dist: np.ndarray, c: int) -> None:
        """Take the computed distances of the scored values as their bounds."""
        self.ub[live] = np.where((dist >= self.lo) & (dist <= self.hi), dist, np.inf)
        self.ub[c] = 0.0  # the current sample's own value


def pvar_bruteforce(path: DiscretePath, p: float) -> PVarResult:
    """p-variation by literal enumeration of all 2^(n-1) subsequences.

    Independent of the dynamic program by construction; refuses paths with
    more than ``BRUTEFORCE_LIMIT`` increments.  Bit b of a mask puts sample
    b + 1 in the subsequence, whose ends are always in.  Each sum adds its
    increments left to right, and the reported partition is the first
    maximiser in mask order.
    """
    p = _check_exponent(p)
    n = path.n
    if n > BRUTEFORCE_LIMIT:
        raise TooLarge(
            "brute force handles at most %d increments, path has %d"
            % (BRUTEFORCE_LIMIT, n)
        )
    mat = path.coordinate_matrix()
    diff = mat[:, None, :] - mat[None, :, :]
    flat = row_norms(diff.reshape(-1, mat.shape[1]), path.space.norm)
    powers = flat.reshape(n + 1, n + 1) ** p
    masks = np.arange(1 << (n - 1))
    every = np.ones(masks.size, dtype=bool)
    member = [every] + [(masks >> b & 1).astype(bool) for b in range(n - 1)] + [every]
    sums = np.zeros(masks.size)
    for a in range(n):
        last = member[a].copy()  # masks holding a and nothing in (a, b)
        for b in range(a + 1, n + 1):
            sums += np.where(last & member[b], powers[a, b], 0.0)
            last &= ~member[b]
    mask = int(np.argmax(sums))
    partition = [0] + [b + 1 for b in range(n - 1) if mask >> b & 1] + [n]
    return PVarResult(p=p, value=float(sums[mask]), partition=partition)


def pvar_restricted(path: DiscretePath, p: float, c: float, d: float) -> PVarResult:
    """p-variation of the restriction of ``path`` to [c, d].

    Both endpoints must be sample times; the returned partition indexes
    into the restricted path (0 = the sample at ``c``).
    """
    return pvar(path.restrict(c, d), p)


def partition_sum(path: DiscretePath, indices: Sequence[int], p: float) -> float:
    """Sum of p-th powers of increment norms along the given index chain.

    The indices must be integers, strictly increasing, from 0 to ``path.n``;
    anything else raises ``ValueError``.  Taken as ``pvar`` takes it: each
    norm by ``pair_distances`` on the rows of the path's ``value_table()``,
    the powers by array ``**``, their sum left to right in Python floats;
    so a partition ``pvar`` reports gives back its value exactly.
    ``pvar_bruteforce`` is the independent check.
    """
    p = _check_exponent(p)
    at = np.asarray(indices)
    if not at.size:
        return 0.0
    ordered = at.ndim == 1 and at.dtype.kind in "iu" and (at[1:] > at[:-1]).all()
    if not (ordered and 0 <= at[0] and at[-1] <= path.n):
        raise ValueError(
            "partition indices must be strictly increasing integers in [0, %d]" % path.n
        )
    codes, rows = path.value_table()
    at = codes[at]
    total = 0.0
    for term in (pair_distances(rows, at[:-1], at[1:], path.space.norm) ** p).tolist():
        total += term
    return total


def bv_norm(path: DiscretePath, p: float) -> float:
    """Norm of the starting value plus the p-th root of the p-variation.

    A path of more than one value whose p-variation underflowed to 0.0
    has no root to take and raises :class:`PathInvariantError`.
    """
    p = _check_exponent(p)
    var, k = pvar(path, p).value, len(path.value_table()[1])
    if var == 0.0 and k > 1:
        raise PathInvariantError("the %g-variation of a path of %d values underflows to 0" % (p, k))
    return vector_norm(path.distinct[0]) + var ** (1.0 / p)


def sup_norm(path: DiscretePath) -> float:
    """Largest value norm over the samples."""
    return max(vector_norm(v) for v in path.distinct)
