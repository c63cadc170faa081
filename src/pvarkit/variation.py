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
from .errors import InvalidExponent, TooLarge
from .paths import DiscretePath
from .spaces import (
    _EPS,
    _POW_ULPS,
    _SMALL,
    _distance_error,
    _trusted_range,
    block_buffer,
    norm as vector_norm,
    panel_distances,
    row_distances,
    row_norms,
    step_distances,
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


def _distinct_rows(mat: np.ndarray) -> tuple[range | np.ndarray, np.ndarray]:
    """Code of each row, numbered by first appearance, and the distinct rows.

    All distinct, ``mat`` comes back as is, with codes a range.  On tables
    of 8 or more columns distinct hashes of the rows certify that: rows
    equal under float == (finite, and -0.0 made 0.0) have equal bits, so
    equal hashes.  Otherwise a stable sort of row indices and a neighbour
    comparison per column find equal rows without copying ``mat``.
    """
    s, d = mat.shape
    # below 8 columns the lexsort is as cheap (6,000 rows: 0.26 ms at 1
    # column, 1.0 ms at 3; the hash 0.32 and 0.45 ms), and the hash's numpy
    # kernels read as 0.1-0.25 MB more peak RSS on step4, whose tables all
    # fall back; a stable sort of the hashes reads less than the default
    if d >= 8:
        hashes = np.sort(_row_hashes(mat), kind="stable")
        if (hashes[1:] != hashes[:-1]).all():
            return range(s), mat
    order = np.lexsort(mat.T[::-1]) if d else np.arange(s)
    new = np.zeros(s, dtype=bool)
    new[0] = True
    for col in mat.T:
        srt = col[order]
        new[1:] |= srt[1:] != srt[:-1]
    heads = order[new]  # the stable sort puts each group's first index first
    if heads.size == s:
        return range(s), mat
    lead = np.empty(s, dtype=np.intp)
    lead[order] = heads[np.cumsum(new) - 1]
    heads.sort()
    return np.searchsorted(heads, lead), mat[heads]


def _row_hashes(mat: np.ndarray) -> np.ndarray:
    """Each row's hash, a block of rows at a time: the bits of its
    coordinates, the sign and exponent xor-ed into the low bits, times an
    odd constant a column, summed in uint64 with wraparound.  Each step is
    exact, so equal bits hash alike; rows differing in one coordinate never
    collide, as odd constants and the xor-shift are invertible."""
    s, d = mat.shape
    mult = _hash_multipliers(d)
    out = np.empty(s, dtype=np.uint64)
    step = spaces._block_rows(d)
    for a in range(0, s, step):
        bits = (mat[a : a + step] + 0.0).view(np.uint64)  # + 0.0 turns -0.0 into 0.0
        bits ^= bits >> np.uint64(52)
        bits *= mult
        bits.sum(axis=1, out=out[a : a + step])
    return out


def _hash_multipliers(d: int) -> np.ndarray:
    """Fixed odd constants, one a column: steps of splitmix64, made odd."""
    z = np.arange(1, d + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    return z | np.uint64(1)


def pvar(path: DiscretePath, p: float) -> PVarResult:
    """Exact p-variation of ``path`` by dynamic programming.

    Solves V[i] = max_{j<i} V[j] + d(j, i)^p with V[0] = 0 and backtracks
    one optimising partition, when the result's ``partition`` is first
    read.  The recurrence depends on j only through
    its value, so each step scans the distinct values seen so far with the
    best V of each: O(n k d) for k distinct values.  Ties go to the
    smallest predecessor index, so the output is deterministic.

    Three routes give the same value and partition bit for bit.  Tables of
    at most ``TABLE_MAX_VALUES`` values power each value's distances to all
    once and add them in Python floats, whose + is numpy's; array ``**``
    gives each element the same bits at every length and offset.  Where the
    samples alternate two values, that route takes each step whose previous
    sample is the only best predecessor in windows of up to ``RUN_CAP``
    steps, V by one accumulate, and walks each such run back in one range
    (see ``_take_run``): the 43,498-sample spike train of step4's depth 12
    takes 24 scalar steps.  Larger
    tables of fewer than 8 columns take ``_batched_dp``: ``BATCH_STEPS``
    steps at a time, scored through distance panels, skip blocks of values
    certified below each step's maximum.  Wider tables take the scan, which
    differences only values ``_DistanceBound`` does not certify strictly
    below the previous value's candidate."""
    p = _check_exponent(p)
    codes, rows = _value_table(path)
    k, cols = rows.shape
    route = _table_dp if k <= TABLE_MAX_VALUES else _batched_dp if cols < 8 else _scan_dp
    with np.errstate(over="ignore"):  # an infinite power or bound is taken as such
        best, pred, *runs = route(codes, rows, path.space.norm, p)
    if isinstance(pred, np.ndarray):  # the scan's: walk Python ints
        pred = pred.tolist()
    result = PVarResult.__new__(PVarResult)  # its partition walked back when read
    result.p, result.value, result._walk = p, float(best[-1]), partial(_walk_back, pred, *runs)
    return result


def _walk_back(pred: Sequence[int], runs: Sequence[tuple[int, int]] = ()) -> list[int]:
    """The partition ending at the last sample along ``pred``, each run of
    samples (first, last) taken in one range: their predecessors are the
    samples before them."""
    i, partition = len(pred) - 1, []
    for first, last in reversed(runs):
        while i > last:
            partition.append(i)
            i = pred[i]
        if i >= first:
            partition.extend(range(i, first - 1, -1))
            i = first - 1
    while i:
        partition.append(i)
        i = pred[i]
    partition.append(0)
    partition.reverse()
    return partition


def _value_table(path: DiscretePath) -> tuple[range | np.ndarray, np.ndarray]:
    """Each sample's code and the distinct rows, numbered by first appearance.

    The rows of the path's distinct value objects are grouped by float ==
    (so -0.0 and 0.0 are one value), and their codes taken through the
    path's: the table grouping every sample's row would give, bit for bit.
    Codes come as the path's array (or a range), for routes to read as they
    need.
    """
    sub, rows = _distinct_rows(path.distinct_matrix())
    codes = path.codes
    if not isinstance(sub, range):  # equal rows under distinct objects, coded in bytes if few
        sub = sub.astype(np.min_scalar_type(len(rows) - 1))
        codes = sub if isinstance(codes, range) else sub[codes]
    return codes, rows


def _first_reaching(r: int, g: float, v: float, link, best) -> int:
    """Smallest index along r's links whose V + g still rounds to v.

    V never falls along the samples of one value (a repeat adds 0); each
    sample that raised its value's best links to the previous one.
    """
    j = link[r]
    while j >= 0 and best[j] + g == v:
        r, j = j, link[j]
    return r


def _table_dp(codes: range | np.ndarray, rows: np.ndarray, kind, p: float):
    """``_scan_dp`` in Python floats over table[c][t] = d(value t, value c)^p.

    Alternating stretches of at least ``RUN_MIN`` steps are offered to
    ``_take_run`` a window at a time: ``RUN_STEPS`` steps, doubling while
    whole windows are taken, to ``RUN_CAP``.  The step a window stops at
    goes to the scalar step, and so does every other step.  Returns best,
    pred and the runs taken, (first, last) sample pairs within which each
    sample's predecessor is the one before it (pred is left 0 there).
    """
    buf = block_buffer(*rows.shape)
    table = [(row_distances(rows, x, kind, buf) ** p).tolist() for x in rows]
    s = len(codes)
    top, arg = [0.0], [0]  # best V and its smallest index, per value seen
    # typed arrays hold no object a sample, and take a run in one copy
    link, best, pred = array("q", [-1]) * s, array("d", [0.0]) * s, array("q", [0]) * s
    runs = []
    stretches = iter(_alternations(codes))
    lo, hi = next(stretches, (s, s))  # the next window starts at step lo
    i, window, seen = 1, RUN_STEPS, 1
    while True:
        span = codes[i:lo]
        for i, c in zip(range(i, lo), span if isinstance(span, range) else span.tolist()):
            gain = table[c]
            cand = list(map(add, top, gain))
            v = max(cand)
            t = cand.index(v)
            j = _first_reaching(arg[t], gain[t], v, link, best)
            ties = cand.count(v) - 1
            while ties:  # other values tie: the smallest index wins
                t = cand.index(v, t + 1)
                j = min(j, _first_reaching(arg[t], gain[t], v, link, best))
                ties -= 1
            best[i] = v
            pred[i] = j
            if c == seen:
                top.append(v)
                arg.append(i)
                seen += 1
            elif v > top[c]:
                link[i] = arg[c]
                top[c] = v
                arg[c] = i
        if lo == s:
            break
        i, w, taken = lo, min(window, hi - lo), 0
        b, a = codes[i - 1 : i + 1].tolist()
        if arg[b] == i - 1:  # the previous sample holds b's best (so top[b] is its V)
            taken = _take_run(table, top, arg, link, best, i, a, b, w)
        if taken:
            if runs and runs[-1][1] == i - 1:
                runs[-1] = (runs[-1][0], i + taken - 1)
            else:
                runs.append((i, i + taken - 1))
        if taken == w:
            lo, window = i + w, min(2 * window, RUN_CAP)
        else:  # step i + taken goes to the scalar step
            lo, window = i + taken + 1, RUN_STEPS
        i += taken
        if hi - lo < RUN_MIN:
            lo, hi = next(stretches, (s, s))
    return best, pred, runs


def _alternations(codes: range | np.ndarray) -> list[tuple[int, int]]:
    """The steps [lo, hi) of each stretch of at least ``RUN_MIN`` steps whose
    samples repeat the value of two samples back but not of the last."""
    if isinstance(codes, range):  # every value distinct
        return []
    alt = (codes[2:] == codes[:-2]) & (codes[2:] != codes[1:-1])
    edges = np.flatnonzero(np.diff(alt, prepend=False, append=False)) + 2
    lo, hi = edges[::2], edges[1::2]
    keep = hi - lo >= RUN_MIN
    return list(zip(lo[keep].tolist(), hi[keep].tolist()))


def _take_run(table, top, arg, link, best, i: int, a: int, b: int, w: int) -> int:
    """Take steps i, i + 1, ... of a stretch alternating a, b, a, ... that
    sample i - 2 began, sample i - 1 holding b's best; return how many.

    A step is the scalar step's when the previous sample's candidate, V +
    g, beats strictly its own value's best: top[a] on the first step, then
    the V of two samples back.  That best was taken over every value's
    candidate at its sample's step, and the other values' bests stay put
    along the stretch; so the candidate is the only maximum, and it raises
    its value's best.  ``_first_reaching`` from it stops at once: its
    link's V + g is a candidate an earlier step took into that own best,
    so it falls below V.  V comes from one accumulate over the gains, which
    adds left to right, rounding each sum once, as the scalar + does.  Up
    to ``w`` steps are tried and the longest prefix that holds is taken.
    """
    g = np.empty(w + 1)
    g[0], g[1::2], g[2::2] = best[i - 1], table[a][b], table[b][a]
    v = np.add.accumulate(g)  # V of samples i - 1, i, ...: an infinite one beats nothing
    own = np.empty(w)
    own[0], own[1:] = top[a], v[: w - 1]
    ok = v[1:] > own
    taken = w if ok.all() else int(ok.argmin())
    if taken:
        best[i : i + taken] = array("d", v[1 : taken + 1].tobytes())
        link[i], link[i + 1 : i + taken] = arg[a], array("q", range(i - 1, i + taken - 2))
        last = i + taken - 1
        for x in (last - 1, last) if taken > 1 else (last,):
            c = b if (x - i) % 2 else a
            top[c], arg[c] = best[x], x
    return taken


def _batched_dp(codes: range | np.ndarray, rows: np.ndarray, kind, p: float):
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
    buf = np.empty(steps * max(min(chunk, k), len(src), steps))
    at, top, btop = np.asarray(codes), np.zeros(k), np.zeros(len(radius))  # V per value, block
    arg, link, best, pred = [0] * k, [-1] * s, [0.0] * s, [0] * s  # see _scan_dp
    seen = 1
    for i0 in range(1, s, steps):
        batch = at[i0 : i0 + steps]
        order = batch.tolist()
        W = sorted(set(order)) if repeats else order
        w_at, pts = np.array(W), rows[batch]
        idx = np.arange(seen)
        if seen >= PRUNE_MIN_VALUES:  # below, bounds cost more than they save
            nb = (seen - 1) // size + 1  # the blocks with a seen value
            src[0] = at[i0 - 1]
            dist = panel_distances(table[:, src[: nb + 1]].T, pts, kind, buf)
            floor = (dist ** p + top[src[: nb + 1]]).max(axis=1)[:, None]
            kept = _block_bounds(dist[:, 1:], radius[:nb], btop[:nb], p, factors) >= floor
            idx = (kept.any(axis=0).nonzero()[0][:, None] * size + np.arange(size)).ravel()
            idx = idx[idx < seen]
        vs, vt, vg, vc = _static_best(table, idx, pts, kind, p, top, buf, chunk)
        gw = (panel_distances(table[:, w_at].T, pts, kind, buf) ** p).tolist()
        wtop = top[w_at].tolist()
        for q, c in enumerate(order):
            i, g = i0 + q, gw[q]
            # static values first: without repeats, code order is index order
            cand = [vs[q], *map(add, wtop[: bisect_left(W, seen)], g)]
            v = max(cand)
            t = cand.index(v)
            u, gu = (vt[q], vg[q]) if t == 0 else (W[t - 1], g[t - 1])  # the first maximum
            j = _first_reaching(arg[u], gu, v, link, best)
            if repeats and (cand.count(v) > 1 or t == 0 < vc[q] - 1):  # find every tie
                hits = [(W[u - 1], g[u - 1]) for u in range(1, len(cand)) if cand[u] == v]
                if t == 0:
                    gain = row_distances(rows, pts[q], kind, block_buffer(len(idx), cols), idx) ** p
                    tie = gain + top[idx] == v
                    hits += zip(idx[tie].tolist(), gain[tie].tolist())
                j = min(_first_reaching(arg[u], gu, v, link, best) for u, gu in hits)
            best[i], pred[i], w = v, j, bisect_left(W, c)
            if c == seen or v > wtop[w]:  # a new value, or a better V for one
                link[i] = arg[c] if c < seen else -1
                seen, wtop[w], arg[c] = max(seen, c + 1), v, i
        top[w_at] = wtop
        np.maximum.at(btop, w_at // size, wtop)
    return best, pred


def _block_radii(rows, kind, size: int, factors) -> np.ndarray:
    """Each block's largest computed distance to its center, or inf if untrusted."""
    at, step = np.arange(len(rows)), spaces.BLOCK_BYTES // (8 * rows.shape[1]) + 1
    lead, starts = at - at % size, at[::size]  # each value's center, each block's
    d = np.concatenate([row_norms(rows[a : a + step] - rows[lead[a : a + step]], kind)
                        for a in at[::step]])
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


def _static_best(table, idx, pts, kind, p: float, top, buf, chunk: int):
    """Per step, the largest candidate over the values ``idx``, the first
    reaching it, its gain and how many reach it."""
    steps, v, t, g, c = np.arange(len(pts)), np.full(len(pts), -np.inf), None, None, None
    for a in range(0, len(idx), chunk):
        sub = idx[a : a + chunk]
        gain = panel_distances(table[:, sub].T, pts, kind, buf) ** p
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


def _scan_dp(codes: range | np.ndarray, rows: np.ndarray, kind, p: float):
    """The DP differencing the current sample from the values seen each
    step that ``_DistanceBound`` does not certify strictly below the
    previous sample's candidate."""
    s = len(codes)
    k, cols = rows.shape
    buf = block_buffer(k, cols)  # reused by every step
    top = np.zeros(k)  # best V over the samples of each value
    arg = [0] * k  # the smallest index reaching it
    link = np.full(s, -1)  # see _first_reaching
    best = np.zeros(s)
    pred = np.zeros(s, dtype=np.int64)
    bound = _DistanceBound(rows, kind, p, codes)
    codes = codes if isinstance(codes, range) else codes.tolist()
    seen = 1
    for i in range(1, s):
        c = codes[i]
        # the previous value is scored here again: one more row in the
        # gather costs less than splicing in the distance already taken
        live = bound.survivors(i, c, codes[i - 1], top[:seen])
        dist = row_distances(rows, rows[c], kind, buf, live)
        bound.reset(live, dist, c)
        gain = dist ** p
        cand = top[live] + gain
        t = int(cand.argmax())
        v = cand[t]
        j = s
        # Find the smallest index whose V + d^p rounds to v.  Without
        # repeats, code order is index order and t is that index.
        for t in (cand == v).nonzero()[0].tolist() if k < s else (t,):
            j = min(j, _first_reaching(arg[live[t]], gain[t], v, link, best))
        best[i] = v
        pred[i] = j
        if c == seen:
            seen += 1
        elif v > top[c]:
            link[i] = arg[c]
        else:
            continue
        top[c] = v
        arg[c] = i
    return best, pred


def _bound_factors(kind, cols: int) -> tuple[float, float, float, float]:
    """The trusted range, and the factors ``grow`` and ``lift`` that widen
    bounds on a computed distance and on its power (each power within
    _POW_ULPS of exact while normal; g * lift rounds once more)."""
    grow = 1.0 + 3.0 * _distance_error(cols) + 2.0 * _EPS
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
    pass up front, with the bits ``row_distances`` gives it.
    """

    def __init__(self, rows: np.ndarray, kind, p: float, at):
        k, cols = rows.shape
        self.p = p
        self.lo, self.hi, self.grow, self.lift = _bound_factors(kind, cols)
        steps = step_distances(rows, at, kind)
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

    Taken as ``pvar`` takes it: each norm by ``row_norms`` on rows of the
    path's ``distinct_matrix()``, the powers by array ``**``, their sum left
    to right in Python floats; so a partition ``pvar`` reports gives back
    its value exactly.  ``pvar_bruteforce`` is the independent check.
    """
    p = _check_exponent(p)
    at = np.asarray(indices, dtype=np.intp)
    if not isinstance(path.codes, range):
        at = path.codes[at]
    rows = path.distinct_matrix()[at]
    total = 0.0
    for term in (row_norms(rows[:-1] - rows[1:], path.space.norm) ** p).tolist():
        total += term
    return total


def bv_norm(path: DiscretePath, p: float) -> float:
    """Norm of the starting value plus the p-th root of the p-variation."""
    p = _check_exponent(p)
    return vector_norm(path.distinct[0]) + pvar(path, p).value ** (1.0 / p)


def sup_norm(path: DiscretePath) -> float:
    """Largest value norm over the samples."""
    return max(vector_norm(v) for v in path.distinct)
