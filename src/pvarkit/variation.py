"""p-variation of discrete paths.

``pvar`` maximises the sum of p-th powers of increment norms over
subsequences of the sample indices with a dynamic program that groups
predecessors by value, at O(n k d) cost for n samples, k distinct values
and d coordinates, by one of three routes with the same result bit for
bit: few values read their k x k table of powered distances in plain
Python, large tables of two or more columns score only the values that
triangle-inequality bounds cannot rule out of a step, and the rest take
the full scan over every value seen.  ``pvar_bruteforce`` enumerates
every subsequence literally and exists as an independent oracle for the
engine, guarded to small paths.  Tests hold the two to bit-for-bit
agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

import numpy as np

from .errors import InvalidExponent, TooLarge
from .paths import DiscretePath
from .spaces import (
    _EPS,
    _POW_ULPS,
    _SMALL,
    _distance_error,
    _trusted_range,
    block_buffer,
    diff_norm,
    norm as vector_norm,
    row_distances,
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
# the table ran 0.2-0.25x the full scan's time at k = 16, 0.5-0.6x at 64,
# 0.7-1.1x at 96 and 128, and 1.2-2.1x at 256; paths of k = n distinct
# values ran 1.0x at 16 and 1.4x at 64 (0.53 ms against 0.39 ms).
TABLE_MAX_VALUES = 64

# Tables of distinct values that pvar prunes.  Pruning adds some 40 us of
# numpy calls and a dozen passes over the k values to every step, so it
# pays only where the full scan's differencing costs more: on tables of at
# least PRUNE_MIN_VALUES values and PRUNE_MIN_COLS columns whose work is
# PRUNE_MIN_WORK or more.  The work is k (cols + 16) where the full scan
# reduces each row, which costs about 16 more columns (8 columns or more),
# and for lp norms, whose power per coordinate dominates; it is k 3 (cols
# - 1) where l1, l2 and linf rows are taken a column at a time.  Timed on 2
# vCPUs over walks and noise at p = 1, 2 and 3, the full scan ran 0.3-0.8x
# pruning's time on 6,000 samples of 2-5 columns, 0.4-1.0x on 20,000 of 2
# and 0.5-1.35x on 40,000 of 2; lp tables of 6,000 or more ran 0.8-6x,
# wide ones below the gate up to 7x faster (50 values) or 1.7x (1,000 x 8),
# and sup-normed example 3 paths of 1,000 samples or more 6-30x slower.
PRUNE_MIN_COLS = 2
PRUNE_MIN_VALUES = 256
PRUNE_MIN_WORK = 1 << 16


@dataclass
class PVarResult:
    """Value of a p-variation maximisation plus an optimising partition.

    ``partition`` lists sample indices, starts at 0, ends at the last
    index, and realises ``value`` as its sum of p-th increment powers.
    """

    p: float
    value: float
    partition: list[int]

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


def _distinct_rows(mat: np.ndarray) -> tuple[Sequence[int], np.ndarray]:
    """Code of each row, numbered by first appearance, and the distinct rows.

    A stable sort of row indices and a neighbour comparison per column find
    equal rows without copying ``mat``, returned as is if all are distinct.
    """
    s, d = mat.shape
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
    return np.searchsorted(heads, lead).tolist(), mat[heads]


def pvar(path: DiscretePath, p: float) -> PVarResult:
    """Exact p-variation of ``path`` by dynamic programming.

    Solves V[i] = max_{j<i} V[j] + d(j, i)^p with V[0] = 0 and backtracks
    one optimising partition.  The recurrence depends on j only through
    its value, so each step scans the distinct values seen so far with the
    best V of each: O(n k d) for k distinct values.  Ties go to the
    smallest predecessor index, so the output is deterministic.

    Tables of at most ``TABLE_MAX_VALUES`` distinct values power each
    value's distances to all values once, with the full scan's kernel, and
    add them in Python floats, whose + is numpy's; array ``**`` gives each
    element the same bits at every length and offset.

    On large tables of distinct values (``PRUNE_MIN_COLS``,
    ``PRUNE_MIN_VALUES`` and ``PRUNE_MIN_WORK``), each value also carries an
    upper bound on its computed distance to the current sample, moved on
    by the triangle inequality and widened by the rounding error of the
    norms.  A value whose candidate V + d^p is certified to fall strictly
    below the previous value's candidate cannot be, or tie, the step's
    maximum, so only the others are differenced; value and partition are
    those of the full scan, bit for bit.
    """
    p = _check_exponent(p)
    mat = path.coordinate_matrix()
    kind = path.space.norm
    codes, rows = _distinct_rows(mat)
    k, cols = rows.shape
    buf = block_buffer(k, cols)  # reused by every step
    if k <= TABLE_MAX_VALUES:
        table = [(row_distances(rows, x, kind, buf) ** p).tolist() for x in rows]
        best, pred = _table_dp(codes, table)
    else:
        best, pred = _scan_dp(codes, rows, kind, p, buf)
    partition = [len(codes) - 1]
    while partition[-1] != 0:
        partition.append(int(pred[partition[-1]]))
    partition.reverse()
    return PVarResult(p=p, value=float(best[-1]), partition=partition)


def _first_reaching(r: int, g: float, v: float, link, best) -> int:
    """Smallest index along r's links whose V + g still rounds to v.

    V never falls along the samples of one value (a repeat adds 0); each
    sample that raised its value's best links to the previous one.
    """
    while link[r] >= 0 and best[link[r]] + g == v:
        r = link[r]
    return r


def _table_dp(codes: Sequence[int], table: list[list[float]]):
    """``_scan_dp`` in Python floats over table[c][t] = d(value t, value c)^p."""
    s = len(codes)
    top, arg = [0.0], [0]  # best V and its smallest index, per value seen
    link, best, pred = [-1] * s, [0.0] * s, [0] * s
    for i in range(1, s):
        c = codes[i]
        gain = table[c]
        cand = list(map(add, top, gain))
        v = max(cand)
        t = cand.index(v)
        j = _first_reaching(arg[t], gain[t], v, link, best)
        if cand.count(v) > 1:  # other values tie: the smallest index wins
            for u in range(t + 1, len(cand)):
                if cand[u] == v:
                    j = min(j, _first_reaching(arg[u], gain[u], v, link, best))
        best[i] = v
        pred[i] = j
        if c == len(top):
            top.append(v)
            arg.append(i)
        elif v > top[c]:
            link[i] = arg[c]
            top[c] = v
            arg[c] = i
    return best, pred


def _scan_dp(codes: Sequence[int], rows: np.ndarray, kind, p: float, buf: np.ndarray):
    """The DP differencing the current sample from the values each step."""
    s = len(codes)
    k, cols = rows.shape
    top = np.zeros(k)  # best V over the samples of each value
    arg = [0] * k  # the smallest index reaching it
    link = np.full(s, -1)  # see _first_reaching
    best = np.zeros(s)
    pred = np.zeros(s, dtype=np.int64)
    work = k * (cols + 16 if cols >= 8 or kind.tag == "lp" else 3 * (cols - 1))
    prune = cols >= PRUNE_MIN_COLS and k >= PRUNE_MIN_VALUES and work >= PRUNE_MIN_WORK
    bound = _DistanceBound(rows, kind, p, buf) if prune else None
    if bound is None and cols < 8:  # the kernel scans narrow tables by column
        rows = np.asfortranarray(rows)
    live = None  # the values scanned this step, when not all of them
    seen = 1
    for i in range(1, s):
        c = codes[i]
        if bound is None:
            gain = row_distances(rows[:seen], rows[c], kind, buf) ** p
            cand = top[:seen] + gain
        else:
            # the previous value is scored here again: one more row in the
            # gather costs less than splicing in the distance already taken
            live = bound.survivors(c, codes[i - 1], top[:seen])
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
            r = arg[t if live is None else live[t]]
            j = min(j, _first_reaching(r, gain[t], v, link, best))
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
    infinity: such values are always scored.
    """

    def __init__(self, rows: np.ndarray, kind, p: float, buf: np.ndarray):
        k, cols = rows.shape
        err = _distance_error(cols)
        self.rows, self.kind, self.p, self.buf = rows, kind, p, buf
        self.lo, self.hi = _trusted_range(kind, cols)
        self.grow = 1.0 + 3.0 * err + 2.0 * _EPS
        # the powers of a distance and of its bound are each within
        # _POW_ULPS of exact while the bound's is normal, and g * lift
        # rounds once more; a rounded sum never falls as a term grows
        self.lift = 1.0 + (2 * _POW_ULPS + 2) * _EPS
        self.ub = np.full(k, np.inf)
        self.ub[0] = 0.0  # the first sample's value
        # comparisons write here: a fresh small mask every step would stock
        # numpy's cache of small buffers with one of each size
        self.keep, self.test = np.empty(k, dtype=bool), np.empty(k, dtype=bool)

    def survivors(self, c: int, b: int, top: np.ndarray) -> np.ndarray:
        """Indices, ascending, of the values below ``len(top)`` to score.

        ``c`` is the current sample's value and ``b`` the previous one's.
        The candidate of ``b``, top[b] + d'(b, c)^p, is a lower bound on
        the step's maximum; a value is passed over only if its candidate
        is certified to fall strictly below it.
        """
        ub = self.ub[: len(top)]
        with np.errstate(over="ignore"):  # an infinite bound rules nothing out
            if b == c:  # a repeat: the same row, at distance exactly 0
                delta, floor = 0.0, top[b]
            else:  # taken as the scan takes it, so floor is b's candidate
                dist = row_distances(self.rows, self.rows[c], self.kind, self.buf, [b])
                delta = dist[0] if self.lo <= dist[0] <= self.hi else np.inf
                floor = top[b] + (dist ** self.p)[0]
            ub += delta
            ub *= self.grow
            g = ub ** self.p
            keep, test = self.keep[: len(top)], self.test[: len(top)]
            np.greater_equal(top + g * self.lift, floor, out=keep)  # both >= 0: no NaN
        keep |= np.less(g, _SMALL, out=test)  # and every bound out of trusted range
        keep |= np.less(ub, self.lo, out=test)
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

    Evaluated directly on the stored vectors, so tests can re-check any
    reported partition without going through the engine's embedding.
    """
    p = _check_exponent(p)
    total = 0.0
    for a, b in zip(indices, list(indices)[1:]):
        total += diff_norm(path.values[b], path.values[a]) ** p
    return total


def bv_norm(path: DiscretePath, p: float) -> float:
    """Norm of the starting value plus the p-th root of the p-variation."""
    p = _check_exponent(p)
    return vector_norm(path.values[0]) + pvar(path, p).value ** (1.0 / p)


def sup_norm(path: DiscretePath) -> float:
    """Largest value norm over the samples."""
    return max(vector_norm(v) for v in path.values)
