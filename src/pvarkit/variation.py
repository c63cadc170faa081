"""p-variation of discrete paths.

``pvar`` maximises the sum of p-th powers of increment norms over
subsequences of the sample indices with a dynamic program that groups
predecessors by value, at O(n k d) cost for n samples, k distinct values
and d coordinates; ``pvar_bruteforce`` enumerates every subsequence
literally and exists as an independent oracle for the engine, guarded to
small paths.  Tests hold the two to bit-for-bit agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidExponent, TooLarge
from .paths import DiscretePath
from .spaces import block_buffer, diff_norm, norm as vector_norm, row_distances, row_norms

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
    """
    p = _check_exponent(p)
    mat = path.coordinate_matrix()
    kind = path.space.norm
    s = mat.shape[0]
    codes, rows = _distinct_rows(mat)
    k = rows.shape[0]
    top = np.zeros(k)  # best V over the samples of each value
    arg = [0] * k  # the smallest index reaching it
    # V never falls along the samples of one value (a repeat adds 0); each
    # sample that raised its value's best links to the previous one.
    link = np.full(s, -1)
    best = np.zeros(s)
    pred = np.zeros(s, dtype=np.int64)
    buf = block_buffer(k, rows.shape[1])  # reused by every step
    seen = 1
    for i in range(1, s):
        c = codes[i]
        gain = row_distances(rows[:seen], rows[c], kind, buf) ** p
        cand = top[:seen] + gain
        t = int(cand.argmax())
        v = cand[t]
        j = s
        # Find the smallest index whose V + d^p rounds to v.  Without
        # repeats, code order is index order and t is that index.
        for t in (cand == v).nonzero()[0].tolist() if k < s else (t,):
            r = arg[t]
            while link[r] >= 0 and best[link[r]] + gain[t] == v:
                r = link[r]
            j = min(j, r)
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
    partition = [s - 1]
    while partition[-1] != 0:
        partition.append(int(pred[partition[-1]]))
    partition.reverse()
    return PVarResult(p=p, value=float(best[-1]), partition=partition)


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
