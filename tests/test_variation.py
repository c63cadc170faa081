"""p-variation: DP against the exhaustive oracle, plus structural identities.

The two routes never share partition logic: one is the dynamic program
over distinct values, the other enumerates every subsequence.  Keeping both
honest is the core correctness argument for everything built on top.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarkit import spaces
from pvarkit.errors import InvalidExponent, TooLarge
from pvarkit.paths import DiscretePath
from pvarkit.spaces import L1, L2, LINF, LP, Vector, row_norms
from pvarkit.variation import (
    PVarResult,
    bv_norm,
    partition_sum,
    pvar,
    pvar_bruteforce,
    pvar_restricted,
    sup_norm,
)

from conftest import build_corpus, make_random_path


def scalar_path(xs, times=None):
    if times is None:
        times = list(range(len(xs)))
    values = [Vector.dense([x]) for x in xs]
    return DiscretePath([float(t) for t in times], values, (float(times[0]), float(times[-1])))


# frozen: the square-jump step path [0, 1, 2, 2] on [0, 3]
def test_step_path_square_variation_exact():
    p = scalar_path([0.0, 1.0, 2.0, 2.0])
    res = pvar(p, 2.0)
    assert res.value == 4.0
    assert res.partition == [0, 3]
    assert pvar_bruteforce(p, 2.0).value == 4.0
    # the finest partition only collects 1 + 1 + 0
    assert partition_sum(p, range(4), 2.0) == 2.0
    assert pvar(p, 1.0).value == 2.0


def test_two_point_path():
    p = scalar_path([1.0, -2.0])
    for e in (1.0, 2.0, 3.5):
        assert pvar(p, e).value == pytest.approx(3.0 ** e, rel=1e-15)
        assert pvar(p, e).partition == [0, 1]


def test_constant_path_has_zero_variation():
    p = scalar_path([2.0, 2.0, 2.0])
    res = pvar(p, 1.5)
    assert res.value == 0.0
    # ties break toward the smallest predecessor
    assert res.partition == [0, 2]


def test_dp_matches_bruteforce_on_random_corpus():
    for path in build_corpus(120, seed=7, max_n=10):
        for e in (1.0, 1.5, 2.0, 3.0):
            a = pvar(path, e).value
            b = pvar_bruteforce(path, e).value
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_reported_partition_achieves_reported_value():
    for path in build_corpus(40, seed=11, max_n=12):
        for e in (1.0, 2.0):
            res = pvar(path, e)
            assert partition_sum(path, res.partition, e) == pytest.approx(res.value, rel=1e-12)
            bres = pvar_bruteforce(path, e)
            assert partition_sum(path, bres.partition, e) == pytest.approx(bres.value, rel=1e-12)


def test_p1_equals_finest_partition_sum():
    # at p = 1 the triangle inequality makes refinement free
    for path in build_corpus(60, seed=3, max_n=12):
        total = partition_sum(path, range(len(path)), 1.0)
        assert pvar(path, 1.0).value == pytest.approx(total, rel=1e-12)


def test_duplicate_sample_does_not_change_variation(rng):
    for _ in range(30):
        path = make_random_path(rng, max_n=8)
        k = int(rng.integers(0, len(path)))
        times = list(path.times)
        values = list(path.values)
        if k + 1 < len(times):
            t_new = (times[k] + times[k + 1]) / 2.0
        else:
            t_new = times[k] + 1.0
        times.insert(k + 1, t_new)
        values.insert(k + 1, values[k])
        fat = DiscretePath(times, values, (times[0], times[-1]))
        for e in (1.0, 1.7, 2.0):
            assert pvar(fat, e).value == pytest.approx(pvar(path, e).value, rel=1e-12)


def test_variation_ignores_time_parameterization(rng):
    # var_p only sees the value sequence
    for _ in range(20):
        path = make_random_path(rng, max_n=10)
        warped_times = np.sqrt(np.asarray(path.times) - path.times[0])
        warped_times = warped_times / warped_times[-1] * (path.times[-1] - path.times[0]) + path.times[0]
        warped_times[0], warped_times[-1] = path.times[0], path.times[-1]
        warped = DiscretePath(warped_times, list(path.values), path.interval)
        for e in (1.0, 2.5):
            assert pvar(warped, e).value == pvar(path, e).value


def test_variation_monotone_in_refinement_direction():
    # dropping interior samples can only lower the supremum
    p = scalar_path([0.0, 3.0, -1.0, 2.0, 0.5])
    thin = scalar_path([0.0, -1.0, 0.5], times=[0, 2, 4])
    for e in (1.0, 2.0, 3.0):
        assert pvar(thin, e).value <= pvar(p, e).value + 1e-15


def test_restricted_variation():
    p = scalar_path([0.0, 1.0, 2.0, 2.0])
    res = pvar_restricted(p, 2.0, 1.0, 3.0)
    assert res.value == 1.0
    assert res.partition == [0, 2]
    full = pvar_restricted(p, 2.0, 0.0, 3.0)
    assert full.value == 4.0


def test_interval_additivity_lower_bound(rng):
    # var_p(c,d) + var_p(d,b) <= var_p(c,b): gluing partitions is admissible
    for _ in range(20):
        path = make_random_path(rng, max_n=10)
        times = path.times
        mid = times[len(times) // 2]
        if mid in (times[0], times[-1]):
            continue
        for e in (1.0, 2.0):
            left = pvar_restricted(path, e, times[0], mid).value
            right = pvar_restricted(path, e, mid, times[-1]).value
            assert left + right <= pvar(path, e).value + 1e-9


def test_bv_and_sup_norms():
    p = scalar_path([3.0, 3.0])
    assert bv_norm(p, 2.0) == 3.0
    assert sup_norm(p) == 3.0
    q = scalar_path([0.0, 2.0])
    assert bv_norm(q, 2.0) == 2.0
    assert sup_norm(q) == 2.0


def test_invalid_exponent_rejected():
    p = scalar_path([0.0, 1.0])
    for bad in (0.5, 0.0, -1.0, float("nan")):
        with pytest.raises(InvalidExponent):
            pvar(p, bad)


def test_bruteforce_size_limit():
    path = scalar_path(list(range(22)))
    with pytest.raises(TooLarge):
        pvar_bruteforce(path, 2.0)


def test_l1_vs_l2_norm_choice_matters():
    values = [Vector.dense([0.0, 0.0], norm=L1), Vector.dense([1.0, 1.0], norm=L1)]
    p1 = DiscretePath([0.0, 1.0], values, (0.0, 1.0))
    values2 = [Vector.dense([0.0, 0.0], norm=L2), Vector.dense([1.0, 1.0], norm=L2)]
    p2 = DiscretePath([0.0, 1.0], values2, (0.0, 1.0))
    assert pvar(p1, 1.0).value == 2.0
    assert pvar(p2, 1.0).value == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_sparse_paths_supported():
    values = [Vector.sparse({}), Vector.sparse({1: 1.0}), Vector.sparse({2: 1.0})]
    p = DiscretePath([0.0, 0.5, 1.0], values, (0.0, 1.0))
    got = pvar(p, 2.0).value
    assert got == pytest.approx(pvar_bruteforce(p, 2.0).value, rel=1e-12)
    assert got == pytest.approx(3.0, rel=1e-12)  # 1 + 2 via the finest split


def test_result_json_round_trip():
    res = PVarResult(2.0, 4.0, [0, 3])
    assert PVarResult.from_json(res.to_json()) == res


# ---------------------------------------------------------------------------
# properties on paths that revisit a few values


def reference_pvar(path, p):
    """The plain O(n^2) recurrence over every earlier sample, first maximum."""
    mat = path.coordinate_matrix()
    s = mat.shape[0]
    best = np.zeros(s)
    pred = np.zeros(s, dtype=np.int64)
    for i in range(1, s):
        cand = best[:i] + row_norms(mat[:i] - mat[i], path.space.norm) ** p
        pred[i] = np.argmax(cand)
        best[i] = cand[pred[i]]
    partition = [s - 1]
    while partition[-1] != 0:
        partition.append(int(pred[partition[-1]]))
    return float(best[-1]), partition[::-1]


@st.composite
def repeating_paths(draw, max_increments=16):
    """A path drawn from a pool of at most four values, plus an exponent."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=max_increments + 1))
    kind = draw(st.sampled_from([L1, L2, LINF, LP(1.5)]))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    values = [Vector.dense(row, norm=kind) for row in picks]
    return DiscretePath([float(t) for t in range(len(values))], values), p


@given(repeating_paths())
@settings(max_examples=150, deadline=None)
def test_dp_equals_bruteforce_bit_for_bit(case):
    path, p = case
    assert pvar(path, p).value == pvar_bruteforce(path, p).value


@given(repeating_paths(max_increments=60))
@settings(max_examples=300, deadline=None)
def test_dp_partition_realises_value_and_matches_reference(case):
    path, p = case
    res = pvar(path, p)
    part = res.partition
    assert part[0] == 0 and part[-1] == path.n
    assert all(a < b for a, b in zip(part, part[1:]))
    mat = path.coordinate_matrix()
    total = 0.0
    for term in row_norms(mat[part[:-1]] - mat[part[1:]], path.space.norm) ** p:
        total += term
    assert total == res.value
    assert (res.value, part) == reference_pvar(path, p)


def test_rounding_tie_keeps_smallest_predecessor():
    # 0 + 1 and 2e-18 + 1 both round to 1, so sample 0 and sample 2 (both
    # at 0) tie as predecessors of the last sample; the smaller one wins
    path = scalar_path([0.0, 1e-6, 0.0, 1e-6, 1.0])
    res = pvar(path, 3.0)
    assert (res.value, res.partition) == (1.0, [0, 4]) == reference_pvar(path, 3.0)


def test_equal_values_on_different_samples_tie_to_smallest_index():
    # symmetric spikes: 1 and -1 sit at the same distance from 0
    path = scalar_path([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, -1.0, 0.0])
    for e in (1.0, 2.0, 3.0):
        res = pvar(path, e)
        assert (res.value, res.partition) == reference_pvar(path, e)


@pytest.mark.parametrize("kind", [L1, L2, LINF, LP(1.5)])
def test_blocked_distances_match_reference(kind, monkeypatch):
    # a 48-byte block holds two rows of three coordinates, so later steps
    # scan the earlier values in several blocks, the last one often short
    monkeypatch.setattr(spaces, "BLOCK_BYTES", 48)
    rng = np.random.default_rng(11)
    coords = np.round(rng.uniform(-2.0, 2.0, size=(41, 3)), 1)
    coords[25:] = coords[rng.integers(0, 25, 16)]  # repeats, too
    values = [Vector.dense(row, norm=kind) for row in coords]
    path = DiscretePath([float(t) for t in range(len(values))], values)
    for p in (1.0, 2.0, 3.0):
        res = pvar(path, p)
        assert (res.value, res.partition) == reference_pvar(path, p)
