"""p-variation: DP against the exhaustive oracle, plus structural identities.

The two routes never share partition logic: one is the dynamic program
over distinct values, the other enumerates every subsequence.  Keeping both
honest is the core correctness argument for everything built on top.
"""

import math
from array import array
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarkit import paths, spaces, variation
from pvarkit.errors import InvalidExponent, PathInvariantError, TooLarge
from pvarkit.lab import (
    find_holder_violators,
    gen_example3,
    gen_step4_path,
    gen_thm6_spikes,
    power_divergence_candidates,
)
from pvarkit.operators import Generator, compose_path
from pvarkit.paths import MAX_SAMPLES, DiscretePath
from pvarkit.spaces import L1, L2, LINF, LP, Vector, norm as vector_norm, row_norms
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


@pytest.mark.parametrize(
    "chain", [[0, -1], [0, 1.7, 3], [0, 2, 1, 3], [0, 0, 3], [0, 4], [[0, 3]], [False, True]]
)
def test_partition_sum_refuses_malformed_chains(chain):
    # a negative index once wrapped, a float was truncated, and an unordered
    # chain was summed as given: 0.25, 1.25 and 13.25 on this path at p = 2
    path = scalar_path([0.0, 1.0, 3.0, 0.5])
    with pytest.raises(ValueError, match="strictly increasing integers in \\[0, 3\\]"):
        partition_sum(path, chain, 2.0)
    assert partition_sum(path, [0, 1, 2, 3], 2.0) == 11.25
    assert partition_sum(path, np.array([0, 2, 3], dtype=np.uint8), 2.0) == 9.0 + 6.25
    assert partition_sum(path, [], 2.0) == partition_sum(path, [3], 2.0) == 0.0


def test_partition_sum_gives_back_the_value_on_spike_trains():
    # spike trains and their compositions hold few value objects, coded by
    # an array, not a range; each starts at a zero object and holds 0 again
    # as a pair point, one row under two objects, so the re-sum reads the
    # DP's value table, not the codes of the objects
    f = Generator.power(0.25)
    candidates = power_divergence_candidates()
    M = max(vector_norm(f(v)) for v in candidates)
    pairs = find_holder_violators(f, 1.0, 2.0, M, candidates, 8)
    trains = [gen_step4_path(1.0, 2.0, pairs, d) for d in (1, 4, 8)]
    trains += [compose_path(f, path) for path in trains]
    trains.append(compose_path(Generator.custom(lambda v: 0.0 * v), trains[0]))
    for path in trains:
        assert not isinstance(path.codes, range)
        for p in (1.0, 2.0, 3.0):
            res = pvar(path, p)
            assert partition_sum(path, res.partition, p) == res.value


def test_bv_norm_refuses_a_variation_that_underflows():
    # 0.9^7100 is below the smallest subnormal: the q-variation of a path of
    # two values is 0.0, and its root would read 0 where the norm is 0.9;
    # at q = 7000 the variation is subnormal, and the root is taken
    path = scalar_path([0.0, 0.9, 0.0])
    assert pvar(path, 7100.0).value == 0.0
    with pytest.raises(PathInvariantError, match="7100-variation of a path of 2 values underflows"):
        bv_norm(path, 7100.0)
    assert bv_norm(path, 7000.0) == pytest.approx(0.9, rel=1e-3)
    assert bv_norm(scalar_path([0.9, 0.9]), 7100.0) == 0.9  # one value: no root to take


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
            assert partition_sum(path, res.partition, e) == res.value
            bres = pvar_bruteforce(path, e)
            assert partition_sum(path, bres.partition, e) == bres.value


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


# subnormal distances, powers that overflow, and both zeros
EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]


@contextmanager
def table_route():
    """pvar's gain-table route on tables of every size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variation, "TABLE_MAX_VALUES", MAX_SAMPLES)
        yield


@contextmanager
def pruned_route(block_bytes=8):
    """pvar's pruned scan on tables of every size and at least 8 columns,
    and the batched route without block bounds on narrower ones below
    ``PRUNE_MIN_VALUES`` values.  One-row distance blocks, the default here,
    gather what the scan scores a row at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variation, "TABLE_MAX_VALUES", 0)
        patch.setattr(spaces, "BLOCK_BYTES", block_bytes)
        yield


@contextmanager
def batched_route(steps=None, block=None):
    """pvar's batched route, pruning from the first step, on tables of every
    size and fewer than 8 columns, with batches of ``steps`` samples and
    blocks of ``block`` values (by default the route's own)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variation, "TABLE_MAX_VALUES", 0)
        patch.setattr(variation, "PRUNE_MIN_VALUES", 0)
        if steps:
            patch.setattr(variation, "BATCH_STEPS", steps)
        if block:
            patch.setattr(variation, "_block_size", lambda k: block)
        yield


@contextmanager
def run_route(cap=2):
    """pvar's gain-table route on tables of every size, offering every
    alternating stretch to the run shortcut in windows of 1 step doubling
    to ``cap``, so short paths take, stop and resume runs."""
    with table_route(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(variation, "RUN_MIN", 1)
        patch.setattr(variation, "RUN_STEPS", 1)
        patch.setattr(variation, "RUN_CAP", cap)
        yield


@contextmanager
def no_run_route():
    """pvar's gain-table route on tables of every size, every step scalar."""
    with table_route(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(variation, "RUN_MIN", MAX_SAMPLES + 1)
        yield


# tables of fewer than 8 columns take the batched route where the scan is forced
ROUTES = (table_route, pruned_route, batched_route, run_route)
# batches and blocks small enough that paths of a few samples cross their
# edges, end in a partial block and repeat values within a batch; run
# windows of at most 1-3 steps
TINY = [(steps, block) for steps in (1, 2, 3) for block in (1, 2)]
TINY_ROUTES = tuple(partial(batched_route, steps, block) for steps, block in TINY)
TINY_ROUTES += tuple(partial(run_route, cap) for cap in (1, 2, 3))


@st.composite
def repeating_paths(draw, max_increments=16, extremes=False):
    """A path drawn from a pool of at most four values, an exponent, and
    the batch and block sizes of a forced batched route.

    With ``extremes``, half the coordinates come from ``EXTREMES``.
    """
    # below 8 the batched route and the column-wise distance kernel, from 8
    # the pruned scan
    dim = draw(st.integers(1, 9))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    if extremes:
        coord = st.one_of(coord, st.sampled_from(EXTREMES))
    pool = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=max_increments + 1))
    kind = draw(st.sampled_from([L1, L2, LINF, LP(1.5)]))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    values = [Vector.dense(row, norm=kind) for row in picks]
    tiny = draw(st.sampled_from(TINY))
    return DiscretePath([float(t) for t in range(len(values))], values), p, tiny


def tiny_routes(tiny):
    """The batched route at the drawn batch and block, and the run shortcut
    with the drawn batch as its window cap."""
    return (partial(batched_route, *tiny), partial(run_route, tiny[0]))


def route_state(route, path, p):
    """pvar's result on ``path`` under ``route``, and the bytes of the V and
    predecessors its DP returned: every route's typed arrays."""
    states = []
    with route(), pytest.MonkeyPatch.context() as patch:
        taken_routes(patch, states)
        res = pvar(path, p)
    [(best, pred)] = states
    return res, (best.tobytes(), pred.tobytes())


def check_equals_bruteforce(path, p, tiny):
    states = set()
    for route in ROUTES + tiny_routes(tiny):
        res, state = route_state(route, path, p)
        assert res.value == pvar_bruteforce(path, p).value
        states.add(state)
    assert len(states) == 1  # a predecessor off the partition, too


def check_partition_matches_reference(path, p, tiny):
    expected = reference_pvar(path, p)
    states = set()
    for route in ROUTES + tiny_routes(tiny):
        res, state = route_state(route, path, p)
        states.add(state)
        part = res.partition
        assert part[0] == 0 and part[-1] == path.n
        assert all(a < b for a, b in zip(part, part[1:]))
        mat = path.coordinate_matrix()
        total = 0.0
        for term in row_norms(mat[part[:-1]] - mat[part[1:]], path.space.norm) ** p:
            total += term
        assert total == res.value
        assert (res.value, part) == expected
    assert len(states) == 1


@given(repeating_paths())
@settings(max_examples=150, deadline=None)
def test_dp_equals_bruteforce_bit_for_bit(case):
    check_equals_bruteforce(*case)


@given(repeating_paths(max_increments=60))
@settings(max_examples=300, deadline=None)
def test_dp_partition_realises_value_and_matches_reference(case):
    check_partition_matches_reference(*case)


@given(repeating_paths(extremes=True))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dp_equals_bruteforce_on_extreme_pools(case):
    check_equals_bruteforce(*case)


@given(repeating_paths(max_increments=60, extremes=True))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dp_partition_matches_reference_on_extreme_pools(case):
    check_partition_matches_reference(*case)


def test_rounding_tie_keeps_smallest_predecessor():
    # 0 + 1 and 2e-18 + 1 both round to 1, so sample 0 and sample 2 (both
    # at 0) tie as predecessors of the last sample; the smaller one wins
    path = scalar_path([0.0, 1e-6, 0.0, 1e-6, 1.0])
    for route in ROUTES + TINY_ROUTES:
        with route():
            res = pvar(path, 3.0)
        assert (res.value, res.partition) == (1.0, [0, 4]) == reference_pvar(path, 3.0)


def test_equal_values_on_different_samples_tie_to_smallest_index():
    # symmetric spikes: 1 and -1 sit at the same distance from 0
    path = scalar_path([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, -1.0, 0.0])
    for route in ROUTES + TINY_ROUTES:
        for e in (1.0, 2.0, 3.0):
            with route():
                res = pvar(path, e)
            assert (res.value, res.partition) == reference_pvar(path, e)


@pytest.mark.parametrize("kind", [L1, L2, LINF, LP(1.5)])
def test_blocked_distances_match_reference(kind, monkeypatch):
    # a 48-byte block holds two rows of three coordinates, so steps and
    # table rows take the values in several blocks, the last one often short
    monkeypatch.setattr(spaces, "BLOCK_BYTES", 48)
    rng = np.random.default_rng(11)
    coords = np.round(rng.uniform(-2.0, 2.0, size=(41, 3)), 1)
    coords[25:] = coords[rng.integers(0, 25, 16)]  # repeats, too
    values = [Vector.dense(row, norm=kind) for row in coords]
    path = DiscretePath([float(t) for t in range(len(values))], values)
    for route in ROUTES:
        for p in (1.0, 2.0, 3.0):
            with route():
                res = pvar(path, p)
            assert (res.value, res.partition) == reference_pvar(path, p)


@pytest.mark.parametrize("kind", [L1, L2, LINF, LP(3.0)])
def test_pruned_route_on_wide_rows_matches_reference(kind):
    # 20 columns, so sums pair up their terms; three rows to a block, so the
    # scored values are gathered across several blocks
    rng = np.random.default_rng(3)
    steps = rng.standard_normal((70, 20)) * 10.0 ** rng.integers(-2, 3, (70, 1))
    coords = np.cumsum(steps, axis=0)
    coords[50:] = coords[rng.integers(0, 50, 20)]  # repeats, too
    values = [Vector.dense(row, norm=kind) for row in coords]
    path = DiscretePath([float(t) for t in range(len(values))], values)
    for p in (1.0, 1.5, 2.0, 3.0):
        with pruned_route(block_bytes=3 * 20 * 8):
            res = pvar(path, p)
        assert (res.value, res.partition) == reference_pvar(path, p)


def counted_rows(monkeypatch):
    """The rows pvar's distance kernels difference from each one point,
    appended: a panel's from each of its points, a pair call's with a
    single j.  The scan's steps, all taken up front, are not counted."""
    rows = []
    pairs, panel = variation.pair_distances, variation.panel_distances

    def counted_pairs(table, i, j, kind):
        if np.ndim(j) == 0:
            rows.append(len(i))
        return pairs(table, i, j, kind)

    def counted_panel(table, x, kind):
        rows.extend([len(table)] * (len(x) if x.ndim > 1 else 1))
        return panel(table, x, kind)

    monkeypatch.setattr(variation, "pair_distances", counted_pairs)
    monkeypatch.setattr(variation, "panel_distances", counted_panel)
    return rows


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_array_power_gives_each_element_the_same_bits_anywhere(p):
    # a table row powers all k distances at once, a full-scan step a prefix
    # of them: either way each element must come out the same
    rng = np.random.default_rng(4)
    x = np.abs(rng.standard_normal(100)) * 10.0 ** rng.integers(-100, 101, 100)
    x[::9] = 0.0
    whole = (x ** p).view(np.int64)
    for a in range(17):
        for b in range(a + 1, x.size + 1):
            assert np.array_equal((x[a:b] ** p).view(np.int64), whole[a:b])


def test_step4_paths_take_the_gain_table(monkeypatch):
    # the composed spike train of depth 8: 9,560 samples of a few values
    f = Generator.power(0.25)
    candidates = power_divergence_candidates()
    M = max(vector_norm(f(v)) for v in candidates)
    pairs = find_holder_violators(f, 1.0, 2.0, M, candidates, 8)
    path = compose_path(f, gen_step4_path(1.0, 2.0, pairs, 8))
    k = len(np.unique(path.coordinate_matrix(), axis=0))
    assert len(path) == 9560 and k <= variation.TABLE_MAX_VALUES
    rows = counted_rows(monkeypatch)
    res = pvar(path, 2.0)
    assert rows == [k] * k  # one table row per value, and nothing else
    with batched_route():
        batched = pvar(path, 2.0)
    assert (res.value.hex(), res.partition) == (batched.value.hex(), batched.partition)


def taken_routes(monkeypatch, states=None):
    """The names of the DP routes pvar runs, appended as it runs them, and
    what each returns appended to ``states`` if given."""
    taken = []
    for name in ("_table_dp", "_batched_dp", "_scan_dp"):
        def run(*args, _name=name, _dp=getattr(variation, name)):
            taken.append(_name)
            state = _dp(*args)
            if states is not None:
                states.append(state)
            return state

        monkeypatch.setattr(variation, name, run)
    return taken


@pytest.mark.parametrize("extra, table", [(0, True), (1, False)])
def test_table_gate(extra, table, monkeypatch):
    # TABLE_MAX_VALUES values take the table, one more the batched route
    k = variation.TABLE_MAX_VALUES + extra
    rng = np.random.default_rng(9)
    path = scalar_path(rng.standard_normal(k)[np.r_[np.arange(k), rng.integers(0, k, 2 * k)]])
    taken = taken_routes(monkeypatch)
    res = pvar(path, 2.0)
    assert taken == ["_table_dp" if table else "_batched_dp"]
    assert (res.value, res.partition) == reference_pvar(path, 2.0)


def test_pruning_engages_on_wide_sparse_paths(monkeypatch):
    # 101 and 301 distinct rows of 100 and 300 columns: the previous value,
    # one more and the step distance are all that is scored
    rows = counted_rows(monkeypatch)
    for depth in (100, 300):
        path = gen_example3(depth)
        rows.clear()
        res = pvar(path, 1.0)
        assert sum(rows) <= 3 * len(path)
        assert (res.value, res.partition) == reference_pvar(path, 1.0)


@pytest.mark.parametrize("kind", [L1, L2, LINF, LP(1.5)])
def test_distance_bounds_stay_above_computed_distances(kind, monkeypatch):
    # on a line the triangle inequality is tight, so only the allowance for
    # rounding keeps each bound above its value's computed distance
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(300) * 10.0 ** rng.integers(-3, 4, 300)
    rows = np.cumsum(rng.uniform(0.1, 1.0, 80))[:, None] * direction
    path = DiscretePath([float(t) for t in range(80)], [Vector.dense(r, norm=kind) for r in rows])
    table = path.distinct_matrix()  # every value distinct: the DP's table as is
    survivors = variation._DistanceBound.survivors
    scored = []

    def checked(self, i, c, b, top):
        live = survivors(self, i, c, b, top)
        computed = spaces.pair_distances(table, range(len(top)), c, kind)
        assert np.all(computed <= self.ub[: len(top)])
        scored.append(len(live))
        return live

    monkeypatch.setattr(variation._DistanceBound, "survivors", checked)
    for p in (1.0, 2.0):
        with pruned_route():
            res = pvar(path, p)
        assert (res.value, res.partition) == reference_pvar(path, p)
    assert len(scored) == 2 * 79 and sum(scored) < 79 * 80  # p = 2 was pruned


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_narrow_walks_take_the_batched_route(cols, monkeypatch):
    # 6,000-sample l2 walks, as the benchmark's: every step's V and
    # predecessor are the scan's, which these tables no longer take
    walk = np.cumsum(np.random.default_rng(cols).standard_normal((6000, cols)), axis=0)
    path = DiscretePath(np.linspace(0.0, 1.0, 6000), [Vector.dense(r) for r in walk])
    codes, rows = path.value_table()  # integer codes, as pvar hands a route
    full = variation._scan_dp(codes, rows, L2, 2.0)
    taken = taken_routes(monkeypatch)
    monkeypatch.setattr(variation, "_DistanceBound", None)  # fails if built
    res = pvar(path, 2.0)
    assert taken == ["_batched_dp"]
    best, pred = variation._batched_dp(codes, rows, L2, 2.0)
    assert (best.tobytes(), pred.tobytes()) == (full[0].tobytes(), full[1].tobytes())
    assert res.value == best[-1]


@pytest.mark.parametrize("kind", [L1, L2, LINF, LP(1.5)])
def test_batched_route_on_repeated_values(kind):
    # quantized walks of 800 samples revisit between 65 and 800 values, and
    # their whole-number distances tie often; the route's own sizes
    rng = np.random.default_rng(5)
    for cols, scale in ((1, 6.0), (2, 1.0), (3, 0.5)):  # 155, 429 and 459 values
        walk = np.round(np.cumsum(rng.standard_normal((800, cols)), axis=0) * scale)
        path = DiscretePath(np.linspace(0.0, 1.0, 800), [Vector.dense(r, norm=kind) for r in walk])
        assert variation.TABLE_MAX_VALUES < len(np.unique(walk, axis=0)) < len(path)
        for p in (1.0, 2.0, 3.0):
            res = pvar(path, p)
            assert (res.value, res.partition) == reference_pvar(path, p)


@pytest.mark.parametrize("kind", [L1, L2, LINF, LP(1.5)])
def test_block_bounds_stay_above_computed_candidates(kind):
    # on a line the triangle inequality is tight from every point before a
    # block, so only the allowance for rounding keeps each block's bound
    # above the computed candidates of its members
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(7) * 10.0 ** rng.integers(-3, 4, 7)
    rows = np.cumsum(rng.uniform(0.1, 1.0, 400))[:, None] * direction
    factors = variation._bound_factors(kind, 7)
    radius = variation._block_radii(rows, kind, 20, factors)
    dist = spaces.panel_distances(rows[::20], rows, kind)  # points by centers
    top = np.zeros(400)
    for p in (1.0, 1.5, 2.0, 3.0, 8.0):  # a high power magnifies a distance's error
        bound = variation._block_bounds(dist.copy(), radius, top[::20], p, factors)
        cand = spaces.panel_distances(rows, rows, kind) ** p + top
        assert np.all(cand.reshape(400, 20, 20).max(axis=2) <= bound)


def test_wide_example3_paths_still_prune(monkeypatch):
    # 1,501 samples in 1,500 sup-normed columns: a few rows scored per step
    path = gen_example3(1500)
    taken = taken_routes(monkeypatch)
    rows = counted_rows(monkeypatch)
    res = pvar(path, 1.0)
    assert taken == ["_scan_dp"] and sum(rows) <= 3 * len(path)
    assert res.value == partition_sum(path, res.partition, 1.0)


# ---------------------------------------------------------------------------
# the table route's run shortcut on alternating stretches


@st.composite
def alternating_paths(draw):
    """Paths of up to 300 samples over 2-4 values, mostly long stretches
    alternating two of them, with whole-number and signed-zero coordinates
    (ties), values near each other next to values far apart (gains a V
    absorbs), values shared by object or copied per sample, and an exponent."""
    cols = draw(st.integers(1, 2))
    coord = st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 0.25, 0.5, 0.5 + 2.0 ** -53, 1.5 + 2.0 ** -52, 1e-300, 1e8]
    )
    pool = draw(st.lists(st.lists(coord, min_size=cols, max_size=cols), min_size=2, max_size=4))
    kind = draw(st.sampled_from([L1, L2, LINF, LP(1.5)]))
    objects = [Vector.dense(row, norm=kind) for row in pool]
    picks = [0]
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.integers(0, len(pool) - 1)), draw(st.integers(0, len(pool) - 1))
        stretch = draw(st.sampled_from(["alternate", "constant", "random"]))
        m = draw(st.integers(1, 60))
        if stretch == "alternate":
            picks += [a, b] * m
        elif stretch == "constant":
            picks += [a] * m
        else:
            picks += draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    shared = draw(st.booleans())
    values = [objects[c] if shared else Vector.dense(pool[c], norm=kind) for c in picks[:300]]
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 40.0]))  # 40: gains that underflow
    return DiscretePath([float(t) for t in range(len(values))], values), p


@given(alternating_paths())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered")  # 1e8 ** 40
def test_runs_give_the_scalar_steps_value_and_partition(case):
    path, p = case
    want, want_state = route_state(no_run_route, path, p)
    for route in (table_route, *(partial(run_route, cap) for cap in (1, 2, 3))):
        res, state = route_state(route, path, p)
        assert (res.value.hex(), res.partition) == (want.value.hex(), want.partition)
        assert state == want_state  # a run's predecessors, too


@pytest.mark.parametrize(
    "xs, p",
    [
        # gains of a few ulps and below, where V + g rounds to V or ties
        ([0.5 + 2.0 ** -53, 0.25, 0.5 + 2.0 ** -53, 0.5, 0.5 + 2.0 ** -53], 3.0),
        ([1e-17, 1e-17, 1.5, 1.5 + 2.0 ** -52, 1.5, 1.5 + 2.0 ** -52], 2.0),
        ([1.5, 2.0 + 2.0 ** -51] * 2 + [1.5, 1.5 + 2.0 ** -52] * 3 + [1.5, 1.5, 1.5], 2.0),
        ([1e-17, 1e-17] + [0.0, 1e-17] * 3 + [0.0, 0.5 + 2.0 ** -53] * 2 + [0.0], 2.0),
    ],
)
def test_runs_stop_where_gains_are_absorbed(xs, p):
    path = scalar_path(xs)
    with no_run_route():
        want = pvar(path, p)
    for cap in (1, 2, 3):
        with run_route(cap):
            res = pvar(path, p)
        assert (res.value.hex(), res.partition) == (want.value.hex(), want.partition)


def test_partition_is_walked_back_when_first_read(monkeypatch):
    walks = []
    walk_back = variation._walk_back
    monkeypatch.setattr(variation, "_walk_back", lambda *a: walks.append(1) or walk_back(*a))
    path = scalar_path([0.0, 1.0, 0.0, 2.0, 1.0] * 3)
    res = pvar(path, 2.0)
    assert walks == [] and not hasattr(res, "other") and walks == []
    assert res.partition == reference_pvar(path, 2.0)[1] and walks == [1]
    assert res.partition is res.partition and walks == [1]
    assert res == PVarResult(2.0, res.value, res.partition) == pvar(path, 2.0)


def test_long_alternation_takes_few_scalar_steps(monkeypatch):
    # 40,000 samples of two values: runs of up to RUN_CAP steps take all
    # but the first step
    path = scalar_path([0.0, 1.0] * 20000)
    steps = []
    step = variation._step

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(variation, "_step", counted)
    for p in (1.0, 2.0):
        res = pvar(path, p)
        assert res.value == 39999.0 and res.partition == list(range(40000))
    assert len(steps) < 100
    steps.clear()
    with no_run_route():
        assert pvar(path, 2.0) == res
    assert len(steps) == 39999


@pytest.mark.parametrize("dim", [1, 9])
def test_every_route_takes_its_scalar_steps_through_step(dim, monkeypatch):
    # new values, repeats, ties on integer coordinates and an alternating
    # stretch: every step a run does not take goes through the one _step
    rng = np.random.default_rng(23)
    pool = rng.integers(-2, 3, size=(6, dim)).astype(float)
    picks = np.r_[rng.integers(0, 6, 40), [0, 1] * 20, rng.integers(0, 6, 20)]
    path = DiscretePath(np.arange(picks.size, dtype=float), [Vector.dense(pool[c]) for c in picks])
    steps, taken = [], []
    step, take_run = variation._step, variation._take_run
    monkeypatch.setattr(variation, "_step", lambda *a: steps.append(1) or step(*a))
    monkeypatch.setattr(variation, "_take_run", lambda *a: taken.append(take_run(*a)) or taken[-1])
    routes = taken_routes(monkeypatch)
    want = reference_pvar(path, 2.0)
    for route in ROUTES + TINY_ROUTES:
        steps.clear()
        runs = len(taken)
        with route():
            res = pvar(path, 2.0)
        assert (res.value, res.partition) == want
        assert len(steps) == len(path) - 1 - sum(taken[runs:])
    assert sum(taken) > 0
    assert set(routes) == {"_table_dp", "_batched_dp" if dim < 8 else "_scan_dp"}


def table_dp_state(path, p, monkeypatch):
    """``_table_dp``'s best and pred on ``path``, its links, read from the
    array ``_step`` is handed at its first call, and the steps runs took."""
    links, taken = [], []
    step, take_run = variation._step, variation._take_run

    def kept(i, c, v, hits, seen, own, at, arg, link, best, pred):
        links.append(link)
        return step(i, c, v, hits, seen, own, at, arg, link, best, pred)

    def counted(*args):
        taken.append(take_run(*args))
        return taken[-1]

    monkeypatch.setattr(variation, "_step", kept)
    monkeypatch.setattr(variation, "_take_run", counted)
    codes, rows = path.value_table()
    best, pred = variation._table_dp(codes, rows, path.space.norm, p)
    return best, pred, links[0], sum(taken)


def test_runs_leave_the_scalar_steps_state(monkeypatch):
    # a run writes V, links and predecessors by buffer copies: the same
    # bytes as the scalar steps
    assert array("q").itemsize == np.dtype("q").itemsize
    f = Generator.power(0.25)
    candidates = power_divergence_candidates()
    M = max(vector_norm(f(v)) for v in candidates)
    pairs = find_holder_violators(f, 1.0, 2.0, M, candidates, 16)
    paths = [compose_path(f, gen_step4_path(1.0, 2.0, pairs, d)) for d in (12, 16)]
    paths.append(gen_thm6_spikes(Vector.dense([0.5]), Vector.dense([0.49]), 2.0))
    paths.append(DiscretePath(np.arange(200000.0), [Vector.dense([t % 2.0]) for t in range(200000)]))
    for path in paths:
        *state, taken = table_dp_state(path, 2.0, monkeypatch)
        with no_run_route():
            *want, no_runs = table_dp_state(path, 2.0, monkeypatch)
        assert taken > 0 and no_runs == 0
        assert [a.tobytes() for a in state] == [a.tobytes() for a in want]


def test_accumulate_adds_left_to_right():
    # run V comes from np.add.accumulate: each prefix sum must round once,
    # in order, as the scalar steps' + does, whatever numpy's version
    rng = np.random.default_rng(8)
    pools = [
        [1e300, 7e299, -3e299, 1e-300, 2.5],  # sums near overflow, and back
        [5e-324, 1e-310, -2.2e-308, 3e-320, 0.0, -0.0],  # subnormals
        [1.0, 1e-16, -1e-16, 3.3333333333333335, -2.0],  # mixed signs, rounding
    ]
    for pool in pools:
        for n in (1, 2, 7, 8, 9, 33, 1025):
            g = rng.choice(pool, n)
            want, total = [], 0.0
            for x in g.tolist():
                total = total + x if want else x
                want.append(total)
            with np.errstate(over="ignore"):
                got = np.add.accumulate(g)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def grouped_by_value(mat):
    """Codes by first appearance and those first rows, grouping rows by
    float == through a dict of row tuples (0.0 and -0.0 are one key)."""
    code, heads = {}, []
    codes = [code.setdefault(tuple(row), len(code)) for row in mat.tolist()]
    for i, c in enumerate(codes):
        if c == len(heads):
            heads.append(i)
    return codes, mat[heads]


@st.composite
def row_tables(draw):
    """A table of rows drawn from a small pool, zeros of either sign."""
    cols = draw(st.sampled_from([0, 1, 2, 3, 8, 9, 40]))
    coord = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e300, 2.0 ** 60])
    pool = draw(st.lists(st.lists(coord, min_size=cols, max_size=cols), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    mat = np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), cols)
    flips = np.array(draw(st.lists(st.booleans(), min_size=mat.size, max_size=mat.size)), dtype=bool)
    mat[(mat == 0.0) & flips.reshape(mat.shape)] *= -1.0  # either zero, either sign
    return mat


def _same_grouping(got, want):
    (codes, rows), (want_codes, want_rows) = got, want
    assert list(codes) == list(want_codes)
    assert rows.shape == want_rows.shape and rows.tobytes() == want_rows.tobytes()


@given(row_tables(), st.sampled_from([8, 64, spaces.BLOCK_BYTES]))
@settings(max_examples=300, deadline=None)
def test_row_hashes_certify_the_lexsort_grouping(mat, block_bytes):
    # distinct hashes return the table as is; colliding ones, here every
    # multiplier zero, fall back to the sort: the same codes and rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "BLOCK_BYTES", block_bytes)
        got = paths._distinct_rows(mat)
        _same_grouping(got, grouped_by_value(mat))
        patch.setattr(paths, "_hash_multipliers", lambda d: np.zeros(d, dtype=np.uint64))
        _same_grouping(paths._distinct_rows(mat), got)


def test_row_hashes_wrap_around_exactly(monkeypatch):
    # uint64 products and sums wrap modulo 2^64, as Python ints reduced
    # mod 2^64 do; rows equal under == (here by the sign of zero) hash alike
    monkeypatch.setattr(spaces, "BLOCK_BYTES", 3 * 8 * 9)  # three rows to a block
    rng = np.random.default_rng(15)
    mat = rng.standard_normal((20, 9)) * 10.0 ** rng.integers(-300, 300, (20, 9))
    mat[::4, ::2] = 0.0
    twin = mat[1::4]
    twin[...] = mat[::4]
    twin[twin == 0.0] = -0.0  # the rows above, zeros of the other sign
    mult = [int(c) for c in paths._hash_multipliers(9)]
    assert all(c % 2 for c in mult) and len(set(mult)) == 9
    want = []
    for row in (mat + 0.0).view(np.uint64).tolist():
        want.append(sum((x ^ x >> 52) * c for x, c in zip(row, mult)) % 2 ** 64)
    got = paths._row_hashes(mat)
    assert got.dtype == np.uint64 and got.tolist() == want
    assert np.array_equal(got[::4], got[1::4])


def test_grouping_certificate_passes_wide_example3_tables(monkeypatch):
    # every row of the embedding distinct: no sort, the table comes back as is
    mat = gen_example3(300).distinct_matrix()
    monkeypatch.setattr(np, "lexsort", None)  # fails if called
    codes, rows = paths._distinct_rows(mat)
    assert codes == range(len(mat)) and rows is mat
