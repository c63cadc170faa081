"""Construction generators and packaged experiments.

Each generator is checked twice: once for its structural contract (sample
layout, preconditions, error taxonomy) and once against an inequality it
exists to exhibit, with the small cases cross-checked on the exhaustive
variation oracle.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarkit import paths, spaces
from pvarkit.cli import main

from pvarkit.errors import (
    BlockTooLarge,
    GapConditionViolated,
    InvalidExponent,
    NoViolatorFound,
    PathInvariantError,
    SpikeOverflow,
    TooLarge,
)
from pvarkit.lab import (
    DEFAULT_DEPTHS,
    SPIKE_CAP,
    ClaimReport,
    example3_experiment,
    find_holder_violators,
    gen_example3,
    gen_example5_experiment,
    gen_remark_spikes,
    gen_step2_path,
    gen_step4_path,
    gen_thm6_spikes,
    power_divergence_candidates,
    remark_experiment,
    run_divergence_step6,
    step4_blocks,
    step4_divergence_experiment,
    step4_restricted_bound,
    step4_total_bound,
    thm6_experiment,
)
from pvarkit.operators import Generator, compose_path, epsilon_covering
from pvarkit.paths import DiscretePath
from pvarkit.spaces import LINF, Vector, VectorSpace, diff_norm, norm
from pvarkit.variation import bv_norm, pvar, pvar_bruteforce, pvar_restricted, sup_norm

from conftest import assert_grouped_alike

POWER_CANDIDATES = power_divergence_candidates()


# frozen: 1 + sum_{k=2..10} 1/k^2 on the harmonic-square step path
def test_sparse_step_path_variation_value():
    path = gen_example3(10)
    assert len(path) == 11
    got = pvar(path, 1.0).value
    assert got == 1.5497677311665408
    expected = 1.0 + sum(1.0 / k ** 2 for k in range(2, 11))
    assert got == pytest.approx(expected, rel=1e-12)


def test_sparse_step_path_structure():
    path = gen_example3(3)
    assert path.space.kind == "sparse"
    # cumulative supports grow one coordinate per step
    assert path.values[0].support == (1,)
    assert path.values[2].support == (1, 2, 3)
    with pytest.raises(ValueError):
        gen_example3(0)


def test_sparse_step_path_covering_stabilizes():
    small = epsilon_covering(list(gen_example3(10).values), 0.01)
    big = epsilon_covering(list(gen_example3(200).values), 0.01)
    assert small == 10
    assert big == 10


def dict_example3(depth):
    """Example 3 built a vector at a time, each a dict copy of the last."""
    space = VectorSpace("sparse", LINF)
    values, entries = [], {}
    for k in range(1, depth + 1):
        entries[k] = 1.0 / (k * k)
        values.append(Vector(space, dict(entries)))
    return gen_step2_path(values)


def hex_items(v):
    return [(i, c.hex()) for i, c in v.data.items()]


@pytest.mark.parametrize("depth", list(range(1, 65)) + [1000, 1500])
def test_example3_rows_are_the_embedding_of_its_vectors(depth):
    path = gen_example3(depth)
    rows = path.distinct_matrix()
    embedded = spaces._embed(path.distinct)
    assert rows.shape == embedded.shape == (depth + 1, depth)
    assert rows.tobytes() == embedded.tobytes()
    assert rows.tobytes() == spaces._embed(dict_example3(depth).distinct).tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3, 10, 100])
def test_example3_vectors_are_the_dict_built_ones(depth):
    path, want = gen_example3(depth), dict_example3(depth)
    assert path.times.tobytes() == want.times.tobytes() and path.interval == want.interval
    assert [hex_items(v) for v in path.values] == [hex_items(v) for v in want.values]
    assert all(v.space == want.space for v in path.values)
    assert path.values is path.distinct and path.distinct is path.distinct  # made once


@pytest.mark.parametrize("depth", [1, 2, 7, 40])
def test_example3_agrees_with_the_dict_built_path(depth):
    want = dict_example3(depth)
    # each on a fresh path: the engine's reads make no vector
    got, ref = pvar(gen_example3(depth), 1.0), pvar(want, 1.0)
    assert got.value.hex() == ref.value.hex() and got.partition == ref.partition
    for eps in (0.01, 0.1, 2.0):
        assert epsilon_covering(gen_example3(depth), eps) == epsilon_covering(want, eps)
    assert bv_norm(gen_example3(depth), 1.0).hex() == bv_norm(want, 1.0).hex()
    assert sup_norm(gen_example3(depth)) == sup_norm(want)
    path = gen_example3(depth)
    assert path.values == want.values
    doc = path.to_json()
    assert json.dumps(doc) == json.dumps(want.to_json())
    assert DiscretePath.from_json(doc).to_json() == doc
    c, d = float(want.times[depth // 2]), 1.0
    assert path.restrict(c, d).to_json() == want.restrict(c, d).to_json()
    image, ref_image = compose_path(Generator.l2_sup(), path), compose_path(Generator.l2_sup(), want)
    assert image.to_json() == ref_image.to_json()
    assert pvar(image, 1.0).value.hex() == pvar(ref_image, 1.0).value.hex()


def test_rows_are_checked_when_first_read():
    space, index = VectorSpace("sparse", LINF), np.arange(1, 3)
    rows = np.array([[1.0, 0.0], [1.0, math.inf], [0.0, 0.0]])

    def fill(out):
        out[:] = rows

    path = DiscretePath._from_rows([0.0, 0.5, 1.0], (0.0, 1.0), space, fill, index)
    for _ in range(2):  # a failed check is not cached
        with pytest.raises(PathInvariantError, match="finite coordinates"):
            path.distinct_matrix()
    # the times and interval are checked as the constructor checks them
    for times, interval, message in [
        ([0.0, 1.0, 0.5], (0.0, 0.5), "strictly increasing"),
        ([0.0, 0.5, 1.0], (0.0, 2.0), "interval end"),
    ]:
        with pytest.raises(PathInvariantError, match=message):
            DiscretePath._from_rows(times, interval, space, fill, index)


def test_example3_above_the_size_limit_is_refused_before_it_is_filled(monkeypatch):
    monkeypatch.setattr(spaces, "MAX_EMBED_BYTES", 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="needs 8008000 bytes"):
            gen_example3(1000).distinct_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the 8 MB matrix is never made


def test_example3_experiment_makes_no_vector(monkeypatch):
    made = []
    init = Vector.__init__
    monkeypatch.setattr(Vector, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    outcome = example3_experiment(depths=(10, 100), bound_terms=1000)
    assert outcome.report.all_satisfied and outcome.point_counts == [11, 101]
    assert made == []
    assert len(gen_example3(3).values) == 4 and len(made) == 4  # counted when made


def test_step_path_from_values_alternating():
    e1 = Vector.sparse({1: 1.0})
    vals = [e1 if k % 2 == 0 else -1.0 * e1 for k in range(12)]
    path = gen_step2_path(vals)
    assert len(path) == 13
    assert path.interval == (0.0, 1.0)
    assert path.values[-1].is_zero()
    assert pvar(path, 1.0).value == 23.0


def test_spike_count_formula():
    u = Vector.dense([1.0 / 16.0])
    w = Vector.dense([0.0])
    blocks = step4_blocks(1.0, 2.0, [(u, w)])
    (blk,) = blocks
    # floor(1^(-4) * 16) at n = 1
    assert blk.m_raw == 16
    assert blk.m_used == 16
    assert not blk.capped
    assert blk.gap == 1.0 / 16.0


def test_block_rejects_wide_pairs():
    u, w = Vector.dense([0.6]), Vector.dense([0.0])
    with pytest.raises(GapConditionViolated, match="closeness"):
        step4_blocks(1.0, 2.0, [(u, w)])
    # within 1/(2 n^2) but the floor lands below 2 at n = 2
    pairs = [
        (Vector.dense([1.0 / 16.0]), Vector.dense([0.0])),
        (Vector.dense([0.12]), Vector.dense([0.0])),
    ]
    with pytest.raises(GapConditionViolated, match="spike count"):
        step4_blocks(1.0, 2.0, pairs)


def test_block_cap_modes():
    u, w = Vector.dense([2.0 ** -7]), Vector.dense([0.0])
    (blk,) = step4_blocks(1.0, 2.0, [(u, w)], cap=10)
    assert blk.m_raw == 128 and blk.m_used == 10 and blk.capped
    with pytest.raises(BlockTooLarge):
        step4_blocks(1.0, 2.0, [(u, w)], cap=10, strict=True)
    with pytest.raises(ValueError):
        step4_blocks(1.0, 2.0, [(u, w)], cap=1)


def test_spike_counts_past_the_float_range_are_over_the_cap():
    # gap^(-p) overflows a float here: the count is over 9e15, not an OverflowError
    w = Vector.dense([0.0])
    with pytest.raises(SpikeOverflow, match="over 9e15"):
        gen_thm6_spikes(Vector.dense([0.5]), w, 3000.0)
    (blk,) = step4_blocks(1000.0, 1000.0, [(Vector.dense([0.125]), w)])
    assert blk.m_raw is None and blk.m_used == SPIKE_CAP and blk.capped


def test_spike_path_layout():
    u, w = Vector.dense([1.0 / 16.0]), Vector.dense([0.0])
    path = gen_step4_path(1.0, 2.0, [(u, w)])
    assert path.times[0] == 0.0 and path.values[0].is_zero()
    assert path.times[-1] == 1.0 and path.values[-1] == w
    # block 1 opens at 1/2 with its background value
    assert path.times[1] == 0.5 and path.values[1] == w
    assert len(path) == 3 + 2 * 16


def test_spike_path_restriction_keeps_shallow_blocks():
    pairs = [
        (Vector.dense([1.0 / 16.0]), Vector.dense([0.0])),
        (Vector.dense([1.0 / 64.0]), Vector.dense([0.0])),
    ]
    path = gen_step4_path(1.0, 2.0, pairs)
    sub = path.restrict(0.5, 1.0)
    assert sub.n == 2 * 16 + 1
    shallow = gen_step4_path(1.0, 2.0, pairs[:1])
    assert pvar_restricted(path, 1.0, 0.5, 1.0).value == pytest.approx(
        pvar_restricted(shallow, 1.0, 0.5, 1.0).value, rel=1e-12
    )


def _step4_pairs():
    f = Generator.power(0.25)
    M = max(norm(f(v)) for v in POWER_CANDIDATES)
    return find_holder_violators(f, 1.0, 2.0, M, POWER_CANDIDATES, 12)


def _shared_object_pairs():
    # v1 is block 1's background and block 2's spike; v0 is the background
    # of blocks 2 and 3
    v0, v1 = Vector.dense([0.0]), Vector.dense([1.0 / 64.0])
    v2, v3 = Vector.dense([1.0 / 16.0 + 1.0 / 64.0]), Vector.dense([1.0 / 256.0])
    return [(v2, v1), (v1, v0), (v3, v0)]


def _spike_paths():
    pairs = _step4_pairs()
    for depth in range(1, 13):
        for cap in (SPIKE_CAP, 50):
            path = gen_step4_path(1.0, 2.0, pairs, depth, cap=cap)
            yield pytest.param(path, id="step4 depth %d cap %d" % (depth, cap))
    for depth in (1, 2, 3):
        path = gen_step4_path(1.0, 2.0, _shared_object_pairs(), depth)
        yield pytest.param(path, id="shared objects depth %d" % depth)
    one_pair = [(Vector.dense([1.0 / 256.0]), Vector.dense([0.0]))] * 3  # every block's
    yield pytest.param(gen_step4_path(1.0, 2.0, one_pair), id="one pair in every block")
    yield pytest.param(gen_thm6_spikes(Vector.dense([0.25]), Vector.dense([0.0]), 1.0), id="thm6")
    w, u = Vector.dense([-0.3]), Vector.dense([-0.5])
    yield pytest.param(gen_thm6_spikes(u, w, 1.5, (2.0, 5.0)), id="thm6 on [2, 5]")
    w, u = Vector.dense([0.0, 0.1]), Vector.dense([0.1, 0.2])
    yield pytest.param(gen_thm6_spikes(u, w, 2.0), id="thm6 in two coordinates")
    for n in (1, 2, 7, 64):
        yield pytest.param(gen_remark_spikes(Vector.dense([0.81]), n), id="remark %d" % n)
    path = gen_remark_spikes(Vector.sparse({3: 1.0}), 5, (-1.0, 1.0))
    yield pytest.param(path, id="remark sparse on [-1, 1]")


@pytest.mark.parametrize("path", list(_spike_paths()))
def test_spike_builders_equal_their_regrouped_twins(path):
    twin = DiscretePath(path.times, path.values, path.interval)
    assert_grouped_alike(path, twin)
    for p in (1.0, 2.0):
        got, want = pvar(path, p), pvar(twin, p)
        assert got.value.hex() == want.value.hex() and got.partition == want.partition


def test_spike_experiments_group_no_sample(tmp_path, monkeypatch):
    def refuse(values):
        raise AssertionError("grouped %d samples" % len(values))

    monkeypatch.setattr(paths, "_group", refuse)
    for experiment in ("step4", "thm6", "remark"):
        out = tmp_path / (experiment + ".csv")
        assert main(["lab", "--experiment", experiment, "--out", str(out)]) == 0
        assert out.exists()
    with pytest.raises(AssertionError, match="grouped"):
        DiscretePath([0.0, 1.0], [Vector.dense([0.0])] * 2)  # the patch is in place


# frozen closed forms at p = 1
def test_restricted_bound_values():
    assert step4_restricted_bound(1.0, 1) == 2.0
    assert step4_restricted_bound(1.0, 2) == 6.5


def test_total_bound_value():
    r = max(norm(v) for v in POWER_CANDIDATES)
    assert r == 2.0 ** -10
    assert step4_total_bound(1.0, r) == 19.74114992718472


def test_violator_search_finds_pairs_for_rough_map():
    f = Generator.power(0.25)
    M = max(norm(f(v)) for v in POWER_CANDIDATES)
    assert M == 2.0 ** -2.5
    pairs = find_holder_violators(f, 1.0, 2.0, M, POWER_CANDIDATES, 8)
    assert len(pairs) == 8
    for n, (u, w) in enumerate(pairs, start=1):
        gap = diff_norm(u, w)
        assert diff_norm(f(u), f(w)) > 4.0 * M * n * n * gap ** 0.5


def test_violator_search_rejects_smooth_map():
    f = Generator.identity()
    M = max(norm(v) for v in POWER_CANDIDATES)
    with pytest.raises(NoViolatorFound) as info:
        find_holder_violators(f, 1.0, 2.0, M, POWER_CANDIDATES, 8)
    assert info.value.n == 3
    assert "Holder continuous" in str(info.value)


def test_violator_search_validates_m():
    f = Generator.power(0.25)
    with pytest.raises(ValueError, match="dominate"):
        find_holder_violators(f, 1.0, 2.0, 1e-9, POWER_CANDIDATES, 2)


@pytest.mark.parametrize("p, q", [(math.nan, 2.0), (1.0, math.inf), (0.5, 2.0), (2.0, 1.0)])
def test_violator_search_rejects_bad_exponents(p, q):
    f = Generator.power(0.25)
    with pytest.raises(InvalidExponent):
        find_holder_violators(f, p, q, 1.0, POWER_CANDIDATES, 2)


def test_divergence_run_certifies_growth():
    f = Generator.power(0.25)
    pairs = find_holder_violators(f, 1.0, 2.0, 2.0 ** -2.5, POWER_CANDIDATES, 4)
    report = run_divergence_step6(f, 1.0, 2.0, pairs, depths=(1, 2, 4))
    assert report.all_satisfied
    assert report.depths == [1, 2, 4]
    M_q = (2.0 ** -2.5) ** 2.0
    assert report.bounds == pytest.approx([M_q, 2 * M_q, 4 * M_q])
    assert all(a >= b for a, b in zip(report.quantities, report.bounds))


def test_capped_block_lowers_its_claim():
    # a capped block must only claim what its truncated spike count certifies
    f = Generator.power(0.25)
    u, w = Vector.dense([2.0 ** -12.0]), Vector.dense([0.0])
    fgap = diff_norm(f(u), f(w))
    report = run_divergence_step6(f, 1.0, 2.0, [(u, w)], depths=(1,), cap=100)
    assert report.bounds == [pytest.approx(100 * fgap ** 2.0)]
    assert report.all_satisfied


def test_search_and_recheck_decide_a_pair_at_the_growth_gap_alike():
    # f(g) = 4 g^(1/2.7) in libm's pow puts (0, g) on the growth gap at n = 1,
    # M = 1; numpy's array power of g is an ulp below libm's at AVX-512, and
    # equal to it at AVX2, so the pair qualifies on one machine and not on the
    # other: either way the re-check must decide as the search did
    g = 0.006143768476567849
    y = 4.0 * g ** (1 / 2.7)
    f = Generator.custom(lambda v: Vector.dense([y if v.data[0] == g else 0.0]))
    try:
        pairs = find_holder_violators(f, 1.0, 2.7, 1.0, [Vector.dense([0.0]), Vector.dense([g])], 1)
    except NoViolatorFound:
        return
    assert run_divergence_step6(f, 1.0, 2.7, pairs, M=1.0, depths=[1]).all_satisfied


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8),
    st.floats(1.0, 3.0),
    st.floats(1.0, 3.0),
    st.one_of(st.floats(0.05, 1.0), st.none()),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_recheck_accepts_every_pair_the_search_returns(xs, p, ratio, beta, count):
    q = p * ratio
    if beta is None:
        # 4 |x|^(p/q) in libm's pow, below 1 = M: every (0, x) sits on the gap at n = 1
        xs = [0.0] + [x * 4.0 ** -ratio / 2.0 for x in xs]
        f = Generator.custom(lambda v: Vector.dense([4.0 * abs(v.data[0]) ** (p / q)]))
    else:
        f = Generator.power(beta)
    candidates = [Vector.dense([x]) for x in xs]
    M = 1.0 if beta is None else max(norm(f(v)) for v in candidates)
    try:
        pairs = find_holder_violators(f, p, q, M, candidates, count)
    except NoViolatorFound:
        return
    depths = range(1, len(pairs) + 1)
    assert run_divergence_step6(f, p, q, pairs, M=M, depths=depths, cap=2).all_satisfied


@pytest.mark.parametrize(
    "argv, samples",
    [
        (["step4", "--p", "1", "--q", "3", "--depths", "1,2,4,8"], 4122220),
        (["step4", "--p", "2", "--q", "3", "--depths", "1,2,4,8"], 2000003),
        (["remark", "--depths", "1,1000000"], 2000002),
    ],
)
def test_over_cap_spike_paths_are_refused_before_they_are_built(tmp_path, capsys, argv, samples):
    out = str(tmp_path / "lab.csv")
    tracemalloc.start()
    try:
        code = main(["lab", "--experiment"] + argv + ["--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == (
        "invariant violation: path has %d samples, exceeding the sample cap 200000\n" % samples
    )
    assert peak < 5 * 2 ** 20  # the path alone would take tens of MB


def test_step4_experiment_end_to_end():
    exp = step4_divergence_experiment(depths=(1, 2))
    assert exp.report.all_satisfied
    assert exp.p == 1.0 and exp.q == 2.0
    assert len(exp.pairs) >= 2


# frozen: m = floor(0.5^-1) = 2 gives 6 samples and exactly variation 2
def test_alternating_spikes_small_case():
    u, w = Vector.dense([0.5]), Vector.dense([0.0])
    path = gen_thm6_spikes(u, w, 1.0)
    assert len(path) == 6
    assert pvar(path, 1.0).value == 2.0
    assert pvar_bruteforce(path, 1.0).value == 2.0


def test_alternating_spikes_match_oracle_for_small_counts():
    w = Vector.dense([0.0])
    for gap in (1.0, 0.5, 0.26, 0.17):
        u = Vector.dense([gap])
        path = gen_thm6_spikes(u, w, 1.0)
        m = math.floor(1.0 / gap)
        assert len(path) == 2 * m + 2
        a = pvar(path, 1.0).value
        assert a == pytest.approx(pvar_bruteforce(path, 1.0).value, rel=1e-12)
        assert a <= 2.0 + 1e-9


def test_alternating_spikes_preconditions():
    w = Vector.dense([0.0])
    with pytest.raises(ValueError, match="differ"):
        gen_thm6_spikes(w, w, 1.0)
    with pytest.raises(ValueError, match="<= 1"):
        gen_thm6_spikes(Vector.dense([1.5]), w, 1.0)
    with pytest.raises(SpikeOverflow):
        gen_thm6_spikes(Vector.dense([1e-7]), w, 1.0)


def test_fixed_count_spikes():
    u = Vector.dense([0.81])
    path = gen_remark_spikes(u, 3)
    assert len(path) == 8
    assert path.values[0].is_zero() and path.values[-1].is_zero()
    composed = compose_path(Generator.power(0.5), path)
    got = bv_norm(composed, 2.0)
    assert got == pytest.approx(math.sqrt(6.0) * 0.9, rel=1e-12)
    with pytest.raises(ValueError):
        gen_remark_spikes(Vector.dense([0.0]), 3)


def test_unit_norm_inputs_score_growth():
    report = gen_example5_experiment(range(1, 11))
    assert report.quantities == pytest.approx(list(range(1, 11)), abs=0.0)
    assert report.bounds == pytest.approx(list(range(1, 11)), abs=0.0)
    assert report.all_satisfied


def test_experiment_wrappers_all_satisfied():
    ex3 = example3_experiment(depths=(10, 100))
    assert ex3.report.all_satisfied
    assert ex3.covering_counts == [10, 10]
    assert ex3.point_counts == [11, 101]

    t6 = thm6_experiment(depths=(1, 2, 3), seed=0)
    assert t6.all_satisfied

    rem = remark_experiment(depths=(1, 4, 16))
    assert rem.all_satisfied
    expected = [0.9 * math.sqrt(n) for n in (1, 4, 16)]
    assert rem.bounds == pytest.approx(expected)


def test_report_rows_and_json():
    report = ClaimReport.build([1, 2], [1.5, 2.5], [1.0, 2.0], lower=True)
    assert report.all_satisfied
    rows = report.rows()
    assert rows[0] == (1, 1.5, 1.0, True)
    doc = report.to_json()
    assert doc["all_satisfied"] is True
    assert doc["claimed_lower_bounds"] == [1.0, 2.0]
    assert "claimed_upper_bounds" not in doc
    bad = ClaimReport.build([1], [0.5], [1.0], lower=True)
    assert not bad.all_satisfied


def test_report_upper_bounds_rows_and_json():
    report = ClaimReport.build([1, 2], [0.5, 2.0], [1.0, 2.0], lower=False)
    assert report.all_satisfied
    assert report.rows() == [(1, 0.5, 1.0, True), (2, 2.0, 2.0, True)]
    doc = report.to_json()
    assert list(doc) == ["depths", "quantities", "claimed_upper_bounds", "all_satisfied"]
    assert doc["claimed_upper_bounds"] == [1.0, 2.0]
    bad = ClaimReport.build([1, 2], [0.5, 2.5], [1.0, 2.0], lower=False)
    assert not bad.all_satisfied
    assert [row[3] for row in bad.rows()] == [True, False]


def test_report_tolerance_on_each_side():
    # a quantity within the tolerance of its bound satisfies either kind of
    # claim; one just outside fails only the claim it crosses
    near, far = 1.0 + 5e-10, 1.0 + 2e-9
    assert ClaimReport.build([1], [near], [1.0], lower=False).all_satisfied
    assert not ClaimReport.build([1], [far], [1.0], lower=False).all_satisfied
    assert ClaimReport.build([1], [far], [1.0], lower=True).all_satisfied
    assert not ClaimReport.build([1], [2.0 - far], [1.0], lower=True).all_satisfied
    assert ClaimReport.build([1], [2.0 - near], [1.0], lower=True).all_satisfied


def test_default_depth_schedule_is_increasing():
    assert list(DEFAULT_DEPTHS) == sorted(set(DEFAULT_DEPTHS))
    assert SPIKE_CAP == 10 ** 6
