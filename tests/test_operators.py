"""Generators, composition, Holder-constant estimation, and range covering."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvarkit import lab, operators, spaces
from pvarkit.errors import (
    DomainMismatch,
    InvalidAlpha,
    NoViolatorFound,
    PathInvariantError,
    TooFewPoints,
)
from pvarkit.lab import find_holder_violators, gen_example3, power_divergence_candidates
from pvarkit.operators import (
    Generator,
    composition_bound_check,
    compose_path,
    epsilon_covering,
    estimate_holder,
)
from pvarkit.paths import DiscretePath
from pvarkit.spaces import L1, L2, LINF, LP, Vector, coordinate_matrix, diff_norm, norm
from pvarkit.variation import pvar

from conftest import build_corpus


def scalar_path(xs):
    times = [float(t) for t in range(len(xs))]
    values = [Vector.dense([x]) for x in xs]
    return DiscretePath(times, values, (times[0], times[-1]))


def test_identity_generator():
    f = Generator.identity()
    v = Vector.dense([1.0, -2.0], norm=LINF)
    assert f(v) == v
    s = Vector.sparse({4: 2.0})
    assert f(s) == s


def test_power_generator_is_odd_and_exact():
    f = Generator.power(0.5)
    assert f(Vector.dense([0.25])) == Vector.dense([0.5])
    assert f(Vector.dense([-0.25])) == Vector.dense([-0.5])
    assert f(Vector.dense([0.0])) == Vector.dense([0.0])
    with pytest.raises(ValueError):
        Generator.power(0.0)
    with pytest.raises(ValueError):
        Generator.power(1.5)
    with pytest.raises(DomainMismatch):
        f(Vector.dense([1.0, 2.0]))
    with pytest.raises(DomainMismatch):
        f(Vector.sparse({1: 1.0}))


def test_scalar_lipschitz_generator():
    f = Generator.scalar_lipschitz([(-1.0, 0.0), (0.0, 0.0), (1.0, 2.0)])
    assert f(Vector.dense([0.5])) == Vector.dense([1.0])
    assert f(Vector.dense([-0.5])) == Vector.dense([0.0])
    # clamped outside the breakpoints: constant extension
    assert f(Vector.dense([9.0])) == Vector.dense([2.0])
    assert f(Vector.dense([-9.0])) == Vector.dense([0.0])
    with pytest.raises(ValueError):
        Generator.scalar_lipschitz([(0.0, 1.0)])
    with pytest.raises(ValueError):
        Generator.scalar_lipschitz([(0.0, 1.0), (0.0, 2.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Generator.scalar_lipschitz([(0.0, 0.0), (1.0, bad)])
        with pytest.raises(ValueError, match="finite"):
            Generator.scalar_lipschitz([(0.0, 0.0), (bad, 1.0)])


def test_supremum_score_generator_on_basis_vectors():
    f = Generator.l2_sup()
    for k in (1, 2, 7):
        img = f(Vector.sparse({k: 1.0}))
        assert img == Vector.sparse({1: float(k)})
    with pytest.raises(DomainMismatch):
        f(Vector.dense([1.0]))
    with pytest.raises(DomainMismatch, match="index %d," % 10 ** 400):
        f(Vector.sparse({1: 0.5, 10 ** 400: 0.5}))


def test_supremum_score_generator_floor():
    f = Generator.l2_sup()
    # scores n (2 |xi_n| - 1) maximise; the floor is -(smallest missing index)
    assert f(Vector.sparse({1: 0.25, 2: 0.25})) == Vector.sparse({1: -0.5})
    assert f(Vector.sparse({5: 0.25})) == Vector.sparse({1: -1.0})
    assert f(Vector.sparse({})) == Vector.sparse({1: -1.0})


def test_custom_generator_and_serialization_limits():
    f = Generator.custom(lambda v: 2.0 * v, label="double")
    v = Vector.dense([1.5])
    assert f(v) == Vector.dense([3.0])
    with pytest.raises(ValueError):
        f.to_json()


def image_bits(f, v):
    """The image's exact bits, or the domain error's message."""
    try:
        img = f(v)
    except DomainMismatch as exc:
        return str(exc)
    if img.space.kind == "dense":
        return img.space, img.data.tobytes()
    return img.space, sorted((i, c.hex()) for i, c in img.data.items())


def test_json_generators_round_trip_bit_for_bit():
    vectors = [Vector.dense([x]) for x in (0.0, -0.0, 0.3, -0.7, 1.5, -2.0, 5e-324, 1e300)]
    vectors += [Vector.dense([0.5, -1.0]), Vector.sparse({}), Vector.sparse({1: 0.3, 4: -2.5})]
    vectors += [Vector.sparse({2: 1e-300, 3: 0.5}, norm=LINF)]
    for g in (
        Generator.identity(),
        Generator.power(0.25),
        Generator.power(1.0),
        Generator.scalar_lipschitz([(-1.0, 0.5), (0.0, -0.0), (0.25, 3.0), (2.0, -1.0)]),
        Generator.l2_sup(),
    ):
        doc = g.to_json()
        again = Generator.from_json(doc)
        text = json.dumps(doc)  # keeps the sign of -0.0, which == would not
        assert json.dumps(again.to_json()) == text and again.label == g.label
        assert [image_bits(again, v) for v in vectors] == [image_bits(g, v) for v in vectors]
        # the returned spec is the caller's copy: mutating it leaves g alone
        images = [image_bits(g, v) for v in vectors]
        doc["name"] = "power"
        doc["beta"] = 0.5
        for pt in doc.get("breakpoints", []):
            pt[1] = 7.0
        assert json.dumps(g.to_json()) == text
        assert [image_bits(g, v) for v in vectors] == images


def test_generator_json_errors():
    with pytest.raises(ValueError, match="unknown generator name"):
        Generator.from_json({"name": ["power"]})
    with pytest.raises(ValueError, match="power generator needs 'beta'"):
        Generator.from_json({"name": "power"})
    with pytest.raises(ValueError, match="needs 'breakpoints'"):
        Generator.from_json({"name": "scalar_lipschitz"})


def test_compose_path_keeps_times_and_interval():
    p = scalar_path([0.25, 1.0, 0.0])
    out = compose_path(Generator.power(0.5), p)
    assert list(out.times) == list(p.times)
    assert out.interval == p.interval
    assert [v.data[0] for v in out.values] == [0.5, 1.0, 0.0]


def test_compose_path_maps_each_value_object_once():
    u, w = Vector.dense([0.25]), Vector.dense([-4.0])
    p = DiscretePath([0.0, 1.0, 2.0, 3.0, 4.0], [u, w, u, u, Vector.dense([0.25])])
    calls = []

    def power(v):
        calls.append(v)
        return Generator.power(0.5)(v)

    out = compose_path(Generator.custom(power), p)
    assert [id(v) for v in calls] == [id(u), id(w), id(p.values[4])]
    assert out.values == [Generator.power(0.5)(v) for v in p.values]
    assert out.values[0] is out.values[2] is out.values[3]


# frozen: max over 45 pairs of |i - j| / sqrt(2) at K = 10
def test_holder_estimate_on_score_map():
    pts = [Vector.sparse({k: 1.0}) for k in range(1, 11)]
    est = estimate_holder(Generator.l2_sup(), pts, 1.0)
    assert est.constant == 6.363961030678928
    assert est.constant == pytest.approx(9.0 / math.sqrt(2.0), rel=1e-15)
    assert est.pair_count == 45
    assert not est.infinite
    u, w = est.witness
    assert diff_norm(u, w) > 0.0


def test_holder_estimate_exact_exponent_match():
    # |x^(1/2) - y^(1/2)| / |x - y|^(1/2) peaks at pairs through 0
    pts = [Vector.dense([x]) for x in (0.0, 0.25, 1.0)]
    est = estimate_holder(Generator.power(0.5), pts, 0.5)
    assert est.constant == 1.0
    assert est.pair_count == 3


def test_holder_estimate_monotone_in_point_set():
    pts = [Vector.dense([float(k)]) for k in range(6)]
    f = Generator.scalar_lipschitz([(0.0, 0.0), (5.0, 5.0)])
    small = estimate_holder(f, pts[:3], 1.0)
    big = estimate_holder(f, pts, 1.0)
    assert big.constant >= small.constant
    assert big.constant == 1.0


def test_holder_estimate_corner_cases():
    pts = [Vector.dense([0.0]), Vector.dense([1.0])]
    with pytest.raises(InvalidAlpha):
        estimate_holder(Generator.identity(), pts, 0.0)
    with pytest.raises(InvalidAlpha):
        estimate_holder(Generator.identity(), pts, 1.5)
    with pytest.raises(TooFewPoints):
        estimate_holder(Generator.identity(), [pts[0]], 0.5)
    # all points identical: no usable pair
    with pytest.raises(TooFewPoints):
        estimate_holder(Generator.identity(), [pts[0], pts[0]], 0.5)


def test_holder_estimate_infinite_on_zero_distance_image_gap():
    # the squared norm of 1e-200 underflows: distinct vectors at measured
    # distance zero with distinct images short-circuit to an infinite estimate
    pts = [Vector.dense([0.0], norm=L2), Vector.dense([1e-200], norm=L2)]
    assert diff_norm(pts[0], pts[1]) == 0.0
    est = estimate_holder(Generator.identity(), pts, 1.0)
    assert est.infinite
    assert est.constant == math.inf
    assert est.pair_count == 0
    # pairs are counted up to the zero-distance one in row-major order
    pts = [Vector.dense([x], norm=L2) for x in (0.0, 5.0, 1e-200, 2.0)]
    est = estimate_holder(Generator.identity(), pts, 1.0)
    assert est.infinite and est.pair_count == 1
    assert est.witness[0] is pts[0] and est.witness[1] is pts[2]


def test_composition_bound_identity_on_corpus():
    f = Generator.identity()
    for path in build_corpus(30, seed=5, max_n=8):
        rep = composition_bound_check(f, path, 1.0, 2.0)
        assert rep.bound_holds


def test_composition_bound_power_on_scalar_corpus():
    p, q = 1.0, 2.0
    f = Generator.power(p / q)
    for path in build_corpus(30, seed=9, max_n=8, dims=(1,)):
        rep = composition_bound_check(f, path, p, q)
        assert rep.bound_holds
        assert rep.var_q == pytest.approx(pvar(compose_path(f, path), q).value)


def test_composition_bound_applies_the_map_once_per_sample():
    calls = []

    def halve(v):
        calls.append(v)
        return v * 0.5

    f = Generator.custom(halve)
    for path in build_corpus(10, seed=4, max_n=8):
        calls.clear()
        rep = composition_bound_check(f, path, 1.0, 2.0)
        assert len(calls) == len(path)
        composed = compose_path(f, path)
        assert rep.l_hat == estimate_holder(f, path.values, 0.5).constant
        assert (rep.var_p, rep.var_q) == (pvar(path, 1.0).value, pvar(composed, 2.0).value)


def test_composition_bound_requires_ordered_exponents():
    from pvarkit.errors import InvalidExponent

    path = scalar_path([0.0, 1.0])
    with pytest.raises(InvalidExponent):
        composition_bound_check(Generator.identity(), path, 2.0, 1.0)


def test_composition_bound_constant_path_degenerate():
    path = scalar_path([1.0, 1.0, 1.0])
    rep = composition_bound_check(Generator.identity(), path, 1.0, 2.0)
    assert rep.l_hat == 0.0
    assert rep.var_p == 0.0 and rep.var_q == 0.0
    assert rep.bound_holds


@pytest.mark.parametrize(
    "x, beta, p, q",
    [
        # alpha = fl(1 / 1.5) is off by 7e-17, and |ln d| = 634 magnifies it
        (1.515696201739936e-276, 0.25, 1.0, 1.5),
        # d^2 = 1e-336 underflows, so var_p reads 0 while var_q = 1e-252
        (1e-168, 0.25, 2.0, 6.0),
    ],
)
def test_composition_bound_holds_at_tiny_magnitudes(x, beta, p, q):
    # both sides are equal in real arithmetic on the path [0, x]
    path = DiscretePath([0.0, 1.0], [Vector.dense([0.0], norm=L1), Vector.dense([x], norm=L1)])
    rep = composition_bound_check(Generator.power(beta), path, p, q)
    assert rep.bound_holds and not rep.var_q <= rep.l_hat ** q * rep.var_p


def test_composition_bound_holds_when_l_hat_power_overflows():
    path = DiscretePath([0.0, 1.0], [Vector.dense([0.0], norm=L1), Vector.dense([1e300], norm=L1)])
    with np.errstate(over="ignore"):  # var_q's powers overflow too
        rep = composition_bound_check(Generator.power(0.25), path, 1.0, 30.0)
    with pytest.raises(OverflowError):
        rep.l_hat ** 30.0
    assert rep.bound_holds


def test_epsilon_covering_counts():
    pts = [Vector.sparse({k: 1.0}) for k in range(1, 8)]
    # basis vectors are sqrt(2) apart: below that radius nothing merges
    assert epsilon_covering(pts, 1.0) == 7
    assert epsilon_covering(pts, 1.5) == 1
    assert epsilon_covering([Vector.dense([0.0]), Vector.dense([0.5])], 0.5) == 1
    assert epsilon_covering([Vector.dense([0.0]), Vector.dense([0.5])], 0.49) == 2
    with pytest.raises(ValueError):
        epsilon_covering(pts, 0.0)
    assert epsilon_covering([], 1.0) == 0
    # a path counts its values through its cached embedding
    path = gen_example3(40)
    for eps in (0.001, 0.01, 0.1):
        assert epsilon_covering(path, eps) == epsilon_covering(path.values, eps)


def greedy_walk(mat, kind, eps):
    """Centers of a walk over the points in order: each point that no earlier
    center covers within eps becomes one."""
    centers = []
    for i in range(mat.shape[0]):
        buf = spaces.block_buffer(len(centers), mat.shape[1])
        if not centers or spaces.row_distances(mat[centers], mat[i], kind, buf).min() > eps:
            centers.append(i)
    return len(centers)


@st.composite
def covering_cases(draw):
    """Narrow, wide or sparse points over a few coordinates, and a radius,
    often one of their exact distances."""
    kind = draw(st.sampled_from([L1, L2, LINF, LP(1.5)]))
    family = draw(st.sampled_from(["narrow", "wide", "sparse"]))
    coord = st.sampled_from([0.0, -0.0, 0.1, 1.0, -1.0, 2.5, 1e-3, 3.0 ** 0.5])
    n = draw(st.integers(1, 30))
    if family == "sparse":
        entries = st.dictionaries(st.integers(1, 12), coord, max_size=5)
        points = [Vector.sparse(e, norm=kind) for e in draw(st.lists(entries, min_size=n, max_size=n))]
    else:
        dim = draw(st.integers(1, 7) if family == "narrow" else st.integers(8, 20))
        rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n))
        points = [Vector.dense(r, norm=kind) for r in rows]
    mat = coordinate_matrix(points)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    exact = float(spaces.row_norms(mat[i : i + 1] - mat[j], kind)[0])
    eps = exact if exact > 0.0 and draw(st.booleans()) else draw(st.floats(1e-3, 5.0))
    return points, mat, kind, eps


@given(covering_cases())
@settings(max_examples=400, deadline=None)
def test_covering_picks_the_walks_centers(case):
    points, mat, kind, eps = case
    assert epsilon_covering(points, eps) == greedy_walk(mat, kind, eps)


def test_bound_report_json():
    path = scalar_path([0.0, 1.0, 0.5])
    rep = composition_bound_check(Generator.identity(), path, 1.0, 2.0)
    doc = rep.to_json()
    assert set(doc) == {"L_hat", "var_p", "var_q", "bound_holds"}
    assert doc["bound_holds"] is True


# ---------------------------------------------------------------------------
# the numpy scans against the plain pair loops


def reference_holder(f, points, alpha):
    """The plain O(n^2) loop over Vector pairs, first strict maximum."""
    images = [f(v) for v in points]
    best, witness, count = -1.0, None, 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                continue
            d = diff_norm(points[i], points[j])
            if d == 0.0:
                if images[i] == images[j]:
                    continue
                return math.inf, (points[i], points[j]), count, True
            count += 1
            ratio = diff_norm(images[i], images[j]) / d ** alpha
            if ratio > best:
                best, witness = ratio, (points[i], points[j])
    if count == 0:
        raise TooFewPoints("points contain fewer than 2 distinct vectors")
    return best, witness, count, False


def assert_holder_matches_reference(f, points, alpha):
    try:
        want = reference_holder(f, points, alpha)
    except TooFewPoints:
        with pytest.raises(TooFewPoints):
            estimate_holder(f, points, alpha)
        return
    est = estimate_holder(f, points, alpha)
    assert repr(est.constant) == repr(want[0])
    # the witness is the very pair of Vector objects the loop picks
    assert (est.witness is None) == (want[1] is None)
    if want[1] is not None:
        assert est.witness[0] is want[1][0] and est.witness[1] is want[1][1]
    assert (est.pair_count, est.infinite) == want[2:]


NORMS = [L1, L2, LINF, LP(1.7)]
# 0.0 and 1e-200 sit at l2 and lp distance zero: the underflow case
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def holder_cases(draw):
    """Points drawn with repeats from a small pool, a generator and alpha."""
    kind = draw(st.sampled_from(NORMS))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        rows = st.lists(COORDS, min_size=dim, max_size=dim)
        pool = [Vector.dense(r, kind) for r in draw(st.lists(rows, min_size=1, max_size=6))]
        gens = [Generator.identity(), Generator.custom(lambda v: 0.5 * v)]
        if dim == 1:
            gens += [Generator.power(0.5), Generator.scalar_lipschitz([(-1, 0), (0, 1), (1, -3)])]
    else:
        entries = st.dictionaries(st.integers(1, 8), COORDS, max_size=4)
        pool = [Vector.sparse(e, kind) for e in draw(st.lists(entries, min_size=1, max_size=6))]
        gens = [Generator.identity(), Generator.l2_sup()]
    points = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=14))
    f = draw(st.sampled_from(gens))
    alpha = draw(st.sampled_from([0.37, 0.5, 1.0]))
    return f, points, alpha


@given(holder_cases())
@settings(max_examples=400, deadline=None)
def test_holder_scan_matches_reference_loop(case):
    assert_holder_matches_reference(*case)


def test_holder_scan_rescores_with_scalar_powers():
    # numpy's array power gives 1.42 ** 0.37 one ulp off Python's, so the
    # array ratio is 1.2472159522326074; the estimate is the scalar ratio
    pts = [Vector.dense([0.0]), Vector.dense([1.42])]
    est = estimate_holder(Generator.identity(), pts, 0.37)
    assert est.constant == 1.42 / 1.42 ** 0.37 == 1.2472159522326072
    assert_holder_matches_reference(Generator.identity(), pts, 0.37)


def test_holder_scan_keeps_first_pair_of_a_scalar_tie():
    # both pairs through 0 score exactly 1.0 in scalar arithmetic, while the
    # array ratios put (0, 2) ahead; the witness is the first pair, (0, 1)
    pts = [Vector.dense([x]) for x in (0.0, 2.315, 2.609)]
    est = estimate_holder(Generator.power(0.5), pts, 0.5)
    assert est.constant == 1.0
    assert est.witness[0] is pts[0] and est.witness[1] is pts[1]
    assert_holder_matches_reference(Generator.power(0.5), pts, 0.5)
    # ties at every pair, identity at alpha = 1: the first pair again
    line = [Vector.dense([float(k)]) for k in range(5)]
    est = estimate_holder(Generator.identity(), line, 1.0)
    assert est.witness[0] is line[0] and est.witness[1] is line[1]


@pytest.mark.parametrize("kind", NORMS)
def test_holder_scan_in_tiny_blocks_on_wide_sparse_rows(kind, monkeypatch):
    # 48-byte blocks hold no more than one row of the 30-column embedding
    monkeypatch.setattr(spaces, "BLOCK_BYTES", 48)
    rng = np.random.default_rng(5)
    pts = [
        Vector.sparse({int(k): float(rng.normal()) for k in rng.choice(30, 6) + 1}, kind)
        for _ in range(25)
    ]
    pts += pts[:4]  # repeats
    for f in (Generator.identity(), Generator.l2_sup()):
        for alpha in (0.37, 1.0):
            assert_holder_matches_reference(f, pts, alpha)


@pytest.mark.parametrize("block_bytes", [8, 800, 16000])
@pytest.mark.parametrize("wide", [False, True])
def test_holder_scan_in_blocks_of_rows(block_bytes, wide, monkeypatch):
    # 8 bytes make one-row blocks; 800 blocks of a few narrow rows, or of one
    # wide row differenced against a few later rows at a time; 16000 blocks
    # of several rows, wide ones in one difference
    monkeypatch.setattr(spaces, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(8)
    for kind in NORMS:
        if wide:
            sets = [[
                Vector.sparse({int(k): float(rng.normal()) for k in rng.choice(12, 5) + 1}, kind)
                for _ in range(26)
            ]]
            assert coordinate_matrix(sets[0]).shape[1] >= 8
            gens = [Generator.identity(), Generator.l2_sup()]
        else:
            sets = [[Vector.dense(rng.normal(size=dim).tolist(), kind) for _ in range(26)]
                    for dim in (1, 3)]
            gens = [Generator.identity(), Generator.custom(lambda v: 0.5 * v)]
        for pts in sets:
            pts += pts[:4]  # repeats
            for f in gens:
                for alpha in (0.37, 1.0):
                    assert_holder_matches_reference(f, pts, alpha)


@pytest.mark.parametrize("kind", [L1, L2, LINF])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_one_column_array_distances_are_the_scalar_ones(kind):
    # with them the array ratio at alpha = 1 is the scalar one: d ** 1.0 is d
    xs = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, -1e-300, 3e-300, 1.0, -2.5]
    xs += [1e300, -1e300, 1.7e308]
    pts = [Vector.dense([x], kind) for x in xs]
    mat = coordinate_matrix(pts)
    d = spaces.panel_distances(mat[1:], mat[:-1], kind, np.empty(len(xs) ** 2))
    for i in range(len(xs) - 1):
        for j in range(i + 1, len(xs)):
            assert repr(float(d[i, j - 1])) == repr(diff_norm(pts[i], pts[j]))
            assert repr(float(d[i, j - 1] ** 1.0)) == repr(diff_norm(pts[i], pts[j]) ** 1.0)
    finite = [v for v in pts if abs(float(v.data[0])) < 1e300]
    for f in (Generator.identity(), Generator.power(0.5)):
        assert_holder_matches_reference(f, finite, 1.0)


def test_holder_scan_at_alpha_one_takes_no_scalar_steps_where_array_distances_are_exact(
    monkeypatch,
):
    # every pair of the identity ties at ratio 1.0: no re-score, first pair
    # wins, on dense lines of 1, 3 and 20 columns and on a sparse linf one
    calls = []
    monkeypatch.setattr(operators, "diff_norm", lambda u, w: calls.append(1) or diff_norm(u, w))
    lines = [
        [Vector.dense(float(k) * 0.1 * np.arange(1.0, width + 1), kind) for k in range(80)]
        for width in (1, 3, 20)
        for kind in (L1, L2, LINF)
    ]
    lines.append([Vector.sparse({1: 0.1 * k, 2 + k % 7: 0.2 * k}, LINF) for k in range(80)])
    for line in lines:
        est = estimate_holder(Generator.identity(), line, 1.0)
        assert est.constant == 1.0 and est.pair_count == 80 * 79 // 2
        assert est.witness[0] is line[0] and est.witness[1] is line[1]
    assert calls == []
    estimate_holder(Generator.identity(), line, 0.5)  # other exponents re-score ties
    assert calls


@pytest.mark.parametrize("shared", [True, False])
def test_bound_check_on_repeated_values_scans_each_value_pair_once(shared, monkeypatch):
    # two shared value objects, or one object per sample as JSON loads them
    calls = []
    monkeypatch.setattr(operators, "diff_norm", lambda u, w: calls.append(1) or diff_norm(u, w))
    a, b = Vector.dense([0.0]), Vector.dense([1.0])
    counts = []
    for n in (400, 4000):
        calls.clear()
        values = [a, b] * (n // 2) if shared else [Vector.dense([t % 2.0]) for t in range(n)]
        path = DiscretePath(np.arange(float(n)), values)
        rep = composition_bound_check(Generator.power(0.5), path, 1.0, 2.0)
        assert rep.l_hat == 1.0 and rep.bound_holds
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


# p and q giving each alpha the Holder cases draw
PQ = {0.37: (1.0, 2.7), 0.5: (1.0, 2.0), 1.0: (2.0, 2.0)}


# ties: every pair of a line under the identity at alpha = 1, its samples
# repeated or not, and every pair of a constant map at ratio exactly 0
LINE = [Vector.dense([0.25 * k], L2) for k in range(12)]
FLAT = Generator.scalar_lipschitz([(-1.0, 0.0), (1.0, 0.0)])


@given(holder_cases(), st.booleans())
@settings(max_examples=300, deadline=None)
@example((Generator.identity(), LINE, 1.0), False)
@example((Generator.identity(), LINE[::-1] + LINE[:5], 1.0), True)
@example((Generator.identity(), [Vector.dense([k], LINF) for k in (0.0, 2.0, 1.0, 3.0)], 1.0), False)
@example((FLAT, LINE, 1.0), True)
@example((FLAT, LINE + LINE, 0.5), False)
def test_bound_check_estimate_is_the_pair_loops_over_the_samples(case, fresh):
    # the scan over distinct values gives the L_hat and infinite flag the
    # pair loop gives over every sample, sparse orders of a pair included;
    # fresh copies stand for a path loaded from JSON, one object per sample
    f, points, alpha = case
    p, q = PQ[alpha]
    if fresh:
        points = [Vector(v.space, v.data.copy()) for v in points]
    path = DiscretePath(np.arange(float(len(points))), points)
    try:
        want, _, _, infinite = reference_holder(f, path.values, p / q)
    except TooFewPoints:
        want, infinite = 0.0, False
    got = composition_bound_check(f, path, p, q)
    assert repr(got.l_hat) == repr(want)
    assert (got.l_hat == math.inf) == infinite
    assert got.bound_holds


@pytest.mark.parametrize("block_bytes", [8, 64, 1 << 18])
def test_holder_scan_keeps_the_first_of_tied_exact_pairs_across_blocks(monkeypatch, block_bytes):
    # ties within a block and across blocks of a row or a few: the witness
    # is the first tied pair in row-major order, as in the pair loop
    monkeypatch.setattr(spaces, "BLOCK_BYTES", block_bytes)
    walk = [Vector.dense([x]) for x in (0.0, 1.0, 3.0, 2.0, 5.0, 4.0, 3.5, 0.5)]
    for f, points, alpha in [
        (Generator.identity(), LINE, 1.0),
        (Generator.identity(), walk, 1.0),
        (FLAT, walk, 0.5),
        (Generator.custom(lambda v: 0.5 * v), walk + walk, 1.0),
        (Generator.power(0.5), walk, 0.5),
    ]:
        assert_holder_matches_reference(f, points, alpha)


def test_bound_check_keeps_no_tied_pair_it_cannot_use():
    # the identity on l2 walks at p = q = 2: every ratio ties at 1.0, and
    # each block keeps its first only, not 36 bytes a pair
    for n, cols in ((2000, 1), (1000, 3)):
        walk = np.cumsum(np.random.default_rng(7).standard_normal((n, cols)), axis=0)
        path = DiscretePath(np.arange(float(n)), [Vector.dense(x) for x in walk])
        tracemalloc.start()
        try:
            report = composition_bound_check(Generator.identity(), path, 2.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.l_hat == 1.0 and report.bound_holds
        assert peak < 20e6


def test_bound_check_scores_a_sparse_pair_in_each_order_the_path_takes():
    # a sparse difference sums its entries in its left operand's order, so
    # the two orders of this pair differ in the last bit, and so do their ratios
    u, w = Vector.sparse({1: 0.1, 3: 0.1}, L1), Vector.sparse({2: 0.6}, L1)
    assert diff_norm(u, w) == 0.8 and diff_norm(w, u) == 0.7999999999999999
    f = Generator.identity()
    seen = set()
    for values in ([w, u], [w, u, w], [u, w], [u, w, u], [w, w, u, u, w], [u, u, w, w]):
        path = DiscretePath(np.arange(float(len(values))), values)
        want = reference_holder(f, values, 0.5)[0]
        assert composition_bound_check(f, path, 1.0, 2.0).l_hat == want
        seen.add(want)
    assert len(seen) == 2
    # equal vectors whose entries come in another order: each order counts
    u, v = Vector.sparse({1: 0.1, 3: 0.1, 4: 0.6}, L1), Vector.sparse({4: 0.6, 3: 0.1, 1: 0.1}, L1)
    zero = Vector.sparse({}, L1)
    assert u == v and diff_norm(u, zero) == 0.8 and diff_norm(v, zero) == 0.7999999999999999
    for values in ([zero, v, u], [zero, u, v], [v, zero, u, zero]):
        path = DiscretePath(np.arange(float(len(values))), values)
        want = reference_holder(f, values, 0.5)[0]
        assert want == 0.8 / 0.8 ** 0.5
        assert composition_bound_check(f, path, 1.0, 2.0).l_hat == want


@pytest.mark.parametrize(
    "xs, f, q, named",
    [
        ([0.0, 7e199, 2e199, 1.3e200], Generator.power(0.5), 2.0, "var_p is inf"),
        ([0.0, 1e200, 2e200], Generator.identity(), 1.5, "L_hat is undefined"),
        ([0.0, 1.0, 2.0], Generator.custom(lambda v: 1e200 * v), 2.0, "var_q is inf"),
    ],
)
def test_bound_check_with_overflowing_norms_is_an_invariant_violation(xs, f, q, named):
    path = DiscretePath(np.arange(float(len(xs))), [Vector.dense([x], L2) for x in xs])
    with np.errstate(all="ignore"), pytest.raises(PathInvariantError, match=named):
        composition_bound_check(f, path, 1.0, q)


def reference_violators(f, p, q, M, candidates, count):
    """The plain loop: every candidate pair rescanned for every n."""
    images = [f(v) for v in candidates]
    pairs = []
    for n in range(1, count + 1):
        hit = None
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                gap = diff_norm(candidates[i], candidates[j])
                if gap == 0.0:
                    continue
                if diff_norm(images[i], images[j]) > 4.0 * M * n * n * gap ** (p / q):
                    hit = (candidates[i], candidates[j])
                    break
            if hit:
                break
        if hit is None:
            return pairs, n
        pairs.append(hit)
    return pairs, None


@pytest.mark.parametrize("kind", [L1, L2, LINF])
def test_violator_search_on_one_column_scores_no_pair_alone(kind, monkeypatch):
    # one distance panel per side gives diff_norm's bits: the same pairs as
    # the pair loop, with points at distance zero (0, -0.0 and 1e-200 under
    # l2) never a pair
    xs = [0.0, -0.0, 1e-200, 2.0 ** -20, 0.25, 0.25, -1e-9, 2.0 ** -30, 0.5, 1.0, -2.0]
    ladder = [0.0, 0.0] + [2.0 ** -j for j in range(48)]  # the pair moves with n
    # rough at 0 and at 1: (1, 2) qualifies before (0, 3) by columns, not by rows
    twin = Generator.custom(
        lambda v: Vector.dense([abs(v.data[0]) ** 0.25 + abs(v.data[0] - 1.0) ** 0.25], kind)
    )
    calls = []
    monkeypatch.setattr(lab, "diff_norm", lambda u, w: calls.append(1) or diff_norm(u, w))
    for f, p, q, points in [
        (Generator.power(0.25), 1.0, 2.0, xs),
        (Generator.power(0.1), 1.5, 3.0, xs),
        (Generator.power(0.25), 1.0, 2.0, ladder),
        (twin, 1.0, 2.0, [0.0, 1.0, 1.0 + 2.0 ** -40, 2.0 ** -40]),
    ]:
        candidates = [Vector.dense([x], kind) for x in points]
        M = max(norm(f(v)) for v in candidates)
        want, stop = reference_violators(f, p, q, M, candidates, 12)
        got = find_holder_violators(f, p, q, M, candidates, stop - 1 if stop else 12)
        assert [(u is a and w is b) for (u, w), (a, b) in zip(got, want)] == [True] * len(want)
        assert len(got) == len(want) > 0
    assert calls == []
    lp = [Vector.dense([x], LP(1.5)) for x in points]  # lp keeps the loop
    with pytest.raises(NoViolatorFound):
        find_holder_violators(Generator.identity(), 1.0, 2.0, 3.0, lp, 1)
    assert calls


@pytest.mark.parametrize(
    "f, p, q",
    [
        (Generator.power(0.25), 1.0, 2.0),
        (Generator.power(0.5), 1.0, 2.0),
        (Generator.power(0.1), 1.5, 3.0),
        (Generator.identity(), 1.0, 2.0),
    ],
)
def test_violator_tables_match_reference(f, p, q):
    rng = np.random.default_rng(2)
    sets = [power_divergence_candidates(), power_divergence_candidates(0, 12)]
    sets.append([Vector.dense([x]) for x in rng.choice([0.0, 0.25, 2.0 ** -20, -1e-9], 9)])
    # 0 and 1e-200 are at l2 distance zero: never a pair, whatever the images
    sets.append([Vector.dense([x]) for x in (0.0, 1e-200, 0.5)])
    for candidates in sets:
        M = max(norm(f(v)) for v in candidates)
        want, stop = reference_violators(f, p, q, M, candidates, 12)
        if stop is None:
            got = find_holder_violators(f, p, q, M, candidates, 12)
        else:
            with pytest.raises(NoViolatorFound) as err:
                find_holder_violators(f, p, q, M, candidates, 12)
            assert err.value.n == stop
            got = find_holder_violators(f, p, q, M, candidates, stop - 1) if stop > 1 else []
        assert [(u is a and w is b) for (u, w), (a, b) in zip(got, want)] == [True] * len(want)
        assert len(got) == len(want)
