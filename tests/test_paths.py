"""DiscretePath invariants, restriction, and serialization."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarkit import paths, spaces
from pvarkit.errors import NotASampleTime, PathInvariantError, TooLarge
from pvarkit.operators import Generator, compose_path
from pvarkit.paths import DiscretePath
from pvarkit.spaces import L1, L2, LINF, Vector, VectorSpace
from pvarkit.variation import pvar

from conftest import assert_grouped_alike


def scalar_path(times, xs, interval=None):
    values = [Vector.dense([x]) for x in xs]
    if interval is None:
        interval = (times[0], times[-1])
    return DiscretePath(times, values, interval)


def test_valid_path_basics():
    p = scalar_path([0.0, 1.0, 2.0], [1.0, -1.0, 0.5])
    assert len(p) == 3
    assert p.n == 2
    assert p.interval == (0.0, 2.0)
    assert p.space.kind == "dense"


@pytest.mark.parametrize(
    "times,xs,interval,message",
    [
        ([0.0], [1.0], (0.0, 0.0), "at least 2 sample points"),
        ([0.0, 1.0], [1.0], (0.0, 1.0), "equal length"),
        ([0.0, float("nan")], [1.0, 2.0], (0.0, 1.0), "finite"),
        ([0.0, 0.0], [1.0, 2.0], (0.0, 0.0), "strictly increasing"),
        ([1.0, 0.5], [1.0, 2.0], (1.0, 0.5), "strictly increasing"),
        ([0.0, 1.0], [1.0, 2.0], (1.0, 0.0), "a < b"),
        ([0.5, 1.0], [1.0, 2.0], (0.0, 1.0), "interval start"),
        ([0.0, 0.5], [1.0, 2.0], (0.0, 1.0), "interval end"),
    ],
)
def test_invariant_violations(times, xs, interval, message):
    with pytest.raises(PathInvariantError, match=message):
        scalar_path(times, xs, interval)


def test_mixed_spaces_rejected():
    values = [Vector.dense([1.0]), Vector.dense([1.0, 2.0])]
    with pytest.raises(PathInvariantError, match="one space"):
        DiscretePath([0.0, 1.0], values, (0.0, 1.0))
    # one shared space object, then a different space at the last sample
    u = Vector.dense([1.0])
    values = [u, u * 2.0, u, Vector.dense([1.0], norm=L1)]
    with pytest.raises(PathInvariantError, match="one space"):
        DiscretePath([0.0, 1.0, 2.0, 3.0], values)
    # a map whose images leave the space of the first
    path = DiscretePath([0.0, 1.0, 2.0, 3.0], [u, u * 2.0, u, u * 2.0])
    widen = Generator.custom(lambda v: v if v is u else Vector.dense([1.0, 2.0]))
    with pytest.raises(PathInvariantError, match="one space"):
        compose_path(widen, path)


def test_sample_cap_enforced():
    import pvarkit.paths as paths_mod

    n = paths_mod.MAX_SAMPLES + 1
    times = np.arange(n, dtype=float)
    values = [Vector.dense([0.0])] * n
    with pytest.raises(PathInvariantError, match="sample"):
        DiscretePath(times, values, (0.0, float(n - 1)))


def test_path_is_immutable():
    p = scalar_path([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(AttributeError):
        p.times = None
    with pytest.raises(ValueError):
        p.times[0] = 5.0


def test_restrict_to_subinterval():
    p = scalar_path([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 2.0])
    sub = p.restrict(1.0, 3.0)
    assert sub.interval == (1.0, 3.0)
    assert [v.data[0] for v in sub.values] == [1.0, 2.0, 2.0]
    with pytest.raises(NotASampleTime):
        p.restrict(0.5, 3.0)
    with pytest.raises(ValueError):
        p.restrict(2.0, 1.0)


def test_range_coded_restriction_keeps_a_range_and_the_objects(monkeypatch):
    p = scalar_path([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 2.0, -1.0])
    assert p.codes == range(5)
    monkeypatch.setattr(paths, "_renumber", None)  # a range is sliced, not regrouped
    sub = p.restrict(1.0, 3.0)
    assert sub.codes == range(3)
    assert all(v is w for v, w in zip(sub.distinct, p.distinct[1:4], strict=True))
    assert sub.values == p.values[1:4]


def test_coordinate_matrix_cached_and_correct():
    p = scalar_path([0.0, 1.0], [3.0, -1.0])
    m1 = p.coordinate_matrix()
    assert np.array_equal(m1, [[3.0], [-1.0]])
    assert p.coordinate_matrix() is m1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coordinate_matrix_rejects_non_finite_values(bad):
    # Vector() itself does not validate; a generator may build one like this
    space = Vector.dense([0.0, 0.0]).space
    values = [Vector.dense([0.0, 1.0]), Vector(space, np.array([1.0, bad]))]
    path = DiscretePath([0.0, 1.0], values)
    with pytest.raises(PathInvariantError, match="finite"):
        path.coordinate_matrix()


def test_json_round_trip_preserves_everything(monkeypatch):
    p = scalar_path([0.0, 0.25, 1.0], [0.5, -0.125, 2.0])
    monkeypatch.setattr(paths, "_group", None)  # each row is a fresh object
    q = DiscretePath.from_json(p.to_json())
    assert np.array_equal(q.times, p.times)
    assert list(q.values) == list(p.values)
    assert q.interval == p.interval
    assert q.space == p.space
    assert all(v.space is q.space for v in q.values)  # the file's one space
    assert q.codes == range(3)


def test_from_json_revalidates():
    p = scalar_path([0.0, 1.0], [1.0, 2.0])
    doc = p.to_json()
    doc["times"] = [1.0, 0.0]
    with pytest.raises(PathInvariantError):
        DiscretePath.from_json(doc)


# paths over a pool of shared value objects plus equal-valued copies: the
# grouping by object must give what grouping every sample's row gives
_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 1e-300])


@st.composite
def shared_object_paths(draw):
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        space = VectorSpace("dense", L2, dim)
        make = lambda: Vector(space, np.array(draw(st.lists(_COORDS, min_size=dim, max_size=dim))))
        copy = lambda v: Vector(space, v.data.copy())
    else:
        space = VectorSpace("sparse", LINF)
        entries = st.dictionaries(st.integers(1, 4), _COORDS.filter(bool), max_size=3)
        make = lambda: Vector(space, draw(entries))
        copy = lambda v: Vector(space, dict(v.data))
    pool = [make() for _ in range(draw(st.integers(1, 5)))]
    pool += [copy(v) for v in draw(st.lists(st.sampled_from(pool), max_size=3))]
    values = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=40))
    return DiscretePath(np.arange(len(values), dtype=float), values)


def _bits(a):
    return a.shape, a.tobytes()


@settings(max_examples=300, deadline=None)
@given(shared_object_paths())
def test_grouping_by_object_matches_the_sample_rows(path):
    assert [path.distinct[c] for c in path.codes] == path.values
    assert all(v is path.distinct[c] for v, c in zip(path.values, path.codes))
    assert _bits(path.coordinate_matrix()) == _bits(spaces.coordinate_matrix(path.values))
    codes, rows = path.value_table()
    want_codes, want_rows = paths._distinct_rows(path.coordinate_matrix())
    assert list(codes) == list(want_codes) and _bits(rows) == _bits(want_rows)
    # the DP on every sample's own object reads the same table
    own = DiscretePath(path.times, [Vector(v.space, copy.copy(v.data)) for v in path.values])
    assert isinstance(own.codes, range)
    for p in (1.0, 2.5):
        assert pvar(path, p) == pvar(own, p)
    calls = []

    def double(v):
        calls.append(v)
        return v * 2.0

    composed = compose_path(Generator.custom(double), path)
    assert [id(v) for v in calls] == [id(v) for v in path.distinct]
    assert composed.values == [v * 2.0 for v in path.values]
    assert list(composed.codes) == list(path.codes)
    want = spaces.coordinate_matrix([v * 2.0 for v in path.values])
    assert _bits(composed.coordinate_matrix()) == _bits(want)
    sub = path.restrict(path.times[1], path.times[-1])
    assert all(v is w for v, w in zip(sub.values, path.values[1:]))
    assert _bits(sub.coordinate_matrix()) == _bits(spaces.coordinate_matrix(path.values[1:]))


@settings(max_examples=300, deadline=None)
@given(shared_object_paths(), st.data())
def test_restriction_is_its_regrouped_twin(path, data):
    # restrict keeps the codes, renumbered; regrouping its samples must agree
    i = data.draw(st.integers(0, len(path) - 2))
    j = data.draw(st.integers(i + 1, len(path) - 1))
    c, d = float(path.times[i]), float(path.times[j])
    own = DiscretePath(path.times, [Vector(v.space, copy.copy(v.data)) for v in path.values])
    for p in (path, own, compose_path(Generator.custom(lambda v: v * 2.0), path)):
        sub, twin = p.restrict(c, d), DiscretePath(p.times[i : j + 1], p.values[i : j + 1], (c, d))
        assert_grouped_alike(sub, twin)
        assert pvar(sub, 1.5) == pvar(twin, 1.5)


def test_only_the_gathered_embedding_counts_every_sample(monkeypatch):
    u, w = Vector.dense([0.0, 1.0]), Vector.dense([1.0, 0.0])
    path = DiscretePath(np.arange(6.0), [u, w] * 3)
    assert path.distinct == [u, w] and list(path.codes) == [0, 1] * 3
    monkeypatch.setattr(spaces, "MAX_EMBED_BYTES", 2 * 2 * 8)  # two rows, not six
    assert pvar(path, 1.0).value == 5.0 * 2.0 ** 0.5
    with pytest.raises(TooLarge, match="embedding 6 vectors"):
        path.coordinate_matrix()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_shared_non_finite_object_is_rejected(bad):
    space = Vector.dense([0.0]).space
    worst = Vector(space, np.array([bad]))
    path = DiscretePath(np.arange(5.0), [worst, Vector.dense([1.0]), worst, worst, worst])
    with pytest.raises(PathInvariantError, match="finite"):
        pvar(path, 2.0)
    with pytest.raises(PathInvariantError, match="finite"):
        compose_path(Generator.identity(), path).distinct_matrix()
