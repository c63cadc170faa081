"""DiscretePath invariants, restriction, and serialization."""

import numpy as np
import pytest

from pvarkit.errors import NotASampleTime, PathInvariantError
from pvarkit.paths import DiscretePath
from pvarkit.spaces import L1, Vector


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


def test_json_round_trip_preserves_everything():
    p = scalar_path([0.0, 0.25, 1.0], [0.5, -0.125, 2.0])
    q = DiscretePath.from_json(p.to_json())
    assert np.array_equal(q.times, p.times)
    assert list(q.values) == list(p.values)
    assert q.interval == p.interval
    assert q.space == p.space
    assert all(v.space is q.space for v in q.values)  # the file's one space


def test_from_json_revalidates():
    p = scalar_path([0.0, 1.0], [1.0, 2.0])
    doc = p.to_json()
    doc["times"] = [1.0, 0.0]
    with pytest.raises(PathInvariantError):
        DiscretePath.from_json(doc)
