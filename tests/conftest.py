"""Shared corpus builders for the test suite."""

import numpy as np
import pytest

from pvarkit.paths import DiscretePath
from pvarkit.spaces import L1, L2, LINF, LP, Vector

NORM_CYCLE = (L1, L2, LINF, LP(1.7))


def make_random_path(rng, max_n=13, dims=(1, 2, 3), norm=None):
    # n increments, n+1 samples; n <= max_n keeps the brute-force oracle usable
    n = int(rng.integers(1, max_n + 1))
    dim = int(rng.choice(dims))
    if norm is None:
        norm = NORM_CYCLE[int(rng.integers(0, len(NORM_CYCLE)))]
    gaps = rng.uniform(0.05, 1.0, size=n)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    coords = rng.uniform(-2.0, 2.0, size=(n + 1, dim))
    values = [Vector.dense(row, norm=norm) for row in coords]
    return DiscretePath(times, values, (float(times[0]), float(times[-1])))


def build_corpus(count, seed=0, max_n=13, dims=(1, 2, 3)):
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        norm = NORM_CYCLE[i % len(NORM_CYCLE)]
        paths.append(make_random_path(rng, max_n=max_n, dims=dims, norm=norm))
    return paths


@pytest.fixture(scope="session")
def corpus500():
    return build_corpus(500)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def assert_grouped_alike(got, want):
    """``got`` holds ``want``'s samples grouped alike: the same times, bit
    for bit, the same codes (values and dtype, or the same range) and the
    same distinct objects by identity."""
    assert got.interval == want.interval
    assert got.times.dtype == want.times.dtype and got.times.tobytes() == want.times.tobytes()
    assert type(got.codes) is type(want.codes)
    if isinstance(want.codes, range):
        assert got.codes == want.codes
    else:
        assert got.codes.dtype == want.codes.dtype and got.codes.tolist() == want.codes.tolist()
        assert not got.codes.flags.writeable
    assert len(got.distinct) == len(want.distinct)
    assert all(a is b for a, b in zip(got.distinct, want.distinct))
