"""Vector spaces: norm axioms, arithmetic, and the JSON wire format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvarkit import spaces
from pvarkit.errors import SpaceMismatch
from pvarkit.spaces import (
    L1,
    L2,
    LINF,
    LP,
    Vector,
    VectorSpace,
    block_buffer,
    coordinate_matrix,
    diff_norm,
    norm,
    panel_distances,
    row_distances,
)

NORMS = [L1, L2, LINF, LP(1.5), LP(3.0)]

coords = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


@given(coords, coords, st.sampled_from(NORMS))
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(a, b, kind):
    size = min(len(a), len(b))
    u = Vector.dense(a[:size], norm=kind)
    v = Vector.dense(b[:size], norm=kind)
    assert norm(u + v) <= norm(u) + norm(v) + 1e-12


@given(coords, st.floats(min_value=-50, max_value=50, allow_nan=False), st.sampled_from(NORMS))
@settings(max_examples=200, deadline=None)
def test_absolute_homogeneity(a, c, kind):
    u = Vector.dense(a, norm=kind)
    assert math.isclose(norm(c * u), abs(c) * norm(u), rel_tol=1e-12, abs_tol=1e-12)


# powered sums underflow to 0.0 below ~1e-103 under lp(3); the zero iff is
# contractual only away from that region, so nonzero draws stay above 1e-100
_nonzero = st.floats(min_value=1e-100, max_value=100, allow_nan=False)
_safe_coords = st.lists(
    st.one_of(st.just(0.0), _nonzero, _nonzero.map(lambda t: -t)),
    min_size=1,
    max_size=6,
)


@given(_safe_coords, st.sampled_from(NORMS))
@settings(max_examples=100, deadline=None)
def test_norm_zero_iff_zero_vector(a, kind):
    u = Vector.dense(a, norm=kind)
    assert (norm(u) == 0.0) == u.is_zero()


def test_norm_values_on_known_vector():
    v = [3.0, -4.0]
    assert norm(Vector.dense(v, norm=L1)) == 7.0
    assert norm(Vector.dense(v, norm=L2)) == 5.0
    assert norm(Vector.dense(v, norm=LINF)) == 4.0
    assert norm(Vector.dense(v, norm=LP(1.0))) == 7.0


def test_sparse_matches_dense_on_common_support():
    for kind in NORMS:
        s = Vector.sparse({1: 3.0, 4: -4.0}, norm=kind)
        d = Vector.dense([3.0, 0.0, 0.0, -4.0], norm=kind)
        assert math.isclose(norm(s), norm(d), rel_tol=1e-15)


def test_sparse_drops_explicit_zeros():
    v = Vector.sparse({1: 0.0, 2: 5.0})
    assert v.support == (2,)
    assert norm(v) == 5.0


def test_sparse_arithmetic_cancellation():
    u = Vector.sparse({1: 1.0, 2: 2.0})
    w = Vector.sparse({2: 2.0})
    d = u - w
    assert d.support == (1,)
    assert (u - u).is_zero()


def test_diff_norm_symmetry(rng):
    for _ in range(20):
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        u, w = Vector.dense(a), Vector.dense(b)
        assert diff_norm(u, w) == diff_norm(w, u)


def test_space_mismatch_raises():
    u = Vector.dense([1.0], norm=L1)
    w = Vector.dense([1.0], norm=L2)
    with pytest.raises(SpaceMismatch):
        u + w
    with pytest.raises(SpaceMismatch):
        diff_norm(u, Vector.dense([1.0, 2.0], norm=L1))
    with pytest.raises(SpaceMismatch):
        Vector.sparse({1: 1.0}) + Vector.dense([1.0])
    with pytest.raises(SpaceMismatch):  # shared space objects, then another
        coordinate_matrix([w, w * 2.0, w, u])


def test_vectors_are_immutable():
    v = Vector.dense([1.0, 2.0])
    with pytest.raises(AttributeError):
        v.data = None
    with pytest.raises(ValueError):
        v.data[0] = 9.0


def test_equality_is_exact_and_space_aware():
    assert Vector.dense([1.0, 2.0]) == Vector.dense([1.0, 2.0])
    assert Vector.dense([1.0]) != Vector.dense([1.0 + 1e-15])
    assert Vector.dense([1.0], norm=L1) != Vector.dense([1.0], norm=L2)
    assert Vector.sparse({3: 2.0}) == Vector.sparse({3: 2.0})


def test_json_round_trip_dense_and_sparse():
    for v in (
        Vector.dense([0.1, -2.5, 3.0], norm=LP(1.7)),
        Vector.sparse({2: 0.125, 9: -7.0}, norm=LINF),
        Vector.dense([0.0], norm=L1),
    ):
        again = Vector.from_json(v.space, v.to_json())
        assert again == v
        assert again.space is v.space


def test_space_json_round_trip():
    for sp in (
        VectorSpace("dense", L2, dim=3),
        VectorSpace("sparse", LP(2.5)),
        VectorSpace("dense", LINF, dim=1),
    ):
        assert VectorSpace.from_json(sp.to_json()) == sp


def test_json_rejects_malformed_payloads():
    dense1 = VectorSpace("dense", L2, dim=1)
    seq = VectorSpace("sparse", L2)
    with pytest.raises((ValueError, TypeError)):
        Vector.from_json(dense1, {"dense": "nope"})
    with pytest.raises(ValueError):
        Vector.from_json(seq, {"sparse": {"0": 1.0}})
    with pytest.raises(ValueError):
        Vector.from_json(dense1, {"sparse": {"1": 1.0}})
    with pytest.raises(ValueError):
        Vector.from_json(dense1, {"dense": [1.0, 2.0]})
    with pytest.raises(ValueError):
        VectorSpace.from_json({"kind": "dense", "norm": {"lp": 0.5}})
    with pytest.raises(ValueError):
        LP(0.99)
    with pytest.raises(ValueError, match="finite exponent"):
        LP(math.inf)  # linf is the r = inf norm
    for dim in (2.5, True, "3"):
        with pytest.raises(ValueError, match="integer dimension"):
            VectorSpace.from_json({"kind": "dense", "norm": "l2", "dim": dim})


def test_coordinate_matrix_sparse_embedding():
    vs = [Vector.sparse({1: 1.0}), Vector.sparse({3: 2.0}), Vector.sparse({1: -1.0, 3: 1.0})]
    mat = coordinate_matrix(vs)
    assert mat.shape == (3, 2)
    # columns follow the sorted support union (1, 3)
    assert np.array_equal(mat, [[1.0, 0.0], [0.0, 2.0], [-1.0, 1.0]])


def test_zero_vector_and_empty_sparse():
    z = VectorSpace("sparse", L2).zero()
    assert z.is_zero() and norm(z) == 0.0
    assert coordinate_matrix([z]).shape == (1, 0)


def test_sparse_embedding_matches_entrywise_fill(rng):
    # huge indices take an object key array; the fill is the same
    for top in (40, 2 ** 70):
        vs = []
        for _ in range(30):
            idx = rng.choice(40, size=int(rng.integers(0, 8)), replace=False)
            entries = {int(i) + 1: float(rng.standard_normal()) for i in idx}
            if top > 40 and rng.random() < 0.3:
                entries[top] = 1.5
            vs.append(Vector.sparse(entries, norm=LINF))
        support = sorted(set().union(*(v.data for v in vs)))
        expected = np.zeros((len(vs), len(support)))
        for i, v in enumerate(vs):
            for idx, c in v.data.items():
                expected[i, support.index(idx)] = c
        assert np.array_equal(coordinate_matrix(vs), expected)


@pytest.mark.parametrize("kind", NORMS)
def test_row_distances_of_indexed_rows(kind, rng):
    # gathered rows get the distances of the full table, whatever the block
    table = rng.standard_normal((40, 12))
    x = rng.standard_normal(12)
    full = row_distances(table, x, kind, block_buffer(40, 12))
    index = np.sort(rng.choice(40, size=17, replace=False))
    for rows in (1, 3, 17, 40):
        buf = np.empty((rows, 12))
        assert np.array_equal(row_distances(table, x, kind, buf, index), full[index])
        assert np.array_equal(row_distances(table, x, kind, buf), full)


# both zeros, a subnormal-scale pair, squares and powers that overflow, and
# differences that overflow
POOL = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.5e308, -1.5e308]


def row_reduction(table, x, kind):
    return spaces._reduce_abs(np.abs(table - x), kind, axis=1)


@pytest.mark.parametrize("kind", NORMS)
@pytest.mark.parametrize("cols", range(1, 8))
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_narrow_distances_keep_the_row_reduction_bits(kind, cols):
    rng = np.random.default_rng(cols)
    table = rng.standard_normal((60, cols)) * 10.0 ** rng.integers(-200, 200, (60, cols))
    picked = rng.random((60, cols)) < 0.3
    table[picked] = rng.choice(POOL, picked.sum())
    index = rng.permutation(60)[:23]
    for x in table[::7]:
        expected = row_reduction(table, x, kind).view(np.int64)
        for laid_out in (table, np.asfortranarray(table)):
            for rows in (1, 3, 16, 60):  # buffers of that many rows: blocks split
                buf = np.empty((rows, cols))
                got = row_distances(laid_out, x, kind, buf)
                assert np.array_equal(got.view(np.int64), expected)
                got = row_distances(laid_out, x, kind, buf, index)
                assert np.array_equal(got.view(np.int64), expected[index])


@pytest.mark.parametrize("kind", NORMS)
@pytest.mark.parametrize("cols", range(1, 8))
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_panel_rows_keep_the_one_point_bits(kind, cols):
    # a batch of points takes its distances, and their powers, as one panel
    rng = np.random.default_rng(cols)
    table = rng.standard_normal((50, cols)) * 10.0 ** rng.integers(-200, 200, (50, cols))
    picked = rng.random((50, cols)) < 0.3
    table[picked] = rng.choice(POOL, picked.sum())
    points = table[rng.integers(0, 50, 9)]
    index = rng.permutation(50)[:17]
    buf = np.empty(9 * 50)
    for laid_out in (table, np.asfortranarray(table)):
        for rows in (laid_out, laid_out[index], table.T.copy()[:, index].T):
            panel = panel_distances(rows, points, kind, buf)
            for p in (1.0, 1.5, 3.0):
                powered = panel ** p
                for x, got, got_p in zip(points, panel, powered):
                    one = row_distances(rows, x, kind, block_buffer(50, cols))
                    assert np.array_equal(got.view(np.int64), one.view(np.int64))
                    assert np.array_equal(got_p.view(np.int64), (one ** p).view(np.int64))


def test_distances_over_no_columns_are_zero():
    # the embedding of sparse vectors that are all zero has no columns
    rows = np.zeros((3, 0))
    assert np.array_equal(row_distances(rows, rows[0], L1, block_buffer(3, 0)), np.zeros(3))
    assert np.array_equal(panel_distances(rows, rows[:2], L2, np.empty(0)), np.zeros((2, 3)))


def test_eight_columns_keep_the_row_reduction():
    # from 8 terms numpy's sum pairs them up: a left-to-right sum over the
    # columns differs, so the column-wise kernel stops below 8 columns
    rng = np.random.default_rng(8)
    table = rng.standard_normal((200, 8)) * 10.0 ** rng.integers(-3, 4, (200, 8))
    x = table[0]
    terms = np.abs(table - x)
    left_to_right = terms[:, 0].copy()
    for j in range(1, 8):
        left_to_right += terms[:, j]
    expected = row_reduction(table, x, L1)
    assert np.any(left_to_right != expected)
    for laid_out in (table, np.asfortranarray(table)):
        got = row_distances(laid_out, x, L1, block_buffer(200, 8))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
