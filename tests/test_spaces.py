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
    exact_array_distances,
    norm,
    panel_distances,
    row_distances,
    step_distances,
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


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("first", [1, 1000, 2 ** 63 - 5, 2 ** 63, 2 ** 70])
def test_sparse_embedding_takes_contiguous_supports_by_offset(first, contiguous, rng):
    # a contiguous support takes each column as the index's offset from its
    # first, without a search; a gapped one searches; huge indices (from
    # 2^63 on) ride an object key array either way
    gaps = np.ones(12, dtype=int) if contiguous else rng.integers(1, 4, 12)
    indices = [first + int(g) for g in np.cumsum(gaps) - gaps[0]]
    vs = []
    for _ in range(40):
        idx = rng.choice(12, size=int(rng.integers(0, 6)), replace=False)
        vs.append(Vector.sparse({indices[i]: float(rng.standard_normal()) for i in idx}, norm=L1))
    vs.append(Vector.sparse({i: 1.0 for i in indices}, norm=L1))  # every index in the support
    expected = np.zeros((len(vs), 12))
    for i, v in enumerate(vs):
        for idx, c in v.data.items():
            expected[i, indices.index(idx)] = c
    assert np.array_equal(coordinate_matrix(vs), expected)
    searched = np.searchsorted
    found = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces.np, "searchsorted", lambda *a: found.append(1) or searched(*a))
        coordinate_matrix(vs)
    assert bool(found) != contiguous


@pytest.mark.parametrize("kind", [L1, L2, LINF, LP(1.5)])
@pytest.mark.parametrize("cols", [8, 9, 17, 64, 129, 1501])
def test_step_distances_keep_the_row_distance_bits(kind, cols, monkeypatch):
    # every step's distance in one pass: the bits, and the bits of each
    # power, that one indexed row_distances call gives it, at magnitudes 1e+-5
    rng = np.random.default_rng(cols)
    rows = rng.standard_normal((30, cols)) * 10.0 ** rng.integers(-5, 6, (30, cols))
    at = rng.integers(0, 30, 50)
    at[10:13] = at[9]  # repeats: distance 0
    buf = block_buffer(30, cols)
    one = np.array([row_distances(rows, rows[c], kind, buf, [b])[0] for b, c in zip(at, at[1:])])
    for block in (8 * cols, 3 * 8 * cols, spaces.BLOCK_BYTES):  # 1 and 3 rows, the default
        monkeypatch.setattr(spaces, "BLOCK_BYTES", block)
        got = step_distances(rows, at, kind)
        assert got.tobytes() == one.tobytes()
        assert step_distances(rows, at.tolist(), kind).tobytes() == one.tobytes()
        for p in (1.0, 1.5, 3.0):
            powers = [(row_distances(rows, rows[c], kind, buf, [b]) ** p)[0] for b, c in zip(at, at[1:])]
            assert (got ** p).tobytes() == np.array(powers).tobytes()
    assert step_distances(rows, range(30), kind).tobytes() == step_distances(rows, np.arange(30), kind).tobytes()
    assert step_distances(rows, [3], kind).size == 0


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


# both zeros, the smallest subnormal, and magnitudes whose squares overflow
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
# (family, norm) of each space the predicate holds on
EXACT = [
    (family, kind)
    for family in ("dense", "sparse")
    for kind in NORMS
    if exact_array_distances(VectorSpace(family, kind, 1 if family == "dense" else None))
]


@st.composite
def exact_point_sets(draw):
    """2-6 points of 1-40 coordinates in a space where the array distances
    are exact, some coordinates from ``EXTREMES``, sparse entries in any
    order."""
    family, kind = draw(st.sampled_from(EXACT))
    width = draw(st.integers(1, 40))
    coord = st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), st.sampled_from(EXTREMES)
    )
    rows = draw(st.lists(st.lists(coord, min_size=width, max_size=width), min_size=2, max_size=6))
    if family == "dense":
        return [Vector.dense(row, kind) for row in rows]
    order = draw(st.permutations(range(width)))
    return [Vector.sparse({j + 1: row[j] for j in order}, kind) for row in rows]


@given(exact_point_sets())
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_exact_array_distances_are_the_scalar_ones(points):
    # every kernel, in every layout and block, gives diff_norm's bits
    kind, mat = points[0].space.norm, coordinate_matrix(points)
    n, cols = mat.shape
    want = np.array([[diff_norm(w, u) for w in points] for u in points])  # |v_k - v_i| at [i, k]
    at = [*range(n), *range(n - 2, -1, -1)]  # steps each way
    steps = np.array([diff_norm(points[a], points[b]) for a, b in zip(at, at[1:])])
    index = np.arange(n)[::-1]
    for laid_out in (mat, np.asfortranarray(mat)):
        assert panel_distances(laid_out, mat, kind, np.empty(n * n)).tobytes() == want.tobytes()
        for block in (8, spaces.BLOCK_BYTES):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spaces, "BLOCK_BYTES", block)
                buf = block_buffer(n, cols)
                for x, row in zip(mat, want):
                    assert panel_distances(laid_out, x, kind, np.empty(n)).tobytes() == row.tobytes()
                    assert row_distances(laid_out, x, kind, buf).tobytes() == row.tobytes()
                    got = row_distances(laid_out, x, kind, buf, index)
                    assert got.tobytes() == row[index].tobytes()
                assert step_distances(laid_out, at, kind).tobytes() == steps.tobytes()


def test_exact_array_distances_leave_out_known_counterexamples():
    assert EXACT == [("dense", L1), ("dense", L2), ("dense", LINF), ("sparse", LINF)]
    # sparse l2: the scalar norm squares a difference's entries in dict
    # order, the array kernels in column order
    u, zero = Vector.sparse({5: -0.3, 3: -1.3, 2: 0.9, 6: 1.1}), Vector.sparse({})
    mat = coordinate_matrix([u, zero])
    assert panel_distances(mat, mat[1], L2, np.empty(2))[0] != diff_norm(u, zero)
    assert not exact_array_distances(u.space)
    # lp: the array root is numpy's power loop, the scalar root C's pow;
    # where numpy runs that loop on AVX-512 the two differ in the last bit
    # on this pair, at AVX2 and at the baseline they agree
    u, w = (
        Vector.dense(row, LP(1.5))
        for row in (
            [1.5744082788445868, -0.4327858471825968, -0.735483292342275, 0.24978537155866684,
             1.0314530848694723],
            [0.16100957671534466, -0.5855288241233366, -1.341219714076669, -1.401520214917428,
             0.5026828498748657],
        )
    )
    mat = coordinate_matrix([u, w])
    got, want = panel_distances(mat, mat[0], LP(1.5), np.empty(2))[1], diff_norm(w, u)
    assert got in (want, math.nextafter(want, 0.0))
    assert not exact_array_distances(u.space)
