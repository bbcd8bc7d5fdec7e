from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from partitions import line_partition, one_shard

from distknn import neighbors, oracle
from distknn.adaptive import StoppingConfig
from distknn.baselines import ClassifierKind
from distknn.engine import Partition, build_prefix_tensor, evaluate_queries, query_distance_matrix
from distknn.neighbors import Shard, k_smallest_rows


def random_shard(rng, n, d=3, coord_pool=None):
    if coord_pool is None:
        feats = rng.random((n, d))
    else:
        feats = rng.choice(coord_pool, size=(n, d))
    return Shard(1, feats, rng.integers(0, 2, n))


def engine_profile(shard, query, k):
    """Distances and label prefix sums of the k nearest points, through the engine."""
    q = np.asarray(query, dtype=np.float64)[None, :]
    dist = query_distance_matrix(shard.features, q)
    idx = k_smallest_rows(dist, k)[0]
    prefix = build_prefix_tensor(one_shard(shard), q, np.array([k]))[0, 0]
    return dist[0, idx], prefix


def oracle_profile(shard, query, k):
    """The same from the plain-loop oracle."""
    dists, prefix = oracle.shard_profiles(one_shard(shard), query)[0]
    return np.array(dists[:k]), np.array(prefix[:k])


def dist(a, b):
    return float(query_distance_matrix(np.asarray(a, dtype=float)[None, :], np.asarray(b, dtype=float)[None, :])[0, 0])


class TestEuclideanDistance:
    def test_identity(self):
        assert dist(np.zeros(3), np.zeros(3)) == 0.0

    def test_unit_cube_diagonal(self):
        assert dist(np.zeros(3), np.ones(3)) == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_single_axis(self):
        assert dist(np.array([0.5, 0, 0]), np.zeros(3)) == 0.5

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(4), rng.random(4)
        assert dist(a, b) == dist(b, a)

    def test_dimension_mismatch(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        cfg = StoppingConfig(N=2, d=3)
        for width in (2, 4):
            with pytest.raises(ValueError, match="dimension"):
                evaluate_queries(one_shard(shard), np.zeros((1, width)), ClassifierKind.DANN, cfg)

    def test_nonfinite_rejected(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        queries = np.array([[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
        with pytest.raises(ValueError, match="query row 1 "):
            evaluate_queries(one_shard(shard), queries, ClassifierKind.D1NN, StoppingConfig(N=2, d=3))


class TestNeighborProfile:
    def test_two_point_shard(self):
        shard = Shard(1, np.array([[0.0, 0, 0], [1.0, 1, 1]]), np.array([1, 0]))
        for profile in (engine_profile, oracle_profile):
            dists, prefix = profile(shard, np.array([0.1, 0.0, 0.0]), 2)
            assert dists == pytest.approx([0.1, np.sqrt(0.81 + 1 + 1)], abs=1e-12)
            assert prefix.tolist() == [1, 1]

    def test_constant_labels(self):
        rng = np.random.default_rng(3)
        shard = Shard(1, rng.random((10, 3)), np.ones(10, dtype=int))
        query = rng.random(3)
        for profile in (engine_profile, oracle_profile):
            assert profile(shard, query, 6)[1].tolist() == [1, 2, 3, 4, 5, 6]

    def test_k_max_zero_rejected(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="depth"):
            build_prefix_tensor(one_shard(shard), np.zeros((1, 3)), np.array([0]))

    def test_k_max_above_size_rejected(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="depth"):
            build_prefix_tensor(one_shard(shard), np.zeros((1, 3)), np.array([3]))

    def test_query_dimension_checked(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            oracle.shard_profiles(one_shard(shard), np.zeros(2))

    def test_ties_broken_by_point_index(self):
        # four copies of the same point with different labels: neighbor order
        # must follow the storage order
        feats = np.tile([[0.5, 0.5, 0.5]], (4, 1))
        shard = Shard(1, feats, np.array([0, 1, 1, 0]))
        for profile in (engine_profile, oracle_profile):
            assert profile(shard, np.zeros(3), 4)[1].tolist() == [0, 1, 2, 2]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            shard = random_shard(rng, n)
            k = int(rng.integers(1, n + 1))
            query = rng.random(3)
            fast = engine_profile(shard, query, k)
            slow = oracle_profile(shard, query, k)
            np.testing.assert_array_equal(fast[1], slow[1])
            np.testing.assert_array_equal(fast[0], slow[0])

    def test_permutation_invariance_with_distinct_distances(self):
        rng = np.random.default_rng(5)
        shard = random_shard(rng, 25)
        query = rng.random(3)
        perm = rng.permutation(25)
        permuted = Shard(1, shard.features[perm], shard.labels[perm])
        a = engine_profile(shard, query, 10)
        b = engine_profile(permuted, query, 10)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


# Duplicated coordinates from a small pool make distance ties frequent, which
# is exactly where the two selection paths could diverge.
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 10_000),
    tie_prone=st.booleans(),
)
def test_oracle_equivalence_property(n, seed, tie_prone):
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, 0.25, 0.5, 1.0]) if tie_prone else None
    shard = random_shard(rng, n, d=2, coord_pool=pool)
    k = int(rng.integers(1, n + 1))
    query = rng.choice(pool, size=2) if tie_prone else rng.random(2)
    fast_dists, fast_prefix = engine_profile(shard, query, k)
    slow_dists, slow_prefix = oracle_profile(shard, query, k)
    np.testing.assert_array_equal(fast_prefix, slow_prefix)
    np.testing.assert_array_equal(fast_dists, slow_dists)
    assert np.all(np.diff(fast_dists) >= 0)
    assert np.all(fast_prefix >= 0)
    assert np.all(fast_prefix <= np.arange(1, k + 1))


def stable_k(dist, k):
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


# A few repeated values (inf among them) make ties common everywhere in a row,
# at the selection boundary too. ``small_block`` 0 sends every 1 < k < n call
# down the argmin-rounds or the argpartition path (by k), which real blocks
# this small never take.
@settings(max_examples=300, deadline=None)
@given(
    dist=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 30)),
        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, np.inf]) | st.floats(0, 2),
    ),
    k_frac=st.floats(0, 1),
    small_block=st.sampled_from([0, neighbors.SMALL_BLOCK]),
)
def test_k_smallest_rows_matches_stable_argsort(dist, k_frac, small_block):
    n = dist.shape[1]
    with mock.patch.object(neighbors, "SMALL_BLOCK", small_block):
        for k in (1, 1 + round(k_frac * (n - 1)), n):
            np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))


@pytest.mark.parametrize("small_block", [0, neighbors.SMALL_BLOCK])
@pytest.mark.parametrize(
    "row, k",
    [
        ([0.5] * 8, 3),  # all equal
        ([1.0, 0.0, 1.0, 1.0, 2.0], 2),  # the boundary value also occurs outside the pick
        ([1.0, 0.0, 1.0, 2.0, 3.0], 3),  # boundary ties all inside the pick
        ([np.inf, 0.3, np.inf, 0.1, np.inf], 3),  # inf at the boundary
        ([np.inf] * 4, 2),
    ],
)
def test_k_smallest_rows_boundary_cases(row, k, small_block):
    dist = np.array([row, row[::-1]])
    with mock.patch.object(neighbors, "SMALL_BLOCK", small_block):
        for kk in (1, k, len(row)):
            np.testing.assert_array_equal(k_smallest_rows(dist, kk), stable_k(dist, kk))


def test_k_smallest_rows_on_large_tied_blocks():
    # blocks above SMALL_BLOCK with heavy ties: most rows are ambiguous at
    # the boundary and take the fix-up
    rng = np.random.default_rng(17)
    dist = rng.choice([0.0, 0.5, 1.0, np.inf], size=(6, 900))
    dist[0] = 0.5
    assert dist.size > neighbors.SMALL_BLOCK
    for k in (1, 2, 37, 450, 899, 900):
        np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))


# Full sorts of rows at least SORT_WIDTH wide take the unstable argsort, and
# then only the indices inside runs of equal sorted values are reordered. Rows
# drawn from a few repeated values (inf among them) are tied; ``clean`` swaps
# some rows for distinct values, so one block mixes both. ``SMALL_BLOCK`` 0
# sends these small blocks down the path that real blocks reach only above
# 1024 entries.
@settings(max_examples=200, deadline=None)
@given(
    dist=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(neighbors.SORT_WIDTH, 3 * neighbors.SORT_WIDTH)),
        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, np.inf]) | st.floats(0, 2),
    ),
    clean=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_sort_of_wide_rows_matches_stable_argsort(dist, clean, seed):
    rng = np.random.default_rng(seed)
    rows, n = dist.shape
    for i in range(rows):
        if clean[i]:
            dist[i] = rng.permutation(n) + rng.random()
    with mock.patch.object(neighbors, "SMALL_BLOCK", 0):
        np.testing.assert_array_equal(k_smallest_rows(dist, n), stable_k(dist, n))


def wide_rows(n):
    """Rows of width n that are clean but for one kind of equal values each."""
    rng = np.random.default_rng(n)
    base = rng.permutation(n) / n + 0.125
    rows = [base.copy() for _ in range(8)]
    rows[1][:] = 0.5  # all equal
    rows[2][[3, n - 2]] = 0.0  # one tie, at the front of the sorted row
    rows[3][[0, n - 1]] = 2.0  # one tie, at the back
    rows[4][[1, 5]] = np.inf  # two infs
    rows[5][::2] = np.inf  # many infs
    rows[6][:] = np.inf
    rows[7][[2, 9]] = rows[7][17]  # a three-way tie in the middle
    return np.array(rows)


@pytest.mark.parametrize("n", [neighbors.SORT_WIDTH, 70, 300])
def test_full_sort_of_wide_rows_boundary_cases(n):
    block = wide_rows(n)
    dist = np.concatenate([block, block[::-1, ::-1]] * (neighbors.SMALL_BLOCK // block.size + 1))
    assert dist.size > neighbors.SMALL_BLOCK
    np.testing.assert_array_equal(k_smallest_rows(dist, n), stable_k(dist, n))
    # and _sorted_rows alone, on a block where every row but the first has ties
    np.testing.assert_array_equal(neighbors._sorted_rows(block), stable_k(block, n))


def test_full_sort_paths_by_width_and_block_size():
    # clean rows: the unstable path gives the same result, so the path taken
    # is seen through a spy on it
    width, small = neighbors.SORT_WIDTH, neighbors.SMALL_BLOCK
    rng = np.random.default_rng(29)
    cases = [
        ((small // (width - 1) + 1, width - 1), False),  # narrow rows
        ((small // width + 1, width), True),  # rows exactly at the cut-off
        ((small // 64, 64), False),  # a wide block of exactly SMALL_BLOCK entries
        ((small // 64 + 1, 64), True),
        ((1, 20000), True),
    ]
    for shape, unstable in cases:
        dist = rng.random(shape)
        with mock.patch.object(neighbors, "_sorted_rows", wraps=neighbors._sorted_rows) as spy:
            np.testing.assert_array_equal(k_smallest_rows(dist, shape[1]), stable_k(dist, shape[1]))
        assert spy.called is unstable, shape


# Picks of 2 to ROUNDS_K entries take rounds of argmin. A row whose finite
# entries run out before k picks makes a round's minimum inf, where argmin may
# return an entry masked earlier; such rows are redone. ``rounds_k`` 0 sends
# the same calls down argpartition, a large one sends every k < n to the
# rounds; ``SMALL_BLOCK`` 0 lets these small blocks reach either.
@settings(max_examples=300, deadline=None)
@given(
    dist=arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(2, 40)),
        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, np.inf]) | st.floats(0, 2),
    ),
    k_frac=st.floats(0, 1),
    rounds_k=st.sampled_from([0, 64]),
)
def test_argmin_rounds_match_stable_argsort(dist, k_frac, rounds_k):
    n = dist.shape[1]
    before = dist.copy()
    with mock.patch.object(neighbors, "SMALL_BLOCK", 0), mock.patch.object(neighbors, "ROUNDS_K", rounds_k):
        for k in (2, 2 + round(k_frac * (n - 3)), n - 1):
            if 2 <= k < n:
                np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))
    np.testing.assert_array_equal(dist, before)


def test_argmin_rounds_boundary_rows():
    n = 40
    base = np.random.default_rng(31).permutation(n) / n
    rows = [base.copy() for _ in range(6)]
    rows[0][:] = np.inf  # every round's minimum is inf
    rows[1][:] = 0.5  # all tied
    rows[2][:] = np.inf
    rows[2][[30, 7, 19]] = [0.2, 0.1, 0.2]  # three finite entries, fewer than k
    rows[3][[5, 9, 33]] = np.inf  # a few infs, never reached
    rows[4][::3] = 0.0  # a tie at the minimum
    block = np.array(rows)
    dist = np.concatenate([block, block[::-1, ::-1]] * (neighbors.SMALL_BLOCK // block.size + 1))
    assert dist.size > neighbors.SMALL_BLOCK
    before = dist.copy()
    for k in (2, 3, 4, neighbors.ROUNDS_K):
        with mock.patch.object(neighbors, "_argmin_rounds", wraps=neighbors._argmin_rounds) as spy:
            np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))
        assert spy.called, k
    np.testing.assert_array_equal(dist, before)


def test_argmin_rounds_path_by_k():
    # clean rows: every path gives the same result, so the path taken is
    # seen through a spy on the rounds
    rounds_k, small = neighbors.ROUNDS_K, neighbors.SMALL_BLOCK
    rng = np.random.default_rng(37)
    cases = [
        ((1, small + 1), 2, True),  # just above SMALL_BLOCK
        ((small // 64 + 1, 64), rounds_k, True),
        ((small // 64 + 1, 64), rounds_k + 1, False),  # argpartition
        ((small // 64, 64), rounds_k, False),  # a block of exactly SMALL_BLOCK entries
        ((small // rounds_k + 1, rounds_k), rounds_k, False),  # k == n: a full sort
        ((small // rounds_k + 1, rounds_k + 1), rounds_k, True),  # k == n - 1 on narrow rows
        ((1, 20000), rounds_k, True),
    ]
    for shape, k, rounds in cases:
        dist = rng.random(shape)
        with mock.patch.object(neighbors, "_argmin_rounds", wraps=neighbors._argmin_rounds) as spy:
            np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))
        assert spy.called is rounds, (shape, k)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [1, 2, 5, 9])
def test_kernel_matches_oracle_in_either_layout(order, d):
    rng = np.random.default_rng(40 + d)
    feats = rng.random((60, d)) * 10.0 ** rng.integers(-3, 3, size=(60, d))
    part = one_shard(Shard(1, feats, rng.integers(0, 2, 60)))
    part.features = np.asarray(part.features, order=order)
    queries = rng.random((4, d))
    dist = query_distance_matrix(part.features, queries)
    np.testing.assert_array_equal(dist, query_distance_matrix(np.ascontiguousarray(feats), queries))
    for q, row in zip(queries, dist):
        ref, _ = oracle.shard_profiles(part, q)[0]
        assert np.sort(row).tolist() == ref


class TestTypes:
    def test_labeled_point_validation(self):
        with pytest.raises(ValueError):
            Shard(1, np.array([[0.1, np.inf]]), np.array([1]))
        with pytest.raises(ValueError):
            Shard(1, np.array([[0.1, 0.2]]), np.array([2]))

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            Shard(0, np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            Shard(1, np.zeros((2, 3)), np.array([0, 2]))
        with pytest.raises(ValueError):
            Shard(1, np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_shard_is_immutable(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            shard.features[0, 0] = 1.0

    def test_shard_leaves_the_callers_arrays_writeable(self):
        # contiguous float64/int64 input is not copied, but only the shard's views are frozen
        feats, labels = np.zeros((2, 3)), np.zeros(2, dtype=np.int64)
        shard = Shard(1, feats, labels)
        assert np.shares_memory(shard.features, feats) and np.shares_memory(shard.labels, labels)
        feats[0, 0] = 2.0
        labels[0] = 1
        with pytest.raises(ValueError):
            shard.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            shard.labels[0] = 0

    def test_profile_invariant_validation(self):
        # every profile steps by 0 or 1 label per neighbor and never gets closer
        rng = np.random.default_rng(13)
        shard = random_shard(rng, 40, coord_pool=np.array([0.0, 0.5, 1.0]))
        query = rng.random(3)
        for profile in (engine_profile, oracle_profile):
            dists, prefix = profile(shard, query, 40)
            assert np.isin(np.diff(prefix, prepend=0), (0, 1)).all()
            assert np.all(np.diff(dists) >= 0) and np.all(dists >= 0)

    def test_depths_may_differ_within_an_equal_size_run(self):
        # two shards of size 4 read at depths 1 and 3: each must get its own depth
        part = line_partition([[1, 1, 1, 1], [1, 1, 1, 1]])
        query = np.zeros(3)
        batch = build_prefix_tensor(part, query[None, :], np.array([1, 3]))[0]
        assert batch.tolist() == [[1, 0, 0], [1, 2, 3]]
        rng = np.random.default_rng(21)
        sizes = np.array([5, 5, 5, 3, 3])
        data = Shard(1, rng.random((21, 3)), rng.integers(0, 2, 21))
        part = Partition.from_shard(data, sizes, rng)
        shard_depths = np.array([2, 5, 2, 1, 3])
        query = rng.random(3)
        batch = build_prefix_tensor(part, query[None, :], shard_depths)[0]
        for j, (_, prefix) in enumerate(oracle.shard_profiles(part, query)):
            k = int(shard_depths[j])
            assert batch[j, :k].tolist() == prefix[:k]
            assert not batch[j, k:].any()

    def test_bad_depth_names_the_shard(self):
        part = line_partition([[0, 1, 1], [1, 0]])
        with pytest.raises(ValueError, match="shard 1: depth 3"):
            build_prefix_tensor(part, np.zeros((1, 3)), np.array([3, 3]))
        with pytest.raises(ValueError, match="one depth per shard"):
            build_prefix_tensor(part, np.zeros((1, 3)), np.array([1]))

    def test_profile_batch_roundtrip(self):
        # the padded prefix tensor holds each shard's own profile up to its
        # depth and zeros past it
        rng = np.random.default_rng(7)
        sizes = np.array([11, 8, 5, 3])
        data = Shard(1, rng.random((int(sizes.sum()), 3)), rng.integers(0, 2, int(sizes.sum())))
        part = Partition.from_shard(data, sizes, rng)
        query = rng.random(3)
        shard_depths = np.array([7, 8, 2, 3])
        batch = build_prefix_tensor(part, query[None, :], shard_depths)[0]
        assert batch.shape == (4, 8)
        for j, (_, prefix) in enumerate(oracle.shard_profiles(part, query)):
            k = int(shard_depths[j])
            assert batch[j, :k].tolist() == prefix[:k]
            assert not batch[j, k:].any()
