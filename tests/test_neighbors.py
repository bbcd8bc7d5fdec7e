import dataclasses
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from partitions import back_to_back, line_partition, profile_rows

from distknn import DatasetSplit, engine, oracle
from distknn.engine import (
    ClassifierKind,
    Partition,
    Shard,
    StoppingConfig,
    evaluate_queries,
    k_smallest_rows,
    query_distance_matrix,
)


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
    prefix = profile_rows(shard, q, np.array([k]))[0]
    return dist[0, idx], prefix


def oracle_profile(shard, query, k):
    """The same from the plain-loop oracle."""
    dists, prefix = oracle.shard_profiles(shard, query)[0]
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
                evaluate_queries(shard, np.zeros((1, width)), ClassifierKind.DANN, cfg)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="d = 0"):
            query_distance_matrix(np.zeros((5, 0)), np.zeros((2, 0)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_points_give_an_empty_block(self, dtype):
        # a block whose points the float32 screen takes all of asks the
        # float64 kernel for the distances to none
        out = query_distance_matrix(np.zeros((0, 3), dtype=dtype), np.ones((4, 3)))
        assert out.shape == (4, 0) and out.dtype == dtype

    def test_overflow_warns_in_float64_only(self):
        # float64 overflow is a fault numpy reports; float32 overflow is the
        # screen's, whose inf or nan pairs are redone in float64, so it is silent
        points = np.array([[1e200, -1e200], [0.0, 1e200]])
        queries = np.array([[-1e200, 1e200], [1.0, 2.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            query_distance_matrix(points, queries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = query_distance_matrix(np.array([[3e38, -3e38], [0.0, 1.0]], dtype=np.float32), queries)
        assert np.isinf(out[0]).all() and np.isfinite(out[1, 1])

    @pytest.mark.parametrize("queries", [[[3.0, 4.0, 100.0]], [3.0, 4.0]], ids=["extra-column", "one-dimensional"])
    def test_query_shape_must_match_the_points(self, queries):
        # the kernel reads only the points' d columns: against 2-column points
        # a third query column would be dropped, giving [3, 4, 100] distance 5
        queries = np.array(queries)
        message = f"queries of shape {queries.shape} do not match points of shape (1, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            query_distance_matrix(np.zeros((1, 2)), queries)

    def test_nonfinite_rejected(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        queries = np.array([[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
        with pytest.raises(ValueError, match="query row 1 "):
            evaluate_queries(shard, queries, ClassifierKind.D1NN, StoppingConfig(N=2, d=3))


class TestShardChecks:
    @staticmethod
    def build(features, labels):
        return Shard(1, features, labels)

    # labels are checked before the int64 cast, which would take 0.5 to 0 and 1.7 to 1
    @pytest.mark.parametrize("label", [0.5, 1.7])
    def test_fractional_label_rejected_naming_its_row(self, label):
        with pytest.raises(ValueError, match=rf"^labels must be 0 or 1: row 1 is {label}$"):
            self.build(np.zeros((3, 2)), [0.0, label, 1.0])

    @pytest.mark.parametrize("label", [7, 2, -1])
    def test_whole_label_outside_zero_one_rejected(self, label):
        with pytest.raises(ValueError, match=rf"^labels must be 0 or 1: row 3 is {label}$"):
            self.build(np.zeros((5, 1)), np.array([1, 1, 0, label, 1]))

    @pytest.mark.parametrize("count", [2, 4])
    def test_labels_of_another_length_rejected(self, count):
        with pytest.raises(ValueError, match="^labels must be a vector matching the point count$"):
            self.build(np.zeros((3, 2)), np.zeros(count, dtype=np.int64))

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match=r"nonempty \(n, d\) array, got shape \(4, 0\)"):
            self.build(np.zeros((4, 0)), [0, 1, 0, 1])

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match=r"^features must be a nonempty \(n, d\) array, got shape \(5,\)$"):
            self.build(np.arange(1.0, 6.0), [0, 1, 0, 0, 0])

    def test_nonfinite_feature_names_its_row(self):
        feats = np.zeros((3, 2))
        feats[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"^features must be finite: row 2 is \[0.0, nan\]$"):
            self.build(feats, [0, 1, 0])


class TestPartitionChecks(TestShardChecks):
    """A hand-built one-shard partition gets the same checks, word for word, as a Shard."""

    @staticmethod
    def build(features, labels):
        return Partition(features, labels, np.array([len(features)]))

    def test_features_keep_their_layout_and_labels_become_int64(self):
        # float64 features are kept as given, not copied, so from_shard's
        # column-major gather reaches the distance kernel as it was laid out
        feats = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        part = self.build(feats, np.array([1.0, 0.0, 1.0])[::-1])
        assert np.shares_memory(part.features, feats) and part.features.flags.f_contiguous
        assert part.labels.dtype == np.int64 and part.labels.flags.c_contiguous
        assert part.labels.tolist() == [1, 0, 1]
        rng = np.random.default_rng(2)
        part = Partition.from_shard(Shard(1, rng.random((12, 3)), rng.integers(0, 2, 12)), np.array([5, 4, 3]), rng)
        assert part.features.flags.f_contiguous and not part.features.flags.c_contiguous


# Hand-built partitions whose points or labels may be bad: a NaN or an
# infinite coordinate, or a label of 2, -1 or 0.5, at one drawn position. The
# constructor rejects exactly those; every other partition classifies as the
# oracle does, bit for bit.
@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(lambda s: sorted(s, reverse=True)),
    d=st.integers(1, 3),
    bad_point=st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]),
    bad_label=st.sampled_from([None, None, None, 2, -1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hand_built_partition_rejected_or_matches_oracle(sizes, d, bad_point, bad_label, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes) + 1
    sizes = [sizes[0] + 1, *sizes[1:]]  # N >= 2, as StoppingConfig needs
    feats = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, d))  # tie-prone
    labels = rng.integers(0, 2, n).astype(np.float64 if bad_label == 0.5 else np.int64)
    if bad_point is not None:
        feats.flat[rng.integers(feats.size)] = bad_point
    if bad_label is not None:
        labels[rng.integers(n)] = bad_label
    try:
        part = Partition(feats, labels, np.array(sizes))
    except ValueError:
        assert bad_point is not None or bad_label is not None
        return
    assert bad_point is None and bad_label is None
    cfg = StoppingConfig(N=n, d=d)
    queries = rng.choice([0.0, 0.25, 0.5, 1.0], size=(3, d))
    for kind in ClassifierKind:
        got = evaluate_queries(part, queries, kind, cfg)
        for i, query in enumerate(queries):
            label, k1, eta = oracle.classify(part, query, kind, cfg)
            assert (int(got[0][i]), int(got[1][i]), float(got[2][i])) == (label, k1, eta), kind


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
            profile_rows(shard, np.zeros((1, 3)), np.array([0]))

    def test_k_max_above_size_rejected(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="depth"):
            profile_rows(shard, np.zeros((1, 3)), np.array([3]))

    def test_query_dimension_checked(self):
        shard = Shard(1, np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            oracle.shard_profiles(shard, np.zeros(2))

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
# at the selection boundary too. Every 1 < k < n call takes the argmin-rounds
# or the argpartition path (by k).
@settings(max_examples=300, deadline=None)
@given(
    dist=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 30)),
        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, np.inf]) | st.floats(0, 2),
    ),
    k_frac=st.floats(0, 1),
)
def test_k_smallest_rows_matches_stable_argsort(dist, k_frac):
    n = dist.shape[1]
    for k in (1, 1 + round(k_frac * (n - 1)), n):
        np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))


# ``rounds_k`` 0 sends the picks short of the row down argpartition, the
# default to the argmin rounds.
@pytest.mark.parametrize("rounds_k", [0, engine.ROUNDS_K])
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
def test_k_smallest_rows_boundary_cases(row, k, rounds_k):
    dist = np.array([row, row[::-1]])
    with mock.patch.object(engine, "ROUNDS_K", rounds_k):
        for kk in (1, k, len(row)):
            np.testing.assert_array_equal(k_smallest_rows(dist, kk), stable_k(dist, kk))


@pytest.mark.parametrize("k", [0, -1])
def test_k_smallest_rows_k_below_one_rejected(k):
    # at every width: rows of no entries once returned a (2, 0) block for k = 0
    for shape in [(2, 5), (2, 1), (2, 0), (0, 0)]:
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            k_smallest_rows(np.zeros(shape), k)


def test_k_smallest_rows_on_large_tied_blocks():
    # heavy ties: most rows are ambiguous at the boundary and take the fix-up
    rng = np.random.default_rng(17)
    dist = rng.choice([0.0, 0.5, 1.0, np.inf], size=(6, 900))
    dist[0] = 0.5
    for k in (1, 2, 37, 450, 899, 900):
        np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))


# Full sorts of rows at least SORT_WIDTH wide take the unstable argsort, and
# then only the indices inside runs of equal sorted values are reordered. Rows
# drawn from a few repeated values (inf among them) are tied; ``clean`` swaps
# some rows for distinct values, so one block mixes both.
@settings(max_examples=200, deadline=None)
@given(
    dist=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(engine.SORT_WIDTH, 3 * engine.SORT_WIDTH)),
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


@pytest.mark.parametrize("n", [engine.SORT_WIDTH, 70, 300])
def test_full_sort_of_wide_rows_boundary_cases(n):
    block = wide_rows(n)
    dist = np.concatenate([block, block[::-1, ::-1]])
    np.testing.assert_array_equal(k_smallest_rows(dist, n), stable_k(dist, n))
    # and _sorted_rows alone, on a block where every row but the first has ties
    np.testing.assert_array_equal(engine._sorted_rows(block), stable_k(block, n))


def test_full_sort_paths_by_width_and_block_size():
    # clean rows: the unstable path gives the same result, so the path taken
    # is seen through a spy on it. Only the row width counts, not the rows.
    width = engine.SORT_WIDTH
    rng = np.random.default_rng(29)
    cases = [
        ((40, width - 1), False),  # narrow rows
        ((1, width - 1), False),
        ((40, width), True),  # rows exactly at the cut-off
        ((1, width), True),
        ((2, 64), True),
        ((1, 20000), True),
    ]
    for shape, unstable in cases:
        dist = rng.random(shape)
        with mock.patch.object(engine, "_sorted_rows", wraps=engine._sorted_rows) as spy:
            np.testing.assert_array_equal(k_smallest_rows(dist, shape[1]), stable_k(dist, shape[1]))
        assert spy.called is unstable, shape


# Picks of 2 to ROUNDS_K entries take rounds of argmin. A row whose finite
# entries run out before k picks makes a round's minimum inf, where argmin may
# return an entry masked earlier; such rows are redone. ``rounds_k`` 0 sends
# the same calls down argpartition, a large one sends every k < n to the
# rounds.
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
    with mock.patch.object(engine, "ROUNDS_K", rounds_k):
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
    dist = np.concatenate([block, block[::-1, ::-1]])
    before = dist.copy()
    for k in (2, 3, 4, engine.ROUNDS_K):
        with mock.patch.object(engine, "_argmin_rounds", wraps=engine._argmin_rounds) as spy:
            np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))
        assert spy.called, k
    np.testing.assert_array_equal(dist, before)


def test_argmin_rounds_path_by_k():
    # clean rows: every path gives the same result, so the path taken is
    # seen through a spy on the rounds
    rounds_k = engine.ROUNDS_K
    rng = np.random.default_rng(37)
    cases = [
        ((1, 3), 2, True),  # a block of 3 entries
        ((40, 64), rounds_k, True),
        ((40, 64), rounds_k + 1, False),  # argpartition
        ((1, rounds_k), rounds_k, False),  # k == n: a full sort
        ((40, rounds_k + 1), rounds_k, True),  # k == n - 1 on narrow rows
        ((1, 20000), rounds_k, True),
    ]
    for shape, k, rounds in cases:
        dist = rng.random(shape)
        with mock.patch.object(engine, "_argmin_rounds", wraps=engine._argmin_rounds) as spy:
            np.testing.assert_array_equal(k_smallest_rows(dist, k), stable_k(dist, k))
        assert spy.called is rounds, (shape, k)


def test_argmin_rounds_mask_in_place_and_put_the_block_back():
    # a census block (10 x 26049) at k = 2: the rounds mask the block itself,
    # where a copy of it took 2 MB and twice the time, and restore it; a
    # read-only block, as a partition's, is masked in a copy
    rng = np.random.default_rng(38)
    dist = rng.random((10, 26049))
    dist[:, ::5] = dist[:, :1]  # ties with each row's first entry
    before = dist.copy()
    tracemalloc.start()
    try:
        idx = engine._argmin_rounds(dist, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dist.nbytes / 4
    np.testing.assert_array_equal(idx, stable_k(before, 2))
    np.testing.assert_array_equal(dist, before)
    dist.setflags(write=False)
    np.testing.assert_array_equal(engine._argmin_rounds(dist, 5), stable_k(before, 5))
    np.testing.assert_array_equal(dist, before)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [1, 2, 5, 9])
def test_kernel_matches_oracle_in_either_layout(order, d):
    rng = np.random.default_rng(40 + d)
    feats = rng.random((60, d)) * 10.0 ** rng.integers(-3, 3, size=(60, d))
    part = Shard(1, feats, rng.integers(0, 2, 60))
    part.features = np.asarray(part.features, order=order)
    queries = rng.random((4, d))
    dist = query_distance_matrix(part.features, queries)
    np.testing.assert_array_equal(dist, query_distance_matrix(np.ascontiguousarray(feats), queries))
    for q, row in zip(queries, dist):
        ref, _ = oracle.shard_profiles(part, q)[0]
        assert np.sort(row).tolist() == ref


def full_width_distances(features, queries):
    """Distances over whole rows, one column's squared differences at a time."""
    acc = np.zeros((queries.shape[0], features.shape[0]))
    for c in range(features.shape[1]):
        diff = queries[:, c, None] - features[:, c]
        acc += diff * diff
    return np.sqrt(acc)


# 2, 3 and 2 tiles at the default 512 KiB budget and 8192-entry numpy buffer,
# each row's last tile one point narrower than the others
@pytest.mark.parametrize("rows, n", [(1, 70001), (10, 20003), (300, 8195)])
@pytest.mark.parametrize("d", [1, 2, 6])
def test_tiled_kernel_matches_full_width_rows_bit_for_bit(rows, n, d):
    rng = np.random.default_rng(rows + n + d)
    feats = np.asfortranarray(rng.random((n, d)) * 10.0 ** rng.integers(-2, 2, size=d))
    queries = rng.random((rows, d))
    np.testing.assert_array_equal(query_distance_matrix(feats, queries), full_width_distances(feats, queries))


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

    def test_partition_is_immutable(self):
        part = Partition(np.zeros((2, 3)), np.zeros(2, dtype=int), np.array([2]))
        with pytest.raises(ValueError):
            part.features[0, 0] = 1.0

    def test_partition_leaves_the_callers_arrays_writeable(self):
        # as a Shard's: contiguous float64/int64 input is not copied, but only the partition's views are frozen
        feats, labels, sizes = np.zeros((2, 3)), np.zeros(2, dtype=np.int64), np.array([2])
        part = Partition(feats, labels, sizes)
        assert np.shares_memory(part.features, feats) and np.shares_memory(part.labels, labels)
        feats[0, 0] = 2.0
        labels[0] = 1
        sizes[0] = 3
        with pytest.raises(ValueError):
            part.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            part.labels[0] = 0
        assert part.sizes.tolist() == [2]

    def test_partition_from_a_shard_is_read_only(self):
        # writing 7 into every label was accepted, and d1nn then returned eta = 7.0
        rng = np.random.default_rng(8)
        part = Partition.from_shard(Shard(1, rng.random((9, 2)), rng.integers(0, 2, 9)), np.array([5, 4]), rng)
        for name in ("features", "labels", "sizes", "offsets"):
            array = getattr(part, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 7

    def test_shard_is_a_one_shard_partition(self):
        rng = np.random.default_rng(9)
        feats, labels = rng.random((30, 3)), rng.integers(0, 2, 30)
        shard = Shard(4, feats, labels)
        assert isinstance(shard, Partition) and len(shard) == 1
        assert (shard.sizes.tolist(), shard.offsets.tolist(), shard.total, shard.size, shard.dim) == ([30], [0, 30], 30, 30, 3)
        assert repr(shard) == "Shard(id=4, size=30, dim=3)"
        part = Partition(feats, labels, np.array([30]))
        cfg, queries = StoppingConfig(N=30, d=3), rng.random((6, 3))
        for kind in ClassifierKind:
            for got, want in zip(evaluate_queries(shard, queries, kind, cfg), evaluate_queries(part, queries, kind, cfg)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), kind

    def test_shard_and_split_hash_and_compare_by_identity(self):
        feats, labels = np.zeros((4, 2)), np.array([0, 1, 0, 1])
        one, two = Shard(1, feats, labels), Shard(1, feats, labels)
        assert one == one and one != two and len({one, two}) == 2
        split = DatasetSplit(train=one, test=two)
        assert split == DatasetSplit(train=one, test=two) and split != DatasetSplit(train=two, test=one)
        assert len({split, DatasetSplit(train=one, test=two)}) == 1
        # partitions holding equal arrays compare without raising, by identity
        part = Partition(feats, labels, np.array([4]))
        assert part == part and part != Partition(feats, labels, np.array([4]))

    @pytest.mark.parametrize("shard_id", [1.5, 2.0, "1", None])
    def test_shard_id_that_is_not_an_integer_rejected(self, shard_id):
        # 1.5 was accepted and stored as id 1
        with pytest.raises(ValueError, match=f"^shard id must be an integer, got {re.escape(repr(shard_id))}$"):
            Shard(shard_id, np.zeros((2, 1)), np.array([0, 1]))
        assert [Shard(i, np.zeros((2, 1)), np.array([0, 1])).id for i in (1, np.int64(2), np.uint8(3))] == [1, 2, 3]
        with pytest.raises(ValueError, match="^shard id must be >= 1, got 0$"):
            Shard(np.int64(0), np.zeros((2, 1)), np.array([0, 1]))

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
        batch = profile_rows(part, query[None, :], np.array([1, 3]))[0]
        assert batch.tolist() == [1, 1, 2, 3]
        rng = np.random.default_rng(21)
        sizes = np.array([5, 5, 5, 3, 3])
        data = Shard(1, rng.random((21, 3)), rng.integers(0, 2, 21))
        part = Partition.from_shard(data, sizes, rng)
        shard_depths = np.array([2, 5, 2, 1, 3])
        query = rng.random(3)
        batch = profile_rows(part, query[None, :], shard_depths)[0]
        profiles = [prefix for _, prefix in oracle.shard_profiles(part, query)]
        assert batch.tolist() == back_to_back(profiles, shard_depths).tolist()

    def test_bad_depth_names_the_shard(self):
        part = line_partition([[0, 1, 1], [1, 0]])
        with pytest.raises(ValueError, match="shard 1: depth 3"):
            profile_rows(part, np.zeros((1, 3)), np.array([3, 3]))
        with pytest.raises(ValueError, match="one depth per shard"):
            profile_rows(part, np.zeros((1, 3)), np.array([1]))

    @pytest.mark.parametrize("shape", [(5,), (1, 4), (2, 6), (1, 1, 5)], ids=["1-D", "4-columns", "6-columns", "3-D"])
    def test_distance_block_of_another_shape_rejected(self, shape):
        # the builder reads a (queries, N) block; it names both shapes
        part = line_partition([[0, 1, 1], [1, 0]])
        message = f"distances of shape {shape} do not match points of shape (5, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            engine.build_prefix_tensor(part, np.zeros(shape), np.array([1, 1]))

    @pytest.mark.parametrize("sizes, size", [([6, 0], 0), ([7, -1], -1)])
    def test_shard_sizes_below_one_rejected(self, sizes, size):
        data = Shard(1, np.zeros((6, 3)), np.zeros(6, dtype=int))
        with pytest.raises(ValueError, match=f"shard 1: size {size} is below 1"):
            Partition.from_shard(data, sizes, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([3.7, 2.2], "shard 0: size 3.7 is not a whole number"),
            ([3.0, 2.5], "shard 1: size 2.5 is not a whole number"),
            ([np.nan, 5.0], "shard 0: size nan is not a whole number"),
            ([[3, 2]], "shard sizes must be a 1-D array of numbers, got int64 of shape (1, 2)"),
        ],
        ids=["fractions", "later-fraction", "nan", "two-dimensional"],
    )
    def test_shard_sizes_must_be_whole_numbers(self, sizes, message):
        # an int64 cast alone would take [3.7, 2.2] to [3, 2], and [[3, 2]]
        # would give one shard by len but offsets [0, 3, 5]
        data = Shard(1, np.zeros((5, 3)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match=re.escape(message)):
            Partition.from_shard(data, sizes, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([[3, 2]], "shard sizes must be a 1-D array of numbers, got int64 of shape (1, 2)"),
            ([3.0, 2.5], "shard 1: size 2.5 is not a whole number"),
            ([5, 0], "shard 1: size 0 is below 1"),
            ([3, 1], "shard sizes must sum to the data size"),
            ([2, 3], "shard sizes must be nonincreasing"),
        ],
        ids=["two-dimensional", "fraction", "below-one", "sum", "increasing"],
    )
    def test_partition_checks_its_own_sizes(self, sizes, message):
        # a hand-built partition keeps its points in order but gets the same
        # checks, word for word, as one from from_shard
        with pytest.raises(ValueError, match=re.escape(message)):
            Partition(np.zeros((5, 3)), np.zeros(5, dtype=np.int64), np.array(sizes))

    def test_partition_derives_its_offsets(self):
        assert [f.name for f in dataclasses.fields(Partition) if f.init] == ["features", "labels", "sizes"]
        part = Partition(np.zeros((9, 2)), np.zeros(9, dtype=np.int64), np.array([4.0, 4.0, 1.0]))
        assert part.sizes.dtype == np.int64 and part.sizes.tolist() == [4, 4, 1]
        assert part.offsets.tolist() == [0, 4, 8, 9]
        rng = np.random.default_rng(5)
        sizes = np.array([6, 4, 4, 1])
        part = Partition.from_shard(Shard(1, rng.random((15, 3)), rng.integers(0, 2, 15)), sizes, rng)
        assert part.offsets.tolist() == [0, *np.cumsum(sizes).tolist()]

    def test_profile_batch_roundtrip(self):
        # the profile row holds each shard's own profile up to its depth,
        # shard after shard
        rng = np.random.default_rng(7)
        sizes = np.array([11, 8, 5, 3])
        data = Shard(1, rng.random((int(sizes.sum()), 3)), rng.integers(0, 2, int(sizes.sum())))
        part = Partition.from_shard(data, sizes, rng)
        query = rng.random(3)
        shard_depths = np.array([7, 8, 2, 3])
        batch = profile_rows(part, query[None, :], shard_depths)[0]
        assert batch.shape == (20,)
        profiles = [prefix for _, prefix in oracle.shard_profiles(part, query)]
        assert batch.tolist() == back_to_back(profiles, shard_depths).tolist()
