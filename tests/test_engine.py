import ctypes
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from partitions import back_to_back, profile_rows

from distknn import engine, oracle, simharness
from distknn.engine import (
    ClassifierKind,
    Partition,
    Shard,
    StoppingConfig,
    build_prefix_tensor,
    depths,
    evaluate_queries,
    evaluate_query,
    query_distance_matrix,
)
from distknn.simharness import (
    ExperimentConfig,
    SyntheticModel,
    generate_sample,
    partition_proportional,
    partition_uniform,
    run_experiment,
    shard_count,
)

TIE_GRID = np.array([0.0, 0.25, 0.5, 1.0])


def oracle_row(part, query, shard_depths):
    """The oracle's per-shard profiles of ``query`` cut to depth and laid end to end."""
    return back_to_back([ref for _, ref in oracle.shard_profiles(part, query)], shard_depths)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(123)
    data = generate_sample(600, SyntheticModel(0.60), rng)
    return rng, data


@pytest.mark.parametrize("split", ["uniform", "proportional"])
@pytest.mark.parametrize("m", [1, 4, 23])
def test_engine_matches_reference_ops(setup, split, m):
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = (partition_uniform if split == "uniform" else partition_proportional)(data, m, rng)
    for kind in ClassifierKind:
        for _ in range(6):
            query = rng.random(3)
            assert evaluate_query(part, query, kind, cfg) == oracle.classify(part, query, kind, cfg)


def test_engine_matches_oracle_without_the_log_in_the_bound():
    # N = 600, d = 3, shards of 150: dann's bound is 4 steps without the
    # log N factor and 21 with it, so the two variants stop apart
    rng = np.random.default_rng(31)
    data = generate_sample(600, SyntheticModel(0.60), rng)
    part = partition_uniform(data, 4, rng)
    queries = rng.random((12, 3))
    k1s = {}
    for include_log in (False, True):
        cfg = StoppingConfig(N=data.size, d=3, include_log_in_bound=include_log)
        for kind in ClassifierKind:
            got = evaluate_queries(part, queries, kind, cfg)
            assert list(zip(*(a.tolist() for a in got))) == [oracle.classify(part, q, kind, cfg) for q in queries]
            if kind is ClassifierKind.DANN:
                k1s[include_log] = got[1].tolist()
    assert max(k1s[False]) <= 4 < max(k1s[True])


@pytest.mark.parametrize("N, d", [(2000, 9), (10**6, 3)], ids=["other-d", "other-N"])
def test_stopping_config_of_another_partition_rejected(N, d):
    # another N or d moves the bound, the threshold and dnn_qiao's depths, so
    # the answers would change without an error
    rng = np.random.default_rng(2)
    data = generate_sample(2000, SyntheticModel(0.60), rng)
    part = partition_uniform(data, 4, rng)
    message = f"stopping config has N={N}, d={d}; the partition has N=2000, d=3"
    for kind in ClassifierKind:
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_queries(part, rng.random((3, 3)), kind, StoppingConfig(N=N, d=d))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_single_nonfinite_query_rejected(bad):
    data = generate_sample(200, SyntheticModel(0.60), np.random.default_rng(8))
    part = partition_uniform(data, 3, np.random.default_rng(9))
    cfg = StoppingConfig(N=data.size, d=3)
    for kind in ClassifierKind:
        with pytest.raises(ValueError, match="query row 0 is not finite"):
            evaluate_query(part, [bad, 0.5, 0.5], kind, cfg)


def test_profile_partition_matches_per_shard_profiles(setup):
    rng, data = setup
    part = partition_proportional(data, 9, rng)
    query = rng.random(3)
    depths = np.minimum(part.sizes, 7)
    batch = profile_rows(part, query[None, :], depths)[0]
    assert batch.tolist() == oracle_row(part, query, depths).tolist()


def test_profile_partition_handles_ties_like_reference():
    # grid coordinates force exact distance ties across and inside shards
    rng = np.random.default_rng(9)
    pool = np.array([0.0, 0.5, 1.0])
    data = Shard(1, rng.choice(pool, size=(120, 3)), rng.integers(0, 2, 120))
    part = partition_uniform(data, 5, rng)
    query = np.array([0.5, 0.5, 0.0])
    depths = np.minimum(part.sizes, 10)
    batch = profile_rows(part, query[None, :], depths)[0]
    assert batch.tolist() == oracle_row(part, query, depths).tolist()


@pytest.mark.parametrize("split", ["uniform", "proportional"])
@pytest.mark.parametrize("d", [1, 3, 6, 8, 16])
def test_engine_matches_oracle_across_dimensions(split, d):
    # tie-prone points at every dimension; distances must match bit for bit,
    # including d >= 8, where numpy's row sum rounds differently from the
    # column-ordered kernel
    rng = np.random.default_rng(1000 + d)
    n = 240
    data = Shard(1, rng.choice(TIE_GRID, size=(n, d)), rng.integers(0, 2, n))
    part = (partition_uniform if split == "uniform" else partition_proportional)(data, 6, rng)
    cfg = StoppingConfig(N=n, d=d)
    queries = np.concatenate([rng.choice(TIE_GRID, size=(6, d)), rng.random((6, d))])
    dist = query_distance_matrix(part.features, queries)
    for q, row in zip(queries, dist):
        for j, (ref, _) in enumerate(oracle.shard_profiles(part, q)):
            shard = row[part.offsets[j] : part.offsets[j + 1]]
            assert np.sort(shard).tolist() == ref, (j, q)
    for kind in ClassifierKind:
        expected = [oracle.classify(part, q, kind, cfg) for q in queries]
        for chunk_size in (1, 7):
            got = evaluate_queries(part, queries, kind, cfg, workers=1, chunk_size=chunk_size)
            assert list(zip(*(a.tolist() for a in got))) == expected, (kind, chunk_size)


def test_batched_queries_match_single_queries(setup):
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_uniform(data, 8, rng)
    queries = rng.random((37, 3))
    for kind in ClassifierKind:
        labels, k1s, etas = evaluate_queries(part, queries, kind, cfg, chunk_size=10)
        for i in range(queries.shape[0]):
            assert evaluate_query(part, queries[i], kind, cfg) == (labels[i], k1s[i], etas[i])


def test_worker_count_does_not_change_results(setup):
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_uniform(data, 8, rng)
    queries = rng.random((40, 3))
    a = evaluate_queries(part, queries, ClassifierKind.DANN, cfg, workers=1, chunk_size=7)
    b = evaluate_queries(part, queries, ClassifierKind.DANN, cfg, workers=4, chunk_size=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_pools_start_no_more_processes_than_tasks(setup, monkeypatch):
    started = []

    class RecordingPool:
        """Records ``max_workers``, runs the ``initializer`` and the tasks
        here, after the pickle round trip that a process pool makes; starts
        no process."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            started.append(max_workers)
            if initializer is not None:
                initializer(*pickle.loads(pickle.dumps(initargs)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [pickle.loads(pickle.dumps(fn))(pickle.loads(pickle.dumps(item))) for item in items]

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simharness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(engine, "_worker_partition", None)  # the fake's initializer sets it in this process
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_proportional(data, 5, rng)
    assert pickle.loads(pickle.dumps(part)).features.flags.f_contiguous
    queries = rng.random((10, 3))
    for kind in ClassifierKind:
        pooled = evaluate_queries(part, queries, kind, cfg, workers=64, chunk_size=4)
        for x, y in zip(pooled, evaluate_queries(part, queries, kind, cfg)):
            np.testing.assert_array_equal(x, y)
    grid = ExperimentConfig(N=200, kappa=0.6, epsilons=(0.0, 0.5), runs=1, classifiers=("d1nn",))
    assert len(run_experiment(grid, workers=64).rows) == 2
    assert started == [3] * len(ClassifierKind) + [2]  # 3 query chunks; 2 runs


@pytest.fixture
def started_pools(monkeypatch):
    """The ``max_workers`` of every process pool the engine starts; the pools are real."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    return started


def test_classifiers_in_one_partition_pool_share_one_pool(setup, started_pools):
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_proportional(data, 5, rng)
    queries = rng.random((10, 3))
    serial = {kind: evaluate_queries(part, queries, kind, cfg) for kind in ClassifierKind}
    with engine.partition_pool(part):
        for kind in ClassifierKind:
            with engine.partition_pool(part):  # a block inside a block on the same partition
                pooled = evaluate_queries(part, queries, kind, cfg, workers=2, chunk_size=4)
            for x, y in zip(pooled, serial[kind]):
                np.testing.assert_array_equal(x, y)
        assert started_pools == [2]
        assert len(multiprocessing.active_children()) == 2
        other = partition_uniform(data, 3, rng)  # another partition: a pool of its own, for the call
        pooled = evaluate_queries(other, queries, ClassifierKind.DANN, cfg, workers=2, chunk_size=4)
        for x, y in zip(pooled, evaluate_queries(other, queries, ClassifierKind.DANN, cfg)):
            np.testing.assert_array_equal(x, y)
        assert started_pools == [2, 2]
    assert multiprocessing.active_children() == []


def test_partition_pool_shuts_down_when_a_call_in_it_raises(setup, started_pools):
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_uniform(data, 4, rng)
    queries = rng.random((10, 3))
    bad = queries.copy()
    bad[7, 1] = np.nan
    with pytest.raises(ValueError, match=r"^query row 7 is not finite"):
        with engine.partition_pool(part):
            evaluate_queries(part, queries, ClassifierKind.D1NN, cfg, workers=2, chunk_size=4)
            assert len(multiprocessing.active_children()) == 2
            evaluate_queries(part, bad, ClassifierKind.D1NN, cfg, workers=2, chunk_size=4)
    assert started_pools == [2]
    assert multiprocessing.active_children() == []
    # the next block starts a pool of its own
    with engine.partition_pool(part):
        evaluate_queries(part, queries, ClassifierKind.D1NN, cfg, workers=2, chunk_size=4)
    assert started_pools == [2, 2]
    assert multiprocessing.active_children() == []


def plain_runs(sizes, shard_depths):
    """Runs of equal (size, depth), found one shard at a time."""
    runs, start = [], 0
    for j in range(1, len(sizes) + 1):
        if j == len(sizes) or (sizes[j], shard_depths[j]) != (sizes[start], shard_depths[start]):
            runs.append((start, j, int(sizes[start])))
            start = j
    return runs


def test_partition_shard_views(setup):
    rng, data = setup
    part = partition_uniform(data, 7, rng)
    assert len(part) == 7
    assert part.total == data.size
    assert np.diff(part.offsets).tolist() == part.sizes.tolist()
    runs = part.size_runs(np.ones(7, dtype=np.int64))
    assert sum(last - first for first, last, _ in runs) == 7
    for first, last, size in runs:
        assert (part.sizes[first:last] == size).all()
    # proportional splits up to m close to n: at m ~ sqrt(2n) most sizes are
    # distinct, near m = n nearly all are 1 and most classifiers read depth 1
    cfg = StoppingConfig(N=data.size, d=3)
    for m in (7, 34, 120, 590, 600):
        part = partition_proportional(data, m, rng)
        assert part.features.flags.f_contiguous
        ones = np.ones(m, dtype=np.int64)
        assert part.size_runs(ones) == plain_runs(part.sizes, ones)
        for shard_depths in (
            depths(ClassifierKind.DANN, part.sizes, cfg)[-1],
            rng.integers(1, part.sizes + 1),
        ):
            assert part.size_runs(shard_depths) == plain_runs(part.sizes, shard_depths)
        queries = rng.random((3, 3))
        for kind in ClassifierKind:
            got = evaluate_queries(part, queries, kind, cfg)
            assert list(zip(*(a.tolist() for a in got))) == [oracle.classify(part, q, kind, cfg) for q in queries]


def test_query_dimension_validated(setup):
    rng, data = setup
    part = partition_uniform(data, 3, rng)
    cfg = StoppingConfig(N=data.size, d=3)
    with pytest.raises(ValueError):
        evaluate_queries(part, rng.random((5, 4)), ClassifierKind.DANN, cfg)


@pytest.mark.parametrize("shape", [(5, 4), (3,), (2, 3, 1)])
def test_query_shape_error_names_both_shapes(setup, shape):
    rng, data = setup
    part = partition_uniform(data, 3, rng)
    cfg = StoppingConfig(N=data.size, d=3)
    message = re.escape(f"queries must be (n, d) with the partition's dimension d = 3, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        evaluate_queries(part, np.zeros(shape), ClassifierKind.DANN, cfg)


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("m", [1, 120])
def test_block_boundaries_match_oracle(setup, monkeypatch, block_rows, m):
    # a 7-query chunk in blocks of 1 row, and of 3, 3 and 1 rows
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_proportional(data, m, rng)
    monkeypatch.setattr(engine, "BLOCK_BYTES", block_rows * 8 * part.total)
    blocks = []

    def recording_distances(features, queries):
        blocks.append(queries.shape[0])
        return query_distance_matrix(features, queries)

    monkeypatch.setattr(engine, "query_distance_matrix", recording_distances)
    queries = np.concatenate([rng.choice(TIE_GRID, size=(3, 3)), rng.random((4, 3))])
    for kind in ClassifierKind:
        blocks.clear()
        got = evaluate_queries(part, queries, kind, cfg, chunk_size=7)
        assert blocks == ([1] * 7 if block_rows == 1 else [3, 3, 1])
        assert list(zip(*(a.tolist() for a in got))) == [oracle.classify(part, q, kind, cfg) for q in queries]


@given(
    n=st.integers(1, 300),
    m=st.integers(1, 40),
    d=st.integers(1, 4),
    proportional=st.booleans(),
    depth_cap=st.integers(1, 60),
    nq=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_profile_rows_match_oracle_with_either_builder(n, m, d, proportional, depth_cap, nq, seed):
    # tie-prone lattice data at random depths in [1, n_j]; capped depths put
    # the candidate sort's rank K = CANDIDATE_FACTOR x the summed depths on
    # both sides of N
    rng = np.random.default_rng(seed)
    data = Shard(1, rng.choice(TIE_GRID, size=(n, d)), rng.integers(0, 2, n))
    part = (partition_proportional if proportional else partition_uniform)(data, min(m, n), rng)
    shard_depths = np.minimum(rng.integers(1, part.sizes + 1), depth_cap)
    queries = rng.choice(TIE_GRID, size=(nq, d))
    expected = np.array([oracle_row(part, q, shard_depths) for q in queries])
    # a rule of 0 runs per row takes the candidate sort, and one of more runs
    # than there are shards the run loop
    for runs_per_row in (0, len(part) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "SEGMENT_RUNS_PER_ROW", runs_per_row)
            got = profile_rows(part, queries, shard_depths)
        np.testing.assert_array_equal(got, expected, err_msg=f"SEGMENT_RUNS_PER_ROW = {runs_per_row}")


@pytest.mark.parametrize("n, one_deep", [(70000, True), (20000, False)], ids=["cut", "whole-row"])
def test_segmented_profiles_with_int32_shard_keys(n, one_deep):
    # 17000 shards take int32 keys: ids from 2^14 on would overflow int16 ones.
    # Depth 1 everywhere puts the candidate cut K = CANDIDATE_FACTOR x 17000
    # below N = 70000; full depths put K above N, where it is capped at N and
    # every point is a candidate
    rng = np.random.default_rng(n)
    m = 17000
    data = Shard(1, rng.choice(TIE_GRID, size=(n, 3)), rng.integers(0, 2, n))
    part = partition_uniform(data, m, rng)
    shard_depths = np.ones(m, dtype=np.int64) if one_deep else part.sizes
    assert (engine.CANDIDATE_FACTOR * int(shard_depths.sum()) < n) == one_deep
    query = rng.choice(TIE_GRID, size=3)
    dist = query_distance_matrix(part.features, query[None, :])
    segmented = np.empty((1, int(shard_depths.sum())), dtype=np.int64)
    engine._segmented_profiles(part, dist, shard_depths, segmented)
    looped = np.empty_like(segmented)
    engine._run_profiles(part, dist, shard_depths, part.size_runs(shard_depths), looped)
    np.testing.assert_array_equal(segmented, looped)
    np.testing.assert_array_equal(segmented[0], oracle_row(part, query, shard_depths))


@pytest.fixture
def strategies(monkeypatch):
    """Names of the profile strategies that ``build_prefix_tensor`` calls, in order."""
    taken = []
    for name in ("_run_profiles", "_segmented_profiles"):

        def spy(*args, _fn=getattr(engine, name), _name=name):
            taken.append(_name)
            return _fn(*args)

        monkeypatch.setattr(engine, name, spy)
    return taken


def many_runs_partition(d, seed):
    """20000 tie-prone lattice points in 200 proportional shards.

    Its 199 distinct sizes are 199 runs, enough for the segmented sort in
    blocks of up to 3 rows.
    """
    rng = np.random.default_rng(seed)
    n = 20000
    data = Shard(1, rng.choice(TIE_GRID, size=(n, d)), rng.integers(0, 2, n))
    return partition_proportional(data, 200, rng), rng


@pytest.mark.parametrize("limited", [False, True], ids=["full", "limited"])
@pytest.mark.parametrize("d", [1, 3, 6])
def test_segmented_profiles_match_oracle(strategies, d, limited):
    part, rng = many_runs_partition(d, 2000 + d)
    shard_depths = part.sizes.copy()
    if limited:
        shard_depths = np.minimum(part.sizes, 5)
        shard_depths[0] = part.sizes[0]  # one shard read to its end
    queries = np.concatenate([rng.choice(TIE_GRID, size=(2, d)), rng.random((1, d))])
    expected = np.array([oracle_row(part, q, shard_depths) for q in queries])
    np.testing.assert_array_equal(profile_rows(part, queries, shard_depths), expected)
    for q, profiles in zip(queries, expected):
        np.testing.assert_array_equal(profile_rows(part, q[None, :], shard_depths)[0], profiles)
    assert strategies == ["_segmented_profiles"] * 4  # one block of 3 rows, then 3 of 1


@pytest.mark.parametrize("d", [1, 3, 6])
def test_segmented_classification_matches_oracle(monkeypatch, strategies, d):
    part, rng = many_runs_partition(d, 3000 + d)
    cfg = StoppingConfig(N=part.total, d=d)
    monkeypatch.setattr(engine, "BLOCK_BYTES", 3 * 8 * part.total)  # 3-row blocks
    queries = np.concatenate([rng.choice(TIE_GRID, size=(2, d)), rng.random((1, d))])
    builds = []

    def counting_prefix(partition, dist, shard_depths, *rest):
        builds.append(dist.shape[0])
        return build_prefix_tensor(partition, dist, shard_depths, *rest)

    monkeypatch.setattr(engine, "build_prefix_tensor", counting_prefix)
    for kind in ClassifierKind:
        strategies.clear()
        builds.clear()
        expected = [oracle.classify(part, q, kind, cfg) for q in queries]
        got = evaluate_queries(part, queries, kind, cfg)
        assert list(zip(*(a.tolist() for a in got))) == expected, kind
        assert [evaluate_query(part, q, kind, cfg) for q in queries] == expected, kind
        if kind is ClassifierKind.DANN_NES:
            # every stage's build, of the 3-row block and then of each single
            # row (n_1 = 199: stages of 16, 64 and 199 steps), takes the sort
            assert len(builds) >= 4
            assert strategies == ["_segmented_profiles"] * len(builds)


def test_prefix_strategy_follows_runs_and_depths(monkeypatch, strategies):
    # the N = 20000 grid's partitions at eps = 0.5 (m = 142): a uniform split
    # has one size, a proportional one 142; there every classifier takes the
    # candidate sort, whose cost follows the depths, and gives the run loop's
    # tensor
    rng = np.random.default_rng(41)
    n = 20000
    data = generate_sample(n, SyntheticModel(0.60), rng)
    cfg = StoppingConfig(N=n, d=3)
    query = rng.random((1, 3))
    taken = {}
    for split in (partition_uniform, partition_proportional):
        part = split(data, shard_count(n, 0.5), rng)
        for kind in ClassifierKind:
            shard_depths = depths(kind, part.sizes, cfg)[-1]
            strategies.clear()
            got = profile_rows(part, query, shard_depths)
            taken[split.__name__, kind.value] = strategies[0]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "SEGMENT_RUNS_PER_ROW", len(part) + 1)  # the run loop
                np.testing.assert_array_equal(got, profile_rows(part, query, shard_depths))
    loop, sort = "_run_profiles", "_segmented_profiles"
    assert taken == {
        **{("partition_uniform", kind.value): loop for kind in ClassifierKind},
        **{("partition_proportional", kind.value): sort for kind in ClassifierKind},
    }


def rule_candidates(part, row, shard_depths):
    """One distance row's candidates by the cut's rule, from a full sort of the row.

    Returns (kept points, short shards, the cut), the cut ``None`` where
    K = ``CANDIDATE_FACTOR`` x the summed depths reaches the row's length,
    which caps it: there every point is a candidate.
    """
    k = engine.CANDIDATE_FACTOR * int(shard_depths.sum())
    if k >= row.size:
        return np.ones(row.size, dtype=bool), np.zeros(len(part), dtype=bool), None
    cut = np.sort(row)[k - 1]
    shard_of = np.repeat(np.arange(len(part)), part.sizes)
    short = np.bincount(shard_of, weights=row <= cut, minlength=len(part)) < shard_depths
    return (row <= cut) | short[shard_of], short, cut


def cut_case(case, d):
    """(partition, query rows, depths) of one case of the cut.

    The query rows are the first lattice points for which the case's premise
    holds, and the test fails if fewer are found.
    """
    part, rng = many_runs_partition(d, 4000 + d)
    # dann's depths at d = 3 whatever the data's dimension: 1 to 7 a shard,
    # K = 2812, well short of N
    shard_depths = depths(ClassifierKind.DANN, part.sizes, StoppingConfig(N=part.total, d=3))[-1]
    far = len(part) // 2
    if case == "whole":
        shard_depths = np.maximum(part.sizes // 3, 1)  # K >= N, yet short of full depth
    elif case == "far":
        moved = part.features.copy(order="F")  # a partition is read-only: the moved one is built from a copy
        moved[part.offsets[far] : part.offsets[far + 1]] += 10.0  # lattice points lie in [0, 1]^d
        part = Partition(moved, part.labels, part.sizes)
    elif case == "d1nn":
        shard_depths = np.ones(len(part), dtype=np.int64)
    k = engine.CANDIDATE_FACTOR * int(shard_depths.sum())
    queries = rng.choice(TIE_GRID, size=(40, d))

    def premise(row, short, cut):
        if case == "whole":
            return cut is None and (shard_depths < part.sizes).any()
        ordered = np.sort(row)
        # a shard kept by the cut alone whose last needed entry ties with it
        at_cut = any(
            np.sort(row[part.offsets[j] : part.offsets[j + 1]])[shard_depths[j] - 1] == cut
            for j in np.flatnonzero(~short)
        )
        # lattice ties straddle rank K, and the proportional split's smallest
        # shard is short of its depth (and so is the far shard)
        return ordered[k - 1] == ordered[k] and at_cut and short[-1] and (case != "far" or short[far])

    picked, widened = [], set()
    for q, row in zip(queries, query_distance_matrix(part.features, queries)):
        _, short, cut = rule_candidates(part, row, shard_depths)
        shards = tuple(np.flatnonzero(short))
        if premise(row, short, cut) and (case != "block" or shards not in widened):  # a block's rows widen different shards
            picked.append(q)
            widened.add(shards)
    nq = 3 if case == "block" else 1
    assert len(picked) >= nq
    queries = np.array(picked[:nq])
    return part, queries, shard_depths


@pytest.mark.parametrize("case", ["ties", "far", "d1nn", "whole", "block"])
@pytest.mark.parametrize("d", [1, 3, 6])
def test_candidate_cut_is_exact(monkeypatch, strategies, case, d):
    """The candidate sort against the oracle and the run loop, with the candidates pinned.

    ``ties``: dann's depths on lattice data, where the row's K-th distance ties
    with the next and with a shard's last needed entry, and the proportional
    split's smallest shard is short of its depth. ``far``: also a middle shard
    moved away from the query, so none of it is at or below the cut.
    ``d1nn``: depth 1 everywhere. ``whole``: K >= N, capped at N, so every
    point is a candidate. ``block``: 3-row blocks whose rows widen different
    shards.
    """
    part, queries, shard_depths = cut_case(case, d)
    rows = query_distance_matrix(part.features, queries)
    sorted_candidates = []

    def select(dist, k, _fn=engine.k_smallest_rows):
        sorted_candidates.append(np.sort(dist, axis=1))
        return _fn(dist, k)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "k_smallest_rows", select)
        got = profile_rows(part, queries, shard_depths)
    assert strategies == ["_segmented_profiles"]
    assert len(sorted_candidates) == len(queries)  # one sort per row
    for row, candidates in zip(rows, sorted_candidates):
        keep, _, _ = rule_candidates(part, row, shard_depths)
        np.testing.assert_array_equal(candidates, np.sort(row[keep])[None, :])
    expected = np.array([oracle_row(part, q, shard_depths) for q in queries])
    np.testing.assert_array_equal(got, expected)
    monkeypatch.setattr(engine, "SEGMENT_RUNS_PER_ROW", len(part) + 1)  # the run loop
    np.testing.assert_array_equal(profile_rows(part, queries, shard_depths), expected)


@pytest.mark.parametrize("n, budget", [(20000, None), (600, 1000)])
def test_distance_blocks_stay_within_budget(monkeypatch, n, budget):
    # the default budget over a 40-query chunk, and a budget below one row
    rng = np.random.default_rng(77)
    data = generate_sample(n, SyntheticModel(0.60), rng)
    part = partition_proportional(data, 4, rng)
    if budget is not None:
        monkeypatch.setattr(engine, "BLOCK_BYTES", budget)
    sizes = []

    def recording_distances(features, queries):
        out = query_distance_matrix(features, queries)
        sizes.append(out.nbytes)
        return out

    monkeypatch.setattr(engine, "query_distance_matrix", recording_distances)
    queries = rng.random((40, 3))
    for kind in ClassifierKind:
        evaluate_queries(part, queries, kind, StoppingConfig(N=n, d=3))
    assert len(sizes) > len(ClassifierKind)
    assert max(sizes) <= max(engine.BLOCK_BYTES, 8 * n)


def test_depths_built_once_per_chunk(setup, monkeypatch):
    # n_1 = 120 > 64, so dann_nes walks in stages of 16, 64 and 120 steps
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_proportional(data, 9, rng)
    assert engine._stage_caps(ClassifierKind.DANN_NES, int(part.sizes[0])) == [16, 64]
    monkeypatch.setattr(engine, "BLOCK_BYTES", 2 * 8 * part.total)  # 2-row blocks
    built = []

    def counting(fn):
        def wrapper(*args):
            built.append((fn.__name__, args[0]))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(engine, "depths", counting(depths))
    monkeypatch.setattr(engine, "depth_matrix", counting(engine.depth_matrix))
    queries = rng.random((20, 3))
    for kind in ClassifierKind:
        built.clear()
        evaluate_queries(part, queries, kind, cfg, chunk_size=7)
        # one worker: one chunk of all 20 rows, not one per chunk of 7, in 10
        # blocks; each stage's rows are built at most once over them, and only
        # the staged walk may stop before its last stage's
        assert len(built) == len(set(built)), kind
        assert ("depths", kind) in built or kind is ClassifierKind.DANN_NES


def test_walk_crossing_in_its_first_stage_builds_no_deeper_profiles(monkeypatch):
    # 8 shards of 75 points, every label 1: at step k1 the statistic is
    # sqrt(2 x 8 k1) / 2, which first exceeds the threshold sqrt(5 log 600)
    # ~ 5.655 at k1 = 8 (5.657), inside the first stage of 16 steps
    rng = np.random.default_rng(9)
    data = Shard(1, rng.random((600, 3)), np.ones(600, dtype=np.int64))
    part = partition_uniform(data, 8, rng)
    cfg = StoppingConfig(N=data.size, d=3)
    first_stage = engine.depth_matrix(16, part.sizes)[-1]
    built = []

    def recording_prefix(partition, dist, shard_depths, *rest):
        built.append(np.asarray(shard_depths).copy())
        return build_prefix_tensor(partition, dist, shard_depths, *rest)

    monkeypatch.setattr(engine, "build_prefix_tensor", recording_prefix)
    queries = rng.random((5, 3))
    got = evaluate_queries(part, queries, ClassifierKind.DANN_NES, cfg)
    assert list(zip(*(a.tolist() for a in got))) == [oracle.classify(part, q, ClassifierKind.DANN_NES, cfg) for q in queries]
    assert got[1].tolist() == [8] * 5
    assert built and all((b <= first_stage).all() for b in built)


@given(
    n=st.integers(2, 3000),
    m=st.integers(1, 40),
    d=st.integers(1, 6),
    proportional=st.booleans(),
    tie_prone=st.floats(0, 1),
    signal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_staged_walks_match_oracle_at_any_stage_rule(n, m, d, proportional, tie_prone, signal, seed):
    # stages of 1 step doubling, the default rule, a first stage past n_1
    # (so the cut leaves the walk whole) and staging forced off: each gives
    # the oracle's (label, k1, eta) on tie-prone lattice points 40% of the
    # time, and labels that cross the threshold half the time
    rng = np.random.default_rng(seed)
    lattice = tie_prone < 0.4
    feats = rng.choice(TIE_GRID, size=(n, d)) if lattice else rng.random((n, d))
    labels = rng.integers(0, 2, n)
    if signal:
        labels |= feats[:, 0] <= 0.5
    data = Shard(1, feats, labels)
    part = (partition_proportional if proportional else partition_uniform)(data, min(m, n), rng)
    cfg = StoppingConfig(N=n, d=d)
    queries = rng.choice(TIE_GRID, size=(3, d)) if lattice else rng.random((3, d))
    kind = ClassifierKind.DANN_NES
    expected = [oracle.classify(part, q, kind, cfg) for q in queries]
    rules = {"1 x 2": (1, 2), "default": (engine.STAGE_STEPS, engine.STAGE_GROWTH), "past n_1": (n + 1, 2)}
    for name, (steps, growth) in rules.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "STAGE_STEPS", steps)
            patch.setattr(engine, "STAGE_GROWTH", growth)
            got = evaluate_queries(part, queries, kind, cfg)
        assert list(zip(*(a.tolist() for a in got))) == expected, name
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_stage_caps", lambda kind, n1: [])
        got = evaluate_queries(part, queries, kind, cfg)
    assert list(zip(*(a.tolist() for a in got))) == expected, "off"


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_query_set_gives_empty_arrays(setup, workers):
    rng, data = setup
    part = partition_uniform(data, 3, rng)
    cfg = StoppingConfig(N=data.size, d=3)
    for kind in ClassifierKind:
        labels, k1s, etas = evaluate_queries(part, np.empty((0, 3)), kind, cfg, workers=workers)
        assert (labels.shape, k1s.shape, etas.shape) == ((0,), (0,), (0,))
        assert (labels.dtype, k1s.dtype, etas.dtype) == (np.int64, np.int64, np.float64)


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_chunk_size_below_one_rejected(setup, chunk_size):
    rng, data = setup
    part = partition_uniform(data, 3, rng)
    cfg = StoppingConfig(N=data.size, d=3)
    with pytest.raises(ValueError, match=f"chunk_size must be >= 1, got {chunk_size}"):
        evaluate_queries(part, rng.random((5, 3)), ClassifierKind.DANN, cfg, chunk_size=chunk_size)


# a worker or chunk count that is not an integer is named with its value, where
# it would otherwise fail in range() or the pool, or be ignored on one worker;
# so is a worker count below 1, which would otherwise classify in one process
@pytest.mark.parametrize(
    "workers, chunk_size, queries, message",
    [
        (2, 2.5, 600, "chunk_size must be an integer, got 2.5"),
        (1, 2.5, 600, "chunk_size must be an integer, got 2.5"),
        (1.5, 5, 20, "workers must be an integer, got 1.5"),
        (1.5, None, None, "workers must be an integer, got 1.5"),
        (0, 5, 20, "workers must be >= 1, got 0"),
        (-5, 5, 20, "workers must be >= 1, got -5"),
        (-1, None, None, "workers must be >= 1, got -1"),
    ],
    ids=["chunk-pool", "chunk-serial", "workers", "grid-workers", "workers-zero", "workers-negative",
         "grid-workers-negative"],
)
def test_worker_and_chunk_counts_that_are_not_integers_rejected(setup, workers, chunk_size, queries, message):
    rng, data = setup
    part = partition_uniform(data, 3, rng)
    cfg = StoppingConfig(N=data.size, d=3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if queries is None:
            run_experiment(ExperimentConfig(N=50, kappa=0.6, epsilons=(0,), runs=2), workers=workers)
        else:
            evaluate_queries(part, rng.random((queries, 3)), ClassifierKind.DANN, cfg, workers=workers,
                             chunk_size=chunk_size)


# A grid in a fresh interpreter: the warm-up call sizes the heap, the second
# call counts the minor page faults of its 3 x 3 runs.
FAULT_COUNT_SCRIPT = """
import json, resource
from distknn import ExperimentConfig, run_experiment
cfg = ExperimentConfig(N=60000, kappa=0.55, epsilons=(0.3, 0.5, 0.6), split="proportional", runs=3, seed=1)
first = run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
second = run_experiment(cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults": faults, "csv": [first.to_csv_text(), second.to_csv_text()]}))
"""


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


def _without_runtime(csv_text: str) -> list[list[str]]:
    rows = [line.split(",") for line in csv_text.splitlines()]
    col = rows[0].index("mean_runtime_s")
    return [row[:col] + row[col + 1 :] for row in rows]


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_grid_runs_reuse_their_temporaries():
    src = str(Path(engine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_COUNT_SCRIPT], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    # glibc's default thresholds fault in about 1500 pages per run here
    assert out["faults"] / 9 < 50
    first, second = out["csv"]
    assert _without_runtime(first) == _without_runtime(second)


def test_allocator_settings(monkeypatch):
    lib = mock.NonCallableMock(spec=["mallopt"])
    monkeypatch.setattr(engine.ctypes, "CDLL", mock.Mock(return_value=lib))
    engine._keep_temporaries_on_heap()
    assert lib.mallopt.call_args_list == [
        mock.call(engine._M_MMAP_THRESHOLD, 2 * engine.BLOCK_BYTES),
        mock.call(engine._M_TRIM_THRESHOLD, 16 * engine.BLOCK_BYTES),
        mock.call(engine._M_ARENA_MAX, 1),
    ]


@pytest.mark.parametrize("error", [AttributeError, OSError])
def test_allocator_setting_does_nothing_without_mallopt(monkeypatch, error):
    # AttributeError: a C library without mallopt; OSError: no C library to load
    lib = mock.NonCallableMock(spec=[])
    cdll = mock.Mock(side_effect=OSError("no C library")) if error is OSError else mock.Mock(return_value=lib)
    monkeypatch.setattr(engine.ctypes, "CDLL", cdll)
    assert engine._keep_temporaries_on_heap() is None
    cdll.assert_called_once_with(None)
    assert lib.mock_calls == []
