import pickle

import numpy as np
import pytest

from distknn import engine, oracle, simharness
from distknn.adaptive import StoppingConfig
from distknn.baselines import ClassifierKind, depths
from distknn.engine import build_prefix_tensor, evaluate_queries, evaluate_query, query_distance_matrix
from distknn.neighbors import Shard
from distknn.simharness import (
    ExperimentConfig,
    SyntheticModel,
    generate_sample,
    partition_proportional,
    partition_uniform,
    run_experiment,
)

TIE_GRID = np.array([0.0, 0.25, 0.5, 1.0])


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


def test_profile_partition_matches_per_shard_profiles(setup):
    rng, data = setup
    part = partition_proportional(data, 9, rng)
    query = rng.random(3)
    depths = np.minimum(part.sizes, 7)
    batch = build_prefix_tensor(part, query[None, :], depths)[0]
    for j, (_, ref) in enumerate(oracle.shard_profiles(part, query)):
        assert batch[j, : depths[j]].tolist() == ref[: depths[j]]


def test_profile_partition_handles_ties_like_reference():
    # grid coordinates force exact distance ties across and inside shards
    rng = np.random.default_rng(9)
    pool = np.array([0.0, 0.5, 1.0])
    data = Shard(1, rng.choice(pool, size=(120, 3)), rng.integers(0, 2, 120))
    part = partition_uniform(data, 5, rng)
    query = np.array([0.5, 0.5, 0.0])
    depths = np.minimum(part.sizes, 10)
    batch = build_prefix_tensor(part, query[None, :], depths)[0]
    for j, (_, ref) in enumerate(oracle.shard_profiles(part, query)):
        assert batch[j, : depths[j]].tolist() == ref[: depths[j]]


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
        """Records ``max_workers`` and runs the tasks here, after the pickle
        round trip that a process pool makes; starts no process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [pickle.loads(pickle.dumps(fn))(pickle.loads(pickle.dumps(item))) for item in items]

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simharness, "ProcessPoolExecutor", RecordingPool)
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
    runs = list(part.size_runs())
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
        assert part.size_runs() == plain_runs(part.sizes, ones)
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


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("m", [1, 120])
def test_block_boundaries_match_oracle(setup, monkeypatch, block_rows, m):
    # a 7-query chunk in blocks of 1 row, and of 3, 3 and 1 rows
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_proportional(data, m, rng)
    monkeypatch.setattr(engine, "BLOCK_BYTES", block_rows * 8 * part.total)
    blocks = []

    def recording_prefix(partition, queries, shard_depths):
        blocks.append(queries.shape[0])
        return build_prefix_tensor(partition, queries, shard_depths)

    monkeypatch.setattr(engine, "build_prefix_tensor", recording_prefix)
    queries = np.concatenate([rng.choice(TIE_GRID, size=(3, 3)), rng.random((4, 3))])
    for kind in ClassifierKind:
        blocks.clear()
        got = evaluate_queries(part, queries, kind, cfg, chunk_size=7)
        assert blocks == ([1] * 7 if block_rows == 1 else [3, 3, 1])
        assert list(zip(*(a.tolist() for a in got))) == [oracle.classify(part, q, kind, cfg) for q in queries]


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
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_proportional(data, 9, rng)
    monkeypatch.setattr(engine, "BLOCK_BYTES", 2 * 8 * part.total)  # 2-row blocks
    calls = []

    def counting_depths(*args):
        calls.append(args[0])
        return depths(*args)

    monkeypatch.setattr(engine, "depths", counting_depths)
    queries = rng.random((20, 3))
    for kind in ClassifierKind:
        calls.clear()
        evaluate_queries(part, queries, kind, cfg, chunk_size=7)
        assert calls == [kind]  # one worker: one call over all 20 rows, not one per chunk of 7


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
