import numpy as np
import pytest

from distknn import oracle
from distknn.adaptive import StoppingConfig
from distknn.baselines import ClassifierKind, depths
from distknn.engine import build_prefix_tensor, evaluate_queries, evaluate_query, query_distance_matrix
from distknn.neighbors import Shard
from distknn.simharness import SyntheticModel, generate_sample, partition_proportional, partition_uniform

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
            label, k1, eta = evaluate_query(part, query, kind, cfg)
            ref_label, ref_k1, ref_eta = oracle.classify(part, query, kind, cfg)
            assert label == ref_label
            assert (k1 if k1 is not None else -1) == ref_k1
            assert eta == ref_eta


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
            label, k1, eta = evaluate_query(part, queries[i], kind, cfg)
            assert labels[i] == label
            assert etas[i] == eta
            assert (k1s[i] if k1s[i] >= 0 else None) == k1


def test_worker_count_does_not_change_results(setup):
    rng, data = setup
    cfg = StoppingConfig(N=data.size, d=3)
    part = partition_uniform(data, 8, rng)
    queries = rng.random((40, 3))
    a = evaluate_queries(part, queries, ClassifierKind.DANN, cfg, workers=1, chunk_size=7)
    b = evaluate_queries(part, queries, ClassifierKind.DANN, cfg, workers=4, chunk_size=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


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
