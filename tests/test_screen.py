"""The float32 screen of multi-row blocks (``engine._settle_screen``).

Blocks of at least ``SCREEN_ROWS`` query rows select the neighbors of wide
shards on float32 squared distances and then make every pick exact. These
tests hold the screened rows and classifications to the float64 path (the
screen switched off) and to the plain-loop oracle, bit for bit, on the cases
where float32 cannot tell points apart: neighbors one float64 ulp apart,
duplicated points, lattice ties and coordinates far from the origin.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from partitions import profile_rows

from distknn import engine, oracle
from distknn.engine import (
    ClassifierKind,
    Partition,
    StoppingConfig,
    build_prefix_tensor,
    depths,
    evaluate_queries,
    evaluate_query,
    k_smallest_rows,
    query_distance_matrix,
)
from distknn.simharness import SyntheticModel, generate_sample, partition_proportional, partition_uniform, shard_count


def screened_rows(partition, queries, shard_depths):
    """``build_prefix_tensor``'s rows of a block that the screen takes (checked)."""
    near = engine._screened_points(partition, np.asarray(shard_depths), queries.shape[0])
    assert near > 0
    screen = engine._Screen(queries, query_distance_matrix(partition.screen_copy[0][:near], queries))
    far = query_distance_matrix(partition.features[near:], queries)
    return build_prefix_tensor(partition, far, shard_depths, screen)


# called directly, not through the ``redone`` fixture's patch, which counts only the blocks' own calls
settle = engine._settle_screen


def shard_picks(part, dist, shard_depths):
    """The ``k_smallest_rows`` pick on ``dist`` of each of the first len(shard_depths) shards, partition-wide and
    back to back."""
    lo = part.offsets
    return np.hstack([k_smallest_rows(dist[:, lo[j] : lo[j + 1]], k) + lo[j] for j, k in enumerate(shard_depths)])


def settled_picks(part, queries, shard_depths):
    """The screened columns of a block's picks after ``_settle_screen``, its other columns checked untouched."""
    shard_depths = np.asarray(shard_depths)
    near = engine._screened_points(part, shard_depths, queries.shape[0])
    screened = shard_depths[: np.searchsorted(part.offsets, near)]
    screen = engine._Screen(queries, query_distance_matrix(part.screen_copy[0][:near], queries))
    picks = np.full((queries.shape[0], shard_depths.sum()), -1, dtype=np.intp)  # -1: not screened
    picks[:, : screened.sum()] = shard_picks(part, screen.near, screened)
    settle(part, screen, picks, screened)
    assert (picks[:, screened.sum() :] == -1).all()
    return picks[:, : screened.sum()]


def classifications(partition, queries, kind, cfg, **kw):
    return list(zip(*(a.tolist() for a in evaluate_queries(partition, queries, kind, cfg, **kw))))


@pytest.fixture
def redone(monkeypatch):
    """Per screened block, how many (query, shard) pairs were redone in float64."""
    record, inside = [], []
    settle, kernel = engine._settle_screen, engine.query_distance_matrix

    def settling(*args):
        record.append(0)
        inside.append(True)
        try:
            return settle(*args)
        finally:
            inside.pop()

    def distances(features, queries):
        if inside:
            record[-1] += queries.shape[0]
        return kernel(features, queries)

    monkeypatch.setattr(engine, "_settle_screen", settling)
    monkeypatch.setattr(engine, "query_distance_matrix", distances)
    return record


def float64_outcomes(monkeypatch, fn):
    """``fn()`` with the screen switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "SCREEN_ROWS", 10**9)
        return fn()


def check_block(monkeypatch, part, queries, shard_depths):
    """The screened rows equal the float64 path's and the oracle's, and the settled picks the float64 picks."""
    picks = settled_picks(part, queries, shard_depths)
    exact = shard_picks(part, query_distance_matrix(part.features, queries), shard_depths)
    np.testing.assert_array_equal(picks, exact[:, : picks.shape[1]])
    got = screened_rows(part, queries, shard_depths)
    want = float64_outcomes(monkeypatch, lambda: profile_rows(part, queries, shard_depths))
    np.testing.assert_array_equal(got, want)
    for q, row in zip(queries, got):
        ref = [p[:k] for (_, p), k in zip(oracle.shard_profiles(part, q), shard_depths)]
        assert row.tolist() == [v for p in ref for v in p]


def ulp_line(gaps, far, d):
    """Points on the first axis at distance 0.125 + g ulp(0.625) from the query 0.5, one per gap g, then ``far``
    points beyond 0.25; and four rows of that query."""
    x = np.concatenate([0.625 + np.asarray(gaps) * 2.0**-53, 0.75 + np.arange(far) / 1000])
    feats = np.full((x.size, d), 0.5)
    feats[:, 0] = x
    return feats, np.full((4, d), 0.5)


@pytest.mark.parametrize("d", [1, 3])
def test_neighbors_one_ulp_apart_are_redone(monkeypatch, redone, d):
    # 40 points whose float64 distances fall by one ulp each as the index
    # rises: float32 rounds them to one value and orders them by index, the
    # reverse of the exact order, so a pick of fewer than all 40 is unsure and
    # redone, and a pick of all 40 is sure and only put in order
    feats, queries = ulp_line(np.arange(40, 0, -1), 40, d)
    part = Partition(feats, np.arange(80) % 3 == 0, [80])
    for k in (1, 2, 5, 39, 40):
        redone.clear()
        check_block(monkeypatch, part, queries, [k])
        assert redone == [4 if k < 40 else 0], k


def test_pick_in_the_wrong_float32_order_is_reordered(monkeypatch, redone):
    # two points one ulp apart, index 0 the farther, and every other point
    # far away: the pick {0, 1} is sure, and only its order needs float64
    feats, queries = ulp_line([1, 0], 78, 2)
    labels = np.zeros(80, dtype=np.int64)
    labels[0] = 1
    part = Partition(feats, labels, [80])
    check_block(monkeypatch, part, queries, [2])
    assert redone == [0]
    assert screened_rows(part, queries, [2]).tolist() == [[0, 1]] * 4


def test_duplicated_points(monkeypatch):
    rng = np.random.default_rng(11)
    feats = rng.random((200, 3))
    feats[40:100] = feats[7]  # 61 copies of one point, across two shards
    labels = rng.integers(0, 2, 200)
    part = Partition(feats, labels, [100, 100])
    queries = np.concatenate([feats[[7, 7]], rng.random((3, 3)), feats[[150]]])
    for k in (1, 3, 30, 61, 99):
        check_block(monkeypatch, part, queries, [k, k])
    cfg = StoppingConfig(N=200, d=3)
    for kind in ClassifierKind:
        got = classifications(part, queries, kind, cfg)
        assert got == [oracle.classify(part, q, kind, cfg) for q in queries], kind


def test_ties_on_an_eighth_grid(monkeypatch):
    rng = np.random.default_rng(12)
    grid = np.arange(9) / 8
    part = partition_uniform(engine.Shard(1, rng.choice(grid, (480, 3)), rng.integers(0, 2, 480)), 4, rng)
    queries = rng.choice(grid, (6, 3))
    for k in (1, 2, 7, 12, 13, 60, 119):
        check_block(monkeypatch, part, queries, [k] * 4)
    check_block(monkeypatch, part, queries, [13, 13, 13, 120])  # the last shard read whole is not screened
    cfg = StoppingConfig(N=480, d=3)
    for kind in ClassifierKind:
        got = classifications(part, queries, kind, cfg)
        assert got == [oracle.classify(part, q, kind, cfg) for q in queries], kind
        assert got == float64_outcomes(monkeypatch, lambda: classifications(part, queries, kind, cfg)), kind


def test_coordinates_near_1e7_fall_back_to_float64(monkeypatch, redone):
    # a float32 coordinate near 1e7 is only good to about 0.5, far coarser
    # than the gaps between neighbors: the margin covers every point, so
    # every screened pair is redone
    rng = np.random.default_rng(13)
    feats = 1e7 + rng.random((300, 2))
    part = partition_uniform(engine.Shard(1, feats, rng.integers(0, 2, 300)), 2, rng)
    queries = 1e7 + rng.random((5, 2))
    check_block(monkeypatch, part, queries, [3, 3])
    assert redone == [10]
    redone.clear()
    check_block(monkeypatch, part, queries, [3, 150])  # the second shard, read whole, is not screened
    assert redone == [5]
    cfg = StoppingConfig(N=300, d=2)
    for kind in ClassifierKind:
        redone.clear()
        got = classifications(part, queries, kind, cfg)
        assert got == [oracle.classify(part, q, kind, cfg) for q in queries], kind
        assert sum(redone) == (0 if kind is ClassifierKind.DANN_NES else 10), kind


def engine_rows(part, queries, shard_depths):
    """The float64 path's rows: distances to every point, no screen."""
    return build_prefix_tensor(part, query_distance_matrix(part.features, queries), shard_depths)


@given(
    n=st.integers(8, 300),
    m=st.integers(1, 8),
    d=st.integers(1, 4),
    nq=st.integers(1, 9),
    lattice=st.booleans(),
    scale=st.sampled_from([1.0, 1e-3, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_screen_matches_float64_and_oracle_on_small_data(n, m, d, nq, lattice, scale, seed):
    # the screen lowered to every block and every shard of 2 points or more
    rng = np.random.default_rng(seed)
    feats = (rng.choice(np.arange(5) / 4, (n, d)) if lattice else rng.random((n, d))) * scale
    data = engine.Shard(1, feats, rng.integers(0, 2, n))
    part = (partition_uniform if m % 2 else partition_proportional)(data, min(m, n), rng)
    queries = np.concatenate([feats[: nq // 3], (rng.choice(np.arange(5) / 4, (nq, d)) * scale)])[:nq]
    cfg = StoppingConfig(N=n, d=d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SCREEN_ROWS", 1)
        patch.setattr(engine, "SCREEN_WIDTH", 2)
        for kind in ClassifierKind:
            kj = depths(kind, part.sizes, cfg)[-1]
            if engine._screened_points(part, kj, nq):
                np.testing.assert_array_equal(screened_rows(part, queries, kj), engine_rows(part, queries, kj))
            got = classifications(part, queries, kind, cfg)
            assert got == [oracle.classify(part, q, kind, cfg) for q in queries], kind


def test_float32_points_give_float32_squared_distances():
    # 10 rows of 20003 points take 2 tiles at 4 bytes an entry; the kernel's
    # float32 values equal a plain whole-row float32 loop, with no square root
    rng = np.random.default_rng(14)
    feats = np.asfortranarray(rng.random((20003, 6)), dtype=np.float32)
    queries = rng.random((10, 6))
    got = query_distance_matrix(feats, queries)
    single = queries.astype(np.float32)
    want = np.zeros((10, 20003), dtype=np.float32)
    for c in range(6):
        diff = single[:, c, None] - feats[:, c]
        want = diff * diff if c == 0 else want + diff * diff
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)


def test_only_screened_blocks_build_the_float32_copy():
    rng = np.random.default_rng(15)
    data = generate_sample(2000, SyntheticModel(0.6), rng)
    part = partition_uniform(data, 4, rng)
    cfg = StoppingConfig(N=2000, d=3)
    for kind in ClassifierKind:
        evaluate_query(part, rng.random(3), kind, cfg)  # a one-row block, as every grid's
        evaluate_queries(part, rng.random((engine.SCREEN_ROWS - 1, 3)), kind, cfg)
    assert "screen_copy" not in vars(part)
    evaluate_queries(part, rng.random((engine.SCREEN_ROWS, 3)), ClassifierKind.D1NN, cfg)
    single, bound = part.screen_copy
    assert single.dtype == np.float32 and single.flags.f_contiguous and not single.flags.writeable
    np.testing.assert_array_equal(single, part.features.astype(np.float32))
    np.testing.assert_array_equal(bound, np.abs(part.features).max(axis=0))


def test_screen_takes_wide_shards_short_of_their_depth():
    # a staged walk (its last stage reads shards whole) and narrow shards stay
    # on float64; the screened points end where a run of shards does
    rng = np.random.default_rng(16)
    data = generate_sample(3000, SyntheticModel(0.6), rng)
    part = partition_proportional(data, 20, rng)  # sizes 286 down to 14
    cfg = StoppingConfig(N=3000, d=3)
    rows = engine.SCREEN_ROWS
    kj = depths(ClassifierKind.D1NN, part.sizes, cfg)[-1]
    wide = int((part.sizes >= engine.SCREEN_WIDTH).sum())
    assert 0 < wide < len(part)
    assert engine._screened_points(part, kj, rows) == part.offsets[wide]
    assert engine._screened_points(part, kj, rows - 1) == 0
    assert engine._screened_points(part, depths(ClassifierKind.DANN_NES, part.sizes, cfg)[-1], rows) == 0
    whole = kj.copy()
    whole[1] = part.sizes[1]  # the second shard read whole: only the first is screened
    assert engine._screened_points(part, whole, rows) == part.offsets[1]


def test_census_stand_in_screened_equals_float64(monkeypatch):
    # every test row of the benchmark's census stand-in, each epsilon and
    # classifier, through the pool of two workers: the screened outputs equal
    # the float64 path's bit for bit
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import census
    finally:
        sys.path.pop(0)
    from distknn.realdata import apply_scaling, fit_scaling, train_test_split

    rng = np.random.default_rng(1)
    features, labels = census.stand_in(rng)
    split = train_test_split(engine.Shard(1, apply_scaling(features, fit_scaling(features)), labels), 0.2, rng)
    train, queries = split.train, split.test.features[:512]
    cfg = StoppingConfig(N=train.size, d=train.dim)
    screened = 0
    for eps in (0.0, 0.3, 0.6, 0.9):
        part = partition_proportional(train, shard_count(train.size, eps), rng)
        for kind in ClassifierKind:
            got = evaluate_queries(part, queries, kind, cfg, workers=2)
            want = float64_outcomes(monkeypatch, lambda: evaluate_queries(part, queries, kind, cfg, workers=2))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
            screened += engine._screened_points(part, depths(kind, part.sizes, cfg)[-1], 10) > 0
    assert screened == 9  # dann, dnn_qiao and d1nn at eps 0, 0.3 and 0.6
