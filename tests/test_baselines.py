import numpy as np
import pytest
from partitions import line_partition, one_shard

from distknn import oracle
from distknn.adaptive import StoppingConfig, scan_first_crossing, stopping_threshold
from distknn.baselines import ClassifierKind, depths
from distknn.engine import build_prefix_tensor, evaluate_query
from distknn.neighbors import Shard

ORIGIN = np.zeros(3)


def qiao_k(nj, cfg):
    return int(depths(ClassifierKind.DNN_QIAO, np.array([nj]), cfg)[0, 0])


def crossed(part, query, kind, cfg):
    """The scan's own crossed flag for one query."""
    kj = depths(kind, part.sizes, cfg)
    prefix = build_prefix_tensor(part, np.asarray(query)[None, :], kj[-1])
    return bool(scan_first_crossing(prefix, kj, stopping_threshold(cfg))[2][0])


class TestQiaoK:
    def test_value_at_1000(self):
        assert qiao_k(1000, StoppingConfig(N=1000, d=3)) == 16

    def test_clamp_to_one(self):
        assert qiao_k(1, StoppingConfig(N=100000, d=3)) == 1

    def test_same_k_for_equal_shards(self):
        cfg = StoppingConfig(N=1200, d=3)
        ks = depths(ClassifierKind.DNN_QIAO, np.full(12, 100), cfg)
        assert ks.shape == (1, 12)
        assert len(set(ks[0].tolist())) == 1

    def test_never_exceeds_shard_size(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            N = int(rng.integers(2, 50000))
            nj = int(rng.integers(1, N + 1))
            d = int(rng.integers(1, 8))
            assert 1 <= qiao_k(nj, StoppingConfig(N=N, d=d)) <= nj


class TestDnnQiao:
    def test_unanimous_ones(self):
        cfg = StoppingConfig(N=40, d=3)
        part = line_partition([[1] * 10] * 4)
        assert evaluate_query(part, ORIGIN, ClassifierKind.DNN_QIAO, cfg)[0] == 1

    def test_single_shard_reduction(self):
        rng = np.random.default_rng(2)
        n = 500
        part = one_shard(Shard(1, rng.random((n, 3)), rng.integers(0, 2, n)))
        cfg = StoppingConfig(N=n, d=3)
        k = qiao_k(n, cfg)
        query = rng.random(3)
        prefix = oracle.shard_profiles(part, query)[0][1]
        expected = 1 if prefix[k - 1] / k >= 0.5 else 0
        assert evaluate_query(part, query, ClassifierKind.DNN_QIAO, cfg)[0] == expected

    def test_pooled_majority_on_mixed_labels(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            sizes = np.sort(rng.integers(4, 50, m))[::-1]
            cfg = StoppingConfig(N=int(sizes.sum()), d=3)
            rows, pooled, total = [], 0, 0
            for nj in sizes:
                k = qiao_k(int(nj), cfg)
                labels = rng.integers(0, 2, int(nj))
                rows.append(labels)
                pooled += int(labels[:k].sum())
                total += k
            expected = 1 if pooled / total >= 0.5 else 0
            label, k1, eta = evaluate_query(line_partition(rows), ORIGIN, ClassifierKind.DNN_QIAO, cfg)
            assert (label, k1, eta) == (expected, -1, pooled / total)

    def test_shallow_profiles_rejected(self):
        # a depth-1 profile cannot serve the depth-16 rule at N=1000
        cfg = StoppingConfig(N=1000, d=3)
        kj = depths(ClassifierKind.DNN_QIAO, np.array([1000]), cfg)
        assert kj.tolist() == [[16]]
        with pytest.raises(IndexError):
            scan_first_crossing(np.ones((1, 1, 1), dtype=np.int64), kj, np.inf)


class TestD1nn:
    cfg = StoppingConfig(N=12, d=3)

    def test_majority(self):
        part = line_partition([[1], [1], [0]])
        assert evaluate_query(part, ORIGIN, ClassifierKind.D1NN, self.cfg)[0] == 1

    def test_tie_maps_to_one(self):
        part = line_partition([[1], [0]])
        assert evaluate_query(part, ORIGIN, ClassifierKind.D1NN, self.cfg)[0] == 1

    def test_single_shard_is_plain_1nn(self):
        rng = np.random.default_rng(4)
        part = one_shard(Shard(1, rng.random((30, 3)), rng.integers(0, 2, 30)))
        query = rng.random(3)
        nearest = oracle.shard_profiles(part, query)[0][1][0]
        assert evaluate_query(part, query, ClassifierKind.D1NN, StoppingConfig(N=30, d=3))[0] == nearest

    def test_uses_only_nearest_label(self):
        part = line_partition([[0, 1, 1, 1], [0, 1, 1, 1]])
        assert evaluate_query(part, ORIGIN, ClassifierKind.D1NN, self.cfg)[0] == 0


class TestDannNes:
    def test_two_point_hand_simulation(self):
        # m=1, n1=2, nearest labels (1, 0): k=1 gives r = sqrt(2)*0.5 below
        # the threshold sqrt(5 ln 2); k=2 gives eta=1/2, r=0; the walk ends at
        # the n1 bound with eta 0.5, classified 1
        cfg = StoppingConfig(N=2, d=3)
        assert stopping_threshold(cfg) > np.sqrt(2) * 0.5
        part = line_partition([[1, 0]])
        assert evaluate_query(part, ORIGIN, ClassifierKind.DANN_NES, cfg) == (1, 2, 0.5)
        assert not crossed(part, ORIGIN, ClassifierKind.DANN_NES, cfg)

    def test_matches_dann_when_threshold_crossed(self):
        rng = np.random.default_rng(5)
        agreements = 0
        for _ in range(80):
            m = int(rng.integers(1, 5))
            sizes = np.sort(rng.integers(10, 80, m))[::-1]
            cfg = StoppingConfig(N=int(sizes.sum()), d=3)
            part = line_partition([rng.integers(0, 2, int(nj)) for nj in sizes])
            dann = evaluate_query(part, ORIGIN, ClassifierKind.DANN, cfg)
            nes = evaluate_query(part, ORIGIN, ClassifierKind.DANN_NES, cfg)
            assert nes[1] >= 1
            if crossed(part, ORIGIN, ClassifierKind.DANN, cfg):
                agreements += 1
                assert nes == dann
                assert crossed(part, ORIGIN, ClassifierKind.DANN_NES, cfg)

    def test_runs_past_dann_bound_on_constant_labels(self):
        # all-ones labels never cross for small N, so nes walks all the way
        # to n1 while dann stops at its cap
        n = 40
        cfg = StoppingConfig(N=n, d=3)
        part = line_partition([[1] * n])
        dann = evaluate_query(part, ORIGIN, ClassifierKind.DANN, cfg)
        nes = evaluate_query(part, ORIGIN, ClassifierKind.DANN_NES, cfg)
        assert not crossed(part, ORIGIN, ClassifierKind.DANN, cfg)
        assert nes[1] > dann[1] or crossed(part, ORIGIN, ClassifierKind.DANN_NES, cfg)

    def test_requires_full_depth(self):
        cfg = StoppingConfig(N=10, d=3)
        kj = depths(ClassifierKind.DANN_NES, np.array([10]), cfg)
        assert kj[-1].tolist() == [10]
        with pytest.raises(IndexError):
            scan_first_crossing(np.ones((1, 1, 3), dtype=np.int64), kj, stopping_threshold(cfg))


def test_kind_parse_roundtrip():
    for kind in ClassifierKind:
        assert ClassifierKind.parse(kind.value) is kind
        assert ClassifierKind.parse(kind.value.upper()) is kind
    with pytest.raises(ValueError):
        ClassifierKind.parse("nearest")
