"""The pooled estimate and the plug-in decision, as the engine computes them."""

import math

import numpy as np
import pytest
from partitions import back_to_back, line_partition, profile_rows

from distknn.engine import (
    ClassifierKind,
    Partition,
    Shard,
    StoppingConfig,
    evaluate_query,
    scan_first_crossing,
)


def pooled_eta(label_rows, ks):
    """Pooled eta at depths ``ks`` over each shard's labels in neighbor order."""
    prefix = back_to_back([np.cumsum(row) for row in label_rows], ks)[None, :]
    _, eta, _ = scan_first_crossing(prefix, np.array([ks]), math.inf)
    return float(eta[0, 0])


class TestLocalEstimate:
    def test_direct_division(self):
        assert pooled_eta([[1, 0, 1]], [3]) == pytest.approx(2 / 3)

    def test_all_zero_labels(self):
        assert pooled_eta([[0, 0]], [2]) == 0.0

    def test_all_one_labels(self):
        for k in (1, 3, 7):
            assert pooled_eta([[1] * k], [k]) == 1.0

    def test_k_out_of_range(self):
        part = line_partition([[1, 1]])
        for k in (0, 3):
            with pytest.raises(ValueError, match="depth"):
                profile_rows(part, np.zeros((1, 3)), np.array([k]))


class TestAggregate:
    def test_equal_weight_average(self):
        assert pooled_eta([[1, 0], [1, 1]], [2, 2]) == 0.75

    def test_weighted_average(self):
        assert pooled_eta([[1, 1, 1], [0]], [3, 1]) == 0.75

    def test_constant_inputs(self):
        for c, ks in [(0.5, (2, 4, 8)), (1.0, (1, 5)), (0.0, (3, 3))]:
            rows = [[1] * int(k * c) + [0] * (k - int(k * c)) for k in ks]
            assert pooled_eta(rows, list(ks)) == c

    def test_pooled_count_identity_exact(self):
        # integer identity: eta * sum(k_j) == sum of per-shard label counts
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            rows, ks, expected = [], [], 0
            for _ in range(m):
                k = int(rng.integers(1, 50))
                row = rng.integers(0, 2, k + int(rng.integers(0, 5)))
                rows.append(row)
                ks.append(k)
                expected += int(row[:k].sum())
            eta = pooled_eta(rows, ks)
            assert eta == expected / sum(ks)
            assert 0.0 <= eta <= 1.0


class TestClassify:
    cfg = StoppingConfig(N=10000, d=3)

    def test_boundary_maps_to_one(self):
        cfg = StoppingConfig(N=2, d=3)
        label, _, eta = evaluate_query(line_partition([[1], [0]]), np.zeros(3), ClassifierKind.D1NN, cfg)
        assert (label, eta) == (1, 0.5)

    def test_below_threshold(self):
        # 10000 one-point shards, 4999 of them labeled 1: eta = 0.4999
        labels = np.zeros(10000, dtype=np.int64)
        labels[:4999] = 1
        part = Partition(
            features=np.zeros((10000, 3)),
            labels=labels,
            sizes=np.ones(10000, dtype=np.int64),
        )
        label, _, eta = evaluate_query(part, np.zeros(3), ClassifierKind.D1NN, self.cfg)
        assert (label, eta) == (0, 0.4999)

    def test_certain_positive(self):
        part = line_partition([[1, 1], [1]])
        for kind in ClassifierKind:
            label, _, eta = evaluate_query(part, np.zeros(3), kind, StoppingConfig(N=3, d=3))
            assert (label, eta) == (1, 1.0)


def plain_knn_estimate(features, labels, query, k):
    """Independent single-sample k-NN estimate: stable sort over distances."""
    dists = np.sqrt(((features - query) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")[:k]
    return labels[order].mean()


def test_single_shard_reduction_matches_plain_knn():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        feats = rng.random((n, 3))
        labels = rng.integers(0, 2, n)
        shard = Shard(1, feats, labels)
        k = int(rng.integers(1, n + 1))
        query = rng.random(3)
        prefix = profile_rows(shard, query[None, :], np.array([k]))
        _, eta, _ = scan_first_crossing(prefix, np.array([[k]]), math.inf)
        assert eta[0, 0] == pytest.approx(plain_knn_estimate(feats, labels, query, k), abs=0)
