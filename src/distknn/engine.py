"""Evaluation engine: partitions, bulk profile building, classifier dispatch.

A Partition keeps all shards of one split in two flat arrays, shards laid out
contiguously in nonincreasing size order. Because equal-sized shards sit next
to each other, neighbor search vectorizes across whole groups of shards (and
across query batches) instead of looping shard by shard.

This is the library's only classification path. Distances come from one
kernel that adds squared differences column by column, and neighbors are
ordered by (distance, index within the shard); ``oracle.py`` follows the same
contract with plain loops, so the two agree bit for bit at every dimension.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adaptive import StoppingConfig, scan_first_crossing, stopping_threshold
from .baselines import ClassifierKind, depths
from .neighbors import Shard, k_smallest_rows

__all__ = ["Partition", "query_distance_matrix", "evaluate_query", "evaluate_queries"]


@dataclass
class Partition:
    """Shards of one dataset stored contiguously, largest shard first."""

    features: np.ndarray  # (N, d) permuted so shard j occupies offsets[j]:offsets[j+1]
    labels: np.ndarray  # (N,)
    sizes: np.ndarray  # (m,) nonincreasing
    offsets: np.ndarray  # (m + 1,)

    @classmethod
    def from_shard(cls, data: Shard, sizes: np.ndarray, rng: np.random.Generator) -> "Partition":
        sizes = np.asarray(sizes, dtype=np.int64)
        if int(sizes.sum()) != data.size:
            raise ValueError("shard sizes must sum to the data size")
        if np.any(np.diff(sizes) > 0):
            raise ValueError("shard sizes must be nonincreasing")
        perm = rng.permutation(data.size)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        return cls(
            features=data.features[perm],
            labels=data.labels[perm],
            sizes=sizes,
            offsets=offsets,
        )

    def __len__(self) -> int:
        return self.sizes.shape[0]

    @property
    def total(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def size_runs(self):
        """Yield (first_shard, last_shard_exclusive, size) for equal-size runs."""
        sizes = self.sizes
        start = 0
        for j in range(1, len(sizes) + 1):
            if j == len(sizes) or sizes[j] != sizes[start]:
                yield start, j, int(sizes[start])
                start = j


def query_distance_matrix(features: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distances from each query (rows) to each point (columns).

    Squared differences are added column by column and then square-rooted, at
    every dimension; the oracle repeats this order, which keeps the two bit
    for bit equal.
    """
    nq = queries.shape[0]
    acc = np.zeros((nq, features.shape[0]), dtype=np.float64)
    for c in range(features.shape[1]):
        diff = queries[:, c, None] - features[:, c]
        acc += diff * diff
    return np.sqrt(acc)


def build_prefix_tensor(
    partition: Partition, queries: np.ndarray, shard_depths: np.ndarray
) -> np.ndarray:
    """Label prefix sums for every (query, shard) pair, shape (q, m, kpad).

    ``shard_depths[j]`` is how deep shard j's profile must go; it must be
    constant within each equal-size run (it always is when derived from shard
    size). Entries past a shard's depth are zero padding.
    """
    if np.any(shard_depths < 1) or np.any(shard_depths > partition.sizes):
        raise ValueError("each depth must lie in [1, shard size]")
    nq = queries.shape[0]
    m = len(partition)
    kpad = int(shard_depths.max())
    dist = query_distance_matrix(partition.features, queries)
    out = np.zeros((nq, m, kpad), dtype=np.int64)
    for first, last, size in partition.size_runs():
        depth = int(shard_depths[first])
        cnt = last - first
        a = int(partition.offsets[first])
        b = int(partition.offsets[last])
        block = dist[:, a:b].reshape(nq * cnt, size)
        idx = k_smallest_rows(block, depth).reshape(nq, cnt, depth)
        labs = partition.labels[a:b].reshape(cnt, size)
        picked = labs[np.arange(cnt)[None, :, None], idx]
        out[:, first:last, :depth] = np.cumsum(picked, axis=2)
    return out


def _classify_chunk(
    partition: Partition,
    queries: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, k1 choices (-1 where not applicable) and etas for a query chunk.

    Every classifier is a walk over its depth rows; a fixed-depth classifier
    has one row and never stops early, so its threshold is infinite.
    """
    kj = depths(kind, partition.sizes, cfg)
    prefix = build_prefix_tensor(partition, queries, kj[-1])
    adaptive = kind in (ClassifierKind.DANN, ClassifierKind.DANN_NES)
    threshold = stopping_threshold(cfg) if adaptive else math.inf
    stop, eta, _ = scan_first_crossing(prefix, kj, threshold)
    eta_hat = np.take_along_axis(eta, stop[:, None], axis=1)[:, 0]
    if adaptive:
        k1_hat = stop.astype(np.int64) + 1
    else:
        k1_hat = np.full(queries.shape[0], -1, dtype=np.int64)
    labels = (eta_hat >= 0.5).astype(np.int64)
    return labels, k1_hat, eta_hat


def evaluate_query(
    partition: Partition,
    query: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
) -> tuple[int, int | None, float]:
    """Classify one query point; returns (label, k1_hat or None, eta)."""
    q = np.asarray(query, dtype=np.float64)
    labels, k1s, etas = _classify_chunk(partition, q[None, :], kind, cfg)
    k1 = int(k1s[0]) if k1s[0] >= 0 else None
    return int(labels[0]), k1, float(etas[0])


def _eval_chunk_worker(payload):
    features, labels, sizes, offsets, queries, kind_value, cfg_args = payload
    partition = Partition(features=features, labels=labels, sizes=sizes, offsets=offsets)
    return _classify_chunk(partition, queries, ClassifierKind(kind_value), StoppingConfig(*cfg_args))


def evaluate_queries(
    partition: Partition,
    queries: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
    workers: int = 1,
    chunk_size: int = 256,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify many query points; parallelizes over query chunks.

    Output is independent of ``workers`` and ``chunk_size``: chunks are pure
    functions of their inputs and are reassembled in input order. A query row
    with a non-finite coordinate is rejected, naming the first such row
    (0-based).
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != partition.dim:
        raise ValueError("queries must be (n, d) with the partition's dimension")
    bad = ~np.isfinite(queries).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"query row {row} is not finite: {queries[row].tolist()}")
    chunks = [queries[i : i + chunk_size] for i in range(0, queries.shape[0], chunk_size)]
    if workers <= 1 or len(chunks) <= 1:
        parts = [_classify_chunk(partition, c, kind, cfg) for c in chunks]
    else:
        payloads = [
            (
                partition.features,
                partition.labels,
                partition.sizes,
                partition.offsets,
                c,
                kind.value,
                (cfg.N, cfg.d, cfg.include_log_in_bound),
            )
            for c in chunks
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_eval_chunk_worker, payloads))
    labels = np.concatenate([p[0] for p in parts])
    k1s = np.concatenate([p[1] for p in parts])
    etas = np.concatenate([p[2] for p in parts])
    return labels, k1s, etas
