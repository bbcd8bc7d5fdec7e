"""Evaluation engine: partitions, bulk profile building, classifier dispatch.

A Partition keeps all shards of one split in two flat arrays, shards laid out
contiguously in nonincreasing size order. Because equal-sized shards sit next
to each other, neighbor search vectorizes across whole runs of shards that
share a size and a depth (and across query batches): the Python loop is over
runs, never over shards.

This is the library's only classification path. Distances come from one
kernel that adds squared differences column by column, and neighbors are
ordered by (distance, index within the shard); ``oracle.py`` follows the same
contract with plain loops, so the two agree bit for bit at every dimension.

Batches are classified in blocks of query rows whose distance matrix stays
within ``BLOCK_BYTES``, so the temporaries of ``evaluate_queries`` follow that
budget (or one row, 8 N bytes, if larger), not ``chunk_size`` x N;
``chunk_size`` only sets how the queries are split into pool tasks.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adaptive import StoppingConfig, scan_first_crossing, stopping_threshold
from .baselines import ClassifierKind, depths
from .neighbors import Shard, k_smallest_rows

__all__ = ["Partition", "query_distance_matrix", "query_rows", "evaluate_query", "evaluate_queries"]

# Byte budget of one block's distance matrix in ``_classify_chunk``. Smaller
# blocks stay in cache, but each repeats the loop over size runs, which many
# distinct shard sizes make costly; on census-scale chunks 2 MiB was never
# slower than one unblocked chunk and within a few percent of the best budget.
BLOCK_BYTES = 2 << 20


@dataclass
class Partition:
    """Shards of one dataset stored contiguously, largest shard first."""

    features: np.ndarray  # (N, d) column-major, permuted so shard j occupies offsets[j]:offsets[j+1]
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
        labels = data.labels[perm]
        # Gathered straight into column-major order, so that the distance kernel
        # reads each coordinate contiguously. Coordinate c of point i sits at
        # i * d + c of the row-major features; turning ``perm`` into those flat
        # indices in place keeps the gather free of data-sized temporaries
        # ("clip" only skips numpy's buffered copy of ``out``: all are in range).
        columns = np.empty((data.dim, data.size))
        flat = data.features.ravel()
        perm *= data.dim
        for c in range(data.dim):
            np.take(flat, perm, out=columns[c], mode="clip")
            perm += 1
        return cls(
            features=columns.T,
            labels=labels,
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

    def size_runs(self, shard_depths: np.ndarray | None = None) -> list[tuple[int, int, int]]:
        """(first_shard, last_shard_exclusive, size) for each run of equal-size shards.

        With ``shard_depths`` a run also ends where the depth changes, so each
        run has one size and one depth.
        """
        change = self.sizes[1:] != self.sizes[:-1]
        if shard_depths is not None:
            change |= shard_depths[1:] != shard_depths[:-1]
        starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        stops = np.append(starts[1:], len(self.sizes))
        return list(zip(starts.tolist(), stops.tolist(), self.sizes[starts].tolist()))


def query_distance_matrix(features: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distances from each query (rows) to each point (columns).

    Squared differences are added column by column and then square-rooted, at
    every dimension; the oracle repeats this order, which keeps the two bit
    for bit equal. The sum is built in the output buffer: the first column's
    square is written there (0 + x == x exactly), and each later column is
    subtracted and squared in one reused scratch buffer and then added. Column
    reads are contiguous when ``features`` is column-major, as a Partition's is.
    """
    nq, (n, d) = queries.shape[0], features.shape
    acc = np.empty((nq, n), dtype=np.float64)
    diff = np.empty_like(acc) if d > 1 else None
    for c in range(d):
        buf = acc if c == 0 else diff
        np.subtract(queries[:, c, None], features[:, c], out=buf)
        np.multiply(buf, buf, out=buf)
        if c:
            acc += diff
    return np.sqrt(acc, out=acc)


def build_prefix_tensor(
    partition: Partition, queries: np.ndarray, shard_depths: np.ndarray
) -> np.ndarray:
    """Label prefix sums for every (query, shard) pair, shape (q, m, kpad).

    ``shard_depths[j]`` is how deep shard j's profile must go, in [1, n_j];
    entries past a shard's depth are zero padding. Neighbors are selected
    once per run of shards that share a size and a depth, with all of the
    run's (query, shard) rows in one ``k_smallest_rows`` call.
    """
    sizes = partition.sizes
    shard_depths = np.asarray(shard_depths, dtype=np.int64)
    if shard_depths.shape != sizes.shape:
        raise ValueError(f"need one depth per shard: {shard_depths.shape} depths for {sizes.size} shards")
    bad = np.flatnonzero((shard_depths < 1) | (shard_depths > sizes))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"shard {j}: depth {shard_depths[j]} outside [1, shard size {sizes[j]}]")
    nq = queries.shape[0]
    kpad = int(shard_depths.max())
    offsets, labels = partition.offsets, partition.labels
    dist = query_distance_matrix(partition.features, queries)
    out = np.zeros((nq, len(partition), kpad), dtype=np.int64)
    for first, last, size in partition.size_runs(shard_depths):
        depth = int(shard_depths[first])
        a, b = int(offsets[first]), int(offsets[last])
        idx = k_smallest_rows(dist[:, a:b].reshape(-1, size), depth).reshape(nq, last - first, depth)
        idx += offsets[first:last, None]  # shard-local to partition-wide index
        view = out[:, first:last, :depth]
        view[...] = labels[idx]
        if depth > 1:
            np.cumsum(view, axis=2, out=view)
    return out


def _classify_chunk(
    partition: Partition,
    queries: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, k1 choices (-1 where not applicable) and etas for a query chunk.

    Every classifier is a walk over its depth rows; a fixed-depth classifier
    has one row and never stops early, so its threshold is infinite. The depth
    rows and the threshold are set once per chunk, which is then classified in
    blocks of rows whose distances take at most ``BLOCK_BYTES`` (one row at
    least).
    """
    kj = depths(kind, partition.sizes, cfg)
    adaptive = kind in (ClassifierKind.DANN, ClassifierKind.DANN_NES)
    threshold = stopping_threshold(cfg) if adaptive else math.inf
    nq = queries.shape[0]
    stop = np.empty(nq, dtype=np.int64)
    eta_hat = np.empty(nq, dtype=np.float64)
    rows = max(1, BLOCK_BYTES // (8 * partition.total))
    for i in range(0, nq, rows):
        prefix = build_prefix_tensor(partition, queries[i : i + rows], kj[-1])
        block_stop, eta, _ = scan_first_crossing(prefix, kj, threshold)
        stop[i : i + rows] = block_stop
        eta_hat[i : i + rows] = np.take_along_axis(eta, block_stop[:, None], axis=1)[:, 0]
    k1_hat = stop + 1 if adaptive else np.full(nq, -1, dtype=np.int64)
    labels = (eta_hat >= 0.5).astype(np.int64)
    return labels, k1_hat, eta_hat


def evaluate_query(
    partition: Partition,
    query: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
) -> tuple[int, int, float]:
    """Classify one query point; returns (label, k1_hat or -1 where not applicable, eta)."""
    q = np.asarray(query, dtype=np.float64)
    labels, k1s, etas = _classify_chunk(partition, q[None, :], kind, cfg)
    return int(labels[0]), int(k1s[0]), float(etas[0])


def query_rows(queries: np.ndarray, dim: int) -> np.ndarray:
    """``queries`` as a contiguous float64 (n, ``dim``) array; a row with a
    non-finite coordinate is rejected, naming the first such row (0-based)."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != dim:
        raise ValueError("queries must be (n, d) with the partition's dimension")
    bad = ~np.isfinite(queries).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"query row {row} is not finite: {queries[row].tolist()}")
    return queries


def _eval_chunk_worker(args):
    # Module level and not among bench/tracing.py's wrapped layers, so the pool
    # can pickle it by name even while ``_classify_chunk`` is wrapped.
    return _classify_chunk(*args)


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
    functions of their inputs and are reassembled in input order. At most
    ``workers`` processes start, and no more than there are chunks; one worker
    or one chunk classifies every row here in one call. ``chunk_size`` only
    sets the pool's task split; rows are classified in blocks of
    ``BLOCK_BYTES``. Query rows are checked by ``query_rows``. No query rows
    give three empty arrays.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    queries = query_rows(queries, partition.dim)
    if workers <= 1 or queries.shape[0] <= chunk_size:
        return _classify_chunk(partition, queries, kind, cfg)
    chunks = [queries[i : i + chunk_size] for i in range(0, queries.shape[0], chunk_size)]
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        parts = list(pool.map(_eval_chunk_worker, [(partition, c, kind, cfg) for c in chunks]))
    return tuple(np.concatenate(p) for p in zip(*parts))
