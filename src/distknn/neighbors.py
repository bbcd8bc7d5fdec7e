"""Data shards and exact k-smallest selection.

Neighbors are ordered by (distance, point index within the shard): ties in
distance are broken by ascending index, so every search result is
deterministic and bit-for-bit reproducible. The distance kernel itself is
``engine.query_distance_matrix``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Shard", "k_smallest_rows"]


class Shard:
    """One machine's sub-sample: an ordered, immutable set of labeled points.

    Parameters
    ----------
    shard_id : int
        Identifier, >= 1.
    features : ndarray of shape (n, d)
        Point coordinates, finite doubles.
    labels : ndarray of shape (n,)
        Binary labels in {0, 1}.
    """

    __slots__ = ("id", "features", "labels")

    def __init__(self, shard_id: int, features: np.ndarray, labels: np.ndarray):
        feats = np.ascontiguousarray(features, dtype=np.float64)
        labs = np.ascontiguousarray(labels, dtype=np.int64)
        if shard_id < 1:
            raise ValueError("shard id must be >= 1")
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a nonempty (n, d) array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be a vector matching the point count")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if not np.isin(labs, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        feats.setflags(write=False)
        labs.setflags(write=False)
        self.id = int(shard_id)
        self.features = feats
        self.labels = labs

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Shard(id={self.id}, size={self.size}, dim={self.dim})"


def k_smallest_rows(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries per row, ordered by (value, index).

    ``dist`` has shape (rows, n) with k <= n. Uses partial selection
    (argpartition) with an explicit fix-up so that ties at the selection
    boundary are resolved by ascending column index, exactly matching a full
    stable sort.
    """
    rows, n = dist.shape
    if k >= n:
        return np.argsort(dist, axis=1, kind="stable")
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    thresh = np.take_along_axis(dist, part, axis=1).max(axis=1, keepdims=True)
    strict = dist < thresh
    need = k - strict.sum(axis=1, keepdims=True)
    ties = dist == thresh
    tie_rank = np.cumsum(ties, axis=1)
    chosen = strict | (ties & (tie_rank <= need))
    idx = np.nonzero(chosen)[1].reshape(rows, k)
    vals = np.take_along_axis(dist, idx, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)
