"""Data shards and exact k-smallest selection.

Neighbors are ordered by (distance, point index within the shard): ties in
distance are broken by ascending index, so every search result is
deterministic and bit-for-bit reproducible. The distance kernel itself is
``engine.query_distance_matrix``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Shard", "k_smallest_rows"]

# Full sorts of rows at least this wide take the unstable (SIMD) argsort and a
# tie check; below it the stable argsort is as fast or faster.
SORT_WIDTH = 32

# Picks of 2 to ROUNDS_K entries per row, short of the whole row, take one
# round of argmin each; beyond it argpartition's per-row cost is the smaller.
# Up to 12 the rounds won on blocks with rows 53 to 26049 entries wide; a
# single 20000-entry row crossed over at k = 13 to 14.
ROUNDS_K = 12


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
        # views, frozen below, so the caller's own arrays stay writeable
        feats = np.ascontiguousarray(features, dtype=np.float64).view()
        labs = np.asarray(labels)  # checked before the cast, which would round 0.5 to 0
        if shard_id < 1:
            raise ValueError("shard id must be >= 1")
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a nonempty (n, d) array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be a vector matching the point count")
        if not np.isfinite(feats).all():
            row = int(np.argmin(np.isfinite(feats).all(axis=1)))
            raise ValueError(f"features must be finite: row {row} is {feats[row].tolist()}")
        bad = (labs != 0) & (labs != 1)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"labels must be 0 or 1: row {row} is {labs[row].item()!r}")
        labs = np.ascontiguousarray(labs, dtype=np.int64).view()
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

    ``dist`` has shape (rows, n) with 1 <= k <= n; the result, shape
    (rows, min(k, n)), equals ``np.argsort(dist, axis=1, kind="stable")[:, :k]``.
    ``dist`` is left as it was. The work follows k and the row width n, not
    the number of rows, through one of five paths:

    - k == 1: ``argmin``, whose first minimum is the lowest index among ties.
    - k >= n on rows narrower than ``SORT_WIDTH``: the stable argsort.
    - k >= n on wider rows: ``_sorted_rows``, an unstable argsort that then
      orders the indices inside each run of equal values.
    - k <= ``ROUNDS_K``: ``_argmin_rounds``, one ``argmin`` per pick.
    - otherwise: ``argpartition`` picks k entries per row, whose largest is
      the row's k-th smallest value t. Only a row where t also occurs outside
      the pick is ambiguous; such rows are redone by taking every entry below
      t and then the lowest-index entries equal to t. The k picked entries of
      every row are then ordered by (value, index).
    """
    rows, n = dist.shape
    if k == 1:
        return dist.argmin(axis=1, keepdims=True)
    if k >= n:
        return dist.argsort(axis=1, kind="stable") if n < SORT_WIDTH else _sorted_rows(dist)
    if k <= ROUNDS_K:
        return _argmin_rounds(dist, k)
    row = np.arange(rows)[:, None]
    idx = dist.argpartition(k - 1, axis=1)[:, :k]
    vals = dist[row, idx]
    thresh = vals[:, -1:]  # argpartition leaves the k-th smallest value last
    # every entry outside the pick is >= thresh, so the pick is the (value,
    # index) top k unless one of them equals thresh: more than k are <= thresh
    ambiguous = np.flatnonzero((dist <= thresh).sum(axis=1) > k)
    if ambiguous.size:
        sub, t = dist[ambiguous], thresh[ambiguous]
        strict = sub < t
        ties = sub == t
        need = k - strict.sum(axis=1, keepdims=True)
        chosen = strict | (ties & (np.cumsum(ties, axis=1) <= need))
        fixed = np.nonzero(chosen)[1].reshape(ambiguous.size, k)
        idx[ambiguous] = fixed
        vals[ambiguous] = np.take_along_axis(sub, fixed, axis=1)
    return idx[row, np.lexsort((idx, vals))]


def _argmin_rounds(dist: np.ndarray, k: int) -> np.ndarray:
    """The k smallest per row, by k rounds of ``argmin`` on a working copy.

    Each round masks its pick with ``inf``. ``argmin`` returns the lowest
    index among equal minima, so while a round's minimum is finite its pick
    is the next entry in (value, index) order, with no sort. Once a row's
    minimum is ``inf``, a round may pick an entry masked earlier: only the
    rows whose last round found ``inf`` are redone, with the stable argsort.
    """
    rows, n = dist.shape
    work = dist.copy()
    flat = work.reshape(-1)
    start = np.arange(0, rows * n, n)  # flat index of each row's column 0
    idx = np.empty((rows, k), dtype=np.intp)
    for j in range(k):
        pick = work.argmin(axis=1)
        idx[:, j] = pick
        pick += start
        if j < k - 1:
            flat[pick] = np.inf
    redo = np.flatnonzero(flat[pick] == np.inf)
    if redo.size:
        idx[redo] = dist[redo].argsort(axis=1, kind="stable")[:, :k]
    return idx


def _sorted_rows(dist: np.ndarray) -> np.ndarray:
    """``np.argsort(dist, axis=1, kind="stable")``, through the unstable argsort.

    Sorted by value alone, the rows are in (value, index) order except inside
    runs of equal values (``inf == inf`` counts). Only the indices in those
    runs are put in ascending order, so a row with one pair of equal values
    costs two more entries to sort, not a second sort of the row.
    """
    rows, n = dist.shape
    order = dist.argsort(axis=1)
    vals = np.take_along_axis(dist, order, axis=1)
    tie = np.zeros((rows, n), dtype=bool)  # tie[:, i]: position i equals i - 1
    np.equal(vals[:, 1:], vals[:, :-1], out=tie[:, 1:])
    in_run = tie.copy()
    in_run[:, :-1] |= tie[:, 1:]
    at = np.flatnonzero(in_run)  # entries of runs, flat over (rows, n)
    if at.size:
        # a run opens at each entry unequal to the one before it, and column 0
        # opens one in every row. Sorting the keys run * n + index orders the
        # indices inside each run and leaves every run where it is; the keys
        # stay below (rows * n) * n / 2 + n, within int64 for any block of
        # fewer than 4e9 entries
        base = np.cumsum(~tie.reshape(-1)[at]) * n
        flat = order.reshape(-1)
        key = base + flat[at]
        key.sort()
        flat[at] = key - base
    return order
