"""Hand-built partitions for tests that need to know the neighbor order exactly,
the engine's profile rows of query points, and the profile row built from
per-shard prefix sums."""

import numpy as np

from distknn.engine import Partition, build_prefix_tensor, query_distance_matrix


def line_partition(label_rows, d=3):
    """Partition whose shard j holds one point per entry of ``label_rows[j]``.

    Point i of every shard lies on the first axis at distance i + 1 from the
    origin, so a query at the origin meets each shard's labels in the order
    given. Rows must come in nonincreasing length.
    """
    sizes = np.array([len(row) for row in label_rows], dtype=np.int64)
    feats = np.zeros((int(sizes.sum()), d))
    feats[:, 0] = np.concatenate([np.arange(1, n + 1) for n in sizes])
    labels = np.concatenate([np.asarray(row, dtype=np.int64) for row in label_rows])
    return Partition(features=feats, labels=labels, sizes=sizes)


def back_to_back(profiles, depths):
    """Each shard's prefix sums cut to its depth and laid end to end: the
    row ``build_prefix_tensor`` writes for one query."""
    return np.concatenate([np.asarray(p[:k], dtype=np.int64) for p, k in zip(profiles, depths)])


def profile_rows(partition, queries, shard_depths):
    """``build_prefix_tensor``'s rows for query points, from their distances."""
    return build_prefix_tensor(partition, query_distance_matrix(partition.features, queries), shard_depths)
