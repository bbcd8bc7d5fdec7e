"""Brute-force reference classifier, written as plain loops.

It takes only the classifier names and the stopping config from the engine
and computes its own search bound and threshold from the config's fields, so
a fault in the engine's formulas cannot pass by being shared. Per shard it
computes every distance one point at a time, takes a full stable sort (ties
keep ascending index within the shard), forms label prefix sums and walks
k1 = 1, 2, ... one step at a time. Each distance adds the squared differences
column by column and then takes the square root, the order of
``engine.query_distance_matrix``, so the engine's (label, k1, eta) must equal
the oracle's bit for bit at every dimension. Tests and ``distknn selftest``
hold the engine to it.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import ClassifierKind, StoppingConfig

__all__ = ["shard_profiles", "walk_steps", "classify"]


def shard_profiles(partition, query) -> list[tuple[list[float], list[int]]]:
    """Per shard, the distances to ``query`` in neighbor order and the label prefix sums."""
    q = [float(v) for v in np.asarray(query).ravel()]
    if len(q) != partition.dim:
        raise ValueError(f"query has {len(q)} coordinates, the partition {partition.dim}")
    out = []
    for j in range(len(partition)):
        a, b = int(partition.offsets[j]), int(partition.offsets[j + 1])
        points = partition.features[a:b].tolist()
        labels = partition.labels[a:b].tolist()
        dist = []
        for point in points:
            total = 0.0
            for qc, xc in zip(q, point):
                diff = qc - xc
                total += diff * diff
            dist.append(math.sqrt(total))
        order = sorted(range(len(points)), key=dist.__getitem__)  # stable sort
        prefix, running = [], 0
        for i in order:
            running += labels[i]
            prefix.append(running)
        out.append(([dist[i] for i in order], prefix))
    return out


def walk_steps(prefix: list[list[int]], sizes: list[int]):
    """Yield (k1, eta, r) for k1 = 1 .. n_1 over per-shard label prefix sums.

    Shard j takes k_j = min(ceil(k1 n_j / n_1), n_j) neighbors, eta is the
    1-label fraction over all sum(k_j) of them and r = sqrt(2 sum k_j) |eta - 1/2|.
    """
    n1 = sizes[0]
    for k1 in range(1, n1 + 1):
        total = count = 0
        for nj, pj in zip(sizes, prefix):
            kj = min(-(-k1 * nj // n1), nj)
            total += kj
            count += pj[kj - 1]
        eta = count / total
        yield k1, eta, math.sqrt(2.0 * total) * abs(eta - 0.5)


def classify(partition, query, kind: ClassifierKind, cfg: StoppingConfig) -> tuple[int, int, float]:
    """(label, k1_hat or -1 for the fixed-depth classifiers, eta_hat) for one query."""
    prefix = [p for _, p in shard_profiles(partition, query)]
    sizes = [int(n) for n in partition.sizes]
    scale = cfg.N ** (-cfg.d / (2 + cfg.d))
    if kind in (ClassifierKind.DANN, ClassifierKind.DANN_NES):
        bound = sizes[0] * scale * (math.log(cfg.N) if cfg.include_log_in_bound else 1.0)
        last = sizes[0] if kind is ClassifierKind.DANN_NES else max(1, math.ceil(bound))
        threshold = math.sqrt((cfg.d + 2) * math.log(cfg.N))
        # the steps end at n_1, which also cuts a bound above n_1
        for k1, eta, r in walk_steps(prefix, sizes):
            if r > threshold or k1 == last:
                break
        return int(eta >= 0.5), k1, eta
    if kind is ClassifierKind.DNN_QIAO:
        ks = [min(max(math.ceil(nj * scale), 1), nj) for nj in sizes]
    elif kind is ClassifierKind.D1NN:
        ks = [1] * len(sizes)
    else:
        raise ValueError(f"unhandled classifier kind {kind!r}")
    eta = sum(pj[k - 1] for pj, k in zip(prefix, ks)) / sum(ks)
    return int(eta >= 0.5), -1, eta
