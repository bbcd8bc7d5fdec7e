"""Brute-force reference classifier, independent of the evaluation engine.

Per shard it computes every distance with plain loops, takes a full stable
sort (ties by ascending index within the shard), forms label prefix sums and
walks k1 = 1, 2, ... one step at a time. It imports nothing from distknn; it
reads the partition's arrays only. The arithmetic follows the library's
exactness contract (squared differences added column by column, then a
square root), so its (label, k1, eta) can be compared with the engine's bit
for bit. Every workload uses the bound with its log N factor.
"""

from __future__ import annotations

import math


def _shard_prefix_sums(features: list, labels: list, query: list, start: int, stop: int) -> list[int]:
    dist = []
    for i in range(start, stop):
        total = 0.0
        for q, x in zip(query, features[i]):
            diff = q - x
            total += diff * diff
        dist.append(math.sqrt(total))
    order = sorted(range(start, stop), key=lambda i: dist[i - start])  # stable: ties keep index order
    prefix, running = [], 0
    for i in order:
        running += labels[i]
        prefix.append(running)
    return prefix


def classify(partition, query, kind: str, N: int, d: int) -> tuple[int, int, float]:
    """(label, k1_hat or -1 for fixed-depth classifiers, eta_hat) for one query."""
    features = partition.features.tolist()
    labels = partition.labels.tolist()
    offsets = [int(o) for o in partition.offsets]
    sizes = [int(s) for s in partition.sizes]
    q = [float(v) for v in query]
    m = len(sizes)
    prefix = [_shard_prefix_sums(features, labels, q, offsets[j], offsets[j + 1]) for j in range(m)]
    n1 = sizes[0]
    scale = N ** (-d / (2 + d))

    if kind in ("dann", "dann_nes"):
        cap = n1 if kind == "dann_nes" else min(max(1, math.ceil(n1 * scale * math.log(N))), n1)
        threshold = math.sqrt((d + 2) * math.log(N))
        for k1 in range(1, cap + 1):
            total = count = 0
            for j in range(m):
                kj = min(-(-k1 * sizes[j] // n1), sizes[j])
                total += kj
                count += prefix[j][kj - 1]
            eta = count / total
            if math.sqrt(2.0 * total) * abs(eta - 0.5) > threshold:
                break
        return int(eta >= 0.5), k1, eta

    if kind == "dnn_qiao":
        depths = [min(max(math.ceil(n * scale), 1), n) for n in sizes]
    elif kind == "d1nn":
        depths = [1] * m
    else:
        raise ValueError(f"unknown classifier {kind!r}")
    eta = sum(prefix[j][depths[j] - 1] for j in range(m)) / sum(depths)
    return int(eta >= 0.5), -1, eta
